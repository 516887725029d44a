"""The kernels' input format, for tests that call a kernel directly."""
from array import array


def pack(words) -> bytes:
    """Rows as the one input both kernels read: native-endian 64-bit words
    in one bytes object, as `core._Snapshot.kernel_adj` builds them."""
    return array("Q", words).tobytes()
