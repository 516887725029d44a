"""Build the compiled search kernel from the committed C source and load it.

Cython is not needed: `src/rainbowpan/_kernel.c` is the generated C file,
and the system C compiler turns it into an extension module using the flags
this interpreter was built with (the same ones setuptools would use). The
result lives in the benchmark's own ignored build directory, keyed by the
sha256 of the C file and the interpreter's extension suffix, so a changed
kernel is rebuilt and an unchanged one is reused.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

MODULE = "rainbowpan._kernel"


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cc() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def compiler_version() -> str:
    out = subprocess.run(
        _cc() + ["--version"], capture_output=True, text=True, check=True
    ).stdout
    return out.splitlines()[0].strip() if out else "unknown"


def provenance(root: Path) -> dict:
    """What the compiled kernel was built from, for the run record."""
    pkg = root / "src" / "rainbowpan"
    return {
        "kernel_c_sha256": sha256_of(pkg / "_kernel.c"),
        "kernel_pyx_sha256": sha256_of(pkg / "_kernel.pyx"),
        "compiler": compiler_version(),
        "python": platform.python_version(),
    }


def build(root: Path, build_root: Path) -> Path:
    """Compile `_kernel.c` unless a build for its hash exists; return the .so."""
    source = root / "src" / "rainbowpan" / "_kernel.c"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    out_dir = build_root / f"kernel-{sha256_of(source)[:16]}"
    target = out_dir / f"_kernel{suffix}"
    if target.exists():
        return target
    out_dir.mkdir(parents=True, exist_ok=True)
    obj = out_dir / f"_kernel.{os.getpid()}.o"
    tmp = out_dir / f"_kernel.{os.getpid()}{suffix}"
    cflags = shlex.split(sysconfig.get_config_var("CFLAGS") or "-O2")
    cflags += shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC")
    include = sysconfig.get_paths()["include"]
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    env = dict(os.environ, TMPDIR=str(out_dir))  # keep the compiler's scratch files here
    try:
        subprocess.run(
            _cc() + cflags + ["-I", include, "-c", str(source), "-o", str(obj)],
            check=True,
            capture_output=True,
            env=env,
        )
        subprocess.run(ldshared + [str(obj), "-o", str(tmp)], check=True, capture_output=True, env=env)
        os.replace(tmp, target)
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(
            f"building the compiled kernel failed: {exc.stderr.decode(errors='replace')}"
        ) from exc
    finally:
        obj.unlink(missing_ok=True)
        tmp.unlink(missing_ok=True)
    return target


def register(so_path: Path):
    """Load the built module as `rainbowpan._kernel` before the package is
    imported, so `rainbowpan.kernels` selects it as if it were installed."""
    if "rainbowpan" in sys.modules:
        raise RuntimeError("register the compiled kernel before importing rainbowpan")
    spec = importlib.util.spec_from_file_location(MODULE, so_path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[MODULE] = module
    spec.loader.exec_module(module)
    return module
