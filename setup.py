"""Build script for the optional compiled search kernel.

The extension is built from the committed C source, so no Cython is needed.
The package works without it: rainbowpan.kernels falls back to the
pure-Python twin when the compiled module is absent, and a failed compile
is not an error.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("rainbowpan._kernel", ["src/rainbowpan/_kernel.c"], optional=True)
    ]
)
