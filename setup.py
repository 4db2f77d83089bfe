"""Build the optional compiled kernel.

The package is fully functional without it (brauer._kernels falls back to
the pure-Python twin at import time), so a missing C compiler only costs
speed, not features: optional=True turns a failed compile into a warning.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "brauer._kernels._speedups",
            ["src/brauer/_kernels/_speedups.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
