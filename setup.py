from setuptools import Extension, setup

# The compiled Smith kernel is an accelerator only: the package falls back to
# the pure-Python kernel when the extension cannot be built.  _snfcore.c is the
# tracked Cython output of _snfcore.pyx, so building needs only a C compiler.
setup(
    ext_modules=[
        Extension(
            "chromhom._snfcore",
            ["src/chromhom/_snfcore.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
