from setuptools import Extension, setup

# The compiled kernel is an optimization, not a requirement.  Without
# Cython, setuptools compiles the committed _kernels.c instead of the
# .pyx; if compiling fails, the package uses coaldef._kernels_py.
setup(ext_modules=[
    Extension("coaldef._kernels", ["src/coaldef/_kernels.pyx"], optional=True),
])
