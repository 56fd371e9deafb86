"""The arithmetic kernel backend.

The compiled Cython extension ``coaldef._kernels`` and the pure-Python
module ``coaldef._kernels_py`` implement the same contract and produce
bit-identical results.  The compiled one is used whenever it is built,
the pure one otherwise.
"""

try:
    from . import _kernels as _active
    _active_name = "compiled"
except ImportError:
    from . import _kernels_py as _active
    _active_name = "pure"


def kernel():
    return _active


def backend_name():
    return _active_name
