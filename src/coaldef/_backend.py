"""The arithmetic kernel that :class:`coaldef.exactlinalg.Matrix` calls.

There is one kernel, :mod:`coaldef._kernels_py`.  ``Matrix`` fetches it
through :func:`kernel` on every operation, so this module is the one
point where a tracer can substitute a wrapping proxy for ``_active``.
"""

from . import _kernels_py as _active


def kernel():
    return _active
