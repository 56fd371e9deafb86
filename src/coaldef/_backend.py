"""The arithmetic kernel behind :mod:`coaldef.exactlinalg`.

There is one kernel, :mod:`coaldef._kernels_py`: integer linear
combination, matrix product, sparse operator product and Kronecker
product for both fields, and series packing.  ``Matrix``, the
tensor-factor product ``coalgebra.factor_ints``, series packing, the
deformation equations and the sparse operators fetch it through
:func:`kernel` on every operation, so this module is the one point
where a tracer can substitute a wrapping proxy for ``_active``."""

from . import _kernels_py as _active


def kernel():
    return _active
