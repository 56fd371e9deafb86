"""Finite-dimensional coalgebras, morphisms, and bicomodules.

A coalgebra is a vector space A with a comultiplication A -> A (x) A,
stored as a (dim^2 x dim) structure-constant matrix.  Tensor powers use
one fixed flattening throughout the package: the basis vector
e_{i1} (x) ... (x) e_{in} of A^(x)n has flat index sum(i_k * d^(n-k)),
i.e. row-major with the leftmost factor most significant.  Kronecker
products of matrices agree with this convention, and a map acting on one
tensor factor is one product of a reshaped operand (:func:`factor_ints`),
with no Kronecker matrix formed.

Validity (coassociativity, morphism compatibility, the bicomodule
diagrams) is checked by explicit report-returning functions rather than
in constructors, so callers can locate the first failing entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from . import _backend
from .exactlinalg import QQ, DimensionError, ExactLinalgError, Matrix


class InvalidStructureError(ExactLinalgError):
    """An operation required a valid structure and was given a broken one."""


# ---------------------------------------------------------------------------
# tensor index convention


def pack_index(indices, dim):
    """Flat index of a tensor basis vector (leftmost factor most significant)."""
    flat = 0
    for i in indices:
        if not 0 <= i < dim:
            raise IndexError(f"basis index {i} out of range for dimension {dim}")
        flat = flat * dim + i
    return flat


def unpack_index(flat, dim, n):
    """Inverse of :func:`pack_index` for a degree-n tensor power."""
    out = [0] * n
    for k in range(n - 1, -1, -1):
        flat, out[k] = divmod(flat, dim)
    return tuple(out)


# ---------------------------------------------------------------------------
# maps acting on one tensor factor


@lru_cache(maxsize=64)
def _swap_reader(n1, n2, n3):
    """The function taking the row-major entries of an n1 x n2 x n3
    array to the list of them reordered as n2 x n1 x n3, kept per shape."""
    index = [(i1 * n2 + i2) * n3 + i3
             for i2 in range(n2) for i1 in range(n1) for i3 in range(n3)]
    if len(index) < 2:
        # itemgetter of one position returns the entry, not a tuple
        return lambda x: [x[t] for t in index]
    read = itemgetter(*index)
    return lambda x: list(read(x))


def factor_read(x, o, dim, cols):
    """The ints of a map N -> O (x) X (dim X = ``dim``, dim N = ``cols``)
    with its two leading factors swapped: the operand of a right factor
    product."""
    return _swap_reader(o, dim, cols)(x)


def factor_ints(m, x, rows, inner, o, cols, right=False):
    """Row-major ints of (m (x) Id_O) o x, with ``right`` of
    (Id_O (x) m) o x, for the ints of m (rows x inner) and of x (read by
    :func:`factor_read` for the right factor); the denominator is the
    product of theirs.

    With row-major flattening, (m (x) Id_O) o x is m @ x with x read as
    an inner x (o cols) matrix, which is the same list, so no Kronecker
    product is formed (the Kronecker-vec identity); on the right factor
    the two leading tensor factors of x and of the result are swapped.
    """
    out = _backend.kernel().matmul(m, x, rows, inner, o * cols)
    return _swap_reader(rows, o, cols)(out) if right else out


def _on_factor(m: Matrix, x: Matrix, o, right=False) -> Matrix:
    """(m (x) Id_O) o x, or (Id_O (x) m) o x with ``right``, by
    :func:`factor_ints`, for m: X -> X' and x: N -> X (x) O (O (x) X
    with ``right``), dim O = ``o``."""
    if m.field != x.field or x.rows != m.cols * o:
        raise DimensionError(f"cannot apply {m!r} to a factor of {x!r}")
    m_ints, m_den = m.as_integer_ratio()
    x_ints, x_den = x.as_integer_ratio()
    if right:
        x_ints = factor_read(x_ints, o, m.cols, x.cols)
    return Matrix.from_integer_ratio(
        m.field, m.rows * o, x.cols,
        factor_ints(m_ints, x_ints, m.rows, m.cols, o, x.cols, right),
        m_den * x_den)


# ---------------------------------------------------------------------------
# structures


class Coalgebra:
    """A finite-dimensional coalgebra given by its comultiplication matrix.

    ``delta`` has shape (dim^2, dim): column j holds the coordinates of
    the comultiplication of e_j in the flattened e_a (x) e_b basis.
    No counit is stored or required.
    """

    __slots__ = ("name", "dim", "delta")

    def __init__(self, name, dim, delta: Matrix):
        if delta.shape != (dim * dim, dim):
            raise DimensionError(
                f"comultiplication matrix must be {dim * dim}x{dim}, "
                f"got {delta.shape}")
        self.name = name
        self.dim = dim
        self.delta = delta

    @property
    def field(self):
        return self.delta.field

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Coalgebra):
            return NotImplemented
        return (self.name == other.name and self.dim == other.dim
                and self.delta == other.delta)

    def __repr__(self):
        return f"Coalgebra({self.name!r}, dim={self.dim})"


class CoalgebraMorphism:
    """A linear map between coalgebras; matrix shape (dim target, dim source).

    ``_complex`` holds the deformation complex of the map once
    :func:`coaldef.cohomology.morphism_complex` has built it; nothing
    else writes it.
    """

    __slots__ = ("source", "target", "matrix", "_complex")

    def __init__(self, source: Coalgebra, target: Coalgebra, matrix: Matrix):
        if matrix.shape != (target.dim, source.dim):
            raise DimensionError(
                f"morphism matrix must be {target.dim}x{source.dim}, "
                f"got {matrix.shape}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._complex = None

    @property
    def field(self):
        return self.matrix.field

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, CoalgebraMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"CoalgebraMorphism({self.source.name!r} -> {self.target.name!r})"


class Bicomodule:
    """A space M with left and right coactions over a fixed coalgebra.

    ``psi_l`` maps M into C (x) M (shape (dim C * dim M, dim M)) and
    ``psi_r`` maps M into M (x) C.
    """

    __slots__ = ("over", "dim", "psi_l", "psi_r")

    def __init__(self, over: Coalgebra, dim, psi_l: Matrix, psi_r: Matrix):
        d = over.dim
        if psi_l.shape != (d * dim, dim):
            raise DimensionError(f"left coaction must be {d * dim}x{dim}")
        if psi_r.shape != (dim * d, dim):
            raise DimensionError(f"right coaction must be {dim * d}x{dim}")
        self.over = over
        self.dim = dim
        self.psi_l = psi_l
        self.psi_r = psi_r

    @property
    def field(self):
        return self.over.field

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Bicomodule):
            return NotImplemented
        return (self.over == other.over and self.dim == other.dim
                and self.psi_l == other.psi_l and self.psi_r == other.psi_r)

    def __repr__(self):
        return f"Bicomodule(dim={self.dim} over {self.over.name!r})"


# ---------------------------------------------------------------------------
# validity checks


@dataclass(frozen=True)
class StructureReport:
    """Outcome of a validity check; position locates the first failure."""

    ok: bool
    message: str = "ok"
    position: tuple | None = None

    def __bool__(self):
        return self.ok


def _difference_report(diff: Matrix, what: str) -> StructureReport:
    pos = diff.first_nonzero()
    if pos is None:
        return StructureReport(True)
    value = diff[pos]
    return StructureReport(
        False,
        f"{what}: first failing entry at {pos} with value {value}",
        pos,
    )


def check_coassociative(coalg: Coalgebra) -> StructureReport:
    """Whether (Id (x) delta) o delta equals (delta (x) Id) o delta exactly."""
    delta, d = coalg.delta, coalg.dim
    return _difference_report(
        _on_factor(delta, delta, d, right=True) - _on_factor(delta, delta, d),
        f"coassociativity of {coalg.name!r}")


def check_morphism(f: CoalgebraMorphism) -> StructureReport:
    """Whether delta_target o f equals (f (x) f) o delta_source exactly."""
    lhs = f.target.delta @ f.matrix
    # (f (x) f) = (f (x) Id) o (Id (x) f)
    rhs = _on_factor(f.matrix, _on_factor(f.matrix, f.source.delta,
                                          f.source.dim, right=True),
                     f.target.dim)
    return _difference_report(lhs - rhs, "morphism compatibility")


def check_bicomodule(m: Bicomodule) -> StructureReport:
    """The two coaction coassociativity diagrams plus their compatibility."""
    c, psi_l, psi_r = m.over, m.psi_l, m.psi_r
    left = (_on_factor(psi_l, psi_l, c.dim, right=True)
            - _on_factor(c.delta, psi_l, m.dim))
    rep = _difference_report(left, "left coaction coassociativity")
    if not rep.ok:
        return rep
    right = (_on_factor(psi_r, psi_r, c.dim)
             - _on_factor(c.delta, psi_r, m.dim, right=True))
    rep = _difference_report(right, "right coaction coassociativity")
    if not rep.ok:
        return rep
    compat = (_on_factor(psi_r, psi_l, c.dim, right=True)
              - _on_factor(psi_l, psi_r, c.dim))
    return _difference_report(compat, "left/right coaction compatibility")


# ---------------------------------------------------------------------------
# bicomodule constructions


def regular_bicomodule(coalg: Coalgebra) -> Bicomodule:
    """The coalgebra over itself, both coactions given by comultiplication."""
    return Bicomodule(coalg, coalg.dim, coalg.delta, coalg.delta)


def bicomodule_via(f: CoalgebraMorphism) -> Bicomodule:
    """The source space as a bicomodule over the target, pushed along f.

    Coactions are (f (x) Id) o delta_source and (Id (x) f) o delta_source.
    Raises InvalidStructureError unless f is a coalgebra morphism.
    """
    require_morphism(check_morphism(f))
    return _pushed_forward(f)


def require_morphism(rep: StructureReport):
    """Raise InvalidStructureError, locating the first failing entry,
    unless ``rep``, a report of :func:`check_morphism`, passed."""
    if not rep.ok:
        raise InvalidStructureError(f"not a coalgebra morphism ({rep.message})")


def _pushed_forward(f: CoalgebraMorphism) -> Bicomodule:
    """The coactions of :func:`bicomodule_via`, without the morphism check."""
    a = f.source
    psi_l = _on_factor(f.matrix, a.delta, a.dim)
    psi_r = _on_factor(f.matrix, a.delta, a.dim, right=True)
    return Bicomodule(f.target, a.dim, psi_l, psi_r)


# ---------------------------------------------------------------------------
# tensor map builders


def middle_insertion(coalg: Coalgebra, n, i) -> Matrix:
    """Matrix of Id^(x)(i-1) (x) delta (x) Id^(x)(n-i) on A^(x)n.

    Shape (d^(n+1), d^n) in the package's tensor flattening.
    """
    if not 1 <= i <= n:
        raise IndexError(f"insertion slot {i} out of range 1..{n}")
    d = coalg.dim
    left = Matrix.identity(coalg.field, d ** (i - 1))
    right = Matrix.identity(coalg.field, d ** (n - i))
    return left.kron(coalg.delta).kron(right)


def tensor_power_map(f: Matrix, n) -> Matrix:
    """Kronecker power f^(x)n; n = 0 gives the 1x1 identity."""
    result = Matrix.identity(f.field, 1)
    for _ in range(n):
        result = result.kron(f)
    return result


# ---------------------------------------------------------------------------
# change of basis


def change_basis(coalg: Coalgebra, p: Matrix, name=None) -> Coalgebra:
    """Transport the coalgebra structure along an invertible map p.

    The new comultiplication is (p (x) p) o delta o p^{-1}; cohomology
    dimensions are invariant under this.
    """
    return _transported(coalg, p, p.inverse(), name)


def _transported(coalg: Coalgebra, p: Matrix, p_inv, name=None):
    if p_inv is None:
        raise InvalidStructureError("change-of-basis matrix is singular")
    d = coalg.dim
    delta = _on_factor(p, _on_factor(p, coalg.delta @ p_inv, d, right=True),
                       d)
    return Coalgebra(name or f"{coalg.name}'", coalg.dim, delta)


def change_basis_morphism(f: CoalgebraMorphism, p: Matrix,
                          q: Matrix) -> CoalgebraMorphism:
    """Transport f along basis changes p (source) and q (target)."""
    p_inv = p.inverse()
    src = _transported(f.source, p, p_inv)  # raises when p is singular
    tgt = change_basis(f.target, q)
    return CoalgebraMorphism(src, tgt, q @ f.matrix @ p_inv)


# ---------------------------------------------------------------------------
# fixtures


def grouplike(n, field=QQ) -> Coalgebra:
    """n grouplike elements: each basis vector e satisfies delta(e) = e (x) e."""
    delta = Matrix.from_sparse(field, n * n, n,
                               {(i * n + i, i): 1 for i in range(n)})
    return Coalgebra(f"grouplike{n}", n, delta)


def divided_power(n, field=QQ) -> Coalgebra:
    """Basis e_0..e_{n-1} with delta(e_k) the sum of e_i (x) e_j over i+j=k."""
    delta = Matrix.from_sparse(field, n * n, n, {
        (i * n + (k - i), k): 1 for k in range(n) for i in range(k + 1)})
    return Coalgebra(f"divided_power{n}", n, delta)


def zero_comultiplication(n, field=QQ) -> Coalgebra:
    """The n-dimensional coalgebra whose comultiplication is zero."""
    return Coalgebra(f"zero{n}", n, Matrix.zeros(field, n * n, n))


def direct_sum(a: Coalgebra, b: Coalgebra, name=None) -> Coalgebra:
    """Blockwise direct sum of two coalgebras over the same field."""
    if a.field != b.field:
        raise DimensionError("field mismatch")
    n = a.dim + b.dim
    rows = [[0] * n for _ in range(n * n)]
    for j in range(a.dim):
        for r in range(a.dim * a.dim):
            x = a.delta[r, j]
            if x:
                p, q = divmod(r, a.dim)
                rows[(p * n + q)][j] = x
    for j in range(b.dim):
        for r in range(b.dim * b.dim):
            x = b.delta[r, j]
            if x:
                p, q = divmod(r, b.dim)
                rows[(p + a.dim) * n + (q + a.dim)][j + a.dim] = x
    return Coalgebra(name or f"sum({a.name},{b.name})", n,
                     Matrix.from_rows(a.field, rows))


def identity_morphism(a: Coalgebra) -> CoalgebraMorphism:
    return CoalgebraMorphism(a, a, Matrix.identity(a.field, a.dim))


def zero_morphism(a: Coalgebra, b: Coalgebra) -> CoalgebraMorphism:
    return CoalgebraMorphism(a, b, Matrix.zeros(a.field, b.dim, a.dim))


def collapse_morphism(n, field=QQ) -> CoalgebraMorphism:
    """grouplike(n) -> grouplike(1), every basis element to the grouplike."""
    src = grouplike(n, field)
    tgt = grouplike(1, field)
    return CoalgebraMorphism(src, tgt, Matrix.from_rows(field, [[1] * n]))


def inclusion_morphism(a: Coalgebra, b: Coalgebra) -> CoalgebraMorphism:
    """The inclusion of ``a`` as the first summand of direct_sum(a, b)."""
    s = direct_sum(a, b)
    m = Matrix.from_sparse(a.field, s.dim, a.dim,
                           {(i, i): 1 for i in range(a.dim)})
    return CoalgebraMorphism(a, s, m)
