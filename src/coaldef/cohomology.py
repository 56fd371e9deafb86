"""Cochain complexes and their cohomology.

Two complexes are implemented:

* the Hochschild coalgebra complex of a bicomodule M over a coalgebra C,
  with n-cochains the linear maps M -> C^(x)n (the degree-0 module is
  zero by convention) and the usual three-part coboundary delta_c;
* the deformation complex of a coalgebra morphism f: A -> B, whose
  degree-n part is a triple (a_part, b_part, ab_part) of cochains on A,
  on B, and a degree-(n-1) mixed cochain A -> B^(x)(n-1), with
  coboundary d_c combining the two delta_c's with the comparison term
  b_part o f - f^(x)n o a_part: a mapping cone, whose D_n is block lower
  triangular, so D_n and its kernel are built from those of its three
  Hochschild blocks; equal blocks (all three for an identity) share one
  record, so each is assembled and eliminated once.

Both complexes expose the same surface, as methods and nowhere else:
differentials in operator and in matrix form, cocycle/coboundary
predicates with canonical cobounding solutions, cohomology reports with
quotient representatives, and the class of a cocycle.  H^n is read in
the coordinates of the canonical kernel basis of D_n, its free columns:
the columns of D_(n-1) at the pivots of its kernel echelon are a basis
of the coboundaries, eliminated there once, and a class is tested for a
cocycle against the rows of D_n's kernel echelon.  No dense matrix of a
differential is formed.  The module-level functions are
:func:`morphism_complex` and the coboundaries of a cochain,
:func:`delta_c` and :func:`d_c`.

What a complex derives from its structure constants alone is one
record per complex, which holds no name; :func:`morphism_complex`
shares it between morphisms of equal value.  Cochains flatten to
coordinate vectors row-major; morphism cochains concatenate their
(a, b, ab) blocks in that order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from . import _backend, sparse
from .coalgebra import (
    Bicomodule,
    CoalgebraMorphism,
    InvalidStructureError,
    StructureReport,
    _pushed_forward,
    check_morphism,
    regular_bicomodule,
    require_morphism,
)
from .exactlinalg import DimensionError, Matrix, stacked_ints


class Cochain:
    """A degree-n cochain on a bicomodule: a matrix M -> C^(x)n.

    Shape is (d^n, dim M) with d the coalgebra dimension; degree 0 is
    the zero module, represented by an identically zero (1, dim M)
    matrix with an empty coordinate vector.
    """

    __slots__ = ("bicomodule", "degree", "matrix")

    def __init__(self, bicomodule: Bicomodule, degree, matrix: Matrix):
        d = bicomodule.over.dim
        if matrix.field != bicomodule.field:
            raise DimensionError(f"a cochain over {bicomodule.field!r} "
                                 f"cannot have a matrix over {matrix.field!r}")
        if matrix.shape != (d ** degree, bicomodule.dim):
            raise DimensionError(
                f"degree-{degree} cochain must be {d ** degree}x{bicomodule.dim}, "
                f"got {matrix.shape}")
        if degree == 0 and not matrix.is_zero():
            raise DimensionError("the degree-0 cochain module is zero")
        self.bicomodule = bicomodule
        self.degree = degree
        self.matrix = matrix

    @classmethod
    def zero(cls, bicomodule, degree):
        d = bicomodule.over.dim
        return cls(bicomodule, degree,
                   Matrix.zeros(bicomodule.field, d ** degree, bicomodule.dim))

    def __add__(self, other):
        self._check(other)
        return Cochain(self.bicomodule, self.degree, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return Cochain(self.bicomodule, self.degree, self.matrix - other.matrix)

    def __neg__(self):
        return Cochain(self.bicomodule, self.degree, -self.matrix)

    def scale(self, s):
        return Cochain(self.bicomodule, self.degree, self.matrix.scale(s))

    def _check(self, other):
        if self.bicomodule != other.bicomodule or self.degree != other.degree:
            raise DimensionError("cochain mismatch")

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.degree == other.degree
                and self.bicomodule == other.bicomodule
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"Cochain(degree={self.degree}, on {self.bicomodule!r})"


class MorphismCochain:
    """A degree-n element of the deformation complex of a morphism f.

    Components: ``a_part`` in degree n on the source coalgebra (regular
    bicomodule), ``b_part`` in degree n on the target, ``ab_part`` in
    degree n-1 on the source viewed over the target via f.  Degree 1 has
    a zero degree-0 ``ab_part``; the degree-0 element is the zero triple
    (used only as the canonical preimage of zero).
    """

    __slots__ = ("morphism", "degree", "a_part", "b_part", "ab_part")

    def __init__(self, morphism: CoalgebraMorphism, degree,
                 a_part: Cochain, b_part: Cochain, ab_part: Cochain | None):
        if degree < 0:
            raise DimensionError("degree must be >= 0")
        if a_part.degree != degree or b_part.degree != degree:
            raise DimensionError("component degrees do not match")
        if degree == 0:
            if ab_part is not None:
                raise DimensionError("degree-0 element has no mixed component")
        elif ab_part is None or ab_part.degree != degree - 1:
            raise DimensionError("mixed component must have degree n-1")
        self.morphism = morphism
        self.degree = degree
        self.a_part = a_part
        self.b_part = b_part
        self.ab_part = ab_part

    def parts(self):
        if self.ab_part is None:
            return self.a_part, self.b_part
        return self.a_part, self.b_part, self.ab_part

    def _map(self, fn, *others):
        """The triple of fn applied to the parts of self and ``others``."""
        for other in others:
            self._check(other)
        a, b, *ab = map(fn, self.parts(), *(o.parts() for o in others))
        return MorphismCochain(self.morphism, self.degree, a, b,
                               ab[0] if ab else None)

    def __add__(self, other):
        return self._map(Cochain.__add__, other)

    def __sub__(self, other):
        return self._map(Cochain.__sub__, other)

    def __neg__(self):
        return self._map(Cochain.__neg__)

    def scale(self, s):
        return self._map(lambda part: part.scale(s))

    def _check(self, other):
        if self.morphism != other.morphism or self.degree != other.degree:
            raise DimensionError("morphism cochain mismatch")

    def is_zero(self):
        return all(p.is_zero() for p in self.parts())

    def __eq__(self, other):
        if not isinstance(other, MorphismCochain):
            return NotImplemented
        return (self.degree == other.degree and self.morphism == other.morphism
                and self.a_part == other.a_part and self.b_part == other.b_part
                and self.ab_part == other.ab_part)

    def __repr__(self):
        return f"MorphismCochain(degree={self.degree}, over {self.morphism!r})"


@dataclass(frozen=True)
class CohomologyReport:
    """Dimensions and canonical representatives of one cohomology degree."""

    degree: int
    cocycle_dim: int
    coboundary_dim: int
    h_dim: int
    representatives: tuple


def _denominator(*matrices):
    """Least common denominator of the entries (1 over GF(p))."""
    return lcm(*(m.as_integer_ratio()[1] for m in matrices))


def _nonzeros(m: Matrix, den):
    """(row, col, den * entry) of every nonzero entry, row-major.

    ``den`` must be a multiple of the denominator of m, so the scaled
    entries are ints.
    """
    ints, d = m.as_integer_ratio()
    s = den // d
    return [(*divmod(idx, m.cols), x * s) for idx, x in enumerate(ints) if x]


def _power_nonzeros(m: Matrix, n, den):
    """(row, col, den * entry) of every nonzero entry of the Kronecker
    power m^(x)n, formed from the nonzeros of m without the dense power.

    ``den`` must be a multiple of den(m)^n, so the scaled entries are ints.
    """
    base = _denominator(m)
    factors = _nonzeros(m, base)
    p = m.field.p if m.field.kind == "prime" else None
    out = [(0, 0, den // base ** n)]
    for _ in range(n):
        out = [(t * m.rows + r, u * m.cols + c, x * y % p if p else x * y)
               for t, u, x in out for r, c, y in factors]
    return out


def _nnz(m: Matrix):
    ints, _ = m.as_integer_ratio()
    return len(ints) - ints.count(0)


class _Record:
    """What a complex derives from its structure constants alone, by
    degree (operators, their largest absolute ints, eliminations, kernel
    echelons, quotients), and a deformation complex's morphism report
    (None until checked)."""

    __slots__ = ("operators", "heights", "eliminations", "echelons",
                 "quotients", "report")

    def __init__(self):
        self.operators = {}
        self.heights = {}
        self.eliminations = {}
        self.echelons = {}
        self.quotients = {}
        self.report = None


class _ComplexBase:
    """Shared machinery: the sparse differentials and cohomology.

    Each differential D_n is assembled once, by :meth:`operator`, as a
    sparse map scattered straight from the structure constants.
    Row-major flattening turns every term A o s o B of a coboundary
    into the matrix A (x) B^T acting on the coordinates of s, so each
    term contributes one entry per nonzero structure constant and free
    index.  The element-level differential applies this operator.  The
    queries read the :class:`coaldef.sparse.Elimination` (solves) and
    :class:`coaldef.sparse.Quotient` (cohomology and classes) cached in
    the complex's :class:`_Record`.
    """

    def __init__(self):
        self._record = _Record()

    # subclasses: field, cochain_dim(n), zero(n),
    # from_integer_ratio(n, ints, den),
    # _parts(w) (component matrices in block order), _denominator(n),
    # _scatter(n, den) (the nonzero ints of den * D_n), and
    # differential(w) documenting the coboundary it applies;
    # require_valid() where the queries need a check of the structure

    def require_valid(self):
        """Raise InvalidStructureError if the structure maps are not what
        the queries assume; the base class checks nothing."""

    def operator(self, n):
        """The degree-n differential as ``({(row, col): int}, den)``.

        D_n[row, col] is the stored int over ``den``; only nonzero
        entries are stored.  Over QQ, ``den`` is a common denominator of
        the structure constants involved, so the entries accumulate as
        exact ints; over GF(p) it is 1 and the ints lie in [1, p).
        """
        operators = self._record.operators
        if n not in operators:
            den = self._denominator(n)
            operators[n] = (self._scatter(n, den), den)
        return operators[n]

    def operator_bits(self, n):
        """The bit length of the largest int of :meth:`operator` (n)."""
        heights = self._record.heights
        if n not in heights:
            heights[n] = self._height(n)
        return heights[n].bit_length()

    def _height(self, n):
        """The largest absolute int of :meth:`operator` (n)."""
        return max(map(abs, self.operator(n)[0].values()), default=0)

    def from_flat(self, n, entries):
        """The degree-n cochain with the coordinate list ``entries`` of
        scalars (ints, Fractions or strings)."""
        return self.from_integer_ratio(
            n, *Matrix.column(self.field, entries).as_integer_ratio())

    def flatten(self, w) -> Matrix:
        """Coordinate column vector of a cochain, in the fixed block order."""
        ints, den = stacked_ints(self._parts(w))
        return Matrix.from_integer_ratio(self.field, len(ints), 1, ints, den)

    def _apply(self, w):
        """The image of w under the sparse operator of its degree."""
        n = w.degree
        x, x_den = self._coordinates(w)
        entries, den = self.operator(n)
        out = _backend.kernel().sparse_apply(entries, x,
                                             self.cochain_dim(n + 1))
        return self.from_integer_ratio(n + 1, out, den * x_den)

    def differential_matrix(self, n) -> Matrix:
        """The matrix D_n of the degree-n differential on coordinate vectors.

        Columns are indexed by the standard cochain basis in flattening
        order; D_0 has zero columns since the degree-0 module is zero.
        This dense form is public API and the test reference, built
        anew on each call: no query of the complex reads it.
        """
        return Matrix.from_sparse(self.field, self.cochain_dim(n + 1),
                                  self.cochain_dim(n), *self.operator(n))

    def _elimination(self, n):
        """The cached sparse elimination record of D_n."""
        eliminations = self._record.eliminations
        if n not in eliminations:
            eliminations[n] = sparse.Elimination(
                self.field, self.cochain_dim(n + 1), self.cochain_dim(n),
                *self.operator(n))
        return eliminations[n]

    def _kernel_echelon(self, n):
        """The rightmost-pivot reduced echelon form of D_n."""
        return self._elimination(n).echelon

    def _quotient(self, n):
        """The cached H^n over the kernel echelons of D_n and D_(n-1),
        spanned by the columns of D_(n-1) at the latter's pivots."""
        quotients = self._record.quotients
        if n not in quotients:
            columns = defaultdict(dict)
            if self.cochain_dim(n - 1):
                pivots = self._kernel_echelon(n - 1).rows
                for (r, c), x in self.operator(n - 1)[0].items():
                    if c in pivots:
                        columns[c][r] = x
            quotients[n] = sparse.Quotient(self._kernel_echelon(n),
                                           columns.values())
        return quotients[n]

    def _coordinates(self, w):
        """(ints, den): the coordinate vector of w is ints / den."""
        x, den = stacked_ints(self._parts(w))
        if len(x) != self.cochain_dim(w.degree):
            raise DimensionError(
                f"degree-{w.degree} cochain has {len(x)} coordinates, "
                f"expected {self.cochain_dim(w.degree)}")
        return x, den

    def is_cocycle(self, w) -> bool:
        self.require_valid()
        return self.differential(w).is_zero()

    def is_coboundary(self, w):
        """A canonical preimage under the differential, or None.

        The preimage is the canonical solution of D_(n-1) x = w: the
        pivots are the leftmost independent columns of D_(n-1) and every
        free variable is zero, so repeated runs agree.  Its pivot
        entries are the recorded row combinations of the elimination of
        D_(n-1) applied to w; an exact residual check through the sparse
        operator decides whether w is a coboundary at all.
        """
        self.require_valid()
        n = w.degree
        x = self._elimination(n - 1).solve(*self._coordinates(w))
        if x is None:
            return None
        return self.from_integer_ratio(n - 1, *x)

    def cohomology(self, n) -> CohomologyReport:
        """Kernel-modulo-image data of the complex in degree n >= 1."""
        if n < 1:
            raise DimensionError("cohomology is exposed for degrees >= 1 only")
        self.require_valid()
        q = self._quotient(n)
        reps = tuple(self.from_integer_ratio(n, *r) for r in q.representatives)
        return CohomologyReport(n, q.kernel_dim, q.image_dim, len(reps), reps)

    def class_coordinates(self, w):
        """Coordinates of the class of a cocycle w in the canonical H^n basis.

        Empty list iff w is a coboundary.  Raises
        InvalidStructureError("not a cocycle") if w is not a cocycle,
        tested against the rows of D_n's kernel echelon, which applies
        no differential.
        """
        self.require_valid()
        q = self._quotient(w.degree)
        coords = q.coordinates(*self._coordinates(w))
        if coords is None:
            raise InvalidStructureError("not a cocycle")
        return coords if any(coords) else []


class HochschildComplex(_ComplexBase):
    """The Hochschild coalgebra complex of a bicomodule."""

    def __init__(self, bicomodule: Bicomodule):
        super().__init__()
        self.bicomodule = bicomodule

    @property
    def field(self):
        return self.bicomodule.field

    def cochain_dim(self, n):
        if n <= 0:
            return 0
        return self.bicomodule.over.dim ** n * self.bicomodule.dim

    def zero(self, n):
        return Cochain.zero(self.bicomodule, n)

    def from_integer_ratio(self, n, ints, den):
        """The degree-n cochain with coordinate vector ints / den."""
        if n <= 0:
            return Cochain.zero(self.bicomodule, 0)
        return Cochain(self.bicomodule, n, Matrix.from_integer_ratio(
            self.field, self.bicomodule.over.dim ** n, self.bicomodule.dim,
            ints, den))

    def _parts(self, w: Cochain):
        return [w.matrix] if w.degree else []

    def _denominator(self, n):
        m = self.bicomodule
        return _denominator(m.psi_l, m.psi_r, m.over.delta)

    def differential(self, w: Cochain) -> Cochain:
        """The coboundary delta_c.

        For a degree-n cochain s this is
        (Id (x) s) o psi_l
        + sum over i of (-1)^i (Id^(i-1) (x) delta (x) Id^(n-i)) o s
        + (-1)^(n+1) (s (x) Id) o psi_r,
        landing in degree n+1.  Degree-0 input gives the zero 1-cochain.
        """
        return self._apply(w)

    def _scatter(self, n, den):
        """The nonzero ints of den * D_n, by (row, col).

        The entry s[t, k] of a cochain has coordinate t*m + k (m = dim M);
        each term of delta_c sends it, times one structure constant, to
        one coordinate of the image.
        """
        if n <= 0:
            return {}
        acc = defaultdict(int)
        m = self.bicomodule
        d, dim = m.over.dim, m.dim
        dn = d ** n
        # (Id (x) s) o psi_l: psi_l[(a, k), j] s[t, k] lands at (a t, j)
        for r, j, x in _nonzeros(m.psi_l, den):
            a, k = divmod(r, dim)
            for t in range(dn):
                acc[(a * dn + t) * dim + j, t * dim + k] += x
        # (-1)^i (Id^(i-1) (x) delta (x) Id^(n-i)) o s: delta[(p, q), k]
        # s[(u, k, v), j] lands at ((u, p, q, v), j)
        for i in range(1, n + 1):
            tail = d ** (n - i)
            for pq, k, x in _nonzeros(m.over.delta, den):
                x = -x if i % 2 else x
                for u in range(d ** (i - 1)):
                    for v in range(tail):
                        src = ((u * d + k) * tail + v) * dim
                        dst = ((u * d * d + pq) * tail + v) * dim
                        for j in range(dim):
                            acc[dst + j, src + j] += x
        # (-1)^(n+1) (s (x) Id) o psi_r: psi_r[(k, a), j] s[t, k] lands
        # at (t a, j)
        for r, j, x in _nonzeros(m.psi_r, den):
            k, a = divmod(r, d)
            x = x if n % 2 else -x
            for t in range(dn):
                acc[(t * d + a) * dim + j, t * dim + k] += x
        if self.field.kind == "prime":
            p = self.field.p
            return {key: x % p for key, x in acc.items() if x % p}
        return {key: x for key, x in acc.items() if x}

    def scatter_terms(self, n):
        """The number of terms :meth:`_scatter` adds for D_n, counted
        from the structure constants without assembling anything."""
        if n <= 0:
            return 0
        m = self.bicomodule
        d = m.over.dim
        return ((_nnz(m.psi_l) + _nnz(m.psi_r)) * d ** n
                + n * _nnz(m.over.delta) * d ** (n - 1) * m.dim)


class MorphismComplex(_ComplexBase):
    """The deformation complex C*(f) of a coalgebra morphism f.

    Building it never checks f: cochains over a map that is not a
    morphism can be held and differentiated, so checking tools can
    report what is broken.  The queries -- ``is_cocycle``,
    ``is_coboundary``, ``cohomology`` and ``class_coordinates`` -- call
    :meth:`require_valid`, which reads the one :meth:`morphism_report`
    of the complex's record, fresh unless :func:`morphism_complex`
    shares it.  D_n, its kernel and its height are read from its three
    Hochschild blocks.
    """

    def __init__(self, f: CoalgebraMorphism):
        super().__init__()
        self.morphism = f
        self.on_source = HochschildComplex(regular_bicomodule(f.source))
        self.on_target = HochschildComplex(regular_bicomodule(f.target))
        self.mixed = HochschildComplex(_pushed_forward(f))
        # the bicomodule pushed along an identity is the regular one
        for block in (self.on_target, self.mixed):
            if block.bicomodule == self.on_source.bicomodule:
                block._record = self.on_source._record

    def morphism_report(self) -> StructureReport:
        """The :func:`check_morphism` report of f, checked once per record."""
        record = self._record
        if record.report is None:
            record.report = check_morphism(self.morphism)
        return record.report

    def require_valid(self):
        """Raise InvalidStructureError("not a coalgebra morphism (...)")
        unless the morphism report passed."""
        require_morphism(self.morphism_report())

    @property
    def field(self):
        return self.morphism.field

    def cochain_dim(self, n):
        if n <= 0:
            return 0
        return (self.on_source.cochain_dim(n) + self.on_target.cochain_dim(n)
                + self.mixed.cochain_dim(n - 1))

    def zero(self, n):
        ab = None if n == 0 else self.mixed.zero(n - 1)
        return MorphismCochain(self.morphism, n,
                               self.on_source.zero(n), self.on_target.zero(n), ab)

    def element(self, a_matrix: Matrix, b_matrix: Matrix,
                ab_matrix: Matrix | None, degree) -> MorphismCochain:
        """Assemble a morphism cochain from raw component matrices."""
        a = Cochain(self.on_source.bicomodule, degree, a_matrix)
        b = Cochain(self.on_target.bicomodule, degree, b_matrix)
        if degree == 1:
            ab = self.mixed.zero(0)
            if ab_matrix is not None and not ab_matrix.is_zero():
                raise DimensionError("degree-1 mixed component must be zero")
        else:
            ab = Cochain(self.mixed.bicomodule, degree - 1, ab_matrix)
        return MorphismCochain(self.morphism, degree, a, b, ab)

    def from_integer_ratio(self, n, ints, den):
        """The degree-n cochain with coordinate vector ints / den."""
        if n <= 0:
            return MorphismCochain(self.morphism, 0, self.on_source.zero(0),
                                   self.on_target.zero(0), None)
        na = self.on_source.cochain_dim(n)
        nb = self.on_target.cochain_dim(n)
        a = self.on_source.from_integer_ratio(n, ints[:na], den)
        b = self.on_target.from_integer_ratio(n, ints[na:na + nb], den)
        ab = self.mixed.from_integer_ratio(n - 1, ints[na + nb:], den)
        return MorphismCochain(self.morphism, n, a, b, ab)

    def _parts(self, w: MorphismCochain):
        if w.degree == 0:
            return []
        if w.degree == 1:
            return [w.a_part.matrix, w.b_part.matrix]
        return [w.a_part.matrix, w.b_part.matrix, w.ab_part.matrix]

    def _denominator(self, n):
        # the entries of f^(x)n have denominators dividing den(f)^n
        return lcm(self.on_source._denominator(n),
                   self.on_target._denominator(n),
                   self.mixed._denominator(n),
                   _denominator(self.morphism.matrix) ** n)

    def differential(self, w: MorphismCochain) -> MorphismCochain:
        """The coboundary d_c of the deformation complex.

        Componentwise: (delta_c a_part, delta_c b_part,
        b_part o f - f^(x)n o a_part - delta_c ab_part).  The sign of the
        two comparison terms is what makes first-order deformation
        coefficients cocycles.
        """
        return self._apply(w)

    def _scatter(self, n, den):
        """The nonzero ints of den * D_n, by (row, col): the rescaled a and
        b block operators on the diagonal, and :meth:`_ab_rows` below."""
        entries = {}
        row = col = 0
        for block in (self.on_source, self.on_target):
            block_entries, block_den = block.operator(n)
            s = den // block_den
            for (r, c), x in block_entries.items():
                entries[row + r, col + c] = x * s
            row += block.cochain_dim(n + 1)
            col += block.cochain_dim(n)
        for r, ab_row in self._ab_rows(n, den).items():
            for c, x in ab_row.items():
                entries[row + r, c] = x
        return entries

    def _ab_rows(self, n, den):
        """The ab rows of den * D_n, {row: {col: int}} from the first:
        minus the mixed block, and b o f - f^(x)n o a (no shared entry)."""
        rows = defaultdict(dict)
        if n <= 0:
            return rows
        f = self.morphism
        ds, dt = f.source.dim, f.target.dim
        col_b = self.on_source.cochain_dim(n)
        col_ab = col_b + self.on_target.cochain_dim(n)
        p = self.field.p if self.field.kind == "prime" else 0
        entries, mixed_den = self.mixed.operator(n - 1)
        s = -(den // mixed_den)
        for (r, c), x in entries.items():
            rows[r][col_ab + c] = x * s % p if p else x * s
        # b_part o f: b[t, k] f[k, j] lands at (t, j)
        for k, j, x in _nonzeros(f.matrix, den):
            for t in range(dt ** n):
                rows[t * ds + j][col_b + t * dt + k] = x
        # - f^(x)n o a_part: f^(x)n[t, u] a[u, j] lands at (t, j)
        for t, u, x in _power_nonzeros(f.matrix, n, -den):
            for j in range(ds):
                rows[t * ds + j][u * ds + j] = x
        return rows

    def _kernel_echelon(self, n):
        """The echelon of D_n from copies of the a and b block echelons
        and the ab rows, cached: reduced echelon forms are unique (over
        QQ, with primitive rows), so it is that of the assembled D_n."""
        echelons = self._record.echelons
        if n not in echelons:
            blocks = [(self.on_source._kernel_echelon(n), 0),
                      (self.on_target._kernel_echelon(n),
                       self.on_source.cochain_dim(n))]
            echelons[n] = sparse.sparse_rref(
                self.field, self._ab_rows(n, self._denominator(n)).values(),
                self.cochain_dim(n), reverse=True, blocks=blocks)
        return echelons[n]

    def _height(self, n):
        """Over QQ, read from the parts of den * D_n, which share no
        entry: the rescaled a, b and mixed blocks, den f and den f^(x)n."""
        if self.field.kind == "prime" or n <= 0:
            return super()._height(n)
        den = self._denominator(n)
        f = self.morphism.matrix
        top, base = f.peak(), f.as_integer_ratio()[1]
        blocks = ((self.on_source, n), (self.on_target, n),
                  (self.mixed, n - 1))
        return max(top * (den // base), top ** n * (den // base ** n),
                   *(block._height(k) * (den // block._denominator(k))
                     for block, k in blocks))

    def scatter_terms(self, n):
        """The number of terms of D_n's blocks and comparison terms."""
        if n <= 0:
            return 0
        f = self.morphism
        nnz = _nnz(f.matrix)
        return (self.on_source.scatter_terms(n)
                + self.on_target.scatter_terms(n)
                + self.mixed.scatter_terms(n - 1)
                + nnz * f.target.dim ** n + nnz ** n * f.source.dim)


# ---------------------------------------------------------------------------
# the shared complex of a morphism, and the coboundary of a cochain


# A command reads one structure, and a batch of commands mostly reads
# the structure of the one before, so a few records keep the hits while
# bounding what a long-lived process holds.
_RECORDS_KEPT = 4


def _structure_key(f: CoalgebraMorphism):
    """The value of f and its two comultiplications: field, shape and
    ``as_integer_ratio()`` of each matrix, and no name."""
    key = []
    for m in (f.source.delta, f.target.delta, f.matrix):
        ints, den = m.as_integer_ratio()
        key.append((m.field, m.rows, m.cols, tuple(ints), den))
    return tuple(key)


@lru_cache(maxsize=_RECORDS_KEPT)
def _shared_record(key) -> _Record:
    """The record of every morphism whose :func:`_structure_key` is
    ``key``: the process-wide table, which keeps the
    :data:`_RECORDS_KEPT` most recently used records."""
    return _Record()


def morphism_complex(f: CoalgebraMorphism) -> MorphismComplex:
    """The one deformation complex of the morphism object f.

    Built on first use and kept on f, so every layer that holds f --
    its cochains, deformations and formal isomorphisms, problem files
    and the command line -- shares it.  Its record (assembled
    differentials, eliminations and the one morphism check) is shared
    by value: every morphism equal to f, over coalgebras of any names,
    reads the same one while the table keeps it.  Building does not
    check f; the queries do (see :class:`MorphismComplex`).
    """
    if f._complex is None:
        comp = MorphismComplex(f)
        comp._record = _shared_record(_structure_key(f))
        f._complex = comp
    return f._complex


def delta_c(w: Cochain) -> Cochain:
    """Coboundary of a Hochschild cochain (carries its bicomodule)."""
    return HochschildComplex(w.bicomodule).differential(w)


def d_c(w: MorphismCochain) -> MorphismCochain:
    """Coboundary of a deformation-complex cochain."""
    return morphism_complex(w.morphism).differential(w)

