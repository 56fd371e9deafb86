"""Truncated formal deformations of a coalgebra morphism.

A deformation of order N of a morphism f: A -> B is a polynomial family
(comultiplication on A, comultiplication on B, morphism) with
coefficients in the degree-2 part of the deformation complex of f,
constant term the original structure maps, satisfying coassociativity
on both sides and the morphism compatibility condition coefficientwise
through order N.  This module implements:

* coefficientwise verification with located failures;
* extraction of the leading (infinitesimal) coefficient, which is
  always a 2-cocycle for a valid deformation;
* the degree-3 obstruction cochain whose cobounding is equivalent to
  extending the deformation one order further, and its class, from the
  one entry point :func:`obstruction` (for a deformation it is always a
  3-cocycle, so a violation is an internal error, never a data state;
  :func:`obstruction` and :func:`extend` verify their input once, keep
  the report on it, and refuse a series that is no deformation with
  InvalidStructureError; :func:`trivialize` refuses it too, but
  verifies an unverified input only where its staircase fails, as its
  final check certifies it otherwise); a class is read by the
  quotient, after its one cocycle test (:func:`_class_of`);
* order-by-order extension and integration of a 2-cocycle up to a
  target order, with the canonical linear solve picking the extension;
  :func:`integrate` keeps the per-order state of its obstructions
  (:class:`_Defects`) to itself, and what it returns is an ordinary
  deformation;
* formal isomorphisms with truncated inversion and composition, and
  transport of deformations along them, read from one packed product
  of the intertwining defects with no inverse formed (:func:`_window`):
  of whole series, and in doubling windows of orders in a constructive
  trivialization (staircase) that either exhibits an equivalence with
  the trivial deformation or returns the blocking degree-2 class.

Deformations and formal isomorphisms are one truncated series of
cochains (:class:`_Series`), of degree 2 and 1.  Everything is exact;
truncation order is part of every object.  The arithmetic of the
coefficient series is :mod:`coaldef.series`; each per-order sum of
products of coefficients, in the obstruction of an integration and in
composition and inversion, is a query of a :class:`series.Cauchy`
state.  The staircase has one integer update instead
(:func:`_subtract_shifted`): x o s_(k-l) subtracted from order k of a
series for every k >= l, by one integer product of x with the block
row of s.  A step and the corrections of a window are both that update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import lcm
from operator import sub

from . import _backend, series
from .coalgebra import CoalgebraMorphism, InvalidStructureError, \
    factor_ints, factor_read
from .cohomology import Cochain, MorphismCochain, MorphismComplex, \
    morphism_complex
from .exactlinalg import DimensionError, ExactLinalgError, Matrix


class InternalInvariantError(ExactLinalgError):
    """A mathematically guaranteed identity failed: an implementation bug."""


class ExtensionRejected(ExactLinalgError):
    """A supplied extension coefficient does not cobound the obstruction."""


# ---------------------------------------------------------------------------
# deformations


class _Series:
    """A series in t, truncated at a fixed order, of cochains of one
    degree in the deformation complex of a morphism.  A subclass names
    the degree, the maps of the order-0 term (:meth:`_constant_maps`)
    and its messages: no order-0 term, a wrong one, a wrong coefficient.
    """

    __slots__ = ("morphism", "order", "coeffs")

    def __init__(self, morphism: CoalgebraMorphism, coeffs):
        coeffs, degree = tuple(coeffs), self._degree
        if not coeffs:
            raise DimensionError(self._errors[0])
        c0 = coeffs[0]
        # the order-0 maps are read once degree and morphism match
        if (c0.degree != degree or c0.morphism != morphism
                or c0.a_part.matrix != (m := self._constant_maps(morphism))[0]
                or c0.b_part.matrix != m[1]
                or m[2] is not None and c0.ab_part.matrix != m[2]):
            raise InvalidStructureError(self._errors[1])
        for c in coeffs[1:]:
            if c.degree != degree or c.morphism != morphism:
                raise DimensionError(self._errors[2])
        self.morphism = morphism
        self.order = len(coeffs) - 1
        self.coeffs = coeffs

    @classmethod
    def _constant(cls, comp: MorphismComplex) -> MorphismCochain:
        """The order-0 coefficient over the complex of the morphism."""
        return comp.element(*cls._constant_maps(comp.morphism), cls._degree)

    @classmethod
    def from_higher_coefficients(cls, morphism, higher, order=None):
        """Build from the coefficients of t^1.. (zero-padded to ``order``;
        more coefficients than ``order`` raise DimensionError)."""
        comp = morphism_complex(morphism)
        higher = list(higher)
        if order is None:
            order = len(higher)
        if len(higher) > order:
            raise DimensionError(
                f"{len(higher)} higher coefficients exceed order {order}")
        return cls(morphism, [cls._constant(comp)] + higher + [
            comp.zero(cls._degree) for _ in range(order - len(higher))])

    def coefficient(self, n) -> MorphismCochain:
        return self.coeffs[n]

    def series_a(self):
        return [c.a_part.matrix for c in self.coeffs]

    def series_b(self):
        return [c.b_part.matrix for c in self.coeffs]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.morphism == other.morphism and self.coeffs == other.coeffs

    def __repr__(self):
        return (f"{type(self).__name__}(order={self.order}, "
                f"over {self.morphism!r})")


class TruncatedDeformation(_Series):
    """A deformation of a morphism, truncated at a fixed order.

    ``coeffs[n]`` is the degree-2 morphism cochain carrying the order-n
    coefficients of the two comultiplications (a_part, b_part) and of
    the morphism (ab_part); ``coeffs[0]`` is always the structure triple
    of the undeformed morphism.  Besides them it keeps only its
    :func:`verify_deformation` report, once computed, whichever function
    built it.
    """

    __slots__ = ("_verification",)
    _degree = 2
    _errors = ("a deformation has at least its order-0 term",
               "order-0 coefficient must be the structure maps of the "
               "morphism",
               "deformation coefficients must be degree-2 cochains over "
               "the same morphism")

    def __init__(self, morphism: CoalgebraMorphism, coeffs):
        super().__init__(morphism, coeffs)
        # (the verify_deformation report, the order-(N+1) defects when it
        # passes) once it has run
        self._verification = None

    @staticmethod
    def _constant_maps(f):
        """Both comultiplications and the morphism."""
        return f.source.delta, f.target.delta, f.matrix

    @classmethod
    def trivial(cls, morphism, order):
        return cls.from_higher_coefficients(morphism, [], order)

    def comul_a(self, n) -> Matrix:
        return self.coeffs[n].a_part.matrix

    def comul_b(self, n) -> Matrix:
        return self.coeffs[n].b_part.matrix

    def map_coeff(self, n) -> Matrix:
        return self.coeffs[n].ab_part.matrix

    def series_f(self):
        return [c.ab_part.matrix for c in self.coeffs]

    def truncate(self, order) -> "TruncatedDeformation":
        if order > self.order:
            raise DimensionError("cannot truncate upward")
        if order < 0:
            raise DimensionError(f"cannot truncate to order {order}")
        return TruncatedDeformation(self.morphism, self.coeffs[:order + 1])


class FormalIsomorphism(_Series):
    """A truncated formal isomorphism: degree-1 coefficients on both sides.

    The order-0 coefficient is the identity pair, which makes every
    formal isomorphism invertible modulo t^(order+1).
    """

    __slots__ = ()
    _degree = 1
    _errors = ("an isomorphism has at least its order-0 term",
               "order-0 coefficient of a formal isomorphism must be the "
               "identity pair",
               "isomorphism coefficients must be degree-1 cochains over "
               "the same morphism")

    @staticmethod
    def _constant_maps(f):
        """The identity of each side (a degree-1 mixed part is zero)."""
        return (Matrix.identity(f.field, f.source.dim),
                Matrix.identity(f.field, f.target.dim), None)

    @classmethod
    def identity(cls, morphism, order):
        return cls.from_higher_coefficients(morphism, [], order)

    def is_identity(self):
        return all(c.is_zero() for c in self.coeffs[1:])


@dataclass(frozen=True)
class ObstructionClass:
    """The degree-3 obstruction cochain of an order-N deformation.

    ``h3_class`` holds its coordinates in the canonical basis of the
    degree-3 cohomology of the deformation complex; an empty tuple means
    the obstruction cobounds and the deformation extends to
    ``next_order``.
    """

    cochain: MorphismCochain
    h3_class: tuple
    next_order: int

    @property
    def is_trivial(self):
        return not self.h3_class


@dataclass(frozen=True)
class DeformationReport:
    """Outcome of verify_deformation; locates the first failing identity."""

    ok: bool
    order: int | None = None
    equation: str | None = None
    position: tuple | None = None
    message: str = "ok"

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class InfinitesimalResult:
    """Leading nonzero coefficient of a deformation, if any."""

    trivial: bool
    coefficient: MorphismCochain | None = None
    is_cocycle: bool | None = None
    generalized_order: int | None = None


@dataclass(frozen=True)
class IntegrationResult:
    """A deformation built order-by-order from a 2-cocycle.

    ``obstruction`` is None when the target order was reached; otherwise
    the deformation is the partial result and ``obstruction`` carries
    the nonzero class that stopped the integration.
    """

    deformation: TruncatedDeformation
    obstruction: ObstructionClass | None = None

    @property
    def ok(self):
        return self.obstruction is None


@dataclass(frozen=True)
class TrivializationResult:
    """Either an equivalence with the trivial deformation or the blocker."""

    ok: bool
    isomorphism: FormalIsomorphism | None = None
    blocked_order: int | None = None
    blocking_cochain: MorphismCochain | None = None
    h2_class: tuple = field(default_factory=tuple)

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# verification


def _bar(s, x, d):
    """Row-major ints of (s (x) Id - Id (x) s) o x, a d^3 x d map, for the
    ints of maps s, x: X -> X (x) X, dim X = d."""
    left = factor_ints(s, x, d * d, d, d, d)
    right = factor_ints(s, factor_read(x, d, d, d), d * d, d, d, d,
                        right=True)
    return _backend.kernel().lincomb(left, 1, right, -1)


_EQUATIONS = (("coassociativity[source]", "coassociativity[source]"),
              ("coassociativity[target]", "coassociativity[target]"),
              ("morphism", "morphism condition"))


def _packed_defects(series_a, series_b, series_f, k):
    """The defects of the three deformation equations through order
    k - 1, packed.

    For coefficient series a (source comultiplication), b (target
    comultiplication) and f (morphism), the order-n defects are

    * D_a = sum_i (a_i (x) Id - Id (x) a_i) o a_(n-i),
    * D_b = the same sum over b,
    * D_f = sum_(i+j+l=n) (f_j (x) f_l) o a_i - sum_i b_i o f_(n-i),

    and the series form a deformation through order N exactly when all
    three vanish for every n <= N; a coefficient past the end of a
    series counts as zero.

    Every series is scaled by one (L, D) and packed once, at the one
    width w of :func:`series.packing`, so each equation is a fixed set of
    integer products whatever the order: the two factor products of
    :func:`_bar` on a and on b, and :func:`series.morphism_defect`
    (f; a -> b) with its bound :func:`series.morphism_bound` for D_f,
    all three on the same packed a, b and f.  Returns their
    :class:`series.PackedDefects`, labelled by ``_EQUATIONS``, whose
    slot n is the order-n defect over L^2 D^n (D_a, D_b) and L^3 D^n
    (D_f).  With M_a(i), M_b(i) the largest scaled entry of the order-i
    coefficient of a and b and d, e the source and target dimensions,
    an entry of (a_i (x) Id - Id (x) a_i) o a_j is a difference of two
    sums of d products, so the order-n slots obey

    * |D_a| <= 2 d (M_a * M_a)(n) and |D_b| <= 2 e (M_b * M_b)(n).
    """
    d, e = series_a[0].cols, series_b[0].cols
    given = [s[:k] for s in (series_a, series_b, series_f)]

    def bounds(peaks, unit):
        m_a, m_b, m_f = peaks
        return [[2 * d * x for x in series.convolve(m_a, m_a)],
                [2 * e * x for x in series.convolve(m_b, m_b)],
                series.morphism_bound(m_f, m_a, m_b, d, e, unit)]

    unit, step, w = series.packing(given, k, bounds)
    a, b, f = (series.packed(s, w, unit, step) for s in given)
    return series.PackedDefects(series_a[0].field, unit, step, w, [
        (_EQUATIONS[0], (d ** 3, d), 2, _bar(a, a, d)),
        (_EQUATIONS[1], (e ** 3, e), 2, _bar(b, b, e)),
        (_EQUATIONS[2], (e * e, d), 3,
         series.morphism_defect(f, a, b, d, e, k, w, unit))])


def _cauchy_kron(x, y, n):
    """The order-n coefficient sum_i x_i (x) y_(n-i) of the
    coefficientwise tensor product of two series given by their
    :func:`series.nonzero` coefficients; None when no pair is nonzero."""
    terms = [l.kron(y[n - i]) for i, l in x.items() if n - i in y]
    return sum(terms[1:], terms[0]) if terms else None


def _bar_sums(s, d):
    """The :class:`series.Cauchy` state of sum_i (s_i (x) Id - Id (x) s_i)
    o s_(n-i) for the nonzero coefficients s of a comultiplication series
    of dimension d: s_j is read as a d x d^2 map beside
    ``factor_read(s_j)``."""
    dd = d * d
    return series.Cauchy(
        s, s, (dd, d, 2 * dd),
        lambda ints: [y[t::dd] for y in (ints, factor_read(ints, d, d, d))
                      for t in range(dd)])


def _bar_at(sums, n, field, d):
    """The d^3 x d defect at order n of a :func:`_bar_sums` state: column
    (q, c) at row r is entry (r, q, c) of (s (x) Id) o x, and column
    d^2 + (q, c) entry (q, r, c) of (Id (x) s) o x."""
    columns, den, dd = *sums.ratio(n), d * d
    first = chain.from_iterable(zip(*columns[:dd]))
    second = chain.from_iterable(chain.from_iterable(
        zip(*columns[dd + q * d:dd + q * d + d])) for q in range(d))
    return Matrix.from_integer_ratio(field, d ** 3, d,
                                     list(map(sub, first, second)), den)


class _Defects:
    """The order-(N+1) defects (D_a, D_b, D_f) of :func:`_packed_defects`
    of series a, b, f of order N, as matrices, from :class:`series.Cauchy`
    states: :func:`_bar_sums` of a and of b, f (x) f against a and b
    against f.  :func:`integrate` forms one from its first-order series
    and extends it in place, order by order (:meth:`extend`); it is
    local to that call, and no deformation carries one.  The Kronecker
    series f (x) f, whose pairs multiply only the small f_j, is kept
    through order N + 1, formed with f_(N+1) zero, and formed again only
    when an extension's f_(N+1) is not."""

    def __init__(self, series_a, series_b, series_f):
        self.order, self.field = len(series_a) - 1, series_a[0].field
        self.dims = d, e = series_a[0].cols, series_b[0].cols
        a, b, f = (series.nonzero(s, self.order)
                   for s in (series_a, series_b, series_f))
        self.a, self.b, self.f = _bar_sums(a, d), _bar_sums(b, e), f
        self.fa = series.Cauchy(
            {k: x for k in range(1, self.order + 2)
             if (x := _cauchy_kron(f, f, k)) is not None},
            a, (e * e, d * d, d))
        self.bf = series.Cauchy(b, f, (e * e, e, d))

    def extend(self, w):
        """Extend the series by the order-(N+1) coefficient w, in place."""
        self.order = n = self.order + 1
        a, b, f = (p.matrix for p in w.parts())
        for sums, left, right in ((self.a, a, a), (self.b, b, b),
                                  (self.bf, b, f)):
            sums.put_left(n, left)
            sums.put_right(n, right)
        self.fa.put_right(n, a)
        if not f.is_zero():
            self.f[n] = f
            self.fa.put_left(n, _cauchy_kron(self.f, self.f, n))
        self.fa.put_left(n + 1, _cauchy_kron(self.f, self.f, n + 1))

    def next_order(self):
        """(D_a, D_b, D_f) at order N + 1, where f_(N+1) is zero."""
        n, field, (d, e) = self.order + 1, self.field, self.dims
        return (_bar_at(self.a, n, field, d), _bar_at(self.b, n, field, e),
                self.bf.at(n, field, self.fa.at(n, field).as_integer_ratio()))


def verify_deformation(d: TruncatedDeformation) -> DeformationReport:
    """Check all defining identities coefficientwise through the order.

    For every order n: coassociativity of both deformed comultiplications
    (the convolution of the coefficient lists) and the morphism condition
    equating the two ways of pushing the deformed comultiplications
    through the deformed map.  Reports the first failure, taking every
    order of source coassociativity first, then the target, then the
    morphism condition.

    A deformation does not change, so its report is computed once
    (:func:`_verified`) and kept on it.
    """
    if d._verification is None:
        d._verification = _verified(d.series_a(), d.series_b(), d.series_f())
    return d._verification[0]


def _verified(series_a, series_b, series_f):
    """(the :func:`verify_deformation` report of three series of one
    length N + 1, and when it passes the order-(N+1) defects (D_a, D_b,
    D_f), else None), read from one :func:`_packed_defects` product.

    Its failure scan decides each equation from slots 0..N, over QQ by
    one mask per entry, which stays exact: the slots above N add only
    multiples of 2^((N+1) w).  Slot N + 1, read by its slot reader, is
    the obstruction cochain: the order-(N+1) defect with a zero
    order-(N+1) coefficient, which :func:`obstruction` reads.
    """
    k = len(series_a)
    defects = _packed_defects(series_a, series_b, series_f, k + 1)
    failure = defects.failure(k)
    if failure is not None:
        (label, statement), n, pos = failure
        return DeformationReport(
            False, n, label, pos,
            f"{statement} fails at order {n}, entry {pos}"), None
    return DeformationReport(True), [
        Matrix.from_integer_ratio(defects.field, *shape, *slot)
        for shape, (slot,) in defects.slots([k])]


def infinitesimal(d: TruncatedDeformation) -> InfinitesimalResult:
    """The leading nonzero coefficient and its cocycle status.

    For a valid deformation whose coefficients vanish through order l-1,
    the order-l coefficient is a 2-cocycle; ``generalized_order`` is l.
    A deformation with no nonzero coefficient is trivial to this order.
    """
    comp = morphism_complex(d.morphism)
    comp.require_valid()
    for n in range(1, d.order + 1):
        w = d.coefficient(n)
        if not w.is_zero():
            return InfinitesimalResult(False, w, comp.is_cocycle(w), n)
    return InfinitesimalResult(True)


# ---------------------------------------------------------------------------
# obstruction theory


def comp_bar(s: Cochain, t: Cochain) -> Cochain:
    """The degree-3 pairing (s (x) Id) o t - (Id (x) s) o t of 2-cochains.

    Both arguments live on the regular bicomodule of one coalgebra; the
    pairing of a coassociative comultiplication with itself is zero, and
    summing it over split coefficient indices yields the comultiplication
    part of the obstruction cochain.
    """
    if s.bicomodule != t.bicomodule:
        raise DimensionError("cochains live on different bicomodules")
    if s.degree != 2 or t.degree != 2:
        raise DimensionError("comp_bar pairs degree-2 cochains")
    m = s.bicomodule
    if m.psi_l != m.over.delta or m.psi_r != m.over.delta:
        raise InvalidStructureError("comp_bar requires the regular bicomodule")
    ints_s, den_s = s.matrix.as_integer_ratio()
    ints_t, den_t = t.matrix.as_integer_ratio()
    d = m.dim
    return Cochain(m, 3, Matrix.from_integer_ratio(
        m.field, d ** 3, d, _bar(ints_s, ints_t, d), den_s * den_t))


_NOT_A_3_COCYCLE = ("obstruction cochain is not a 3-cocycle; this "
                    "indicates a bug, not a property of the input")


def _class_of(comp, w, message) -> tuple:
    """The class of w in the canonical basis of its cohomology (empty for
    a coboundary), read by :meth:`class_coordinates`, whose check
    against the kernel echelon of D_n is the one cocycle test and
    applies no differential: a w that the theory makes a cocycle and is
    not one raises InternalInvariantError(message)."""
    comp.require_valid()
    try:
        return tuple(comp.class_coordinates(w))
    except InvalidStructureError:
        raise InternalInvariantError(message) from None


def _obstruction_cochain(d, defects=None) -> MorphismCochain:
    """The degree-3 cochain obstructing extension by one order: the
    order-(N+1) defect of the deformation equations with a zero
    order-(N+1) coefficient, a 3-cocycle for valid input.  It is read
    from ``defects``, the :class:`_Defects` of an order-N series over the
    morphism of d that :func:`integrate` keeps for its loop, or else
    from one formed from the series of d for this call and not kept, so
    d is not taken as valid."""
    if defects is None:
        defects = _Defects(d.series_a(), d.series_b(), d.series_f())
    return morphism_complex(d.morphism).element(*defects.next_order(), 3)


def _require_deformation(comp, d: TruncatedDeformation):
    """Raise InvalidStructureError("not a coalgebra morphism (...)")
    unless the morphism of comp is one, and then InvalidStructureError(
    "not a deformation (...)") unless d is one, by its
    :func:`verify_deformation` report, computed once and kept on d."""
    comp.require_valid()
    if not (report := verify_deformation(d)).ok:
        raise InvalidStructureError(f"not a deformation ({report.message})")


def _checked_obstruction(comp, d: TruncatedDeformation) -> MorphismCochain:
    """The obstruction cochain of d once :func:`_require_deformation`
    passes: the order-(N+1) slot that its verification kept."""
    _require_deformation(comp, d)
    return comp.element(*d._verification[1], 3)


def _solved(comp, ob, next_order):
    """The canonical coefficient whose coboundary is the obstruction
    cochain ob, or, only where that exact solve fails, the
    :class:`ObstructionClass` of ob, classified (:func:`_class_of`)."""
    w = comp.is_coboundary(ob)
    if w is None:
        return ObstructionClass(ob, _class_of(comp, ob, _NOT_A_3_COCYCLE),
                                next_order)
    return w


def obstruction(d: TruncatedDeformation) -> ObstructionClass:
    """Obstruction cochain of a deformation together with its class.

    After the morphism check, a series that is no deformation raises
    InvalidStructureError("not a deformation (...)") with the message of
    its :func:`verify_deformation` report.  The cochain is the
    order-(N+1) slot that verification kept, so a deformation is
    verified once, whoever built it, and read from its report after.
    """
    comp = morphism_complex(d.morphism)
    ob = _checked_obstruction(comp, d)
    return ObstructionClass(ob, _class_of(comp, ob, _NOT_A_3_COCYCLE),
                            d.order + 1)


def _first_nonzero(x: MorphismCochain):
    """(component name, position, entry) of the first nonzero entry of x,
    by component (a_part, b_part, then ab_part); None when x is zero."""
    for name, part in zip(("a_part", "b_part", "ab_part"), x.parts()):
        if (pos := part.matrix.first_nonzero()) is not None:
            return name, pos, part.matrix[pos]
    return None


def extend(d: TruncatedDeformation, w: MorphismCochain | None = None):
    """Extend a deformation by one order.

    With ``w`` supplied, accept it iff its coboundary equals the
    obstruction cochain exactly (raising ExtensionRejected otherwise).
    Without it, solve for the canonical cobounding coefficient; if none
    exists return the nonzero ObstructionClass instead of a deformation.
    The exact solve runs first, and the obstruction is classified
    (:func:`_class_of`) only where it fails (:func:`_solved`).  d is
    verified as by :func:`obstruction`, which reads its kept report, and
    refused when it is no deformation; the extension is a new
    deformation with no report of its own.
    """
    comp = morphism_complex(d.morphism)
    ob = _checked_obstruction(comp, d)
    if w is not None:
        if w.degree != 2 or w.morphism != d.morphism:
            _class_of(comp, ob, _NOT_A_3_COCYCLE)
            raise DimensionError("extension coefficient must be a degree-2 "
                                 "cochain over the same morphism")
        nonzero = _first_nonzero(comp.differential(w) - ob)
        if nonzero is not None:
            _class_of(comp, ob, _NOT_A_3_COCYCLE)
            raise ExtensionRejected(
                "coboundary of the supplied coefficient differs from the "
                "obstruction in component %s at entry %s by %s" % nonzero)
    else:
        w = _solved(comp, ob, d.order + 1)
        if isinstance(w, ObstructionClass):
            return w
    return TruncatedDeformation(d.morphism, d.coeffs + (w,))


def integrate(w: MorphismCochain, target_order) -> IntegrationResult:
    """Integrate a 2-cocycle to a deformation of the requested order.

    Starts from the first-order deformation with coefficient ``w`` and
    extends it with canonical solves, as repeated :func:`extend` does.
    Stops early with the blocking class if an obstruction fails to
    cobound.  A ``w`` that is not a cocycle raises InvalidStructureError.
    The first-order deformation of a cocycle is one once its order-0
    terms are (the morphism check, and both comultiplications
    coassociative; else it is refused as by :func:`obstruction`), and
    each canonical coefficient cobounds the obstruction exactly, so the
    loop verifies nothing.  It forms one :class:`_Defects` from the
    first-order series, reads each order's obstruction from it
    (:func:`_obstruction_cochain`), extends it in place, and builds the
    deformation once, at the target order or at a block.  The state
    stays in this call: the result is an ordinary deformation, which
    :func:`obstruction`, :func:`extend` and :func:`trivialize` verify
    once, as any other.
    """
    if target_order < 1:
        raise DimensionError("target order must be >= 1")
    if w.degree != 2:
        raise DimensionError("only degree-2 cochains integrate to deformations")
    d = TruncatedDeformation.from_higher_coefficients(w.morphism, [w])
    comp = morphism_complex(w.morphism)
    comp.require_valid()
    if not comp.coassociative():
        _require_deformation(comp, d)
    nonzero = _first_nonzero(comp.differential(w))
    if nonzero is not None:
        raise InvalidStructureError(
            "not an infinitesimal candidate: coboundary is nonzero in "
            "component %s at entry %s" % nonzero[:2])
    defects = _Defects(d.series_a(), d.series_b(), d.series_f())
    coeffs = list(d.coeffs)
    while len(coeffs) <= target_order:
        x = _solved(comp, _obstruction_cochain(d, defects), len(coeffs))
        if isinstance(x, ObstructionClass):
            return IntegrationResult(TruncatedDeformation(d.morphism, coeffs),
                                     x)
        coeffs.append(x)
        defects.extend(x)
    return IntegrationResult(TruncatedDeformation(d.morphism, coeffs))


# ---------------------------------------------------------------------------
# equivalence


def invert_formal(p: FormalIsomorphism) -> FormalIsomorphism:
    """Componentwise truncated inverse; composing with p gives the identity
    modulo t^(order+1)."""
    inv_a = series.inverse(p.series_a(), p.order)
    inv_b = series.inverse(p.series_b(), p.order)
    return _isomorphism_from_series(p.morphism, inv_a, inv_b)


def compose_isomorphisms(outer: FormalIsomorphism,
                         inner: FormalIsomorphism) -> FormalIsomorphism:
    """The isomorphism acting as ``outer`` after ``inner``."""
    if outer.morphism != inner.morphism or outer.order != inner.order:
        raise DimensionError("isomorphism mismatch")
    n = outer.order
    series_a = series.product(outer.series_a(), inner.series_a(), n)
    series_b = series.product(outer.series_b(), inner.series_b(), n)
    return _isomorphism_from_series(outer.morphism, series_a, series_b)


def _isomorphism_from_series(f, series_a, series_b):
    comp = morphism_complex(f)
    return FormalIsomorphism(f, [comp.element(a, b, None, 1)
                                 for a, b in zip(series_a, series_b)])


def apply_equivalence(p: FormalIsomorphism,
                      d: TruncatedDeformation) -> TruncatedDeformation:
    """Transport a deformation along a formal isomorphism.

    The transport (a', b', F') of (a, b, F) by p = (phi_A, phi_B) is
    defined by a' o phi_A = (phi_A (x) phi_A) o a, b' o phi_B = (phi_B
    (x) phi_B) o b and F' o phi_A = phi_B o F; all orders are read as
    one window (:func:`_window`), so no inverse of p is formed.  The
    result is truncated at the common order.
    """
    if p.morphism != d.morphism:
        raise DimensionError("isomorphism and deformation live over "
                             "different morphisms")
    if p.order != d.order:
        raise DimensionError(
            f"order mismatch: isomorphism has order {p.order}, "
            f"deformation has order {d.order}")
    comp = morphism_complex(d.morphism)
    return TruncatedDeformation(d.morphism, [d.coeffs[0]] + [
        comp.element(*parts, 2) for parts in _window(
            p.series_a(), p.series_b(),
            (d.series_a(), d.series_b(), d.series_f()), 1, d.order)])


def _subtract_shifted(target, l, x, s):
    """Subtract x o s_(k-l) from order k of the target for every k >= l,
    in ints, and return the orders changed.

    Order k of ``target`` is the (ints, den) of a row-major map; x is a
    matrix, and s lists the (ints, den) of maps of x.cols rows and one
    width.  The products x o s_i of the nonzero s_i are one integer
    product of x's ints with their block row [s_0 | .. | s_r] over
    their lcm D; order k becomes its ints less those of x o s_(k-l),
    both over lcm(den, den(x) D).  The block row is formed before any
    order changes, so s may be the target itself.  An order whose
    s_(k-l) is zero, and every order when x is zero, stays as it was.
    """
    if x.is_zero():
        return []
    blocks = [(i, ints, den) for i, (ints, den) in
              enumerate(s[:len(target) - l]) if any(ints)]
    if not blocks:
        return []
    ints, q = x.as_integer_ratio()
    kern = _backend.kernel()
    den = lcm(*(d for _, _, d in blocks))
    scaled = [y if d == den else kern.lincomb(y, den // d)
              for _, y, d in blocks]
    cols, rows, inner = len(scaled[0]) // x.cols, x.rows, x.cols
    width = len(blocks) * cols
    products = kern.matmul(
        ints, [v for p in range(inner) for b in scaled
               for v in b[p * cols:p * cols + cols]], rows, inner, width)
    q *= den
    for t, (i, _, _) in enumerate(blocks):
        part = [v for r in range(rows) for v in
                products[r * width + t * cols:r * width + t * cols + cols]]
        old, d = target[l + i]
        common = lcm(d, q)
        target[l + i] = kern.lincomb(old, common // d, part,
                                     -(common // q)), common
    return [l + i for i, _, _ in blocks]


def _window(phi_a, phi_b, orders, m, top):
    """The orders m..top of the transport c' of the series ``orders`` =
    (a, b, F) by phi = (phi_A, phi_B), whose orders 1..m-1 vanish, as
    triples (a'_n, b'_n, F'_n), from the failure scan and the slot
    reader of one :func:`series._intertwining_defects` product through
    order top.  Slot n of (phi (x) phi) o c - c_0 o phi = (c' - c_0) o
    phi_in, and of phi_B o F - F_0 o phi_A, is sum_(0 < j <= n) c'_j o
    phi_in,(n-j), with phi_in = phi_A for a and F and phi_B for b, and
    phi_in,0 = I.  So slots 1..m-1 vanish (scanned), and the slots
    m..top are read in order, in ints: once c'_j is read, c'_j o
    phi_in,(n-j) is subtracted from every slot n > j
    (:func:`_subtract_shifted`), and slot j + 1 is then c'_(j+1).  With
    m = 1 it reads any transport."""
    k = top + 1
    if k <= m:
        return []
    defects = series._intertwining_defects(
        phi_a[:k], phi_b[:k], *(c[:k] for c in orders))
    failure = defects.failure(m)
    if failure is not None:
        raise InternalInvariantError(
            f"the transport of the {failure[0]} does not vanish below order "
            f"{m}; this indicates a bug, not a property of the input")
    columns = []
    for (shape, slots), phi in zip(defects.slots(range(m, k)),
                                   (phi_a, phi_b, phi_a)):
        below = [x.as_integer_ratio() for x in phi[1:k - m]]
        read = []
        for j, slot in enumerate(slots):
            read.append(Matrix.from_integer_ratio(defects.field, *shape,
                                                  *slot))
            _subtract_shifted(slots, j + 1, read[j], below)
        columns.append(read)
    return list(zip(*columns))


def _step(phi, l, chi):
    """Compose the series phi with I - chi t^l in place: phi_k -= chi
    phi_(k-l), k >= l, from the old phi (:func:`_subtract_shifted`), with
    one matrix per changed order."""
    moved = [x.as_integer_ratio() for x in phi]
    for k in _subtract_shifted(moved, l, chi, moved):
        phi[k] = Matrix.from_integer_ratio(chi.field, phi[k].rows,
                                           phi[k].cols, *moved[k])


def trivialize(d: TruncatedDeformation) -> TrivializationResult:
    """Find a formal isomorphism carrying ``d`` to the trivial deformation.

    Staircase construction: the leading nonzero coefficient w of the
    transported deformation, at order l, is cobounded by chi, and the
    step I - chi t^l, which clears order l without touching lower
    orders, is composed onto the isomorphism phi found so far; the
    composite of the steps is returned.  If some leading coefficient is
    a cocycle but not a coboundary, its degree-2 class blocks and is
    reported.  The exact solve runs first; only when it fails is the
    coefficient classified, which is its cocycle test (:func:`_class_of`).

    The transport by phi is read in the doubling windows of orders
    [m, min(2m - 1, N)], m = 1, 2, 4, .., each from one packed product by
    the phi of the window's start (:func:`_window`); until the first step
    phi is the identity, and a window is d's own orders, read with no
    product.  Steps and windows rest on this lemma: if
    the transport c' by phi vanishes at the orders 0 < j < l, a step
    psi = I - chi t^l changes it only at order l and at orders >= 2l.
    Proof: every other term of (psi (x) psi) o c' o psi^-1, or of psi_B o
    F' o psi_A^-1, pairs chi with a second chi or with some c'_j, j >= l.
    So each chi, a blocked order and its class, and the composite phi
    are those of steps that read the transport one order at a time.  One
    packed check of the final phi (:func:`series.intertwining_failure`)
    replaces a check per step.

    A returned isomorphism always trivializes d, but a reported block
    is the staircase's, not always d's: in characteristic p (seen for
    p = 2, 3 and 5) it can block on a deformation that is trivial (the
    gauge transport of the trivial one), at an order that is a multiple
    of p.  Each step takes the canonical chi, which can differ from a
    trivializing one by a 1-cocycle that does not exponentiate in
    characteristic p, such as the dual of d/dx on k[x]/(x^p) for
    id(dp_p), whose gauge I + chi t is reported blocked at order p.

    The final check also certifies d itself, so an unverified d (no
    report kept on it) is verified only where the staircase fails.  That
    check reads (phi_A (x) phi_A) o a = a_0 o phi_A, (phi_B (x) phi_B) o
    b = b_0 o phi_B and phi_B o F = F_0 o phi_A through order N: d is
    the transport of its order-0 terms (a_0, b_0, F_0) by phi^-1, and a
    transport of a deformation is one.  So d is a deformation when (a_0,
    b_0, F_0) is, that is when a_0 and b_0 are coassociative and F_0 is
    a morphism: those two checks, kept in the record of the complex
    (:meth:`MorphismComplex.coassociative`,
    :meth:`MorphismComplex.require_valid`), run first.  Only a block, or
    an InternalInvariantError, which a series that is no deformation can
    raise, verifies d; a d that is no deformation is then refused as by
    :func:`obstruction`, with the report kept on d.  A returned
    isomorphism keeps no report on d, so :func:`verify_deformation` of
    it is still a computed check.
    """
    comp = morphism_complex(d.morphism)
    comp.require_valid()
    if not (d._verification is None and comp.coassociative()):
        _require_deformation(comp, d)
    n, identity = d.order, FormalIsomorphism.identity(d.morphism, d.order)
    phi_a, phi_b = identity.series_a(), identity.series_b()
    orders = d.series_a(), d.series_b(), d.series_f()
    m, stepped = 1, False
    # a block or an InternalInvariantError verifies d (reads its kept
    # report when it was verified above)
    try:
        while m <= n:
            # until the first step phi is the identity: d is its own
            # transport
            top = min(2 * m - 1, n)
            window = _window(phi_a, phi_b, orders, m, top) if stepped else \
                zip(*(c[m:top + 1] for c in orders))
            for l, parts in enumerate(window, m):
                w = comp.element(*parts, 2)
                if w.is_zero():
                    continue
                chi = comp.is_coboundary(w)
                if chi is None:
                    h2_class = _class_of(
                        comp, w, "leading coefficient of a valid deformation "
                        "must be a 2-cocycle")
                    _require_deformation(comp, d)
                    return TrivializationResult(False, None, l, w, h2_class)
                _step(phi_a, l, chi.a_part.matrix)
                _step(phi_b, l, chi.b_part.matrix)
                stepped = True
            m *= 2
        failure = series.intertwining_failure(phi_a, phi_b, *orders)
        if failure is not None:
            raise InternalInvariantError(
                "the trivializing isomorphism fails on the %s at order %d; "
                "this indicates a bug, not a property of the input" % failure)
    except InternalInvariantError:
        _require_deformation(comp, d)
        raise
    return TrivializationResult(
        True, _isomorphism_from_series(d.morphism, phi_a, phi_b))
