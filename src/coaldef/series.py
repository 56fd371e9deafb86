"""Truncated power series in t with matrix coefficients.

A series is a list of :class:`~coaldef.exactlinalg.Matrix` coefficients
indexed by the power of t; a coefficient past the end of a list counts
as zero.  This is the arithmetic that :mod:`coaldef.deformation` builds
deformations, formal isomorphisms and their transport on:

* the one per-order product, the order-n coefficient sum_i l_i o
  r_(n-i) of two series (:class:`Cauchy`), which :func:`product`,
  :func:`inverse` (for ``invert_formal`` only) and the obstruction of
  an integration query (the staircase of :mod:`coaldef.deformation`
  updates its series by one integer product per step or read order
  instead);
* Kronecker substitution: one scale (L, D) and one slot width per
  packed equation for several series, from stated bounds on the slots
  (:func:`packing`, :func:`packed`), and the test that the slots of a
  packed equation vanish (:func:`first_nonzero_slot`);
* the morphism equation (f (x) f) o a = b o f of series, packed, with
  its slot bound (:func:`morphism_defect`, :func:`morphism_bound`): the
  morphism condition of a deformation, and each comultiplication side
  of the packed defects of a formal isomorphism phi intertwining a
  deformation with its order-0 terms (:func:`_intertwining_defects`).
  Their slots are the transport by phi composed with phi, from which
  the transport is read, and decide whether phi trivializes the
  deformation (:func:`intertwining_failure`).

Each slot bound is proved once, in the docstring of the function or
class that packs with it.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul

from . import _backend
from .coalgebra import factor_ints, factor_read
from .exactlinalg import Matrix


# ---------------------------------------------------------------------------
# products


def nonzero(s, order):
    """The nonzero coefficients of a series through ``order``, by order
    (a coefficient past the end of a series is zero)."""
    return {i: x for i, x in enumerate(s[:order + 1]) if not x.is_zero()}


def _kept(x):
    """(ints, denominator, largest |int|) of a matrix, an entry of the
    tables of :class:`Cauchy` (a query appends w and the packed rows)."""
    ints, den = x.as_integer_ratio()
    return ints, den, max(map(abs, ints), default=0)


def _put(table, n, x):
    """A copy of the table with order n set to the matrix x, or removed
    when x is None or zero."""
    if x is None or x.is_zero():
        return {j: y for j, y in table.items() if j != n}
    return {**table, n: _kept(x)}


class Cauchy:
    """The order-n coefficient sum_i l_i o r_(n-i) of a left series l of
    rows x inner maps and a right series r, each right coefficient read
    as an inner x cols map, for ``shape`` = (rows, inner, cols).

    Each nonzero coefficient is kept once: its ints, denominator q_i
    (q'_j on the right) and largest |int| M_i (M'_j), and a right one,
    once a query pairs it, as inner rows packed (:func:`_kernels_py.pack`)
    at one slot width w, the columns given by ``read`` (by default its
    own; each entry one of the coefficient's) as slots.  Over Q =
    lcm_i(q_i q'_(n-i)), row r at order n is one ``sum(map(mul, ..))``:
    the row-r entries of every l_i, scaled by c_i = Q / (q_i q'_(n-i)),
    against the packed rows of the r_(n-i), all pairs concatenated.

    Slot bound: slot c of row r is sum_i c_i sum_(p < inner) l_i[r, p]
    y_i[p], with the y_i[p] entries of r_(n-i), so its absolute value is
    at most inner sum_i M_i c_i M'_(n-i).  A w one bit longer puts every
    slot strictly within 2^(w-1), where :func:`_kernels_py.unpack` reads
    it exactly.  When a query's bound outgrows w, the right rows are
    packed again, as each is paired, at twice the width it needs, so w at
    least doubles at each repack: entries growing about linearly in bits
    with the order repack O(log N) times through order N.

    Only kept pairs are summed, so a coefficient not yet known counts as
    zero.  :meth:`with_left` and :meth:`with_right` add to copies of the
    tables, and a query that packs replaces the right table, so states
    that share a table never see it change; no result depends on w.
    """

    __slots__ = ("shape", "read", "left", "right", "w")

    def __init__(self, left, right, shape, read=None):
        """From the nonzero coefficients by order (:func:`nonzero`)."""
        self.shape, self.read, self.w = shape, read, 0
        self.left = {n: _kept(x) for n, x in left.items()}
        self.right = {n: _kept(x) for n, x in right.items()}

    def _with(self, left, right):
        grown = object.__new__(Cauchy)
        grown.shape, grown.read, grown.w = self.shape, self.read, self.w
        grown.left, grown.right = left, right
        return grown

    def with_left(self, n, x):
        """The state with x (None for zero) the order-n left coefficient."""
        return self._with(_put(self.left, n, x), self.right)

    def with_right(self, n, x):
        """The state with x (None for zero) the order-n right coefficient."""
        return self._with(self.left, _put(self.right, n, x))

    def _packed(self, ints):
        """The packed inner rows of a right coefficient at width w."""
        cols = self.shape[2]
        return _backend.kernel().pack(
            self.read(ints) if self.read
            else [ints[c::cols] for c in range(cols)], self.w)

    def ratio(self, n):
        """(columns, Q): the ints of the order-n coefficient over Q, column
        by column (zeros over 1 when no kept pair sums to order n)."""
        rows, inner, cols = self.shape
        left, right = self.left, self.right
        pairs = [(left[i], right[n - i], n - i) for i in left
                 if n - i in right]
        if not pairs:
            return [[0] * rows] * cols, 1
        dens = [x[1] * y[1] for x, y, _ in pairs]
        den = lcm(*dens)
        scales = [den // q for q in dens]
        w = (inner * sum(x[2] * c * y[2] for (x, y, _), c in
                         zip(pairs, scales))).bit_length() + 1
        if w > self.w:
            self.w = 2 * w
        stale = {j: y for _, y, j in pairs if y[3:4] != (self.w,)}
        if stale:
            self.right = right = {**right, **{
                j: y[:3] + (self.w, self._packed(y[0]))
                for j, y in stale.items()}}
        packed = [v for _, _, j in pairs for v in right[j][4]]
        lefts = [x[0] if c == 1 else [c * v for v in x[0]]
                 for (x, _, _), c in zip(pairs, scales)]
        sums = [sum(map(mul, [v for x in lefts for v in x[r:r + inner]],
                        packed))
                for r in range(0, rows * inner, inner)]
        return _backend.kernel().unpack(sums, self.w, range(cols)), den

    def at(self, n, field, base=None):
        """The order-n coefficient, a matrix; with a base (ints, den) of
        row-major ints, the matrix of the base less it."""
        columns, den = self.ratio(n)
        ints = list(chain.from_iterable(zip(*columns)))
        if base:
            q = lcm(den, base[1])
            ints, den = _backend.kernel().lincomb(
                base[0], q // base[1], ints, -(q // den)), q
        return Matrix.from_integer_ratio(field, self.shape[0], self.shape[2],
                                         ints, den)


def product(a, b, order):
    """Product of two truncated matrix series, truncated at ``order``:
    the order-n coefficient sum_i a_i o b_(n-i) is one query of their
    :class:`Cauchy` state, which tests each coefficient for zero once."""
    sums = Cauchy(nonzero(a, order), nonzero(b, order),
                  (a[0].rows, a[0].cols, b[0].cols))
    return [sums.at(n, a[0].field) for n in range(order + 1)]


def inverse(a, order):
    """Inverse of a truncated series whose constant term is the identity:
    inv_0 = a_0, and inv_n = sum_(0<i<=n) (-a_i) inv_(n-i) is one query
    of a :class:`Cauchy` state whose right series, the inverse, grows."""
    k, field = a[0].rows, a[0].field
    sums = Cauchy({i: -x for i, x in nonzero(a, order).items()},
                  {0: a[0]}, (k, k, k))
    inv = [a[0]]
    for n in range(1, order + 1):
        inv.append(sums.at(n, field))
        sums = sums.with_right(n, inv[n])
    return inv


# ---------------------------------------------------------------------------
# Kronecker substitution


def _scales(dens):
    """Candidate (L, D) with every dens[i] dividing L D^i: D = 1 with L
    the lcm of dens, and D = dens[1] with the least such L.

    Transport and integration give order-i denominators that grow like
    a power of the order-1 one, so the second choice keeps the packed
    slots of the low orders from being padded with the denominators of
    the high ones.
    """
    step = dens[1] if len(dens) > 1 else 1
    return [(lcm(*dens), 1),
            (lcm(*(q // gcd(q, step ** i) for i, q in enumerate(dens))),
             step)]


def convolve(x, y):
    """The Cauchy product (x * y)(n) = sum_i x(i) y(n-i) of two lists of
    one length, truncated to it."""
    return [sum(map(mul, x[:n + 1], y[n::-1])) for n in range(len(x))]


def packing(ratios, k, bounds):
    """(L, D, slot widths) for packing k orders of several series, given
    by the ``as_integer_ratio`` of each coefficient (a series may stop
    early).  ``bounds(peaks, L)`` gives, from each series' largest
    scaled entry at each order, the bounds of the slots of each packed
    equation; each width is one bit longer than its largest bound, and
    of the scales of :func:`_scales` the one with the least total width
    is taken."""
    dens = [lcm(*(r[i][1] for r in ratios if i < len(r))) for i in range(k)]
    peaks = [[(max(map(abs, ints), default=0), q) for ints, q in r]
             + [(0, 1)] * (k - len(r)) for r in ratios]

    def widths(unit, step):
        scaled = [[peak * (unit * step ** i // q)
                   for i, (peak, q) in enumerate(p)] for p in peaks]
        return [max(b).bit_length() + 1 for b in bounds(scaled, unit)]

    return min(((unit, step, widths(unit, step))
                for unit, step in _scales(dens)),
               key=lambda choice: sum(choice[2]))


def packed(r, w, unit, step):
    """The packed ints of a series given by its coefficients'
    ``as_integer_ratio`` list r, order i scaled to ints over L D^i."""
    kern = _backend.kernel()
    return kern.pack([kern.lincomb(ints, unit * step ** i // q)
                      for i, (ints, q) in enumerate(r)], w)


def morphism_bound(m_f, m_a, m_b, d, e, unit):
    """The order-n slot bounds of :func:`morphism_defect`, from the
    largest scaled entries M_f(i), M_a(i), M_b(i) of the order-i
    coefficients (lists of one length), with (x * y)(n) = sum_i x(i)
    y(n-i) (:func:`convolve`):

        |slot n| <= d^2 (M_f * M_f * M_a)(n) + e L (M_b * M_f)(n).

    An entry of (f_j (x) f_l) o a_i is a sum of d^2 products of one
    entry of each, an entry of b_i o f_j a sum of e, and slot n sums
    them over i + j + l = n and i + j = n.  Through order K this is at
    most (K + 1)^2 d^2 M_f^2 M_a + (K + 1) e L M_b M_f with the largest
    entries over all orders; the convolutions are tighter when the
    coefficients grow with the order, as under transport and integration.
    """
    return [d * d * x + e * unit * y for x, y in
            zip(convolve(convolve(m_f, m_f), m_a), convolve(m_b, m_f))]


def morphism_defect(r_f, r_a, r_b, d, e, k, w, unit, step):
    """The packed ints of (f (x) f) o a - L b o f, whose slot n < k is
    the order-n coefficient of the morphism equation (f (x) f) o a =
    b o f over L^3 D^n, for series f: X -> Y, a: X -> X (x) X and
    b: Y -> Y (x) Y (dim X = d, dim Y = e) given as for :func:`packed`;
    :func:`morphism_bound` bounds the slots.

    (f (x) f) o a is (f (x) Id) o (Id (x) f) o a.  The slots of the
    inner product above k - 1 only reach slots above k - 1, so they are
    dropped: the masked ints differ by multiples of 2^(k w).
    """
    f, a, b = (packed(r, w, unit, step) for r in (r_f, r_a, r_b))
    low = (1 << k * w) - 1
    fa = [x & low for x in factor_ints(f, factor_read(a, d, d, d),
                                       e, d, d, d, right=True)]
    return _backend.kernel().lincomb(
        factor_ints(f, fa, e, d, e, d), 1,
        factor_ints(b, f, e * e, e, 1, d), -unit)


def _intertwining_defects(phi_a, phi_b, series_a, series_b, series_f):
    """(L, D, [(equation, slot width, packed ints)]) of

    * (phi_A (x) phi_A) o a - L a_0 o phi_A ("source comultiplication"),
    * (phi_B (x) phi_B) o b - L b_0 o phi_B ("target comultiplication"),
    * phi_B o F - F_0 o phi_A ("morphism"),

    for series of order N = len(a) - 1, every series scaled by one (L, D)
    (:func:`packing`): slot n <= N is the order-n coefficient over L^3 D^n
    for a comultiplication, :func:`morphism_defect` with f = phi, a = c
    and b = [c_0], and over L^2 D^n for the morphism.  That difference is
    a linear square: with M_p(i), M_q(i), M_f(i) the largest scaled
    entries of phi_A, phi_B, F and d, e the source and target
    dimensions, its slot n is a sum of e products phi_B,i F_(n-i) and d
    products F_0 phi_A,n, so

    * |slot n| <= e (M_q * M_f)(n) + d M_f(0) M_p(n).
    """
    k = len(series_a)
    dim_a, dim_b = series_a[0].cols, series_b[0].cols
    r_p, r_q, r_a, r_b, r_f = ([m.as_integer_ratio() for m in s] for s in
                               (phi_a, phi_b, series_a, series_b, series_f))

    def bounds(peaks, unit):
        m_p, m_q, m_a, m_a0, m_b, m_b0, m_f = peaks
        return [morphism_bound(m_p, m_a, m_a0, dim_a, dim_a, unit),
                morphism_bound(m_q, m_b, m_b0, dim_b, dim_b, unit),
                [dim_b * x + dim_a * m_f[0] * y
                 for x, y in zip(convolve(m_q, m_f), m_p)]]

    unit, step, (w_a, w_b, w_f) = packing(
        [r_p, r_q, r_a, r_a[:1], r_b, r_b[:1], r_f], k, bounds)
    kern = _backend.kernel()
    p, q, f, f0 = (packed(r, w_f, unit, step) for r in (r_p, r_q, r_f,
                                                        r_f[:1]))
    return unit, step, [
        ("source comultiplication", w_a, morphism_defect(
            r_p, r_a, r_a[:1], dim_a, dim_a, k, w_a, unit, step)),
        ("target comultiplication", w_b, morphism_defect(
            r_q, r_b, r_b[:1], dim_b, dim_b, k, w_b, unit, step)),
        ("morphism", w_f, kern.lincomb(
            kern.matmul(q, f, dim_b, dim_b, dim_a), 1,
            kern.matmul(f0, p, dim_b, dim_a, dim_a), -1))]


def intertwining_failure(phi_a, phi_b, series_a, series_b, series_f):
    """The first (equation, order) at which a difference of
    :func:`_intertwining_defects` is nonzero, or None when all vanish
    through order N: then phi carries the deformation to its order-0
    terms, as phi is invertible."""
    k = len(series_a)
    for label, w, ints in _intertwining_defects(
            phi_a, phi_b, series_a, series_b, series_f)[2]:
        failure = first_nonzero_slot(ints, w, k, series_a[0].field)
        if failure is not None:
            return label, failure[0]
    return None


def first_nonzero_slot(packed, w, k, field):
    """The first (order, entry index) at which the slots 0..k-1 of the
    packed ints (see :mod:`coaldef._kernels_py`) are nonzero in the
    field, by order, then by entry; None when all of them vanish.

    Over QQ one mask decides each entry: slots 0..k-1 lie strictly
    within 2^(w-1), so sum_(i<k) x_i 2^(i w) lies strictly within
    2^(k w - 1), and it is 0 modulo 2^(k w) only when every x_i is 0.
    The slots are unpacked only when some int fails its mask.  Over
    GF(p) a vanishing slot is a multiple of p, so the slots are
    unpacked and read modulo p.
    """
    rational = field.kind == "rational"
    if rational:
        low = (1 << k * w) - 1
        if not any(x & low for x in packed):
            return None
    for n, slot in enumerate(_backend.kernel().unpack(packed, w, range(k))):
        if not rational:
            slot = list(map(field.p.__rmod__, slot))
        if any(slot):
            return n, next(i for i, x in enumerate(slot) if x)
    return None
