"""Truncated power series in t with matrix coefficients.

A series is a list of :class:`~coaldef.exactlinalg.Matrix` coefficients
indexed by the power of t; a coefficient past the end of a list counts
as zero.  This is the arithmetic that :mod:`coaldef.deformation` builds
deformations, formal isomorphisms and their transport on:

* the per-order Cauchy product (:func:`product`), each coefficient one
  stacked product of its nonzero pairs, and the inverse of a series with
  identity constant term (:func:`inverse`, for ``invert_formal`` only),
  each order one stacked product too;
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

Each slot bound is proved once, in the docstring of the function that
packs with it.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from . import _backend
from .coalgebra import factor_ints, factor_product, factor_read
from .exactlinalg import Matrix


# ---------------------------------------------------------------------------
# products


def nonzero(s, order):
    """The nonzero coefficients of a series through ``order``, by order
    (a coefficient past the end of a series is zero)."""
    return {i: x for i, x in enumerate(s[:order + 1]) if not x.is_zero()}


def pairs(a, b, n):
    """The pairs (a_i, b_(n-i)) of the order-n coefficient of a product,
    for two series given by their :func:`nonzero` coefficients."""
    return [(x, b[n - i]) for i, x in a.items() if n - i in b]


def product(a, b, order):
    """Product of two truncated matrix series, truncated at ``order``:
    the order-n coefficient sum_i a_i o b_(n-i) is one stacked product
    of its nonzero pairs.  Every coefficient is tested for zero, and
    read, once."""
    zero = Matrix.zeros(a[0].field, a[0].rows, b[0].cols)
    ms, xs = nonzero(a, order), nonzero(b, order)
    return [factor_product(p) if (p := pairs(ms, xs, n)) else zero
            for n in range(order + 1)]


def inverse(a, order):
    """Inverse of a truncated series whose constant term is the identity:
    inv_0 = a_0 and inv_n = -sum_(0<i<=n) a_i inv_(n-i), one stacked
    product of the nonzero pairs."""
    higher = {i: x for i, x in nonzero(a, order).items() if i}
    zero = Matrix.zeros(a[0].field, a[0].rows, a[0].cols)
    inv, live = [a[0]], {0: a[0]}
    for n in range(1, order + 1):
        below = pairs(higher, live, n)
        inv.append(-factor_product(below) if below else zero)
        if not inv[n].is_zero():
            live[n] = inv[n]
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
