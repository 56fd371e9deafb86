"""Independent element-level oracles for the core operators.

These re-derive the differential and the equivalence transport by
explicit basis-vector bookkeeping with plain Fractions (no Kronecker
products, no matrix class in the computation), then compare entrywise
with the production implementations.
"""

from fractions import Fraction

from coaldef.coalgebra import pack_index, unpack_index
from coaldef.cohomology import HochschildComplex, MorphismComplex
from coaldef.deformation import TruncatedDeformation, apply_equivalence
from coaldef.exactlinalg import QQ, Matrix

from helpers import (
    fresh_rng,
    random_bicomodule,
    random_cochain,
    random_isomorphism,
    random_morphism,
)


def naive_delta(bicomodule, cochain, degree):
    """Evaluate the coboundary on each basis vector by index chasing."""
    d = bicomodule.over.dim
    m = bicomodule.dim
    delta = bicomodule.over.delta
    sigma = cochain.matrix
    out = [[Fraction(0)] * m for _ in range(d ** (degree + 1))]
    sign_last = 1 if (degree + 1) % 2 == 0 else -1
    for j in range(m):
        for row in range(d * m):
            c = bicomodule.psi_l[row, j]
            if c:
                a, mp = divmod(row, m)
                for t in range(d ** degree):
                    s = sigma[t, mp]
                    if s:
                        out[a * d ** degree + t][j] += c * s
        for i in range(1, degree + 1):
            sign = -1 if i % 2 else 1
            for t in range(d ** degree):
                s = sigma[t, j]
                if not s:
                    continue
                idx = unpack_index(t, d, degree)
                for r in range(d * d):
                    cd = delta[r, idx[i - 1]]
                    if cd:
                        p, q = divmod(r, d)
                        target = idx[:i - 1] + (p, q) + idx[i:]
                        out[pack_index(target, d)][j] += sign * cd * s
        for row in range(m * d):
            c = bicomodule.psi_r[row, j]
            if c:
                mp, a = divmod(row, d)
                for t in range(d ** degree):
                    s = sigma[t, mp]
                    if s:
                        out[t * d + a][j] += sign_last * c * s
    return out


def test_delta_c_matches_index_chasing_oracle():
    rng = fresh_rng(1234)
    checked = 0
    while checked < 25:
        m = random_bicomodule(rng, max_dim=2)
        if m.dim == 0 or m.over.dim == 0:
            continue
        degree = rng.randint(1, 3)
        w = random_cochain(m, degree, rng, bound=5)
        hc = HochschildComplex(m)
        expected = naive_delta(m, w, degree)
        assert hc.differential(w).matrix.to_rows() == expected
        checked += 1


def naive_series(mat_series, order):
    """Matrix power series as nested Fraction lists."""
    return [[[Fraction(x) for x in row] for row in m.to_rows()]
            for m in mat_series]


def naive_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if x:
                for j in range(m):
                    out[i][j] += x * b[t][j]
    return out


def test_apply_equivalence_matches_series_oracle():
    from coaldef.deformation import integrate
    from helpers import random_cocycle

    rng = fresh_rng(4321)
    for trial in range(6):
        f = random_morphism(rng, max_dim=2)
        comp = MorphismComplex(f)
        order = rng.randint(1, 3)
        p = random_isomorphism(comp, order, rng)
        if trial % 2:
            d = TruncatedDeformation.trivial(f, order)
        else:
            d = integrate(random_cocycle(comp, rng), order).deformation
            if d.order < order:
                p = random_isomorphism(comp, d.order, rng)
                order = d.order
        moved = apply_equivalence(p, d)

        def series(mats):
            return naive_series(mats, order)

        def cauchy(a, b):
            return [
                _sum_terms([naive_mul(a[i], b[n - i]) for i in range(n + 1)])
                for n in range(order + 1)
            ]

        def kron_entry(a, b):
            ra, ca = len(a), len(a[0]) if a else 0
            rb, cb = len(b), len(b[0]) if b else 0
            out = [[Fraction(0)] * (ca * cb) for _ in range(ra * rb)]
            for i in range(ra):
                for j in range(ca):
                    if a[i][j]:
                        for s in range(rb):
                            for t in range(cb):
                                out[i * rb + s][j * cb + t] = a[i][j] * b[s][t]
            return out

        def cauchy_kron(a, b):
            return [
                _sum_terms([kron_entry(a[i], b[n - i]) for i in range(n + 1)])
                for n in range(order + 1)
            ]

        def inverse(a):
            ident = a[0]
            inv = [ident]
            for n in range(1, order + 1):
                acc = _sum_terms([naive_mul(a[k], inv[n - k])
                                  for k in range(1, n + 1)])
                inv.append([[-x for x in row] for row in acc])
            return inv

        phi_a = series(p.series_a())
        phi_b = series(p.series_b())
        inv_a = inverse(phi_a)
        inv_b = inverse(phi_b)
        da = series(d.series_a())
        db = series(d.series_b())
        df = series(d.series_f())
        exp_a = cauchy(cauchy_kron(phi_a, phi_a), cauchy(da, inv_a))
        exp_b = cauchy(cauchy_kron(phi_b, phi_b), cauchy(db, inv_b))
        exp_f = cauchy(phi_b, cauchy(df, inv_a))
        for n in range(order + 1):
            assert moved.comul_a(n).to_rows() == exp_a[n]
            assert moved.comul_b(n).to_rows() == exp_b[n]
            assert moved.map_coeff(n).to_rows() == exp_f[n]


def _sum_terms(terms):
    out = [[Fraction(0)] * len(terms[0][0]) for _ in range(len(terms[0]))]
    for term in terms:
        for i, row in enumerate(term):
            for j, x in enumerate(row):
                out[i][j] += x
    return out


def reference_obstruction(d):
    """The obstruction sum written out term by term over split indices.

    Only products of coefficients of orders 1..N enter; this is the
    independent formula that the next-order defect of the deformation
    equations must reproduce exactly.
    """
    f = d.morphism
    n = d.order
    sa, sb, sf = d.series_a(), d.series_b(), d.series_f()

    def comp_sum(series, dim):
        ident = Matrix.identity(f.field, dim)
        acc = Matrix.zeros(f.field, dim ** 3, dim)
        for i in range(1, n + 1):
            s, t = series[i], series[n + 1 - i]
            acc = acc + (s.kron(ident) - ident.kron(s)) @ t
        return acc

    ob_f = Matrix.zeros(f.field, f.target.dim ** 2, f.source.dim)
    for i in range(n + 1):
        for j in range(n + 2 - i):
            k = n + 1 - i - j
            if k <= n and j <= n:
                ob_f = ob_f + sf[j].kron(sf[k]) @ sa[i]
    for i in range(1, n + 1):
        ob_f = ob_f - sb[n + 1 - i] @ sf[i]
    return comp_sum(sa, f.source.dim), comp_sum(sb, f.target.dim), ob_f


def _random_series_deformation(rng, f, comp, order):
    """Random coefficients of every order: almost never a deformation."""
    field = f.field

    def entry():
        if field.kind == "rational":
            return Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        return rng.randrange(field.p)

    def mat(rows, cols):
        if not rows or not cols:
            return Matrix.zeros(field, rows, cols)
        return Matrix.from_rows(field, [[entry() for _ in range(cols)]
                                        for _ in range(rows)])

    sd, td = f.source.dim, f.target.dim
    higher = [comp.element(mat(sd * sd, sd), mat(td * td, td),
                           mat(td, sd), 2) for _ in range(order)]
    constant = comp.element(f.source.delta, f.target.delta, f.matrix, 2)
    d = TruncatedDeformation(f, [constant] + higher)
    d._complex = comp
    return d


def test_obstruction_matches_reference_sum_on_random_series(monkeypatch):
    from coaldef.coalgebra import (CoalgebraMorphism, collapse_morphism,
                                   divided_power, grouplike, identity_morphism)
    from coaldef.deformation import _obstruction_cochain
    from coaldef.exactlinalg import PrimeField

    # the cochain is compared, not its 3-cocycle check, which random
    # coefficients fail
    monkeypatch.setattr(MorphismComplex, "is_cocycle", lambda self, w: True)
    rng = fresh_rng(2718)
    for field in (QQ, PrimeField(2), PrimeField(101)):
        morphisms = [identity_morphism(divided_power(3, field)),
                     collapse_morphism(3, field),
                     CoalgebraMorphism(grouplike(2, field), grouplike(1, field),
                                       Matrix.from_rows(field, [[1, 3]]))]
        if field is QQ:
            morphisms.append(random_morphism(rng, max_dim=2))
        for f in morphisms:
            comp = MorphismComplex(f, validate=False)
            for order in range(4):
                d = _random_series_deformation(rng, f, comp, order)
                ob = _obstruction_cochain(d)
                assert (ob.a_part.matrix, ob.b_part.matrix,
                        ob.ab_part.matrix) == reference_obstruction(d)


def test_obstruction_matches_reference_sum_on_deformations():
    from coaldef.deformation import _obstruction_cochain, integrate
    from helpers import random_cocycle

    rng = fresh_rng(1618)
    for _ in range(6):
        f = random_morphism(rng, max_dim=3)
        comp = MorphismComplex(f)
        d = integrate(random_cocycle(comp, rng), 3).deformation
        d = apply_equivalence(random_isomorphism(comp, d.order, rng), d)
        for n in range(d.order + 1):
            trunc = d.truncate(n)
            ob = _obstruction_cochain(trunc)
            assert (ob.a_part.matrix, ob.b_part.matrix,
                    ob.ab_part.matrix) == reference_obstruction(trunc)
