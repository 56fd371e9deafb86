"""Independent element-level oracles for the core operators.

These re-derive the differential and the equivalence transport by
explicit basis-vector bookkeeping with plain Fractions (no Kronecker
products, no matrix class in the computation), then compare entrywise
with the production implementations.  The Kronecker-product form of the
coboundaries, with its column-probing matrix assembly, is kept here as
the reference for the sparse assembly of the differentials, the dense
Cauchy loops of the matrix power series as the reference for the
zero-skipping series product, the per-term rational matrix product as
the reference for the fraction-free one, s (x) Id - Id (x) s as the
reference for the fused coassociativity defect, and Kronecker products
with identity matrices as the reference for the tensor-factor products
of the structure checks, the push-forward and the change of basis.
The dense routines of reference.py (kernel_basis, image_basis,
quotient_data, solve on one Gauss-Jordan) applied to the dense
differential_matrix are the reference for the sparse elimination behind
cohomology, is_coboundary and class_coordinates, and on random kernel
and image pairs for the one sparse.Quotient.  The staircase loop of
reference.py, which transports the whole deformation at every step, is
the reference for the incremental trivialize.  A full read of the
unpacked defects is the reference for the packed zero tests of
verify_deformation.  The json module's indented encoder is the reference
for the problem-file writer, and reading one scalar at a time for the
reader that decodes a matrix's scalars together.
The long exact sequence of the mapping cone gives dim H^n(f) from three
Hochschild complexes and the connecting map, without MorphismComplex.
"""

import json
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from coaldef import exactlinalg, sparse
from coaldef.cli import main as cli_main
from coaldef.coalgebra import (
    Bicomodule,
    Coalgebra,
    CoalgebraMorphism,
    InvalidStructureError,
    bicomodule_via,
    change_basis,
    _difference_report,
    _pushed_forward,
    change_basis_morphism,
    check_bicomodule,
    check_coassociative,
    check_morphism,
    collapse_morphism,
    divided_power,
    grouplike,
    identity_morphism,
    inclusion_morphism,
    middle_insertion,
    pack_index,
    regular_bicomodule,
    tensor_power_map,
    unpack_index,
    zero_comultiplication,
    zero_morphism,
)
from coaldef.cohomology import (
    Cochain,
    HochschildComplex,
    MorphismCochain,
    MorphismComplex,
    _ComplexBase,
    morphism_complex,
)
from coaldef.deformation import (
    _EQUATIONS,
    DeformationReport,
    FormalIsomorphism,
    InternalInvariantError,
    TruncatedDeformation,
    _Defects,
    _cauchy_kron,
    _obstruction_cochain,
    _verified,
    _step,
    _subtract_shifted,
    _window,
    apply_equivalence,
    comp_bar,
    compose_isomorphisms,
    extend,
    integrate,
    invert_formal,
    obstruction,
    trivialize,
    verify_deformation,
)
from coaldef.exactlinalg import (QQ, Matrix, PrimeField, QuotientError,
                                 _column_matrix)
from coaldef.problemfile import (ProblemFile, ProblemFileError, _decoded,
                                 _parse_scalar, builtin_corpus,
                                 parse_problem_text, serialize_problem)
from coaldef.series import Cauchy, convolve, intertwining_failure
from coaldef.series import inverse as series_inverse
from coaldef.series import product as series_product
from coaldef.series import nonzero as series_nonzero
from coaldef.sparse import kernel_vectors

from helpers import (
    LARGE_PRIMES,
    field_matrix,
    fresh_rng,
    invertible_matrix,
    random_bicomodule,
    random_cochain,
    random_isomorphism,
    random_morphism,
    random_morphism_cochain,
    seed_coalgebras,
    seed_morphisms,
)
from reference import (image_basis, kernel_basis, quotient_data, rank,
                       read_defects, reference_serialize_problem,
                       reference_trivialize, solve)


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


def reference_differential(complex_, w):
    """The coboundary as Kronecker products and insertion matrices.

    Hochschild: (Id (x) s) psi_l + sum_i (-1)^i (Id^(i-1) (x) delta (x)
    Id^(n-i)) s + (-1)^(n+1) (s (x) Id) psi_r.  Deformation complex:
    (delta_c a, delta_c b, b f - f^(x)n a - delta_c ab).
    """
    n = w.degree
    if isinstance(complex_, MorphismComplex):
        if n == 0:
            return complex_.zero(1)
        f = complex_.morphism
        da = reference_differential(complex_.on_source, w.a_part)
        db = reference_differential(complex_.on_target, w.b_part)
        mixed = (w.b_part.matrix @ f.matrix
                 - tensor_power_map(f.matrix, n) @ w.a_part.matrix
                 - reference_differential(complex_.mixed, w.ab_part).matrix)
        return MorphismCochain(f, n + 1, da, db,
                               Cochain(complex_.mixed.bicomodule, n, mixed))
    m = complex_.bicomodule
    if n == 0:
        return Cochain.zero(m, 1)
    ident = Matrix.identity(m.field, m.over.dim)
    total = ident.kron(w.matrix) @ m.psi_l
    for i in range(1, n + 1):
        term = middle_insertion(m.over, n, i) @ w.matrix
        total = total - term if i % 2 else total + term
    last = w.matrix.kron(ident) @ m.psi_r
    total = total + last if n % 2 else total - last
    return Cochain(m, n + 1, total)


def reference_differential_matrix(complex_, n):
    """D_n column by column: the reference coboundary of each basis cochain."""
    src = complex_.cochain_dim(n)
    tgt = complex_.cochain_dim(n + 1)
    if not (src and tgt):
        return Matrix.zeros(complex_.field, tgt, src)
    cols = []
    for idx in range(src):
        entries = [0] * src
        entries[idx] = 1
        image = reference_differential(complex_, complex_.from_flat(n, entries))
        cols.append(complex_.flatten(image).column_entries(0))
    return Matrix.from_rows(complex_.field,
                            [[c[i] for c in cols] for i in range(tgt)])


ORACLE_FIELDS = (QQ, PrimeField(2), PrimeField(101))


def _random_element(complex_, degree, rng):
    if degree == 0:
        return complex_.zero(0)
    if isinstance(complex_, MorphismComplex):
        return random_morphism_cochain(complex_, degree, rng, bound=5)
    return random_cochain(complex_.bicomodule, degree, rng, bound=5)


def _assert_matches_reference(complex_, rng, degrees=range(4)):
    for n in degrees:
        assert complex_.differential_matrix(n) == \
            reference_differential_matrix(complex_, n)
        w = _random_element(complex_, n, rng)
        assert complex_.differential(w) == reference_differential(complex_, w)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_hochschild_assembly_matches_reference(seed, field):
    rng = fresh_rng(seed)
    _assert_matches_reference(
        HochschildComplex(random_bicomodule(rng, max_dim=2, field=field)), rng)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_morphism_assembly_matches_reference(seed, field):
    rng = fresh_rng(seed)
    _assert_matches_reference(
        MorphismComplex(random_morphism(rng, max_dim=2, field=field)), rng)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_element_differential_matches_reference_in_dimension_three(seed,
                                                                   field):
    rng = fresh_rng(seed)
    comp = MorphismComplex(random_morphism(rng, max_dim=3, field=field))
    for n in range(4):
        w = _random_element(comp, n, rng)
        assert comp.differential(w) == reference_differential(comp, w)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_assembly_matches_reference_over_non_morphism(field):
    rng = fresh_rng(77)
    checked = 0
    while checked < 3:
        f = CoalgebraMorphism(grouplike(2, field), divided_power(2, field),
                              field_matrix(rng, field, 2, 2, 4))
        if not check_morphism(f).ok:
            _assert_matches_reference(MorphismComplex(f), rng)
            checked += 1


def triangular(field=QQ):
    """The non-cocommutative coalgebra dual to upper triangular 2x2 matrices.

    Basis e11, e12, e22 with delta(e_ij) = sum over k of e_ik (x) e_kj.
    The seed pool is cocommutative, so this is what tells the two tensor
    factors of delta apart.
    """
    quads = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (2, 2, 2)]
    delta = Matrix.from_sparse(field, 9, 3,
                               {(b * 3 + c, a): 1 for a, b, c in quads})
    return Coalgebra("triangular", 3, delta)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_assembly_matches_reference_without_cocommutativity(field):
    rng = fresh_rng(99)
    tri = change_basis(triangular(field),
                       invertible_matrix(rng, 3, bound=4, field=field))
    g1 = grouplike(1, field)
    _assert_matches_reference(HochschildComplex(regular_bicomodule(tri)), rng)
    # tri -> g1 sends e11, e22 to the grouplike; g1 -> tri picks e11
    back = Matrix.from_rows(field, [[1, 0, 1]])
    to_tri = Matrix.from_rows(field, [[1], [0], [0]])
    for f in (identity_morphism(tri),
              change_basis_morphism(
                  CoalgebraMorphism(triangular(field), g1, back),
                  invertible_matrix(rng, 3, bound=4, field=field),
                  Matrix.identity(field, 1)),
              CoalgebraMorphism(g1, triangular(field), to_tri)):
        comp = MorphismComplex(f)
        _assert_matches_reference(comp, rng, degrees=range(3))
        w = _random_element(comp, 3, rng)
        assert comp.differential(w) == reference_differential(comp, w)


def test_assembly_matches_reference_on_zero_dimensional_pieces():
    nil = Coalgebra("nil", 0, Matrix.zeros(QQ, 0, 0))
    g1 = grouplike(1)
    for f in (CoalgebraMorphism(nil, g1, Matrix.zeros(QQ, 1, 0)),
              CoalgebraMorphism(g1, nil, Matrix.zeros(QQ, 0, 1))):
        comp = MorphismComplex(f)
        for n in range(4):
            assert comp.differential_matrix(n) == \
                reference_differential_matrix(comp, n)


@pytest.mark.parametrize("index", range(len(seed_morphisms())))
def test_cohomology_agrees_over_qq_and_large_prime(index):
    # integer structure constants: over QQ and over GF(2^31 - 1) the
    # cohomology dimensions of these small complexes must coincide
    big = PrimeField(2 ** 31 - 1)
    f_qq, f_p = seed_morphisms()[index], seed_morphisms(field=big)[index]
    complexes = [(MorphismComplex(f_qq), MorphismComplex(f_p))]
    if index < len(seed_coalgebras()):
        a_qq, a_p = seed_coalgebras()[index], seed_coalgebras(field=big)[index]
        complexes.append((HochschildComplex(regular_bicomodule(a_qq)),
                          HochschildComplex(regular_bicomodule(a_p))))
    for over_qq, over_p in complexes:
        for n in (1, 2, 3):
            assert over_qq.cohomology(n).h_dim == over_p.cohomology(n).h_dim


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
    return TruncatedDeformation(f, [constant] + higher)


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
            comp = MorphismComplex(f)
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


# ---------------------------------------------------------------------------
# series products: the dense Cauchy loops, multiplying and adding every
# coefficient including the zero ones, are the reference for the
# zero-skipping product of deformation.py


def reference_cauchy(a, b, n):
    acc = a[0] @ b[n]
    for i in range(1, n + 1):
        acc = acc + a[i] @ b[n - i]
    return acc


def reference_series_mul(a, b, order):
    return [reference_cauchy(a, b, n) for n in range(order + 1)]


def reference_series_kron(a, b, order):
    out = []
    for n in range(order + 1):
        acc = a[0].kron(b[n])
        for i in range(1, n + 1):
            acc = acc + a[i].kron(b[n - i])
        out.append(acc)
    return out


def reference_series_inverse(a, order):
    inv = [a[0]]
    for n in range(1, order + 1):
        acc = a[1] @ inv[n - 1]
        for k in range(2, n + 1):
            acc = acc + a[k] @ inv[n - k]
        inv.append(-acc)
    return inv


def reference_transport(p, d):
    n = d.order
    phi_a, phi_b = p.series_a(), p.series_b()
    inv_a = reference_series_inverse(phi_a, n)
    inv_b = reference_series_inverse(phi_b, n)
    return (reference_series_mul(reference_series_kron(phi_a, phi_a, n),
                                 reference_series_mul(d.series_a(), inv_a, n),
                                 n),
            reference_series_mul(reference_series_kron(phi_b, phi_b, n),
                                 reference_series_mul(d.series_b(), inv_b, n),
                                 n),
            reference_series_mul(phi_b,
                                 reference_series_mul(d.series_f(), inv_a, n),
                                 n))


def _sparse_matrix(rng, field, rows, cols):
    """A random matrix that is zero half of the time."""
    if rng.random() < 0.5 or not rows or not cols:
        return Matrix.zeros(field, rows, cols)
    return field_matrix(rng, field, rows, cols, bound=5)


def _sparse_series(rng, field, rows, cols, order):
    return [_sparse_matrix(rng, field, rows, cols) for _ in range(order + 1)]


def _sparse_isomorphism(rng, comp, order):
    """A formal isomorphism with randomly zeroed coefficients, or a staircase
    step I - chi t^l as trivialize builds it."""
    f = comp.morphism
    s, t = f.source.dim, f.target.dim
    if order and rng.random() < 0.4:
        level = rng.randint(1, order)
        chi = comp.element(field_matrix(rng, f.field, s, s, bound=5),
                           field_matrix(rng, f.field, t, t, bound=5), None, 1)
        higher = [comp.zero(1)] * (level - 1) + [-chi]
    else:
        higher = [comp.element(_sparse_matrix(rng, f.field, s, s),
                               _sparse_matrix(rng, f.field, t, t), None, 1)
                  for _ in range(order)]
    return FormalIsomorphism.from_higher_coefficients(f, higher, order)


def _sparse_deformation(rng, comp, order):
    """Random coefficients, each zero half of the time (not a deformation)."""
    f = comp.morphism
    s, t = f.source.dim, f.target.dim
    higher = [comp.element(_sparse_matrix(rng, f.field, s * s, s),
                           _sparse_matrix(rng, f.field, t * t, t),
                           _sparse_matrix(rng, f.field, t, s), 2)
              for _ in range(order)]
    return TruncatedDeformation(f, [TruncatedDeformation._constant(comp)]
                                + higher)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(ORACLE_FIELDS + (PrimeField(2 ** 31 - 1),)),
       st.integers(1, 64))
def test_series_products_match_dense_reference(seed, field, bits):
    rng = fresh_rng(seed)
    order = rng.randint(0, 5)
    r, k, c = (rng.randint(0, 3) for _ in range(3))
    # the order-0 terms are zero half of the time, as the morphism series
    # of a zero morphism is
    a = _sparse_series(rng, field, r, k, order)
    b = _sparse_series(rng, field, k, c, order)
    assert series_product(a, b, order) == \
        reference_series_mul(a, b, order)
    zero = Matrix.zeros(field, r * k, k * c)
    kron = [_cauchy_kron(series_nonzero(a, order), series_nonzero(b, order),
                         n) for n in range(order + 1)]
    assert [zero if x is None else x for x in kron] == \
        reference_series_kron(a, b, order)
    unit = [Matrix.identity(field, k)] + _sparse_series(rng, field, k, k,
                                                        order)[1:]
    assert series_inverse(unit, order) == \
        reference_series_inverse(unit, order)
    # an identity order-0 factor on either side, or on both, passes the
    # other factor through
    left = [Matrix.identity(field, r)] + _sparse_series(rng, field, r, r,
                                                        order)[1:]
    for p, q in ((left, a), (a, unit), (unit, unit)):
        assert series_product(p, q, order) == \
            reference_series_mul(p, q, order)
    # at the slot bound: every entry at full size, up to 64 bits (p - 1
    # over GF(p)), over a new prime at each order, so the packed right
    # operand of the inverse, which grows by each order it gives, is
    # repacked mid-run
    m, top = rng.randint(1, 3), rng.randint(2, 9)
    primes = rng.sample(LARGE_PRIMES, top + 1)

    def extremal(rows, cols, length):
        return _extremal_series(rng, field, rows, cols, length, bits,
                                "mixed", primes.__getitem__)

    big = [Matrix.identity(field, m)] + extremal(m, m, top)
    inv = reference_series_inverse(big, top)
    assert series_inverse(big, top) == inv
    x, y = extremal(r or 1, m, top + 1), extremal(m, c or 1, top + 1)
    assert series_product(x, y, top) == reference_series_mul(x, y, top)
    # two extensions of one state by different right coefficients at one
    # order, read in alternation, each as the reference reads its series
    zero = Matrix.zeros(field, m, m)
    cut = rng.randint(1, top)
    state = Cauchy({n: z for n, z in enumerate(big) if n}, {0: big[0]},
                   (m, m, m))
    for n in range(1, cut):
        state = state.with_right(n, inv[n])
    lefts = [zero] + big[1:]
    branches = [(state, inv[:cut] + [zero] * (top + 1 - cut))]
    for z in (inv[cut], extremal(m, m, 1)[0]):
        branches.append((state.with_right(cut, z),
                         inv[:cut] + [z] + [zero] * (top - cut)))
    for n in range(cut, top + 1):
        for sums, rights in branches:
            assert sums.at(n, field) == reference_cauchy(lefts, rights, n)


def _transport_morphisms(field):
    from coaldef.coalgebra import collapse_morphism, zero_morphism
    return [identity_morphism(divided_power(2, field)),
            collapse_morphism(2, field),
            zero_morphism(grouplike(1, field), divided_power(2, field))]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 2))
def test_equivalence_operations_match_dense_reference(seed, field, which):
    rng = fresh_rng(seed)
    f = _transport_morphisms(field)[which]
    comp = MorphismComplex(f)
    order = rng.randint(0, 5)
    p = _sparse_isomorphism(rng, comp, order)
    q = _sparse_isomorphism(rng, comp, order)
    d = _sparse_deformation(rng, comp, order)

    moved = apply_equivalence(p, d)
    assert (moved.series_a(), moved.series_b(), moved.series_f()) == \
        reference_transport(p, d)
    both = compose_isomorphisms(p, q)
    assert both.series_a() == reference_series_mul(p.series_a(),
                                                   q.series_a(), order)
    assert both.series_b() == reference_series_mul(p.series_b(),
                                                   q.series_b(), order)
    inv = invert_formal(p)
    assert inv.series_a() == reference_series_inverse(p.series_a(), order)
    assert inv.series_b() == reference_series_inverse(p.series_b(), order)


# ---------------------------------------------------------------------------
# the staircase: the loop of reference.py, which transports the whole
# deformation and composes the whole isomorphism at every step, is the
# reference for the incremental trivialize


def _staircase_morphisms(field):
    """id(dp2), id(zero_comultiplication(2)), where H^2 has dimension
    8, and two morphisms that are not identities: collapse2 and the
    inclusion of grouplike(1) into grouplike(1) + dp2."""
    return [identity_morphism(divided_power(2, field)),
            identity_morphism(zero_comultiplication(2, field)),
            collapse_morphism(2, field),
            inclusion_morphism(grouplike(1, field), divided_power(2, field))]


def _staircase_matrix(rng, field, rows, cols):
    """Zero half of the time; over QQ, entries over LARGE_PRIMES."""
    if rng.random() < 0.5:
        return Matrix.zeros(field, rows, cols)
    if field.kind == "prime":
        return field_matrix(rng, field, rows, cols)
    return Matrix.from_rows(field, [
        [Fraction(rng.randint(-9, 9), rng.choice(LARGE_PRIMES))
         for _ in range(cols)] for _ in range(rows)])


def _staircase_isomorphism(rng, comp, order, leading_zeros=0):
    f = comp.morphism
    s, t = f.source.dim, f.target.dim
    higher = [comp.zero(1)] * leading_zeros + [
        comp.element(_staircase_matrix(rng, f.field, s, s),
                     _staircase_matrix(rng, f.field, t, t), None, 1)
        for _ in range(order - leading_zeros)]
    return FormalIsomorphism.from_higher_coefficients(f, higher, order)


def _nonzero_class(rng, comp):
    """A 2-cocycle with a nonzero class: representatives of H^2 with
    field scalars, not all zero, plus the coboundary of a 1-cochain."""
    field = comp.field
    reps = comp.cohomology(2).representatives
    coords = [rng.randrange(field.p) if field.kind == "prime"
              else rng.randint(-3, 3) for _ in reps]
    coords[rng.randrange(len(reps))] = 1
    f = comp.morphism
    w = comp.differential(comp.element(
        _staircase_matrix(rng, field, f.source.dim, f.source.dim),
        _staircase_matrix(rng, field, f.target.dim, f.target.dim), None, 1))
    for c, r in zip(coords, reps):
        w = w + r.scale(c)
    return w


def _staircase_input(rng, comp, kind):
    """A valid deformation of one of four kinds: gauge-trivial, gauge-
    trivial with zero leading orders, a transported [0, .., 0, w] with
    [w] != 0 (blocked at the order of w, 1 to 3), or a transported
    integration of such a w (blocked at order 1).

    Over GF(2) the staircase blocks on some gauge-trivial inputs too:
    its canonical chi differs from the gauge by a 1-cocycle whose square
    need not cobound there."""
    f = comp.morphism
    if comp.cohomology(2).h_dim == 0:
        kind = kind % 2
    if kind == 0:
        order = rng.randint(0, 5)
        d = TruncatedDeformation.trivial(f, order)
        return apply_equivalence(_staircase_isomorphism(rng, comp, order), d)
    if kind == 1:
        order = rng.randint(2, 6)
        d = TruncatedDeformation.trivial(f, order)
        return apply_equivalence(_staircase_isomorphism(
            rng, comp, order, rng.randint(1, order - 1)), d)
    w = _nonzero_class(rng, comp)
    if kind == 2:
        # valid through order 2 l - 1: below 2 l every pair of the
        # equations has a zero or an order-0 factor
        level = rng.randint(1, 3)
        d = TruncatedDeformation.from_higher_coefficients(
            f, [comp.zero(2)] * (level - 1) + [w],
            rng.randint(level, 2 * level - 1))
    else:
        d = integrate(w, rng.randint(1, 4)).deformation
    return apply_equivalence(_staircase_isomorphism(rng, comp, d.order), d)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 3), st.integers(0, 3))
def test_trivialize_matches_reference_staircase(seed, field, which, kind):
    rng = fresh_rng(seed)
    comp = MorphismComplex(_staircase_morphisms(field)[which])
    d = _staircase_input(rng, comp, kind)
    assert trivialize(d) == reference_trivialize(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 3), st.sampled_from((1, 2, 4)))
def test_window_reads_match_dense_reference(seed, field, which, m):
    # d = g . d0, with the orders 1..m-1 of d0 zero, and phi = h o g^-1
    # with h = I modulo t^m: the transport of d by phi is h . d0, which
    # vanishes through order m - 1.  The window reader's orders m..top
    # are those of the dense transport; a step I - chi t^l at any l of
    # the window, with any chi, leaves every order of the dense transport
    # through top but l as it was.  d0 is a deformation or a series that
    # is none, as the reader holds for any series
    rng = fresh_rng(seed)
    comp = MorphismComplex(_staircase_morphisms(field)[which])
    f = comp.morphism
    top = rng.randint(m, 2 * m - 1)
    order = rng.randint(top, top + 2)
    if rng.random() < 0.5:
        d0 = TruncatedDeformation.from_higher_coefficients(
            f, [comp.zero(2)] * (m - 1) + [_nonzero_class(rng, comp)], order) \
            if comp.cohomology(2).h_dim and m > 1 else \
            TruncatedDeformation.trivial(f, order)
    else:
        d0 = _sparse_deformation(rng, comp, order)
        d0 = TruncatedDeformation(f, d0.coeffs[:1] + tuple(
            comp.zero(2) if n < m else c for n, c in enumerate(d0.coeffs)
            if n))
    gauge = _staircase_isomorphism(rng, comp, order)
    d = apply_equivalence(gauge, d0)
    phi = compose_isomorphisms(_staircase_isomorphism(rng, comp, order, m - 1),
                               invert_formal(gauge))
    expected = reference_transport(phi, d)
    assert all(x.is_zero() for c in expected for x in c[1:m])
    read = _window(phi.series_a(), phi.series_b(),
                   (d.series_a(), d.series_b(), d.series_f()), m, top)
    assert read == list(zip(*(c[m:top + 1] for c in expected)))
    level = rng.randint(m, top)
    chi = comp.element(
        _staircase_matrix(rng, field, f.source.dim, f.source.dim),
        _staircase_matrix(rng, field, f.target.dim, f.target.dim), None, 1)
    stepped = compose_isomorphisms(FormalIsomorphism.from_higher_coefficients(
        f, [comp.zero(1)] * (level - 1) + [-chi], order), phi)
    assert [c[:level] + c[level + 1:top + 1]
            for c in reference_transport(stepped, d)] == \
        [c[:level] + c[level + 1:top + 1] for c in expected]


def _update_series(rng, field, rows, cols, length, primes):
    """Coefficients zero a third of the time; over QQ, order i has
    entries over its own prime primes[i]."""
    out = []
    for i in range(length):
        if rng.random() < 1 / 3 or not rows or not cols:
            out.append(Matrix.zeros(field, rows, cols))
        elif field.kind == "prime":
            out.append(field_matrix(rng, field, rows, cols))
        else:
            out.append(Matrix.from_integer_ratio(
                field, rows, cols,
                [rng.randint(-9, 9) for _ in range(rows * cols)], primes[i]))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 6))
def test_staircase_update_matches_dense_reference(seed, field, which):
    # the one integer update of the staircase, x o s_(k-l) subtracted
    # from order k for every k >= l: as a step I - chi t^l it is
    # compose_isomorphisms with phi, and as the corrections of a window
    # it reads back every c'_j of the dense sums sum_(0<j<=n) c'_j o
    # phi_(n-j), phi_0 = I.  The morphisms include zero-dimensional ends,
    # whose blocks are 0 x 0
    rng = fresh_rng(seed)
    f = _defect_morphisms(field)[which]
    comp = MorphismComplex(f)
    s, t = f.source.dim, f.target.dim
    order = rng.randint(1, 5)
    primes = rng.sample(LARGE_PRIMES[4:], order + 1)
    phi = FormalIsomorphism.from_higher_coefficients(f, [
        comp.element(a, b, None, 1) for a, b in zip(
            _update_series(rng, field, s, s, order, primes[1:]),
            _update_series(rng, field, t, t, order, primes[1:]))])
    level = rng.randint(1, order)
    chi = comp.element(*(_update_series(rng, field, n, n, 1, primes)[0]
                         for n in (s, t)), None, 1)
    stepped = [phi.series_a(), phi.series_b()]
    _step(stepped[0], level, chi.a_part.matrix)
    _step(stepped[1], level, chi.b_part.matrix)
    step = FormalIsomorphism.from_higher_coefficients(
        f, [comp.zero(1)] * (level - 1) + [-chi], order)
    composed = compose_isomorphisms(step, phi)
    assert stepped == [composed.series_a(), composed.series_b()]
    assert stepped == [
        reference_series_mul(step.series_a(), phi.series_a(), order),
        reference_series_mul(step.series_b(), phi.series_b(), order)]
    # a window of slots 1..order, each an unreduced (ints, den) over a
    # new prime, as unpacked slots are
    rows, cols, phi_in = rng.choice(((s * s, s, phi.series_a()),
                                     (t * t, t, phi.series_b()),
                                     (t, s, phi.series_a())))
    read = [Matrix.zeros(field, rows, cols)] + _update_series(
        rng, field, rows, cols, order, primes)
    slots = []
    for n, q in zip(range(1, order + 1), reversed(primes)):
        ints, den = reference_cauchy(read, phi_in, n).as_integer_ratio()
        q = 1 if field.kind == "prime" else q
        slots.append(([v * q for v in ints], den * q))
    below = [x.as_integer_ratio() for x in phi_in[1:order]]
    got = []
    for j, slot in enumerate(slots):
        got.append(Matrix.from_integer_ratio(field, rows, cols, *slot))
        changed = _subtract_shifted(slots, j + 1, got[j], below)
        assert changed == ([] if got[j].is_zero() else
                           [k for k in range(j + 1, order)
                            if not phi_in[k - j].is_zero()])
    assert got == read[1:]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
@pytest.mark.parametrize("kind", ["gauge", "blocked"])
def test_trivialize_matches_reference_staircase_over_five_windows(field,
                                                                   kind):
    # order 16 is read in the windows [1], [2, 3], [4, 7], [8, 15] and
    # [16]; the blocked input is [0, .., 0, w] with [w] != 0 at order 9,
    # valid through order 17, transported by a gauge
    rng = fresh_rng(16)
    f = identity_morphism(divided_power(2, field))
    comp = MorphismComplex(f)
    d = TruncatedDeformation.trivial(f, 16) if kind == "gauge" else \
        TruncatedDeformation.from_higher_coefficients(
            f, [comp.zero(2)] * 8 + [_nonzero_class(rng, comp)], 16)
    d = apply_equivalence(random_isomorphism(comp, 16, rng, bound=2), d)
    result = trivialize(d)
    assert result == reference_trivialize(d)
    assert (result.ok, result.blocked_order) == (
        (True, None) if kind == "gauge" else (False, 9))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@pytest.mark.parametrize("which", [5, 6])
def test_trivialize_with_a_zero_dimensional_end(field, which):
    # the step on the zero-dimensional side splits a 0 x 0 block row
    f = _defect_morphisms(field)[which]
    comp = MorphismComplex(f)
    d = next(d for d in (apply_equivalence(
        random_isomorphism(comp, 3, fresh_rng(seed)),
        TruncatedDeformation.trivial(f, 3)) for seed in range(20))
        if not all(c.is_zero() for c in d.coeffs[1:]))
    result = trivialize(d)
    assert result.ok and result == reference_trivialize(d)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_trivialize_blocks_above_order_one(field):
    # [0, w] over id(zero_comultiplication(2)), transported: the staircase
    # clears order 1 and then blocks on the class of w
    rng = fresh_rng(3)
    comp = MorphismComplex(identity_morphism(zero_comultiplication(2, field)))
    w = _nonzero_class(rng, comp)
    d = TruncatedDeformation.from_higher_coefficients(
        comp.morphism, [comp.zero(2), w], 3)
    moved = apply_equivalence(_staircase_isomorphism(rng, comp, 3), d)
    assert not moved.coefficient(1).is_zero()
    result = trivialize(moved)
    assert result == reference_trivialize(moved)
    assert (result.ok, result.blocked_order) == (False, 2)
    assert result.h2_class == tuple(comp.class_coordinates(w))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_packed_check_rejects_a_perturbed_top_coefficient(field):
    rng = fresh_rng(8)
    f = identity_morphism(divided_power(3, field))
    comp = MorphismComplex(f)
    order = 5
    d = apply_equivalence(_staircase_isomorphism(rng, comp, order),
                          TruncatedDeformation.trivial(f, order))
    phi = trivialize(d).isomorphism
    phi_a, phi_b = phi.series_a(), phi.series_b()
    series = (d.series_a(), d.series_b(), d.series_f())
    assert intertwining_failure(phi_a, phi_b, *series) is None
    bump = Matrix.from_sparse(field, 3, 3, {(2, 1): 1})
    for a, b in ((phi_a[:-1] + [phi_a[-1] + bump], phi_b),
                 (phi_a, phi_b[:-1] + [phi_b[-1] + bump])):
        # the perturbed isomorphism does not trivialize d: the bump is
        # no 1-cocycle, so it leaves the top order of the transport
        moved = apply_equivalence(FormalIsomorphism(f, [
            comp.element(x, y, None, 1) for x, y in zip(a, b)]), d)
        assert not moved.coefficient(order).is_zero()
        assert intertwining_failure(a, b, *series)[1] == order


def reference_intertwining_failure(phi_a, phi_b, a, b, f):
    """The first (equation, order) at which (phi (x) phi) o c = c_0 o phi
    (c = a, b) or phi_B o F = F_0 o phi_A fails, by dense products."""
    n = len(a) - 1

    def constant(c):
        return [c[0]] + [Matrix.zeros(c[0].field, *c[0].shape)] * n

    def comul(phi, c):
        return (reference_series_mul(reference_series_kron(phi, phi, n), c,
                                     n),
                reference_series_mul(constant(c), phi, n))

    for label, (lhs, rhs) in (
            ("source comultiplication", comul(phi_a, a)),
            ("target comultiplication", comul(phi_b, b)),
            ("morphism", (reference_series_mul(phi_b, f, n),
                          reference_series_mul(constant(f), phi_a, n)))):
        for k in range(n + 1):
            if lhs[k] != rhs[k]:
                return label, k
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 3), st.integers(0, 5))
def test_intertwining_check_matches_dense_reference(seed, field, which,
                                                     order):
    # phi = g^-1 trivializes the transport of the trivial deformation by
    # g; a bump at a random order and side makes it fail from there on
    rng = fresh_rng(seed)
    comp = MorphismComplex(_staircase_morphisms(field)[which])
    f = comp.morphism
    gauge = _staircase_isomorphism(rng, comp, order)
    d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, order))
    phi = invert_formal(gauge)
    phi_a, phi_b = phi.series_a(), phi.series_b()
    level = rng.randint(0, order)
    if rng.random() < 0.5:
        phi_a[level] = phi_a[level] + _staircase_matrix(rng, field,
                                                        *phi_a[0].shape)
    else:
        phi_b[level] = phi_b[level] + _staircase_matrix(rng, field,
                                                        *phi_b[0].shape)
    series = (d.series_a(), d.series_b(), d.series_f())
    assert intertwining_failure(phi_a, phi_b, *series) == \
        reference_intertwining_failure(phi_a, phi_b, *series)


def first_map_defect(c, phi):
    """The first order at which D_f of (c, [c_0], phi), read in full, is
    nonzero: the morphism equation (phi (x) phi) o c = c_0 o phi of one
    side of the staircase's check; None when it holds."""
    defects = read_defects(c, [c[0]], phi, range(len(c)))
    return next((n for n, (_, _, m) in enumerate(defects)
                 if not m.is_zero()), None)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 3), st.integers(0, 5), st.booleans(),
       st.sampled_from(("none", "phi", "comultiplication")))
def test_staircase_comultiplication_equations_match_the_map_defect(
        seed, field, which, order, target, perturb):
    # phi = g^-1 carries the transport of the trivial deformation by g
    # to its order-0 terms; one entry of phi or of the comultiplication,
    # at a random order, is moved by a nonzero scalar.  For the
    # target equation the source side is made to hold: the identity
    # series from a_0 to itself
    rng = fresh_rng(seed)
    comp = MorphismComplex(_staircase_morphisms(field)[which])
    f = comp.morphism
    gauge = _staircase_isomorphism(rng, comp, order)
    d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, order))
    phi = invert_formal(gauge)
    sides = [[phi.series_a(), d.series_a()], [phi.series_b(), d.series_b()]]
    p, c = sides[target]
    if perturb != "none":
        s = p if perturb == "phi" else c
        level = rng.randint(0, order)
        s[level] = _perturbed(rng, field, s[level])
    if target:
        a0 = sides[0][1][0]
        sides[0] = [FormalIsomorphism.identity(f, order).series_a(),
                    [a0] + [Matrix.zeros(field, *a0.shape)] * order]
    (phi_a, series_a), (phi_b, series_b) = sides
    failure = intertwining_failure(phi_a, phi_b, series_a, series_b,
                                   d.series_f())
    label = ("source comultiplication", "target comultiplication")[target]
    reported = failure[1] if failure and failure[0] == label else None
    assert reported == first_map_defect(c, p)


def test_trivialize_raises_when_the_packed_check_fails(monkeypatch):
    from coaldef import series
    f = identity_morphism(divided_power(2))
    d = TruncatedDeformation.trivial(f, 2)
    monkeypatch.setattr(series, "intertwining_failure",
                        lambda *args: ("morphism", 2))
    with pytest.raises(InternalInvariantError, match="morphism at order 2"):
        trivialize(d)


# ---------------------------------------------------------------------------
# the rational product over common denominators: the per-term loop of
# per-entry Fractions, one product and one sum per pair of nonzero
# entries, is the reference


def reference_q_matmul(an, ad, bn, bd, n, k, m):
    c = [Fraction(0)] * (n * m)
    for i in range(n):
        for t in range(k):
            na = an[i * k + t]
            if not na:
                continue
            for j in range(m):
                nb = bn[t * m + j]
                if not nb:
                    continue
                c[i * m + j] += (Fraction(na, ad[i * k + t])
                                 * Fraction(nb, bd[t * m + j]))
    return [x.numerator for x in c], [x.denominator for x in c]


def common_denominator_product(an, ad, bn, bd, n, k, m):
    """Matrix product of two per-entry (num, den) operands, read back in
    per-entry lowest terms."""
    def operand(num, den, rows, cols):
        common = lcm(*den)
        return Matrix.from_sparse(QQ, rows, cols, {
            divmod(idx, cols): x * (common // d)
            for idx, (x, d) in enumerate(zip(num, den))}, common)

    ints, den = (operand(an, ad, n, k) @ operand(bn, bd, k, m)) \
        .as_integer_ratio()
    return [x // gcd(x, den) for x in ints], [den // gcd(x, den) for x in ints]


def _kernel_operand(rng, rows, cols, mode):
    """Flat (num, den) lists of a random rows x cols rational matrix.

    Modes: "integer" (every denominator 1), "small" (bounded fractions),
    "primes" (denominators that are products of large primes); about a
    third of the rows and of the columns are all zero, and half of the
    other entries are zero.
    """
    zero_rows = {i for i in range(rows) if rng.random() < 0.3}
    zero_cols = {j for j in range(cols) if rng.random() < 0.3}
    num, den = [], []
    for i in range(rows):
        for j in range(cols):
            if i in zero_rows or j in zero_cols or rng.random() < 0.5:
                x = Fraction(0)
            elif mode == "integer":
                x = Fraction(rng.randint(-10 ** 6, 10 ** 6))
            elif mode == "small":
                x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            else:
                d = 1
                for _ in range(rng.randint(1, 3)):
                    d *= rng.choice(LARGE_PRIMES)
                x = Fraction(rng.randint(-10 ** 20, 10 ** 20), d)
            num.append(x.numerator)
            den.append(x.denominator)
    return num, den


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(("integer", "small", "primes")),
       st.sampled_from(("integer", "small", "primes")))
def test_fraction_free_matmul_matches_per_term_reference(seed, mode_a,
                                                         mode_b):
    rng = fresh_rng(seed)
    n, k, m = (rng.choice((0, 1, 2, 3, rng.randint(4, 12))) for _ in range(3))
    an, ad = _kernel_operand(rng, n, k, mode_a)
    bn, bd = _kernel_operand(rng, k, m, mode_b)
    assert common_denominator_product(an, ad, bn, bd, n, k, m) == \
        reference_q_matmul(an, ad, bn, bd, n, k, m)


def test_fraction_free_matmul_on_fused_shapes():
    # the shapes of the fused defect products of deform-cli: a 9 x 3T
    # stack of coefficients times a 3T x 18 stack of [R | S] blocks
    rng = fresh_rng(31)
    for terms in (1, 4, 13):
        for mode in ("integer", "small", "primes"):
            an, ad = _kernel_operand(rng, 9, 3 * terms, mode)
            bn, bd = _kernel_operand(rng, 3 * terms, 18, mode)
            assert common_denominator_product(an, ad, bn, bd, 9, 3 * terms,
                                              18) \
                == reference_q_matmul(an, ad, bn, bd, 9, 3 * terms, 18)


# ---------------------------------------------------------------------------
# the fused coassociativity defect: the Kronecker form s (x) Id - Id (x) s
# of the equations, written out with dense Cauchy loops, is the reference


def reference_bar(s):
    ident = Matrix.identity(s.field, s.cols)
    return s.kron(ident) - ident.kron(s)


def reference_defects(series_a, series_b, series_f, orders):
    bars_a = [reference_bar(s) for s in series_a]
    bars_b = [reference_bar(s) for s in series_b]
    ff = reference_series_kron(series_f, series_f, max(orders))
    return [(reference_cauchy(bars_a, series_a, n),
             reference_cauchy(bars_b, series_b, n),
             reference_cauchy(ff, series_a, n)
             - reference_cauchy(series_b, series_f, n)) for n in orders]


def _defect_morphisms(field):
    """Coalgebras of dimension 0 to 3, and the non-cocommutative one."""
    tri = triangular(field)
    g1 = grouplike(1, field)
    nil = Coalgebra("nil", 0, Matrix.zeros(field, 0, 0))
    return [identity_morphism(divided_power(2, field)),
            identity_morphism(g1),
            identity_morphism(tri),
            CoalgebraMorphism(g1, tri, Matrix.from_rows(field,
                                                        [[1], [0], [0]])),
            CoalgebraMorphism(tri, g1, Matrix.from_rows(field, [[1, 0, 1]])),
            CoalgebraMorphism(nil, g1, Matrix.zeros(field, 1, 0)),
            CoalgebraMorphism(g1, nil, Matrix.zeros(field, 0, 1))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 6))
def test_defects_match_kronecker_reference(seed, field, which):
    rng = fresh_rng(seed)
    f = _defect_morphisms(field)[which]
    comp = MorphismComplex(f)
    order = rng.randint(0, 4)
    d = _sparse_deformation(rng, comp, order)
    series = (d.series_a(), d.series_b(), d.series_f())
    orders = range(order + 1)
    assert read_defects(*series, orders) == reference_defects(*series, orders)


# The packed evaluation reads each order as one slot of 2^w-adic ints;
# the draws below sit at its slot bound: every entry of a series is
# +-(2^k - 1) (residue p - 1 over GF(p)), with one sign per series, or
# signs drawn per entry, so the sums the bound covers add up, and the
# orders reach 12.  The denominators are 1, one prime, a prime per
# coefficient, or the powers of one prime.

EXTREMAL_FIELDS = (QQ, PrimeField(2), PrimeField(101),
                   PrimeField(2 ** 31 - 1))


def _extremal_series(rng, field, rows, cols, length, bits, signs, dens):
    """``length`` coefficients, each with every entry at full size."""
    size = rows * cols
    if field.kind == "prime":
        return [Matrix.from_integer_ratio(field, rows, cols,
                                          [field.p - 1] * size, 1)
                for _ in range(length)]
    top = (1 << bits) - 1
    sign = rng.choice((1, -1))
    out = []
    for i in range(length):
        ints = [top * (sign if signs == "equal" else rng.choice((1, -1)))
                for _ in range(size)]
        out.append(Matrix.from_integer_ratio(field, rows, cols, ints,
                                             dens(i)))
    return out


def _extremal_draw(rng, field, which, length, bits, signs, den_mode):
    """The morphism ``_defect_morphisms(field)[which]`` and extremal
    series a, b, f of ``length`` coefficients on it."""
    f = _defect_morphisms(field)[which]
    d, e = f.source.dim, f.target.dim
    shared = rng.choice(LARGE_PRIMES)

    def dens(i):
        # "powers" puts order i over shared^i, as transport and
        # integration do, so the series are packed in t / shared
        if den_mode == "one":
            return 1
        if den_mode == "powers":
            return shared ** i
        return shared if den_mode == "shared" else rng.choice(LARGE_PRIMES)

    return f, [_extremal_series(rng, field, rows, cols, length, bits, signs,
                                dens)
               for rows, cols in ((d * d, d), (e * e, e), (e, d))]


def _peak_lists(length):
    """Pairs of lists of ``length`` nonnegative ints, as the slot bounds
    convolve them: zeros, small ints and ints up to 2^700."""
    entry = st.one_of(st.just(0), st.integers(0, 2 ** 16),
                      st.integers(0, 2 ** 700))
    one = st.lists(entry, min_size=length, max_size=length)
    return st.tuples(one, one)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(_peak_lists))
def test_packed_convolution_matches_the_term_by_term_sum(pair):
    # the slot bounds convolve their peaks by one packed integer product;
    # every slot of it is the sum of the products of one order
    x, y = pair
    assert convolve(x, y) == [sum(x[i] * y[n - i] for i in range(n + 1))
                              for n in range(len(x))]


def _zero_padded(series, n):
    """The series cut after order n - 1, with a zero order-n coefficient
    written out: the reference form of the obstruction's series."""
    return [s[:n] + [Matrix.zeros(s[0].field, s[0].rows, s[0].cols)]
            for s in series]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(EXTREMAL_FIELDS),
       st.integers(0, 6), st.integers(0, 12), st.booleans(),
       st.integers(1, 64), st.sampled_from(("equal", "mixed")),
       st.sampled_from(("one", "shared", "distinct", "powers")))
def test_defects_match_kronecker_reference_at_the_slot_bound(
        seed, field, which, order, next_order, bits, signs, den_mode):
    _, series = _extremal_draw(fresh_rng(seed), field, which, order + 1,
                               bits, signs, den_mode)
    # the obstruction reads order N+1 of a series that stops at N; the
    # reference needs that coefficient written out as zero
    orders = [order + 1] if next_order else range(order + 1)
    assert read_defects(*series, orders) == \
        reference_defects(*_zero_padded(series, order + 1), orders)


def _incremental_defects(seed, field, which, prefix, top, bits, signs,
                         den_mode):
    """Drive the obstruction state of integration, built from orders
    0..prefix of an extremal draw with zero coefficients (or zero parts
    of them) inside, through ``extended`` to order ``top``, asserting at
    each order N that its order-(N+1) defects equal the reference.
    Returns the slot widths of its two packed sums at each order."""
    rng = fresh_rng(seed)
    f, series = _extremal_draw(rng, field, which, top + 1, bits, signs,
                               den_mode)
    for n in range(1, top + 1):
        cleared = [s for s in series if rng.random() < 0.2]
        for s in series if rng.random() < 0.2 else cleared:
            s[n] = Matrix.zeros(field, s[0].rows, s[0].cols)
    comp = MorphismComplex(f)
    state = _Defects(*(s[:prefix + 1] for s in series))
    widths = []
    for n in range(prefix, top + 1):
        if n > prefix:
            state = state.extended(comp.element(*(s[n] for s in series), 2))
        widths.append((state.a.w, state.b.w))
        assert state.next_order() == \
            reference_defects(*_zero_padded(series, n + 1), [n + 1])[0]
    return widths


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(EXTREMAL_FIELDS),
       st.integers(0, 6), st.integers(0, 2), st.integers(12, 14),
       st.integers(1, 64), st.sampled_from(("equal", "mixed")),
       st.sampled_from(("one", "shared", "distinct", "powers")))
def test_incremental_defects_match_kronecker_reference_at_the_slot_bound(
        seed, field, which, prefix, top, bits, signs, den_mode):
    # integration hands the state of the obstruction on from order to
    # order; its packed rows must read every order as the reference does
    _incremental_defects(seed, field, which, prefix, top, bits, signs,
                         den_mode)


def test_incremental_defects_widen_their_slots_mid_run():
    # with a new prime denominator at every order, the slot bound
    # outgrows the width packed from the pairs of the first orders: the
    # kept rows are repacked mid-run, and every order still reads exactly
    widened = 0
    for seed in range(8):
        widths = _incremental_defects(seed, QQ, 2, 1, 14, 64, "mixed",
                                      "distinct")
        widened += any(2 < before < after
                       for was, now in zip(widths, widths[1:])
                       for before, after in zip(was, now))
    assert widened


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_branches_of_one_deformation_obstruct_as_the_reference(field):
    # two extensions of one deformation, the canonical one and one by
    # w + z with z a 2-cocycle, share the obstruction state they were
    # extended from; integrated further in alternation, each branch's
    # obstructions must stay those of its own series.  f collapses
    # grouplike(2) onto one grouplike, so it is neither injective nor
    # surjective and a canonical coefficient has a nonzero morphism part
    # (for an identity it never has), and its cohomology vanishes, so
    # every order extends.  Both order-3 coefficients are nonzero in all
    # three parts, so each branch adds to the shared tables of every
    # series.Cauchy state of the obstruction
    g2 = grouplike(2, field)
    f = CoalgebraMorphism(g2, g2, Matrix.from_rows(field, [[1, 1], [0, 0]]))
    comp = morphism_complex(f)
    start = TruncatedDeformation.from_higher_coefficients(
        f, [comp.differential(random_morphism_cochain(comp, 1, fresh_rng(1)))])
    base = extend(start)
    canonical = extend(base)
    z = comp.differential(random_morphism_cochain(comp, 1, fresh_rng(6)))
    branches = [canonical, extend(base, canonical.coefficient(3) + z)]
    assert all(not p.matrix.is_zero() for d in branches
               for p in d.coefficient(3).parts())
    assert all(not p.matrix.is_zero() for p in z.parts())
    for _ in range(4):
        for k, d in enumerate(branches):
            series = [d.series_a(), d.series_b(), d.series_f()]
            expected = reference_defects(*_zero_padded(series, d.order + 1),
                                         [d.order + 1])[0]
            assert tuple(p.matrix for p in
                         _obstruction_cochain(d).parts()) == expected
            branches[k] = extend(d)
    assert [d.order for d in branches] == [7, 7]


# The packed zero tests: verify_deformation decides each equation by one
# mask per packed entry over QQ, and by the slots modulo p over GF(p),
# and unpacks only a failing equation.  A full read of the defects, of
# read_defects and of the Kronecker reference, is the reference report.


def full_read_report(defects):
    """The first failure of :func:`verify_deformation`, read off the
    defect matrices of every order."""
    for k, (label, statement) in enumerate(_EQUATIONS):
        for n, triple in enumerate(defects):
            pos = triple[k].first_nonzero()
            if pos is not None:
                return DeformationReport(
                    False, n, label, pos,
                    f"{statement} fails at order {n}, entry {pos}")
    return DeformationReport(True)


def _assert_report_matches_full_reads(series):
    orders = range(len(series[0]))
    report = _verified(*series)[0]
    assert report == full_read_report(read_defects(*series, orders))
    assert report == full_read_report(reference_defects(*series, orders))
    return report


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(EXTREMAL_FIELDS),
       st.integers(0, 6), st.integers(0, 12), st.integers(1, 64),
       st.sampled_from(("equal", "mixed")),
       st.sampled_from(("one", "shared", "distinct", "powers")),
       st.booleans())
def test_zero_tests_match_a_full_read_at_the_slot_bound(
        seed, field, which, order, bits, signs, den_mode, structure):
    # the draws of the slot-bound test above; with ``structure`` the
    # order-0 terms are the structure maps, so order 0 holds and the
    # first failure is read above it
    f, series = _extremal_draw(fresh_rng(seed), field, which, order + 1,
                               bits, signs, den_mode)
    if structure:
        for s, m in zip(series, (f.source.delta, f.target.delta, f.matrix)):
            s[0] = m
    _assert_report_matches_full_reads(series)


def _perturbed(rng, field, m):
    """m plus a nonzero scalar at one random entry (over QQ, over one of
    LARGE_PRIMES)."""
    if not m.rows or not m.cols:
        return m
    if field.kind == "prime":
        x = Fraction(rng.randrange(1, field.p))
    else:
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.choice(LARGE_PRIMES))
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    return m + Matrix.from_rows(field, [[x if (r, c) == (i, j) else 0
                                         for c in range(m.cols)]
                                        for r in range(m.rows)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(EXTREMAL_FIELDS),
       st.integers(0, 10), st.integers(0, 8), st.booleans())
def test_zero_tests_match_a_full_read_on_perturbed_deformations(
        seed, field, which, order, perturb):
    # a gauge deformation g . trivial is valid, and g^-1 trivializes it;
    # one entry of one series, or of one side of g^-1, at one order is
    # moved by a nonzero scalar
    rng = fresh_rng(seed)
    morphisms = _defect_morphisms(field) + _staircase_morphisms(field)
    comp = MorphismComplex(morphisms[which])
    f = comp.morphism
    gauge = _staircase_isomorphism(rng, comp, order)
    d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, order))
    series = [d.series_a(), d.series_b(), d.series_f()]
    if perturb and order:
        s, n = rng.choice(series), rng.randint(1, order)
        s[n] = _perturbed(rng, field, s[n])
    report = _assert_report_matches_full_reads(series)
    if not (perturb and order):
        assert report.ok and verify_deformation(d) == report
    phi = invert_formal(gauge)
    phi_a, phi_b = phi.series_a(), phi.series_b()
    if perturb:
        side = rng.choice((phi_a, phi_b))
        n = rng.randint(0, order)
        side[n] = _perturbed(rng, field, side[n])
    assert intertwining_failure(phi_a, phi_b, *series) == \
        reference_intertwining_failure(phi_a, phi_b, *series)


# `coaldef obstruct` reads the verification report and the order-(N+1)
# obstruction off one packed product through order N + 1: obstruction()
# reads the slot that a passed verify_deformation keeps.  The reference
# is obstruction() of a deformation that was not verified, which reads
# its per-order pair sums.


def _obstruct_morphisms(field):
    """The staircase morphisms, id(zero_comultiplication(1)), where H^3
    has dimension 3, and the identity of the non-cocommutative
    coalgebra."""
    return _staircase_morphisms(field) + [
        identity_morphism(zero_comultiplication(1, field)),
        identity_morphism(triangular(field))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 5), st.integers(1, 4), st.booleans(), st.booleans())
def test_obstruct_reads_report_and_obstruction_from_one_product(
        seed, field, which, order, transport, perturb):
    # a 2-cocycle, with a nonzero class where H^2 has one, integrated
    # as far as it goes: a valid deformation whose obstruction class is
    # nonzero when the integration stopped early; transported by a
    # random formal isomorphism (denominators from LARGE_PRIMES over QQ)
    # or not, and with one entry of one coefficient moved or not
    rng = fresh_rng(seed)
    comp = MorphismComplex(_obstruct_morphisms(field)[which])
    f = comp.morphism
    if comp.cohomology(2).h_dim:
        w = _nonzero_class(rng, comp)
    else:
        w = comp.differential(comp.element(
            _staircase_matrix(rng, field, f.source.dim, f.source.dim),
            _staircase_matrix(rng, field, f.target.dim, f.target.dim),
            None, 1))
    d = integrate(w, order).deformation
    if transport:
        d = apply_equivalence(_staircase_isomorphism(rng, comp, d.order), d)
    if perturb:
        coeffs = list(d.coeffs)
        n = rng.randint(1, d.order)
        parts = [p.matrix for p in coeffs[n].parts()]
        k = rng.randrange(3)
        parts[k] = _perturbed(rng, field, parts[k])
        coeffs[n] = comp.element(*parts, 2)
        d = TruncatedDeformation(f, coeffs)
    report = verify_deformation(d)
    if report.ok:
        # obstruction(d) reads the slot that verification kept (or, for an
        # integration, the state it handed on); a copy of d with no report
        # and no kept defects reads its per-order pair sums, unverified
        ob = obstruction(d)
        fresh = TruncatedDeformation(f, d.coeffs)
        assert ob.cochain == _obstruction_cochain(fresh)
        assert ob.h3_class == tuple(comp.class_coordinates(ob.cochain))
        assert fresh._verification is None
    else:
        with pytest.raises(InvalidStructureError) as err:
            obstruction(d)
        assert str(err.value) == f"not a deformation ({report.message})"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_check_coassociative_matches_kronecker_reference(seed, field):
    rng = fresh_rng(seed)
    if rng.random() < 0.5:
        d = rng.randint(0, 3)
        c = Coalgebra("c", d, _sparse_matrix(rng, field, d * d, d))
    else:
        c = rng.choice([grouplike(2, field), divided_power(3, field),
                        triangular(field)])
    d = c.dim
    ident = Matrix.identity(field, d)
    lhs = ident.kron(c.delta) @ c.delta
    rhs = c.delta.kron(ident) @ c.delta
    assert check_coassociative(c) == _difference_report(
        lhs - rhs, f"coassociativity of {c.name!r}")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_comp_bar_matches_kronecker_reference(seed, field):
    rng = fresh_rng(seed)
    pool = [grouplike(1, field), divided_power(2, field), triangular(field),
            Coalgebra("nil", 0, Matrix.zeros(field, 0, 0))]
    c = rng.choice(pool)
    if c.dim:
        c = change_basis(c, invertible_matrix(rng, c.dim, bound=4,
                                              field=field))
    reg = regular_bicomodule(c)
    s, t = (Cochain(reg, 2, _sparse_matrix(rng, field, c.dim ** 2, c.dim))
            for _ in range(2))
    assert comp_bar(s, t).matrix == reference_bar(s.matrix) @ t.matrix


# ---------------------------------------------------------------------------
# maps acting on one tensor factor: the Kronecker formulas with identity
# matrices are the reference for the morphism and bicomodule checks, the
# push-forward of a morphism's source and the change of basis


def reference_check_morphism(f):
    return _difference_report(
        f.target.delta @ f.matrix
        - f.matrix.kron(f.matrix) @ f.source.delta, "morphism compatibility")


def reference_check_bicomodule(m):
    c = m.over
    id_c = Matrix.identity(c.field, c.dim)
    id_m = Matrix.identity(c.field, m.dim)
    for what, lhs, rhs in (
            ("left coaction coassociativity",
             id_c.kron(m.psi_l) @ m.psi_l, c.delta.kron(id_m) @ m.psi_l),
            ("right coaction coassociativity",
             m.psi_r.kron(id_c) @ m.psi_r, id_m.kron(c.delta) @ m.psi_r),
            ("left/right coaction compatibility",
             id_c.kron(m.psi_r) @ m.psi_l, m.psi_l.kron(id_c) @ m.psi_r)):
        rep = _difference_report(lhs - rhs, what)
        if not rep.ok:
            return rep
    return rep


def reference_pushed_forward(f):
    a = f.source
    ident = Matrix.identity(a.field, a.dim)
    return Bicomodule(f.target, a.dim, f.matrix.kron(ident) @ a.delta,
                      ident.kron(f.matrix) @ a.delta)


def reference_change_basis(c, p):
    return Coalgebra(f"{c.name}'", c.dim, p.kron(p) @ c.delta @ p.inverse())


def _structure_matrix(rng, field, rows, cols):
    """Random entries, over QQ over a denominator drawn from LARGE_PRIMES."""
    if not rows or not cols or rng.random() < 0.2:
        return Matrix.zeros(field, rows, cols)
    if field.kind != "rational":
        return field_matrix(rng, field, rows, cols, bound=5)
    den = rng.choice(LARGE_PRIMES) * rng.choice((1,) + LARGE_PRIMES)
    return Matrix.from_integer_ratio(
        field, rows, cols,
        [rng.randint(-4, 4) if rng.random() < 0.6 else 0
         for _ in range(rows * cols)], den)


def _basis_change(rng, field, n):
    """An invertible n x n matrix, over QQ with entries over a large
    prime; a singular one a tenth of the time."""
    if n and rng.random() < 0.1:
        return Matrix.zeros(field, n, n)
    p = invertible_matrix(rng, n, bound=4, field=field)
    if field.kind == "rational":
        p = p.scale(Fraction(1, rng.choice(LARGE_PRIMES)))
    return p


def _idempotent(rng, field, n):
    s = _basis_change(rng, field, n)
    while s.inverse() is None:
        s = _basis_change(rng, field, n)
    diagonal = Matrix.from_sparse(field, n, n, {
        (i, i): 1 for i in range(n) if rng.random() < 0.5})
    return s @ diagonal @ s.inverse()


def _grouplike_map(rng, field, k, j):
    """grouplike(k) -> grouplike(j) sending each basis vector to one of
    the target: always a coalgebra morphism (j > 0 unless k = 0)."""
    return CoalgebraMorphism(grouplike(k, field), grouplike(j, field),
                             Matrix.from_sparse(field, j, k, {
                                 (rng.randrange(j), i): 1
                                 for i in range(k)}))


def _factor_morphism(rng, field):
    """A morphism, a basis change of one, or a map that fails the check:
    dimensions 0 to 3, non-cocommutative coalgebras included."""
    which = rng.randrange(4)
    if which == 0:
        k = rng.randint(0, 3)
        f = _grouplike_map(rng, field, k, rng.randint(1 if k else 0, 3))
    elif which == 1:
        f = rng.choice(_defect_morphisms(field))
    elif which == 2:
        src, tgt = (rng.choice(_defect_morphisms(field)).source
                    for _ in range(2))
        f = CoalgebraMorphism(src, tgt, _structure_matrix(
            rng, field, tgt.dim, src.dim))
    else:
        src, tgt = (Coalgebra("c", n, _structure_matrix(rng, field, n * n, n))
                    for n in (rng.randint(0, 3), rng.randint(0, 3)))
        f = CoalgebraMorphism(src, tgt, _structure_matrix(
            rng, field, tgt.dim, src.dim))
    if rng.random() < 0.5:
        p = _basis_change(rng, field, f.source.dim)
        q = _basis_change(rng, field, f.target.dim)
        if p.inverse() is not None and q.inverse() is not None:
            f = change_basis_morphism(f, p, q)
    return f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_morphism_maps_match_kronecker_reference(seed, field):
    rng = fresh_rng(seed)
    f = _factor_morphism(rng, field)
    rep = check_morphism(f)
    assert rep == reference_check_morphism(f)
    # every deformation complex pushes its source forward along f,
    # whether or not f passes the check
    assert _pushed_forward(f) == reference_pushed_forward(f)
    if rep.ok:
        assert bicomodule_via(f) == reference_pushed_forward(f)
    else:
        with pytest.raises(InvalidStructureError) as err:
            bicomodule_via(f)
        assert str(err.value) == f"not a coalgebra morphism ({rep.message})"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_check_bicomodule_matches_kronecker_reference(seed, field):
    rng = fresh_rng(seed)
    # the coactions pushed forward along two maps into one coalgebra: two
    # morphisms give a bicomodule when they agree, and otherwise one
    # that passes both coassociativity checks and fails compatibility
    k, j = rng.randint(0, 3), rng.randint(1, 3)
    pair = [_grouplike_map(rng, field, k, j) for _ in range(2)]
    if rng.random() < 0.3:
        pair = [rng.choice(_defect_morphisms(field))] * 2
    f, g = pair
    if rng.random() < 0.3:
        # one coaction, or both, any matrix at all
        g = CoalgebraMorphism(g.source, g.target, _structure_matrix(
            rng, field, g.target.dim, g.source.dim))
        if rng.random() < 0.5:
            f, g = g, f
    psi_l = reference_pushed_forward(f).psi_l
    psi_r = reference_pushed_forward(g).psi_r
    c, n = f.target, f.source.dim
    if rng.random() < 0.2:
        psi_l = _structure_matrix(rng, field, c.dim * n, n)
    if rng.random() < 0.2:
        psi_r = _structure_matrix(rng, field, n * c.dim, n)
    if rng.random() < 0.25:
        # over grouplike(1) a coaction is an idempotent and compatibility
        # says the two commute; conjugates of diagonal 0/1 matrices are
        # idempotents that mostly do not
        c, n = grouplike(1, field), rng.randint(0, 3)
        psi_l, psi_r = (_idempotent(rng, field, n) for _ in range(2))
    m = Bicomodule(c, n, psi_l, psi_r)
    assert check_bicomodule(m) == reference_check_bicomodule(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS))
def test_change_basis_matches_kronecker_reference(seed, field):
    rng = fresh_rng(seed)
    f = _factor_morphism(rng, field)
    p = _basis_change(rng, field, f.source.dim)
    q = _basis_change(rng, field, f.target.dim)
    if p.inverse() is None or q.inverse() is None:
        with pytest.raises(InvalidStructureError):
            change_basis_morphism(f, p, q)
        return
    assert change_basis(f.source, p) == reference_change_basis(f.source, p)
    assert change_basis_morphism(f, p, q) == CoalgebraMorphism(
        reference_change_basis(f.source, p),
        reference_change_basis(f.target, q), q @ f.matrix @ p.inverse())


# ---------------------------------------------------------------------------
# the sparse elimination record: the dense kernel_basis, image_basis,
# quotient_data and solve of reference.py on the dense
# differential_matrix are the reference


def _reference_class(basis, im_dim, vector):
    """Class coordinates by the dense route, or None for a non-cocycle."""
    x = solve(basis, vector)
    if x is None:
        return None
    coords = x.column_entries(0)[im_dim:]
    return coords if any(coords) else []


def _random_flat(comp, n, rng):
    """A random n-cochain of any complex, zero-dimensional parts included."""
    def entry():
        if comp.field.kind == "rational":
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randrange(comp.field.p)
    return comp.from_flat(n, [entry() for _ in range(comp.cochain_dim(n))])


def _assert_record_matches_dense(comp, n, rng):
    d_n, d_prev = comp.differential_matrix(n), comp.differential_matrix(n - 1)
    ker, im = kernel_basis(d_n), image_basis(d_prev)
    try:
        h_dim, reps = quotient_data(ker, im)
    except QuotientError:
        with pytest.raises(QuotientError):
            comp.cohomology(n)
        return
    report = comp.cohomology(n)
    assert (report.cocycle_dim, report.coboundary_dim, report.h_dim) == \
        (ker.dim, im.dim, h_dim)
    assert [comp.flatten(r) for r in report.representatives] == reps

    basis = im.basis.hstack(*reps)
    cocycle = comp.zero(n)
    for r in report.representatives:
        cocycle = cocycle + r.scale(rng.randint(-2, 2))
    vectors = [cocycle, *report.representatives]
    for _ in range(2):
        boundary = comp.differential(_random_flat(comp, n - 1, rng))
        vectors += [boundary, cocycle + boundary, _random_flat(comp, n, rng)]
    for w in vectors:
        vector = comp.flatten(w)
        pre = comp.is_coboundary(w)
        got = None if pre is None else comp.flatten(pre)
        assert got == solve(d_prev, vector)
        coords = _reference_class(basis, im.dim, vector)
        if coords is None:
            with pytest.raises(InvalidStructureError):
                comp.class_coordinates(w)
        else:
            assert repr(comp.class_coordinates(w)) == repr(coords)


def _record_complex(rng, field, which):
    """A random morphism or bicomodule complex, one over random coactions,
    or one over the triangular dual or a zero-dimensional piece."""
    if which == 0:
        return MorphismComplex(random_morphism(rng, max_dim=3, field=field))
    if which == 1:
        return HochschildComplex(random_bicomodule(rng, max_dim=3,
                                                   field=field))
    if which == 2:
        # almost never a bicomodule: its differential need not square to
        # zero, which is what exercises QuotientError
        return HochschildComplex(Bicomodule(
            divided_power(2, field), 2, field_matrix(rng, field, 4, 2, 4),
            field_matrix(rng, field, 4, 2, 4)))
    return MorphismComplex(_defect_morphisms(field)[which - 3])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 9))
def test_sparse_elimination_matches_dense_reference(seed, field, which):
    rng = fresh_rng(seed)
    comp = _record_complex(rng, field, which)
    for n in (1, 2, 3):
        # keep the dense reference of D_3 small
        if comp.cochain_dim(n + 1) * comp.cochain_dim(n) > 60000:
            break
        _assert_record_matches_dense(comp, n, rng)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_sparse_elimination_matches_dense_reference_on_seed_pool(field):
    rng = fresh_rng(404)
    for f in seed_morphisms(field=field):
        comp = MorphismComplex(f)
        for n in (1, 2, 3):
            _assert_record_matches_dense(comp, n, rng)


def _endomorphism_or_morphism(rng, field, which):
    """An identity, a basis-changed endomorphism, a morphism A -> B with
    A != B, or an endomorphism of the non-counital zero_comultiplication."""
    if which == 0:
        return identity_morphism(rng.choice(seed_coalgebras(3, field)))
    if which == 1:
        g2 = grouplike(2, field)
        f = rng.choice([
            identity_morphism(rng.choice(seed_coalgebras(3, field))),
            # both grouplikes to the first
            CoalgebraMorphism(g2, g2, Matrix.from_rows(field, [[1, 1],
                                                               [0, 0]]))])
        p = invertible_matrix(rng, f.source.dim, bound=4, field=field)
        return change_basis_morphism(f, p, p)
    if which == 2:
        return random_morphism(rng, max_dim=3, field=field)
    zero = zero_comultiplication(rng.randint(1, 2), field)
    return CoalgebraMorphism(zero, zero,
                             field_matrix(rng, field, zero.dim, zero.dim, 4))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 3))
def test_block_built_kernels_match_dense_reference(seed, field, which):
    # the kernel of D_n is eliminated from the echelons of its two
    # diagonal Hochschild blocks and the ab rows; the reference is the
    # dense Gauss-Jordan of the assembled D_n
    rng = fresh_rng(seed)
    f = _endomorphism_or_morphism(rng, field, which)
    comp = MorphismComplex(f)
    if f.source == f.target:
        assert comp.on_source._record is comp.on_target._record
    for n in (1, 2, 3):
        # keep the dense reference small
        if comp.cochain_dim(n + 1) * comp.cochain_dim(n) > 15000:
            break
        vectors = kernel_vectors(comp._kernel_echelon(n))
        assert _column_matrix(field, comp.cochain_dim(n), vectors) == \
            kernel_basis(comp.differential_matrix(n)).basis
        _assert_record_matches_dense(comp, n, rng)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_budget_height_is_read_from_the_blocks(seed, n):
    # the parts of den * D_n (the rescaled a, b and mixed blocks, b o f
    # and f^(x)n o a) share no entry, so the QQ budget reads the bit
    # length of its largest int from theirs without assembling D_n
    f = random_morphism(fresh_rng(seed), max_dim=3)
    comp = MorphismComplex(f)
    bits = comp.operator_bits(n)
    assert not comp._record.operators
    entries, _ = MorphismComplex(f).operator(n)
    assert bits == max(map(int.bit_length, entries.values()), default=0)


class _GivenQuotient(_ComplexBase):
    """The complex surface over one given degree-1 quotient, whose
    cochains are the column matrices they wrap: class_coordinates runs
    as it does for every complex."""

    def __init__(self, q):
        super().__init__()
        self._record.quotients[1] = q

    def _coordinates(self, w):
        return w.column.as_integer_ratio()


def _columns(m):
    """The columns of m as dicts {row: int} over its denominator."""
    ints, _ = m.as_integer_ratio()
    columns = [{} for _ in range(m.cols)]
    for k, x in enumerate(ints):
        if x:
            columns[k % m.cols][k // m.cols] = x
    return columns


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 3))
def test_kernel_coordinate_quotient_matches_dense_reference(seed, field,
                                                           which):
    # the one Quotient reads ker D in the coordinates of D's free columns
    # and eliminates the spanning vectors of the image there; the
    # reference eliminates [im | ker] densely.  which: 0 an image inside
    # the kernel, 1 a zero image, 2 a zero-dimensional kernel, 3 an image
    # that need not lie in the kernel
    rng = fresh_rng(seed)

    def draw(rows, cols):
        if rows and cols:
            return field_matrix(rng, field, rows, cols)
        return Matrix.zeros(field, rows, cols)

    cols = rng.randint(1, 6)
    if which == 2:
        d = Matrix.identity(field, cols).vstack(draw(rng.randint(0, 2), cols))
    else:
        r = rng.randint(0, cols)
        d = draw(rng.randint(1, 6), r) @ draw(r, cols)
    ker = kernel_basis(d)
    t = rng.randint(0, 4)
    if which == 0:
        b = ker.basis @ draw(ker.dim, t)
    elif which == 1:
        b = Matrix.zeros(field, cols, t)
    else:
        b = draw(cols, t)
    im = image_basis(b)
    echelon = sparse.sparse_rref(field, _columns(d.transpose()), cols,
                                 reverse=True)
    try:
        expected = quotient_data(ker, im)
    except QuotientError:
        for build in (lambda: exactlinalg.quotient_data(ker, im),
                      lambda: sparse.Quotient(echelon, _columns(b))):
            with pytest.raises(QuotientError):
                build()
        assert which == 3 or (which == 2 and not b.is_zero())
        return
    assert exactlinalg.quotient_data(ker, im) == expected
    q = sparse.Quotient(echelon, _columns(b))
    assert (q.kernel_dim, q.image_dim) == (ker.dim, im.dim)
    reps = [Matrix.from_integer_ratio(field, cols, 1, *r)
            for r in q.representatives]
    assert (len(reps), reps) == expected
    basis = im.basis.hstack(*reps)
    comp = _GivenQuotient(q)
    for _ in range(3):
        for x in (ker.basis @ draw(ker.dim, 1), draw(cols, 1)):
            coords = _reference_class(basis, im.dim, x)
            w = SimpleNamespace(degree=1, column=x)
            if coords is None:
                with pytest.raises(InvalidStructureError,
                                   match="not a cocycle"):
                    comp.class_coordinates(w)
            else:
                assert repr(comp.class_coordinates(w)) == repr(coords)


# ---------------------------------------------------------------------------
# the mapping cone: the ab block of d_c maps only into ab rows, so
# 0 -> C^(n-1)(B, A_f) -> C^n(f) -> C^n(A) + C^n(B) -> 0 is exact, with
# connecting map phi(a, b) = b o f - f^(x)n o a.  As C^0 = 0, its long
# exact sequence gives
# h^n(f) = h^n(A) + h^n(B) - rank phi*_n + h^(n-1)(B, A_f) - rank phi*_(n-1)


def _connecting_rank(f, source, target, mixed, n):
    """Rank of phi*_n: H^n(A) + H^n(B) -> H^n(B, A_f)."""
    h = mixed.cohomology(n).h_dim
    power = tensor_power_map(f.matrix, n)
    images = [Cochain(mixed.bicomodule, n, (power @ a.matrix).scale(-1))
              for a in source.cohomology(n).representatives]
    images += [Cochain(mixed.bicomodule, n, b.matrix @ f.matrix)
               for b in target.cohomology(n).representatives]
    if not images or not h:
        return 0
    return rank(Matrix.from_rows(
        f.field, [mixed.class_coordinates(w) or [0] * h for w in images]))


def cone_h_dim(f, n):
    """(dim H^n(f), dim coker phi*_(n-1)) from the long exact sequence."""
    source = HochschildComplex(regular_bicomodule(f.source))
    target = HochschildComplex(regular_bicomodule(f.target))
    mixed = HochschildComplex(bicomodule_via(f))
    kernel = (source.cohomology(n).h_dim + target.cohomology(n).h_dim
              - _connecting_rank(f, source, target, mixed, n))
    coker = 0
    if n > 1:
        coker = (mixed.cohomology(n - 1).h_dim
                 - _connecting_rank(f, source, target, mixed, n - 1))
    return kernel + coker, coker


def _cone_morphism(rng, field, which):
    """A pool morphism, one about the triangular dual, a zero morphism, or
    a random linear map between zero-comultiplication coalgebras (every
    linear map between them is a morphism, and their H^n is nonzero)."""
    if which == 0:
        return random_morphism(rng, max_dim=3, field=field)
    if which == 1:
        return rng.choice(_defect_morphisms(field)[2:5])
    if which == 2:
        zero2 = zero_comultiplication(2, field)
        return rng.choice([zero_morphism(divided_power(2, field), zero2),
                           zero_morphism(zero2, zero2)])
    s, t = rng.randint(1, 3), rng.randint(1, 3)
    return CoalgebraMorphism(zero_comultiplication(s, field),
                             zero_comultiplication(t, field),
                             field_matrix(rng, field, t, s, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(ORACLE_FIELDS),
       st.integers(0, 4))
def test_cohomology_matches_cone_long_exact_sequence(seed, field, which):
    f = _cone_morphism(fresh_rng(seed), field, which)
    comp = MorphismComplex(f)
    for n in (1, 2, 3):
        assert comp.cohomology(n).h_dim == cone_h_dim(f, n)[0]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_cone_cokernel_term_on_zero_morphisms(field):
    # here the connecting map misses classes of H^(n-1)(B, A_f), so the
    # cokernel term is what the identity rests on
    zero2 = zero_comultiplication(2, field)
    for f in (zero_morphism(divided_power(2, field), zero2),
              zero_morphism(zero2, zero2)):
        comp = MorphismComplex(f)
        for n, coker in ((2, 4), (3, 8)):
            assert cone_h_dim(f, n) == (comp.cohomology(n).h_dim, coker)


# ---------------------------------------------------------------------------
# problem files: the json module's own indented encoder, over the objects
# the serializer builds one str(Fraction) at a time, is the reference for
# the writer; per-scalar reading (one regex match, one gcd and one
# Fraction per scalar) for the reader


def _file_matrix(rng, field, rows, cols):
    """Zero a third of the time; else entries that are zero half of the
    time, over QQ with denominators from 1 to LARGE_PRIMES."""
    if rng.random() < 0.3:
        return Matrix.zeros(field, rows, cols)

    def entry():
        if rng.random() < 0.5:
            return 0
        if field.kind == "prime":
            return rng.randrange(field.p)
        return Fraction(rng.randint(-10 ** rng.randint(1, 30),
                                    10 ** rng.randint(1, 30)),
                        rng.choice((1, 2, 3, 12) + LARGE_PRIMES))

    entries = [Fraction(entry()) for _ in range(rows * cols)]
    den = lcm(1, *(x.denominator for x in entries))
    return Matrix.from_integer_ratio(field, rows, cols, [
        int(x * den) for x in entries], den)


# names with quotes, backslashes, control and non-ASCII characters
file_names = st.text(st.sampled_from(
    ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\x00", "\x7f", "é", "中",
     "\U0001f600", "\ud800"]), max_size=4)


@st.composite
def problem_files(draw):
    """A problem file over QQ or GF(p) with up to three entries per
    section (any section may be empty), coalgebras of dimension 0 to 3
    and series of order 0 to 3; the structures need not be valid."""
    field = draw(st.sampled_from(EXTREMAL_FIELDS))
    rng = fresh_rng(draw(st.integers(0, 10 ** 6)))
    pf = ProblemFile(field=field)

    def section_names():
        return draw(st.lists(file_names, unique=True, max_size=3))

    for name in section_names():
        dim = rng.randint(0, 3)
        pf.coalgebras[name] = Coalgebra(
            name, dim, _file_matrix(rng, field, dim * dim, dim))
    for name in section_names() if pf.coalgebras else ():
        s, t = (rng.choice(list(pf.coalgebras.values())) for _ in range(2))
        pf.morphisms[name] = CoalgebraMorphism(
            s, t, _file_matrix(rng, field, t.dim, s.dim))
    if not pf.morphisms:
        return pf

    def over():
        f = rng.choice(list(pf.morphisms.values()))
        return f, morphism_complex(f), f.source.dim, f.target.dim

    def coefficient(degree):
        f, comp, s, t = over()
        if degree == 1:
            return comp.element(_file_matrix(rng, field, s, s),
                                _file_matrix(rng, field, t, t), None, 1)
        return comp.element(_file_matrix(rng, field, s * s, s),
                            _file_matrix(rng, field, t * t, t),
                            _file_matrix(rng, field, t, s), 2)

    for name in section_names():
        pf.cocycles[name] = coefficient(2)
    for section, cls, degree in (("deformations", TruncatedDeformation, 2),
                                 ("isomorphisms", FormalIsomorphism, 1)):
        for name in section_names():
            f, comp, s, t = over()
            order = rng.randint(0, 3)
            higher = []
            for _ in range(order):
                c = coefficient(degree)
                # the coefficient over f: the same matrices, f's complex
                higher.append(comp.element(
                    *(p.matrix for p in c.parts()), degree)
                    if c.morphism == f and rng.random() < 0.7
                    else comp.zero(degree))
            getattr(pf, section)[name] = cls.from_higher_coefficients(
                f, higher, order)
    return pf


@settings(max_examples=80, deadline=None)
@given(problem_files())
def test_serializer_matches_the_json_module(pf):
    text = serialize_problem(pf)
    assert text == reference_serialize_problem(pf)
    assert parse_problem_text(text) == pf


@pytest.mark.parametrize("field", EXTREMAL_FIELDS, ids=repr)
def test_fixture_corpus_matches_the_json_module(field, tmp_path):
    for name, pf in builtin_corpus(field).items():
        assert serialize_problem(pf) == reference_serialize_problem(pf), name
    result = CliRunner().invoke(cli_main, ["--fixtures", str(tmp_path)])
    assert result.exit_code == 0
    for name, pf in builtin_corpus().items():
        assert (tmp_path / f"{name}.json").read_text(encoding="utf-8") == \
            reference_serialize_problem(pf)


# scalars as a file may give them: ints, every spelling the grammar
# admits (signs, leading zeros, unreduced fractions, zero and large
# denominators, numerators past a machine word) and values outside it
file_scalars = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(lambda sign, zeros, num, den: sign + "0" * zeros + str(num)
              + ("" if den is None else f"/{den}"),
              st.sampled_from(["", "+", "-"]), st.integers(0, 2),
              st.integers(0, 10 ** 40),
              st.none() | st.integers(0, 30) | st.sampled_from(LARGE_PRIMES)
              | st.integers(1, 10 ** 30)),
    st.sampled_from(["1e3", "1.5", " 1", "1 ", "1_0", "٣", "1,2",
                     "1/2/3", "", "--1", "1/-2", "/2", "0x1"]),
    st.sampled_from([True, False, 1.5, None, [1], {}]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EXTREMAL_FIELDS + (PrimeField(5),)),
       st.lists(file_scalars, max_size=10))
def test_bulk_scalar_reading_matches_per_scalar_reading(field, scalars):
    # read together, the scalars are refused whenever one of them is, and
    # otherwise they are the values read one at a time
    try:
        values = [_parse_scalar(field, x, "m") for x in scalars]
    except ProblemFileError:
        values = None
    decoded = _decoded(field, scalars)
    if values is None:
        assert decoded is None
    elif decoded is not None:
        ints, den = decoded
        assert Matrix.from_integer_ratio(field, 1, len(ints), ints, den) == \
            Matrix.from_rows(field, [[Fraction(x, d) for x, d in values]])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((QQ, PrimeField(5))),
       st.lists(file_scalars, min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(-1, 2), st.integers(0, 2),
                          st.integers(0, 2), file_scalars), max_size=6))
def test_problem_file_matrices_match_per_scalar_reading(field, entries,
                                                        quads):
    # a 2 x 2 morphism matrix and the quadruples of a dimension-2
    # comultiplication: the matrices summed one scalar at a time, or the
    # error of the first scalar or quadruple that a per-scalar reading
    # refuses
    obj = {"field": "rational" if field == QQ else {"prime": field.p},
           "coalgebras": {"c": {"dim": 2, "delta": [list(q) for q in quads]}},
           "morphisms": {"f": {"source": "c", "target": "c",
                               "matrix": [entries[:2], entries[2:]]}}}
    expected = None
    try:
        delta = Matrix.zeros(field, 4, 2)
        for a, b, c, x in quads:
            if not (0 <= a < 2 and 0 <= b < 2 and 0 <= c < 2):
                idx = next(i for i in (a, b, c) if not 0 <= i < 2)
                raise ProblemFileError(
                    f"coalgebras.c: basis index {idx} out of range for dim 2")
            delta = delta + Matrix.from_sparse(field, 4, 2, {
                (b * 2 + c, a): 1}).scale(
                    Fraction(*_parse_scalar(field, x, "coalgebras.c")))
        matrix = Matrix.from_rows(field, [
            [Fraction(*_parse_scalar(field, x, "morphisms.f.matrix"))
             for x in row] for row in (entries[:2], entries[2:])])
    except ProblemFileError as exc:
        expected = str(exc)
    try:
        pf = parse_problem_text(json.dumps(obj))
    except ProblemFileError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert pf.coalgebras["c"].delta == delta
    assert pf.morphisms["f"].matrix == matrix
