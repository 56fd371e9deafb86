import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaldef import sparse
from coaldef.coalgebra import (
    Coalgebra,
    CoalgebraMorphism,
    InvalidStructureError,
    change_basis,
    collapse_morphism,
    divided_power,
    grouplike,
    identity_morphism,
    regular_bicomodule,
    zero_comultiplication,
)
from coaldef.cohomology import (
    _RECORDS_KEPT,
    Cochain,
    HochschildComplex,
    MorphismComplex,
    _ComplexBase,
    _shared_record,
    d_c,
    delta_c,
    morphism_complex,
)
from coaldef.exactlinalg import QQ, DimensionError, Matrix, PrimeField

from helpers import (
    NOT_A_MORPHISM,
    doubled_dp2,
    fresh_rng,
    invertible_matrix,
    random_bicomodule,
    random_cochain,
    random_morphism,
    random_morphism_cochain,
)


def scalar_complex():
    return MorphismComplex(identity_morphism(grouplike(1)))


def scalar_element(comp, *values):
    field = QQ
    mats = [Matrix.from_rows(field, [[v]]) for v in values]
    if len(values) == 2:
        return comp.element(mats[0], mats[1], None, 1)
    return comp.element(mats[0], mats[1], mats[2], 2)


class TestDeltaC:
    def test_scalar_degree_one_identity(self):
        hc = HochschildComplex(regular_bicomodule(grouplike(1)))
        s = Cochain(hc.bicomodule, 1, Matrix.from_rows(QQ, [[5]]))
        assert hc.differential(s).matrix == Matrix.from_rows(QQ, [[5]])

    def test_scalar_degree_two_zero(self):
        hc = HochschildComplex(regular_bicomodule(grouplike(1)))
        u = Cochain(hc.bicomodule, 2, Matrix.from_rows(QQ, [[7]]))
        assert hc.differential(u).is_zero()

    def test_linearity_zero(self):
        rng = fresh_rng(0)
        m = random_bicomodule(rng)
        z = Cochain.zero(m, 2)
        assert delta_c(z).is_zero()

    def test_degree_zero_input(self):
        m = regular_bicomodule(divided_power(2))
        out = delta_c(Cochain.zero(m, 0))
        assert out.degree == 1 and out.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_square_zero(self, seed, degree):
        rng = fresh_rng(seed)
        m = random_bicomodule(rng)
        hc = HochschildComplex(m)
        w = random_cochain(m, degree, rng, bound=5)
        assert hc.differential(hc.differential(w)).is_zero()


class TestDC:
    def test_degree_one_triple(self):
        comp = scalar_complex()
        w = scalar_element(comp, 3, 4)
        out = comp.differential(w)
        assert out.a_part.matrix[0, 0] == 3
        assert out.b_part.matrix[0, 0] == 4
        assert out.ab_part.matrix[0, 0] == 1  # p - x

    def test_degree_two_triple(self):
        comp = scalar_complex()
        out = comp.differential(scalar_element(comp, 3, 4, 5))
        assert out.a_part.is_zero() and out.b_part.is_zero()
        assert out.ab_part.matrix[0, 0] == -4  # p - x - phi

    def test_zero(self):
        comp = scalar_complex()
        assert comp.differential(comp.zero(2)).is_zero()

    def test_degree_one_mixed_term_has_no_phi(self):
        # with the degree-0 module zero, the mixed output is
        # b_part o f - f o a_part exactly
        rng = fresh_rng(1)
        f = random_morphism(rng)
        comp = MorphismComplex(f)
        w = random_morphism_cochain(comp, 1, rng)
        out = comp.differential(w)
        expected = w.b_part.matrix @ f.matrix - f.matrix @ w.a_part.matrix
        assert out.ab_part.matrix == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_square_zero(self, seed, degree):
        rng = fresh_rng(seed)
        comp = MorphismComplex(random_morphism(rng))
        w = random_morphism_cochain(comp, degree, rng, bound=5)
        assert comp.differential(comp.differential(w)).is_zero()


class TestDifferentialMatrix:
    def test_scalar_degree_one(self):
        comp = scalar_complex()
        assert comp.differential_matrix(1) == Matrix.from_rows(
            QQ, [[1, 0], [0, 1], [-1, 1]])

    def test_composites_vanish(self):
        comp = scalar_complex()
        assert (comp.differential_matrix(2) @ comp.differential_matrix(1)).is_zero()
        assert (comp.differential_matrix(3) @ comp.differential_matrix(2)).is_zero()

    def test_zero_coalgebra(self):
        comp = MorphismComplex(identity_morphism(grouplike(0)))
        assert comp.differential_matrix(1).shape == (0, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_agrees_with_operator_form(self, seed, degree):
        rng = fresh_rng(seed)
        comp = MorphismComplex(random_morphism(rng, max_dim=2))
        w = random_morphism_cochain(comp, degree, rng, bound=5)
        assert comp.flatten(comp.differential(w)) == \
            comp.differential_matrix(degree) @ comp.flatten(w)


class TestCohomology:
    def test_grouplike_one_hochschild(self):
        hc = HochschildComplex(regular_bicomodule(grouplike(1)))
        for n in (1, 2, 3):
            assert hc.cohomology(n).h_dim == 0

    def test_grouplike_one_morphism(self):
        comp = scalar_complex()
        for n in (1, 2, 3):
            assert comp.cohomology(n).h_dim == 0

    def test_zero_coalgebra(self):
        hc = HochschildComplex(regular_bicomodule(grouplike(0)))
        for n in (1, 2):
            assert hc.cohomology(n).h_dim == 0

    def test_degree_zero_rejected(self):
        with pytest.raises(DimensionError):
            scalar_complex().cohomology(0)

    def test_report_consistency(self):
        comp = MorphismComplex(identity_morphism(divided_power(2)))
        rep = comp.cohomology(2)
        assert rep.h_dim == rep.cocycle_dim - rep.coboundary_dim
        assert len(rep.representatives) == rep.h_dim
        for r in rep.representatives:
            assert comp.is_cocycle(r)
            assert comp.is_coboundary(r) is None

    def test_zero_comultiplication_dimensions(self):
        # with every structure map zero, only the comparison term b - a
        # survives in the differential: kernels are {a = b} (dim 1 in
        # degree 1, dim 2 above), images are the mixed line (dim 0, then 1)
        comp = MorphismComplex(identity_morphism(zero_comultiplication(1)))
        assert comp.cohomology(1).h_dim == 1
        assert comp.cohomology(2).h_dim == 1
        assert comp.cohomology(3).h_dim == 1

    def test_basis_change_invariance(self):
        rng = fresh_rng(21)
        a = divided_power(2)
        f = identity_morphism(a)
        base = [MorphismComplex(f).cohomology(n).h_dim for n in (1, 2, 3)]
        for _ in range(3):
            p = invertible_matrix(rng, 2, bound=4)
            a2 = change_basis(a, p)
            f2 = identity_morphism(a2)
            moved = [MorphismComplex(f2).cohomology(n).h_dim for n in (1, 2, 3)]
            assert moved == base
        hbase = [HochschildComplex(regular_bicomodule(a)).cohomology(n).h_dim
                 for n in (1, 2, 3)]
        p = invertible_matrix(rng, 2, bound=4)
        hmoved = [HochschildComplex(
            regular_bicomodule(change_basis(a, p))).cohomology(n).h_dim
            for n in (1, 2, 3)]
        assert hmoved == hbase

    def test_basis_change_invariance_non_identity_morphism(self):
        from coaldef.coalgebra import change_basis_morphism, collapse_morphism
        rng = fresh_rng(22)
        f = collapse_morphism(2)
        base = [MorphismComplex(f).cohomology(n).h_dim for n in (1, 2, 3)]
        for _ in range(3):
            p = invertible_matrix(rng, 2, bound=4)
            q = invertible_matrix(rng, 1, bound=4)
            moved = change_basis_morphism(f, p, q)
            assert [MorphismComplex(moved).cohomology(n).h_dim
                    for n in (1, 2, 3)] == base

    def test_prime_field(self):
        from coaldef.exactlinalg import PrimeField
        f5 = PrimeField(5)
        comp = MorphismComplex(identity_morphism(divided_power(2, f5)))
        assert comp.cohomology(2).h_dim == 1

    @pytest.mark.parametrize("make", [
        lambda: grouplike(2),
        lambda: divided_power(2),
        lambda: divided_power(3),
        lambda: zero_comultiplication(2),
    ], ids=["grouplike2", "dp2", "dp3", "zero2"])
    def test_identity_complex_matches_hochschild(self, make):
        # the deformation complex of the identity is the mapping cone of
        # the difference chain map, whose long exact sequence collapses
        # onto the Hochschild cohomology of the coalgebra itself
        a = make()
        hc = HochschildComplex(regular_bicomodule(a))
        mc = MorphismComplex(identity_morphism(a))
        for n in (1, 2, 3):
            assert mc.cohomology(n).h_dim == hc.cohomology(n).h_dim


def test_package_attribute_is_the_module():
    # the complexes' queries are methods only, so no function of the
    # package shadows the submodule
    import coaldef
    assert inspect.ismodule(coaldef.cohomology)


class TestCocycleCoboundary:
    def test_zero_is_cocycle_and_coboundary(self):
        comp = scalar_complex()
        z = comp.zero(2)
        assert comp.is_cocycle(z)
        pre = comp.is_coboundary(z)
        assert pre is not None and pre.is_zero() and pre.degree == 1

    def test_degree_one_zero_has_degree_zero_preimage(self):
        comp = scalar_complex()
        pre = comp.is_coboundary(comp.zero(1))
        assert pre is not None and pre.degree == 0

    def test_relation_defines_cocycles(self):
        comp = scalar_complex()
        w = scalar_element(comp, 2, 5, 3)  # p - x - phi = 0
        assert comp.is_cocycle(w)

    def test_non_cocycle(self):
        comp = scalar_complex()
        w = scalar_element(comp, 1, 0, 0)
        out = comp.differential(w)
        assert not comp.is_cocycle(w)
        assert out.ab_part.matrix[0, 0] == -1
        # the quotient reduction that reads a class is a cocycle test too
        with pytest.raises(InvalidStructureError, match="not a cocycle"):
            comp.class_coordinates(w)

    def test_coboundary_preimage_exact(self):
        rng = fresh_rng(31)
        comp = MorphismComplex(random_morphism(rng, max_dim=2))
        u = random_morphism_cochain(comp, 1, rng)
        w = comp.differential(u)
        pre = comp.is_coboundary(w)
        assert pre is not None
        assert comp.differential(pre) == w

    def test_matrix_over_another_field_is_rejected(self):
        # a QQ matrix in a GF(2) complex used to be accepted, and then
        # failed later with a misleading "vstack shape mismatch"
        gf2 = PrimeField(2)
        comp = MorphismComplex(identity_morphism(divided_power(2, gf2)))
        rational = Matrix.identity(QQ, 2)
        with pytest.raises(DimensionError, match=r"GF\(2\).*QQ"):
            comp.element(rational, Matrix.identity(gf2, 2), None, 1)
        with pytest.raises(DimensionError, match=r"GF\(2\).*QQ"):
            Cochain(regular_bicomodule(divided_power(2, gf2)), 1, rational)


class TestSparseElimination:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=repr)
    def test_divided_power_five_reaches_degree_three(self, field):
        comp = MorphismComplex(identity_morphism(divided_power(5, field)))
        triples = [(r.cocycle_dim, r.coboundary_dim, r.h_dim)
                   for r in map(comp.cohomology, (1, 2, 3))]
        assert triples == [(4, 0, 4), (50, 46, 4), (229, 225, 4)]

    @pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=repr)
    def test_identity_of_divided_power_has_h_dim_d_minus_one(self, field):
        for d in (2, 3, 4, 5):
            comp = MorphismComplex(identity_morphism(divided_power(d, field)))
            assert [comp.cohomology(n).h_dim for n in (1, 2, 3)] == \
                [d - 1] * 3

    def test_queries_build_no_dense_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a dense matrix was built")

        monkeypatch.setattr(Matrix, "rref", refuse)
        monkeypatch.setattr(_ComplexBase, "differential_matrix", refuse)
        comp = MorphismComplex(identity_morphism(divided_power(3)))
        reps = comp.cohomology(2).representatives
        assert len(reps) == 2
        u = comp.from_flat(1, list(range(comp.cochain_dim(1))))
        w = reps[0].scale(3) + comp.differential(u)
        assert comp.differential(comp.is_coboundary(comp.differential(u))) \
            == comp.differential(u)
        assert comp.is_coboundary(w) is None
        assert comp.class_coordinates(w) == [3, 0]
        assert comp.class_coordinates(comp.differential(u)) == []
        v = comp.from_flat(2, [1] + [0] * (comp.cochain_dim(2) - 1))
        assert not comp.is_cocycle(v)
        with pytest.raises(InvalidStructureError):
            comp.class_coordinates(v)


    def test_queries_evaluate_no_image_elimination(self):
        # the coboundaries are read from the columns of D_(n-1) at the
        # pivots of its kernel echelon, so no query eliminates the
        # columns of a differential
        rng = fresh_rng(24)
        for comp in (
                HochschildComplex(regular_bicomodule(divided_power(3))),
                MorphismComplex(identity_morphism(divided_power(3))),
                MorphismComplex(collapse_morphism(3, PrimeField(101)))):
            for n in (1, 2, 3):
                for w in comp.cohomology(n).representatives:
                    comp.class_coordinates(w)
                w = comp.from_flat(n, [rng.randint(-2, 2) for _ in
                                       range(comp.cochain_dim(n))])
                try:
                    comp.class_coordinates(w)
                except InvalidStructureError:
                    pass
            blocks = [comp]
            if isinstance(comp, MorphismComplex):
                blocks += [comp.on_source, comp.on_target, comp.mixed]
            eliminations = [e for block in blocks for e in
                            block._record.eliminations.values()]
            assert eliminations
            assert all("image" not in e.__dict__ for e in eliminations)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(5), PrimeField(101)], ids=repr)
def test_divided_power_cohomology_matches_periodic_resolution(field):
    # dp_m is dual to k[x]/(x^m), whose 2-periodic resolution gives
    # h^n = m - 1 for n >= 1, or m when the characteristic divides m: a
    # value from outside the bar complex
    p = field.p if field.kind == "prime" else 0
    for m in range(1, 6):
        comp = HochschildComplex(regular_bicomodule(divided_power(m, field)))
        expected = m if p and m % p == 0 else m - 1
        assert [comp.cohomology(n).h_dim for n in (1, 2, 3)] == [expected] * 3


class TestOneComplexPerMorphism:
    def test_shared_by_every_caller(self):
        f = identity_morphism(divided_power(2))
        comp = morphism_complex(f)
        assert morphism_complex(f) is comp
        assert MorphismComplex(f) is not comp
        w = comp.zero(2)
        assert d_c(w) == comp.zero(3)
        assert morphism_complex(w.morphism) is comp

    def test_equal_values_share_one_record(self):
        # a morphism equal in value, over coalgebras of other names, reads
        # the record the first one filled
        f = identity_morphism(divided_power(2))
        comp = morphism_complex(f)
        comp.cohomology(2)
        g = identity_morphism(Coalgebra("other", 2, divided_power(2).delta))
        other = morphism_complex(g)
        assert other is not comp and other.morphism is g
        assert other._record is comp._record
        assert other.morphism_report() is comp.morphism_report()
        def reps(c):
            return [c.flatten(r) for r in c.cohomology(2).representatives]

        assert reps(other) == reps(comp)
        assert _shared_record.cache_info().currsize == 1

    def test_different_values_get_separate_records(self):
        dp2 = divided_power(2)
        moved = change_basis(dp2, Matrix.from_rows(QQ, [[1, 1], [0, 1]]),
                             name=dp2.name)
        records = [morphism_complex(f)._record for f in (
            identity_morphism(dp2),
            identity_morphism(divided_power(2, PrimeField(5))),
            identity_morphism(divided_power(2, PrimeField(7))),
            identity_morphism(moved),
            CoalgebraMorphism(dp2, dp2, Matrix.from_rows(QQ, [[2, 0],
                                                              [0, 2]])))]
        assert len({id(r) for r in records}) == len(records)
        assert _shared_record.cache_info().currsize == \
            min(len(records), _RECORDS_KEPT)

    def test_least_recently_used_record_is_evicted_at_the_bound(self):
        def complex_of(k):
            # k grouplikes: one structure per k
            return morphism_complex(identity_morphism(grouplike(k)))

        records = [complex_of(k)._record for k in range(1, _RECORDS_KEPT + 1)]
        assert _shared_record.cache_info().currsize == _RECORDS_KEPT
        # reading the first record makes the second the least recent
        assert complex_of(1)._record is records[0]
        complex_of(_RECORDS_KEPT + 1)
        assert _shared_record.cache_info().currsize == _RECORDS_KEPT
        assert complex_of(1)._record is records[0]
        fresh = complex_of(2)._record
        assert fresh is not records[1] and fresh.report is None
        # which in turn evicted the least recent, grouplike(3)
        assert all(complex_of(k)._record is records[k - 1]
                   for k in range(4, _RECORDS_KEPT + 1))
        assert complex_of(3)._record is not records[2]

    def test_direct_construction_stays_unshared(self):
        f = identity_morphism(divided_power(2))
        direct = MorphismComplex(f)
        direct.cohomology(2)
        assert _shared_record.cache_info().currsize == 0
        shared = morphism_complex(identity_morphism(divided_power(2)))
        assert shared._record is not direct._record
        assert not shared._record.eliminations
        assert MorphismComplex(f)._record is not direct._record

    def test_non_morphism_builds_and_differentiates(self):
        f = doubled_dp2()
        comp = MorphismComplex(f)
        w = comp.from_flat(2, [1] * comp.cochain_dim(2))
        assert comp.differential(w) == d_c(w)
        assert comp.differential_matrix(2).shape == (comp.cochain_dim(3),
                                                     comp.cochain_dim(2))

    def test_non_morphism_queries_refuse(self):
        for comp in (MorphismComplex(doubled_dp2()),
                     morphism_complex(doubled_dp2())):
            w = comp.zero(2)
            for query in (lambda: comp.is_cocycle(w),
                          lambda: comp.is_coboundary(w),
                          lambda: comp.cohomology(2),
                          lambda: comp.class_coordinates(w)):
                with pytest.raises(InvalidStructureError) as err:
                    query()
                assert str(err.value) == NOT_A_MORPHISM


class TestOneRecordPerBlock:
    """The Hochschild blocks of a deformation complex that are equal in
    value share one record, which no other complex reads."""

    def test_blocks_of_an_identity_hold_one_record(self):
        comp = MorphismComplex(identity_morphism(divided_power(4)))
        records = {id(block._record) for block in
                   (comp.on_source, comp.on_target, comp.mixed)}
        assert len(records) == 1
        # a second complex, direct or shared, has blocks of its own
        for other in (MorphismComplex(identity_morphism(divided_power(4))),
                      morphism_complex(identity_morphism(divided_power(4)))):
            assert other.mixed._record is other.on_source._record
            assert other.on_source._record is not comp.on_source._record

    def test_blocks_of_other_morphisms_are_separate(self):
        comp = MorphismComplex(collapse_morphism(3))
        records = {id(block._record) for block in
                   (comp.on_source, comp.on_target, comp.mixed)}
        assert len(records) == 3

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=repr)
    def test_endomorphism_eliminates_each_block_once_per_degree(
            self, field, monkeypatch):
        # the kernel echelon of delta_A^n is eliminated once and copied
        # into both diagonal blocks of D_n; the mixed block is not
        # eliminated on its own; each quotient adds one elimination, of
        # the coboundaries restricted to the free columns of D_n
        calls = []
        rref = sparse.sparse_rref

        def counting_rref(field_, rows, width, reverse=False, blocks=()):
            calls.append((width, reverse, len(blocks)))
            return rref(field_, rows, width, reverse, blocks)

        monkeypatch.setattr(sparse, "sparse_rref", counting_rref)
        comp = MorphismComplex(identity_morphism(divided_power(3, field)))
        assert [comp.cohomology(n).h_dim for n in (1, 2, 3)] == [2, 2, 2]
        for n in (1, 2, 3):
            assert calls.count((3 ** n * 3, True, 0)) == 1
            assert calls.count((comp.cochain_dim(n), True, 2)) == 1
            assert calls.count((comp.cochain_dim(n), True, 0)) == 1
        assert sum(reverse for _, reverse, _ in calls) == 9
