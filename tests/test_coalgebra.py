import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaldef.coalgebra import (
    Coalgebra,
    InvalidStructureError,
    bicomodule_via,
    change_basis,
    change_basis_morphism,
    check_bicomodule,
    check_coassociative,
    check_morphism,
    collapse_morphism,
    direct_sum,
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
from coaldef.exactlinalg import QQ, Matrix

from helpers import fresh_rng, random_coalgebra, random_morphism


def broken_coalgebra():
    # e0 -> e0 (x) e1 only: not coassociative
    delta = Matrix.from_rows(QQ, [[0, 0], [1, 0], [0, 0], [0, 0]])
    return Coalgebra("broken", 2, delta)


class TestIndexing:
    def test_pack_unpack_roundtrip(self):
        for flat in range(27):
            assert pack_index(unpack_index(flat, 3, 3), 3) == flat

    def test_leftmost_most_significant(self):
        assert pack_index((1, 0), 2) == 2
        assert pack_index((0, 1), 2) == 1

    def test_degree_zero(self):
        assert pack_index((), 5) == 0
        assert unpack_index(0, 5, 0) == ()


class TestChecks:
    @pytest.mark.parametrize("coalg", [
        grouplike(1), grouplike(2), divided_power(2), divided_power(3),
        zero_comultiplication(2), direct_sum(grouplike(1), divided_power(2)),
        grouplike(0),
    ], ids=lambda c: c.name)
    def test_fixtures_coassociative(self, coalg):
        assert check_coassociative(coalg).ok

    def test_broken_reports_entry(self):
        rep = check_coassociative(broken_coalgebra())
        assert not rep.ok
        assert rep.position is not None
        assert "failing entry" in rep.message

    def test_identity_morphism_ok(self):
        assert check_morphism(identity_morphism(divided_power(3))).ok

    def test_zero_morphism_ok(self):
        assert check_morphism(zero_morphism(grouplike(2), divided_power(2))).ok

    def test_collapse_ok(self):
        assert check_morphism(collapse_morphism(2)).ok

    def test_non_morphism_detected(self):
        from coaldef.coalgebra import CoalgebraMorphism
        bad = CoalgebraMorphism(grouplike(2), grouplike(1),
                                Matrix.from_rows(QQ, [[1, 2]]))
        assert not check_morphism(bad).ok


class TestBicomodules:
    def test_via_identity_is_regular(self):
        a = divided_power(2)
        assert bicomodule_via(identity_morphism(a)) == regular_bicomodule(a)

    def test_via_collapse_coactions(self):
        f = collapse_morphism(2)
        m = bicomodule_via(f)
        # psi_l(e_i) = g (x) e_i and psi_r(e_i) = e_i (x) g
        assert m.psi_l == Matrix.identity(QQ, 2)
        assert m.psi_r == Matrix.identity(QQ, 2)
        assert check_bicomodule(m).ok

    def test_via_zero_morphism_accepted(self):
        m = bicomodule_via(zero_morphism(grouplike(2), grouplike(1)))
        assert m.psi_l.is_zero() and m.psi_r.is_zero()
        assert check_bicomodule(m).ok

    def test_via_invalid_rejected(self):
        from coaldef.coalgebra import CoalgebraMorphism
        bad = CoalgebraMorphism(grouplike(2), grouplike(1),
                                Matrix.from_rows(QQ, [[1, 2]]))
        with pytest.raises(InvalidStructureError):
            bicomodule_via(bad)

    def test_regular_examples(self):
        assert regular_bicomodule(grouplike(1)).psi_l == \
            Matrix.from_rows(QQ, [[1]])
        z = regular_bicomodule(grouplike(0))
        assert z.psi_l.shape == (0, 0)
        dp = regular_bicomodule(divided_power(2))
        # column of e1 in psi_l: e0 (x) e1 + e1 (x) e0
        assert dp.psi_l.column_entries(1) == [0, 1, 1, 0]

    def test_random_via_satisfies_axioms(self):
        rng = fresh_rng(5)
        for _ in range(10):
            m = bicomodule_via(random_morphism(rng))
            assert check_bicomodule(m).ok


class TestMiddleInsertion:
    def test_degree_one_is_comultiplication(self):
        a = divided_power(2)
        assert middle_insertion(a, 1, 1) == a.delta

    def test_grouplike_one_all_ones(self):
        a = grouplike(1)
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                assert middle_insertion(a, n, i) == Matrix.from_rows(QQ, [[1]])

    def test_against_enumeration_oracle(self):
        # independent construction: apply delta to the i-th factor of each
        # basis tensor and place coefficients by explicit index packing
        a = divided_power(2)
        n, i = 2, 1
        d = a.dim
        expected = [[0] * d ** n for _ in range(d ** (n + 1))]
        for flat_col in range(d ** n):
            idx = unpack_index(flat_col, d, n)
            for r in range(d * d):
                coeff = a.delta[r, idx[i - 1]]
                if coeff:
                    p, q = divmod(r, d)
                    out = idx[:i - 1] + (p, q) + idx[i:]
                    expected[pack_index(out, d)][flat_col] = coeff
        assert middle_insertion(a, n, i) == Matrix.from_rows(QQ, expected)
        # spec'd sanity values: column of e1 (x) e0 hits e0 (x) e1 (x) e0
        # and e1 (x) e0 (x) e0
        m = middle_insertion(a, 2, 1)
        assert m.column_entries(pack_index((1, 0), 2)) == [
            0, 0, 1, 0, 1, 0, 0, 0]

    def test_coassociativity_lattice(self):
        good = divided_power(2)
        lhs = middle_insertion(good, 2, 2) @ good.delta
        rhs = middle_insertion(good, 2, 1) @ good.delta
        assert lhs == rhs
        bad = broken_coalgebra()
        assert middle_insertion(bad, 2, 2) @ bad.delta != \
            middle_insertion(bad, 2, 1) @ bad.delta

    def test_insertion_lattice_general(self):
        # inserting at slot i shifts later slots up by one, so for i < j
        # the two insertion orders agree
        rng = fresh_rng(77)
        a = random_coalgebra(rng, max_dim=2)
        for n in (2, 3):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert (middle_insertion(a, n + 1, j + 1)
                            @ middle_insertion(a, n, i)) == \
                        (middle_insertion(a, n + 1, i)
                         @ middle_insertion(a, n, j))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            middle_insertion(grouplike(2), 2, 3)


class TestTensorPower:
    def test_zeroth_power(self):
        f = Matrix.from_rows(QQ, [[2, 1]])
        assert tensor_power_map(f, 0) == Matrix.identity(QQ, 1)

    def test_identity_power(self):
        assert tensor_power_map(Matrix.identity(QQ, 2), 3) == \
            Matrix.identity(QQ, 8)

    def test_scaling_cube(self):
        assert tensor_power_map(Matrix.from_rows(QQ, [[2]]), 3) == \
            Matrix.from_rows(QQ, [[8]])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 2))
    def test_power_additivity(self, seed, a, b):
        from helpers import rational_matrix
        f = rational_matrix(fresh_rng(seed), 2, 2, bound=4)
        assert tensor_power_map(f, a + b) == \
            tensor_power_map(f, a).kron(tensor_power_map(f, b))


class TestFixtures:
    def test_grouplike_one(self):
        g = grouplike(1)
        assert g.dim == 1
        assert g.delta == Matrix.from_rows(QQ, [[1]])

    def test_divided_power_two(self):
        dp = divided_power(2)
        assert dp.delta.column_entries(0) == [1, 0, 0, 0]
        assert dp.delta.column_entries(1) == [0, 1, 1, 0]

    def test_direct_sum_of_grouplikes_is_grouplike(self):
        s = direct_sum(grouplike(1), grouplike(1))
        g2 = grouplike(2)
        assert s.dim == g2.dim and s.delta == g2.delta

    def test_inclusion_is_morphism(self):
        f = inclusion_morphism(grouplike(1), divided_power(2))
        assert check_morphism(f).ok

    def test_collapse_maps_everything_to_grouplike(self):
        f = collapse_morphism(3)
        assert f.matrix == Matrix.from_rows(QQ, [[1, 1, 1]])


class TestEquality:
    def test_identical_objects_compare_without_matrices(self, monkeypatch):
        compared = []
        matrix_eq = Matrix.__eq__

        def counting_eq(self, other):
            compared.append(self)
            return matrix_eq(self, other)

        monkeypatch.setattr(Matrix, "__eq__", counting_eq)
        f = identity_morphism(divided_power(3))
        m = regular_bicomodule(f.source)
        assert f == f and f.source == f.source and m == m
        assert compared == []
        # distinct but equal objects still compare by value
        assert f == identity_morphism(divided_power(3))
        assert compared


class TestChangeBasis:
    def test_preserves_coassociativity(self):
        rng = fresh_rng(11)
        for _ in range(10):
            a = random_coalgebra(rng)
            assert check_coassociative(a).ok

    def test_morphism_transport(self):
        rng = fresh_rng(12)
        for _ in range(10):
            f = random_morphism(rng)
            assert check_morphism(f).ok

    def test_singular_rejected(self):
        with pytest.raises(InvalidStructureError):
            change_basis(grouplike(2), Matrix.zeros(QQ, 2, 2))

    def test_morphism_transport_inverts_each_basis_change_once(
            self, monkeypatch):
        inverted = []
        inverse = Matrix.inverse

        def counting_inverse(m):
            inverted.append(m.rows)
            return inverse(m)

        monkeypatch.setattr(Matrix, "inverse", counting_inverse)
        f = collapse_morphism(3)
        p = Matrix.from_rows(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        g = change_basis_morphism(f, p, Matrix.identity(QQ, 1))
        assert inverted == [3, 1]
        assert check_morphism(g).ok

    def test_morphism_transport_checks_the_source_change_first(self):
        # q has the wrong shape for the target, which would raise a
        # DimensionError if it were read first
        f = collapse_morphism(2)
        singular = Matrix.zeros(QQ, 2, 2)
        with pytest.raises(InvalidStructureError,
                           match="change-of-basis matrix is singular"):
            change_basis_morphism(f, singular, Matrix.identity(QQ, 3))
