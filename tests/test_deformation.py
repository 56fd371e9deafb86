import pytest

from coaldef import series
from coaldef.coalgebra import (
    divided_power,
    grouplike,
    identity_morphism,
    regular_bicomodule,
    zero_comultiplication,
)
from coaldef.cohomology import Cochain, MorphismComplex, _ComplexBase, \
    morphism_complex
from coaldef.deformation import (
    ExtensionRejected,
    FormalIsomorphism,
    InternalInvariantError,
    ObstructionClass,
    TruncatedDeformation,
    _obstruction_cochain,
    apply_equivalence,
    comp_bar,
    compose_isomorphisms,
    extend,
    infinitesimal,
    integrate,
    invert_formal,
    obstruction,
    trivialize,
    verify_deformation,
)
from coaldef.exactlinalg import QQ, DimensionError, Matrix, PrimeField
from coaldef.series import product as series_product
from coaldef.problemfile import builtin_corpus
from coaldef.sparse import Elimination

from coaldef.coalgebra import InvalidStructureError

from helpers import (
    NOT_A_MORPHISM,
    broken_coalgebra,
    dilate_deformation,
    doubled_dp2,
    fresh_rng,
    into_broken,
    random_cocycle,
    random_isomorphism,
    random_morphism,
    rational_matrix,
)


def count_applications(monkeypatch):
    """The list that gets one entry per sparse operator application."""
    applied, apply = [], _ComplexBase._apply

    def counting(self, w):
        applied.append(w.degree)
        return apply(self, w)

    monkeypatch.setattr(_ComplexBase, "_apply", counting)
    return applied


@pytest.fixture
def dp_setup():
    """The divided-power fixture: bump(e1) = e1 (x) e1 on both sides."""
    f = identity_morphism(divided_power(2))
    comp = MorphismComplex(f)
    bump = Matrix.from_rows(QQ, [[0, 0], [0, 0], [0, 0], [0, 1]])
    w = comp.element(bump, bump, Matrix.zeros(QQ, 2, 2), 2)
    return f, comp, w


def scalar_setup():
    f = identity_morphism(grouplike(1))
    return f, MorphismComplex(f)


class TestVerify:
    def test_trivial_any_order(self):
        f, _ = scalar_setup()
        for order in (0, 1, 4):
            assert verify_deformation(TruncatedDeformation.trivial(f, order)).ok

    def test_divided_power_fixture(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 2)
        assert verify_deformation(d).ok

    def test_half_fixture_fails_morphism_condition(self, dp_setup):
        f, comp, w = dp_setup
        half = comp.element(w.a_part.matrix, Matrix.zeros(QQ, 4, 2),
                            Matrix.zeros(QQ, 2, 2), 2)
        d = TruncatedDeformation.from_higher_coefficients(f, [half], 1)
        rep = verify_deformation(d)
        assert not rep.ok
        assert rep.order == 1 and rep.equation == "morphism"

    def test_broken_coassociativity_located(self, dp_setup):
        f, comp, _ = dp_setup
        # e0 -> e0 (x) e1 as a first-order coefficient on both sides is
        # compatible (identical) but not coassociative at order 1
        skew = Matrix.from_rows(QQ, [[0, 0], [1, 0], [0, 0], [0, 0]])
        w = comp.element(skew, skew, Matrix.zeros(QQ, 2, 2), 2)
        rep = verify_deformation(
            TruncatedDeformation.from_higher_coefficients(f, [w], 1))
        assert not rep.ok
        assert rep.equation == "coassociativity[source]"
        assert rep.order == 1

    def test_each_deformation_is_verified_once(self, dp_setup, monkeypatch):
        # a deformation does not change, so a second verification reads
        # the report of the first: one packed product each.  The invalid
        # one is unpacked once, at the equation that fails; the valid one
        # once per equation, for the order-(N+1) defects that it keeps
        from coaldef import _kernels_py
        import coaldef.deformation as deformation
        f, comp, w = dp_setup
        half = comp.element(w.a_part.matrix, Matrix.zeros(QQ, 4, 2),
                            Matrix.zeros(QQ, 2, 2), 2)
        valid = TruncatedDeformation.from_higher_coefficients(f, [w], 2)
        invalid = TruncatedDeformation.from_higher_coefficients(f, [half], 1)
        packed, unpacked = [], []
        pack, unpack = deformation._packed_defects, _kernels_py.unpack
        monkeypatch.setattr(deformation, "_packed_defects",
                            lambda *args: packed.append(1) or pack(*args))
        monkeypatch.setattr(_kernels_py, "unpack",
                            lambda *args: unpacked.append(1) or unpack(*args))
        for d, ok in ((valid, True), (invalid, False)):
            first = verify_deformation(d)
            assert first.ok is ok
            assert verify_deformation(d) == first
        assert len(packed) == 2
        assert len(unpacked) == 4
        # an equal deformation built anew is verified anew
        again = TruncatedDeformation.from_higher_coefficients(f, [half], 1)
        assert verify_deformation(again) == verify_deformation(invalid)
        assert len(packed) == 3

    def test_kernel_products_do_not_grow_with_the_order(self, monkeypatch):
        # the equations are evaluated on packed series, so an order-12
        # deformation costs as many integer products as an order-2 one
        from coaldef import _kernels_py
        f = identity_morphism(divided_power(3))
        comp = MorphismComplex(f)
        d = apply_equivalence(random_isomorphism(comp, 12, fresh_rng(12)),
                              TruncatedDeformation.trivial(f, 12))
        calls = []
        for name in ("matmul", "kron"):
            real = getattr(_kernels_py, name)
            monkeypatch.setattr(_kernels_py, name,
                                lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        counts = {}
        for order in (2, 12):
            calls.clear()
            assert verify_deformation(d.truncate(order)).ok
            counts[order] = (calls.count("matmul"), calls.count("kron"))
        assert counts[2] == counts[12]
        assert counts[12][0]

    def test_wrong_order_zero_rejected(self, dp_setup):
        f, comp, w = dp_setup
        with pytest.raises(InvalidStructureError):
            TruncatedDeformation(f, [w])


class TestInfinitesimal:
    def test_fixture(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 2)
        res = infinitesimal(d)
        assert not res.trivial
        assert res.coefficient == w
        assert res.is_cocycle
        assert res.generalized_order == 1

    def test_trivial(self):
        f, _ = scalar_setup()
        res = infinitesimal(TruncatedDeformation.trivial(f, 3))
        assert res.trivial and res.coefficient is None

    def test_shifted_generalized_order(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        shifted = dilate_deformation(d, 3)
        assert verify_deformation(shifted).ok
        res = infinitesimal(shifted)
        assert res.generalized_order == 3
        assert res.coefficient == w
        assert res.is_cocycle


class TestCompBar:
    def test_coassociative_self_pairing_vanishes(self):
        a = divided_power(3)
        reg = regular_bicomodule(a)
        delta = Cochain(reg, 2, a.delta)
        assert comp_bar(delta, delta).is_zero()

    def test_zero_argument(self):
        a = divided_power(2)
        reg = regular_bicomodule(a)
        z = Cochain.zero(reg, 2)
        s = Cochain(reg, 2, Matrix.from_rows(QQ, [[0, 0], [0, 0], [0, 0], [0, 1]]))
        assert comp_bar(s, z).is_zero()
        assert comp_bar(z, s).is_zero()

    def test_bump_self_pairing_vanishes(self, dp_setup):
        _, comp, w = dp_setup
        assert comp_bar(w.a_part, w.a_part).is_zero()

    def test_requires_regular_bicomodule(self):
        from coaldef.coalgebra import bicomodule_via, collapse_morphism
        m = bicomodule_via(collapse_morphism(2))
        c = Cochain.zero(m, 2)
        with pytest.raises(InvalidStructureError):
            comp_bar(c, c)


class TestObstruction:
    def test_trivial_deformation(self):
        f, _ = scalar_setup()
        ob = obstruction(TruncatedDeformation.trivial(f, 2))
        assert ob.cochain.is_zero()
        assert ob.is_trivial

    def test_fixture_order_one(self, dp_setup):
        f, comp, w = dp_setup
        ob = obstruction(TruncatedDeformation.from_higher_coefficients(f, [w], 1))
        assert ob.cochain.is_zero()
        assert ob.h3_class == ()

    @pytest.mark.parametrize("corpus, name", [
        ("fixtures", "dp2_deformation"), ("obstructed", "stuck_deformation")])
    def test_classifies_without_building_the_solver(self, monkeypatch,
                                                    corpus, name):
        # class_coordinates alone tells a coboundary (empty coordinates)
        # from a nonzero class; the [D_2 | I] solver is only for preimages.
        # Its quotient reduction is also the cocycle test, so neither a
        # cobounding obstruction nor a nonzero class applies D_3
        builds = []
        build = Elimination.solver.func

        def counting_solver(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(Elimination, "solver", property(counting_solver))
        applied = count_applications(monkeypatch)
        d = builtin_corpus(QQ)[corpus].deformations[name]
        ob = obstruction(d)
        assert builds == []
        assert applied == []
        assert ob.is_trivial == (name == "dp2_deformation")

    def test_obstruction_is_cocycle_on_random_deformations(self):
        rng = fresh_rng(17)
        checked = 0
        for _ in range(12):
            f = random_morphism(rng, max_dim=2)
            comp = MorphismComplex(f)
            w = random_cocycle(comp, rng)
            res = integrate(w, rng.randint(1, 3))
            d = res.deformation
            ob = obstruction(d)
            assert comp.differential(ob.cochain).is_zero()
            checked += 1
        assert checked == 12


class TestExtend:
    def test_trivial_with_zero(self):
        f, comp = scalar_setup()
        d = TruncatedDeformation.trivial(f, 1)
        out = extend(d, comp.zero(2))
        assert isinstance(out, TruncatedDeformation)
        assert out.order == 2
        assert verify_deformation(out).ok

    def test_fixture_canonical(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        out = extend(d)
        assert isinstance(out, TruncatedDeformation)
        assert verify_deformation(out).ok

    def test_fixture_accepts_any_cocycle(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        # obstruction is zero here, so any 2-cocycle works as omega_2
        out = extend(d, w)
        assert isinstance(out, TruncatedDeformation)
        assert verify_deformation(out).ok

    def test_rejects_non_cobounding_coefficient(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        bad = comp.element(Matrix.from_rows(QQ, [[1, 0], [0, 0], [0, 0], [0, 0]]),
                           Matrix.zeros(QQ, 4, 2), Matrix.zeros(QQ, 2, 2), 2)
        with pytest.raises(ExtensionRejected) as err:
            extend(d, bad)
        assert str(err.value) == (
            "coboundary of the supplied coefficient differs from the "
            "obstruction in component a_part at entry (1, 1) by -1")

    @pytest.mark.parametrize("part,entries,entry,value", [
        ("b_part", {(2, 1): 3}, (4, 1), -3),
        ("ab_part", {(0, 1): 1}, (0, 1), -1)])
    def test_both_messages_name_the_first_nonzero_component(
            self, dp_setup, part, entries, entry, value):
        # the obstruction of d is zero, so the differential of the
        # supplied coefficient is the difference that extend reports and
        # the coboundary that integrate reports
        f, comp, w = dp_setup
        shapes = {"a_part": (4, 2), "b_part": (4, 2), "ab_part": (2, 2)}
        bad = comp.element(*(Matrix.from_sparse(
            QQ, *shape, entries if name == part else {})
            for name, shape in shapes.items()), 2)
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        with pytest.raises(ExtensionRejected) as err:
            extend(d, bad)
        assert str(err.value) == (
            f"coboundary of the supplied coefficient differs from the "
            f"obstruction in component {part} at entry {entry} by {value}")
        with pytest.raises(InvalidStructureError) as err:
            integrate(bad, 2)
        assert str(err.value) == (
            f"not an infinitesimal candidate: coboundary is nonzero in "
            f"component {part} at entry {entry}")

    def test_blocked_extension_applies_no_operator(self, monkeypatch):
        # the failed solve and the class read after it decide a blocked
        # extension; neither applies D_3
        d = builtin_corpus(QQ)["obstructed"].deformations["stuck_deformation"]
        applied = count_applications(monkeypatch)
        out = extend(d)
        assert applied == []
        assert isinstance(out, ObstructionClass) and not out.is_trivial

    def test_converse_direction(self):
        # truncating a valid order-(N+1) deformation and recomputing the
        # obstruction recovers the coboundary of the last coefficient
        rng = fresh_rng(23)
        for _ in range(6):
            f = random_morphism(rng, max_dim=2)
            comp = MorphismComplex(f)
            res = integrate(random_cocycle(comp, rng), 3)
            d = res.deformation
            if d.order < 2:
                continue
            trunc = d.truncate(d.order - 1)
            ob = obstruction(trunc)
            last = d.coefficient(d.order)
            assert comp.differential(last) == ob.cochain


class TestCocycleChecks:
    """A class is tested for a cocycle by its quotient reduction, after
    any solve, yet a cochain that the theory makes a cocycle and is not
    one still raises: the cochains of one degree are built with one
    entry bumped, which leaves no cocycle on these inputs."""

    @staticmethod
    def bump(monkeypatch, degree, skip=0):
        """Bump entry (0, 0) of the a part of the degree-``degree``
        cochains that MorphismComplex.element builds, after ``skip``."""
        element, seen = MorphismComplex.element, []

        def bumped(self, a, b, ab, n):
            if n == degree:
                seen.append(n)
                if len(seen) > skip:
                    a = a + Matrix.from_sparse(a.field, a.rows, a.cols,
                                               {(0, 0): 1})
            return element(self, a, b, ab, n)

        monkeypatch.setattr(MorphismComplex, "element", bumped)

    def test_obstruction_that_is_no_cocycle_raises(self, dp_setup,
                                                   monkeypatch):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        w2 = extend(d).coefficient(2)
        wrong = comp.zero(1)
        self.bump(monkeypatch, 3)
        for operation in (lambda: integrate(w, 3), lambda: extend(d),
                          lambda: extend(d, w2), lambda: extend(d, wrong),
                          lambda: obstruction(d),
                          lambda: verify_deformation(d) and obstruction(d)):
            with pytest.raises(InternalInvariantError, match="3-cocycle"):
                operation()

    def test_window_coefficient_that_is_no_cocycle_raises(self,
                                                          monkeypatch):
        # the leading coefficient at order 4 opens the window [4, 7]
        f = identity_morphism(divided_power(3))
        gauge = random_isomorphism(morphism_complex(f), 8, fresh_rng(9),
                                   bound=2)
        d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, 8))
        assert trivialize(d).ok
        self.bump(monkeypatch, 2, skip=3)
        with pytest.raises(InternalInvariantError, match="2-cocycle"):
            trivialize(d)


class TestIntegrate:
    def test_zero_target_three(self):
        f, comp = scalar_setup()
        res = integrate(comp.zero(2), 3)
        assert res.ok
        assert res.deformation.order == 3
        assert infinitesimal(res.deformation).trivial

    def test_fixture_to_order_four(self, dp_setup):
        f, comp, w = dp_setup
        res = integrate(w, 4)
        assert res.ok
        assert verify_deformation(res.deformation).ok
        assert infinitesimal(res.deformation).coefficient == w

    def test_rejects_non_cocycle(self, dp_setup):
        f, comp, _ = dp_setup
        w = comp.element(Matrix.from_rows(QQ, [[1, 0], [0, 0], [0, 0], [0, 0]]),
                         Matrix.zeros(QQ, 4, 2), Matrix.zeros(QQ, 2, 2), 2)
        with pytest.raises(InvalidStructureError) as err:
            integrate(w, 2)
        assert str(err.value) == (
            "not an infinitesimal candidate: coboundary is nonzero in "
            "component a_part at entry (1, 1)")

    def test_obstructed_case(self):
        # zero comultiplication in dimension 2: every degree-2 element is
        # a cocycle, coboundaries only move the mixed slot, so a
        # non-coassociative first-order coefficient blocks at order 2
        f = identity_morphism(zero_comultiplication(2))
        comp = MorphismComplex(f)
        skew = Matrix.from_rows(QQ, [[0, 0], [1, 0], [0, 0], [0, 0]])
        w = comp.element(skew, skew, Matrix.zeros(QQ, 2, 2), 2)
        res = integrate(w, 3)
        assert not res.ok
        assert res.deformation.order == 1
        assert isinstance(res.obstruction, ObstructionClass)
        assert res.obstruction.next_order == 2
        assert res.obstruction.h3_class
        assert comp.differential(res.obstruction.cochain).is_zero()

    def test_h3_zero_never_obstructs(self):
        # degree-3 cohomology of the scalar morphism complex vanishes,
        # so every 2-cocycle integrates to any order
        f, comp = scalar_setup()
        assert comp.cohomology(3).h_dim == 0
        rng = fresh_rng(5)
        for _ in range(10):
            res = integrate(random_cocycle(comp, rng), 5)
            assert res.ok
            assert verify_deformation(res.deformation).ok

    def test_deep_order(self, dp_setup):
        f, comp, w = dp_setup
        res = integrate(w, 7)
        assert res.ok and res.deformation.order == 7
        assert verify_deformation(res.deformation).ok
        assert all(res.deformation.coefficient(n).is_zero()
                   for n in range(2, 8))
        assert infinitesimal(dilate_deformation(res.deformation, 2)
                             ).generalized_order == 2


class TestFormalIsomorphisms:
    def test_identity_inverse(self):
        f, _ = scalar_setup()
        p = FormalIsomorphism.identity(f, 2)
        assert invert_formal(p) == p

    def test_order_one_inverse(self):
        f, comp = scalar_setup()
        g = Matrix.from_rows(QQ, [[7]])
        p = FormalIsomorphism.from_higher_coefficients(
            f, [comp.element(g, g, None, 1)], 1)
        q = invert_formal(p)
        assert q.coefficient(1).a_part.matrix[0, 0] == -7

    def test_order_two_geometric_series(self):
        f, comp = scalar_setup()
        g = Matrix.from_rows(QQ, [[3]])
        p = FormalIsomorphism.from_higher_coefficients(
            f, [comp.element(g, g, None, 1), comp.zero(1)], 2)
        q = invert_formal(p)
        assert q.coefficient(1).a_part.matrix[0, 0] == -3
        assert q.coefficient(2).a_part.matrix[0, 0] == 9

    def test_constant_term_enforced(self):
        f, comp = scalar_setup()
        two = Matrix.from_rows(QQ, [[2]])
        with pytest.raises(InvalidStructureError):
            FormalIsomorphism(f, [comp.element(two, two, None, 1)])

    def test_series_product_tests_each_coefficient_once(self, monkeypatch):
        # the nonzero orders of each operand are listed once per product,
        # not once per order of the result
        rng = fresh_rng(4)
        order = 12
        a, b = ([rational_matrix(rng, 2, 2) if n % 3 else
                 Matrix.zeros(QQ, 2, 2) for n in range(order + 1)]
                for _ in range(2))
        calls = []
        real = Matrix.is_zero
        monkeypatch.setattr(Matrix, "is_zero",
                            lambda m: calls.append(1) or real(m))
        product = series_product(a, b, order)
        assert len(calls) <= 2 * (order + 1)
        monkeypatch.undo()
        assert product[order] == sum(
            (a[i] @ b[order - i] for i in range(1, order + 1)),
            a[0] @ b[order])

    def test_compose_with_inverse_is_identity(self):
        rng = fresh_rng(9)
        f = random_morphism(rng, max_dim=2)
        comp = MorphismComplex(f)
        p = random_isomorphism(comp, 3, rng)
        assert compose_isomorphisms(invert_formal(p), p).is_identity()
        assert compose_isomorphisms(p, invert_formal(p)).is_identity()


class TestApplyEquivalence:
    def test_identity_fixes_everything(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 2)
        assert apply_equivalence(FormalIsomorphism.identity(f, 2), d) == d

    def test_transport_of_trivial_is_valid(self):
        rng = fresh_rng(13)
        for _ in range(6):
            f = random_morphism(rng, max_dim=2)
            comp = MorphismComplex(f)
            p = random_isomorphism(comp, 3, rng)
            d = apply_equivalence(p, TruncatedDeformation.trivial(f, 3))
            assert verify_deformation(d).ok

    def test_order_mismatch(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 2)
        with pytest.raises(DimensionError):
            apply_equivalence(FormalIsomorphism.identity(f, 3), d)

    def test_infinitesimal_difference_is_coboundary(self):
        rng = fresh_rng(29)
        for _ in range(6):
            f = random_morphism(rng, max_dim=2)
            comp = MorphismComplex(f)
            d = integrate(random_cocycle(comp, rng), 2).deformation
            if d.order != 2:
                continue
            p = random_isomorphism(comp, 2, rng)
            moved = apply_equivalence(p, d)
            assert verify_deformation(moved).ok
            diff = moved.coefficient(1) - d.coefficient(1)
            assert comp.is_coboundary(diff) is not None

    def test_round_trip(self):
        rng = fresh_rng(37)
        f = random_morphism(rng, max_dim=2)
        comp = MorphismComplex(f)
        d = integrate(random_cocycle(comp, rng), 3).deformation
        if d.order == 3:
            p = random_isomorphism(comp, 3, rng)
            assert apply_equivalence(invert_formal(p),
                                     apply_equivalence(p, d)) == d

    def test_transport_forms_no_inverse(self, monkeypatch):
        # apply_equivalence and the staircase read each order of the
        # transport from the orders below; only invert_formal inverts
        def no_inverse(*args):
            raise AssertionError("a transport formed an inverse series")

        f = identity_morphism(divided_power(3))
        order = 6
        gauge = random_isomorphism(morphism_complex(f), order, fresh_rng(4),
                                   bound=2)
        monkeypatch.setattr(series, "inverse", no_inverse)
        d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, order))
        result = trivialize(d)
        assert result.ok
        assert apply_equivalence(result.isomorphism, d) == \
            TruncatedDeformation.trivial(f, order)
        with pytest.raises(AssertionError, match="inverse series"):
            invert_formal(gauge)


class TestTrivialize:
    def test_trivial_gives_identity(self):
        f, _ = scalar_setup()
        res = trivialize(TruncatedDeformation.trivial(f, 3))
        assert res.ok
        assert res.isomorphism.is_identity()

    def test_rigid_scalar_morphism(self):
        # degree-2 cohomology vanishes, so everything trivializes
        f, comp = scalar_setup()
        assert comp.cohomology(2).h_dim == 0
        rng = fresh_rng(41)
        for _ in range(8):
            order = rng.randint(1, 4)
            p = random_isomorphism(comp, order, rng)
            d = apply_equivalence(p, TruncatedDeformation.trivial(f, order))
            res = trivialize(d)
            assert res.ok
            moved = apply_equivalence(res.isomorphism, d)
            assert all(moved.coefficient(i).is_zero()
                       for i in range(1, order + 1))

    def test_staircase_makes_a_bounded_number_of_products_per_order(
            self, monkeypatch):
        # the staircase reads the transport in the windows [1], [2, 3],
        # [4, 7] and [8, 12].  Until the first step phi is the identity,
        # so window [1] is d's own order 1; each later window is one
        # packed product of the intertwining defects, and the final check
        # one more: at most floor(log2 12) + 1 in all.  The loop that
        # transported the whole series and composed the whole isomorphism
        # at every step made 1,046 factor products here.  A step updates
        # phi with one integer product of chi and the block row of phi,
        # and a read order corrects the later slots of its window with
        # one integer product of the coefficient read and the block row
        # of phi (deformation._subtract_shifted), three per order (one
        # per series); neither queries a series.Cauchy state.  An input
        # blocked at order 1 forms no packed product at all once verified
        # (a block verifies an unverified input, so it is verified here
        # before the spies go on)
        from coaldef import _kernels_py, deformation
        f = identity_morphism(divided_power(3))
        comp = morphism_complex(f)
        order = 12
        gauge = random_isomorphism(comp, order, fresh_rng(6), bound=2)
        d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, order))
        reps = comp.cohomology(2).representatives
        blocked = integrate(sum(reps[1:], reps[0]), order).deformation
        assert verify_deformation(blocked).ok
        calls, packed, products, per_update, per_step = [], [], [], [], []
        real_ratio = series.Cauchy.ratio
        monkeypatch.setattr(series.Cauchy, "ratio",
                            lambda *args: calls.append(1)
                            or real_ratio(*args))
        real_defects = series._intertwining_defects
        monkeypatch.setattr(series, "_intertwining_defects",
                            lambda *args: packed.append(1)
                            or real_defects(*args))
        real_matmul = _kernels_py.matmul
        real_update, real_step = deformation._subtract_shifted, \
            deformation._step

        def matmul(*args):
            products.append(1)
            return real_matmul(*args)

        def counted(real, counts):
            def spy(*args):
                before = len(products)
                out = real(*args)
                counts.append(len(products) - before)
                return out
            return spy

        monkeypatch.setattr(_kernels_py, "matmul", matmul)
        monkeypatch.setattr(deformation, "_subtract_shifted",
                            counted(real_update, per_update))
        monkeypatch.setattr(deformation, "_step",
                            counted(real_step, per_step))
        result = trivialize(d)
        assert len(packed) <= 4
        assert calls == []
        assert per_step and max(per_step) <= 1
        assert max(per_update) <= 1
        assert len(per_update) <= len(per_step) + 3 * order
        del packed[:], products[:], per_step[:]
        stopped = trivialize(blocked)
        assert (stopped.ok, stopped.blocked_order) == (False, 1)
        assert packed == [] and products == [] and per_step == []
        monkeypatch.undo()
        assert apply_equivalence(result.isomorphism, d) == \
            TruncatedDeformation.trivial(f, order)

    @staticmethod
    def _gauge(order):
        """An order-``order`` gauge deformation of id(dp3) and the formal
        isomorphism that trivializes it."""
        f = identity_morphism(divided_power(3))
        comp = morphism_complex(f)
        gauge = random_isomorphism(comp, order, fresh_rng(6), bound=2)
        d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, order))
        return d, invert_formal(gauge)

    def test_each_product_packs_every_input_series_once(self, monkeypatch):
        # a whole-series product packs each series it reads once, at one
        # width, scaled in the same pass: no series is packed again for a
        # second equation
        from coaldef import _kernels_py, deformation
        d, phi = self._gauge(6)
        given = [phi.series_a(), phi.series_b(), d.series_a(), d.series_b(),
                 d.series_f()]
        packs, pack = [], _kernels_py.pack
        monkeypatch.setattr(_kernels_py, "pack", lambda lists, *args:
                            packs.append(lists) or pack(lists, *args))

        def packed_once(inputs):
            # each pack reads the storage of exactly one input series
            assert len(packs) == len(inputs)
            for s in inputs:
                storage = [m.as_integer_ratio()[0] for m in s]
                assert sum(len(p) == len(storage) and all(
                    x is y for x, y in zip(p, storage)) for p in packs) == 1

        series._intertwining_defects(*given)
        packed_once(given)
        del packs[:]
        deformation._packed_defects(*given[2:], d.order + 2)
        packed_once(given[2:])

    def test_a_gauge_trivialize_scans_each_input_peak_once(self,
                                                           monkeypatch):
        # every product of the staircase (each window read and the final
        # check) reads the largest |int| of d's coefficients, and each is
        # scanned once, by Matrix.peak, and kept
        import builtins
        from coaldef import deformation, exactlinalg
        d, _ = self._gauge(12)
        scans = {}

        def counting_map(fn, *iterables):
            if fn is abs:
                key = id(iterables[0])
                scans[key] = scans.get(key, 0) + 1
            return builtins.map(fn, *iterables)

        for module in (exactlinalg, series, deformation):
            monkeypatch.setattr(module, "map", counting_map, raising=False)
        assert trivialize(d).ok
        monkeypatch.undo()
        # the order-0 terms are the structure maps, which other
        # computations may have read before
        inputs = {id(m): m for s in (d.series_a(), d.series_b(),
                                     d.series_f()) for m in s[1:]}
        assert [scans.get(id(m.as_integer_ratio()[0]), 0)
                for m in inputs.values()] == [1] * len(inputs)

    @pytest.mark.xfail(strict=True, reason=(
        "over GF(2) the greedy staircase can block on a gauge-trivial "
        "deformation: its canonical chi differs from the gauge by a "
        "1-cocycle whose square need not cobound in characteristic 2"))
    def test_gauge_trivial_deformation_over_gf2_trivializes(self):
        # d = (I + chi t) . trivial over id(dp2) is trivial by
        # construction, yet trivialize reports order 2 as blocked by the
        # class (1, 0)
        field = PrimeField(2)
        f = identity_morphism(divided_power(2, field))
        comp = morphism_complex(f)
        chi = Matrix.from_rows(field, [[0, 0], [1, 0]])
        gauge = FormalIsomorphism.from_higher_coefficients(
            f, [comp.element(chi, chi, None, 1)], 2)
        d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, 2))
        assert trivialize(d).ok

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "in characteristic p the greedy staircase can block, at a "
        "multiple of p, on a gauge-trivial deformation"))
    @pytest.mark.parametrize("p", [3, 5])
    def test_gauge_trivial_deformation_over_gfp_trivializes(self, p):
        # chi(e_(k-1)) = k e_k, the dual of d/dx on k[x]/(x^p), is a
        # 1-cocycle of id(dp_p) in characteristic p only; the transport
        # of the trivial deformation of order 2p by I + chi t is trivial
        # by construction, yet trivialize reports it blocked at order p
        field = PrimeField(p)
        f = identity_morphism(divided_power(p, field))
        chi = Matrix.from_sparse(field, p, p,
                                 {(k, k - 1): k for k in range(1, p)})
        gauge = FormalIsomorphism.from_higher_coefficients(
            f, [morphism_complex(f).element(chi, chi, None, 1)], 2 * p)
        d = apply_equivalence(gauge, TruncatedDeformation.trivial(f, 2 * p))
        assert trivialize(d).ok

    def test_blocked_reports_class(self, dp_setup):
        f, comp, w = dp_setup
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 2)
        res = trivialize(d)
        assert not res.ok
        assert res.h2_class
        assert res.blocking_cochain is not None
        assert comp.is_cocycle(res.blocking_cochain)
        assert comp.is_coboundary(res.blocking_cochain) is None
        # independent confirmation through ranks of the degree-1
        # differential matrix: appending the blocking cochain must raise
        # the rank if and only if it is not a coboundary
        from coaldef.exactlinalg import rank
        d1 = comp.differential_matrix(1)
        stacked = d1.hstack(comp.flatten(res.blocking_cochain))
        assert rank(stacked) == rank(d1) + 1

    def test_blocked_staircase_applies_no_operator(self, monkeypatch):
        # the blocking coefficient's class is read, and tested for a
        # cocycle, by the quotient reduction alone
        d = builtin_corpus(QQ)["fixtures"].deformations["dp2_deformation"]
        applied = count_applications(monkeypatch)
        res = trivialize(d)
        assert applied == []
        assert not res.ok and res.h2_class


class TestNonMorphism:
    def test_series_build_and_every_operation_refuses(self):
        f = doubled_dp2()
        comp = morphism_complex(f)
        w = comp.from_flat(2, [1] + [0] * (comp.cochain_dim(2) - 1))
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 2)
        trivial = TruncatedDeformation.trivial(f, 2)
        FormalIsomorphism.identity(f, 2)
        for operation in (lambda: integrate(w, 2),
                          lambda: integrate(comp.zero(2), 2),
                          lambda: obstruction(d),
                          lambda: obstruction(trivial),
                          lambda: extend(d),
                          lambda: extend(trivial, comp.zero(2)),
                          lambda: trivialize(d),
                          lambda: trivialize(trivial),
                          lambda: infinitesimal(d),
                          lambda: infinitesimal(trivial)):
            with pytest.raises(InvalidStructureError) as err:
                operation()
            assert str(err.value) == NOT_A_MORPHISM


class TestNonDeformation:
    # a series that is no deformation has an obstruction that need be no
    # cocycle, so the three operations that read it as a deformation
    # refuse it with the message of its verification report, kept on it
    def refused(self, d, message):
        for operation in (obstruction, extend, trivialize):
            with pytest.raises(InvalidStructureError) as err:
                operation(d)
            assert str(err.value) == f"not a deformation ({message})"
        assert d._verification[0].message == message

    def test_first_order_coefficient_that_is_no_cocycle(self):
        f = identity_morphism(divided_power(3))
        comp = morphism_complex(f)
        w = comp.from_flat(2, [1] + [0] * (comp.cochain_dim(2) - 1))
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        self.refused(d, "coassociativity[source] fails at order 1, entry "
                        "(1, 1)")

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=repr)
    def test_moved_entry_of_a_higher_coefficient(self, field):
        f = identity_morphism(divided_power(3, field))
        comp = morphism_complex(f)
        d = integrate(random_cocycle(comp, fresh_rng(3), bound=3),
                      4).deformation
        assert d.order == 4
        assert verify_deformation(TruncatedDeformation(f, d.coeffs)).ok
        coeffs = list(d.coeffs)
        a, b, ab = (p.matrix for p in coeffs[3].parts())
        coeffs[3] = comp.element(a, b + Matrix.from_sparse(
            field, b.rows, b.cols, {(1, 2): 1}), ab, 2)
        self.refused(TruncatedDeformation(f, coeffs),
                     "coassociativity[target] fails at order 3, entry (1, 2)")

    @pytest.mark.parametrize("morphism, side", [
        (lambda: identity_morphism(broken_coalgebra()), "source"),
        (into_broken, "target")], ids=["source", "target"])
    def test_integration_over_order_zero_that_is_no_deformation_refuses(
            self, morphism, side):
        # a deformation that integrate builds is taken as valid, by
        # trivialize too, so integrate checks its order-0 terms itself
        comp = morphism_complex(morphism())
        with pytest.raises(InvalidStructureError) as err:
            integrate(comp.zero(2), 2)
        assert str(err.value) == (
            f"not a deformation (coassociativity[{side}] fails at order 0, "
            f"entry (3, 0))")

    def test_integration_forms_no_verification_product(self, monkeypatch):
        # integrating a cocycle verifies nothing: each canonical
        # coefficient cobounds the obstruction exactly, read from one
        # obstruction state per call.  Its result is an ordinary
        # deformation: reading its obstruction, its next extension and
        # its trivialization verify it once between them, and a later
        # verify_deformation reads the kept report
        import coaldef.deformation as deformation
        f = identity_morphism(divided_power(3))
        w = random_cocycle(morphism_complex(f), fresh_rng(5), bound=3)
        calls = {"_verified": [], "_Defects": []}
        for name, seen in calls.items():
            monkeypatch.setattr(deformation, name, lambda *args, seen=seen,
                                real=getattr(deformation, name):
                                seen.append(1) or real(*args))
        d = integrate(w, 12).deformation
        assert calls == {"_verified": [], "_Defects": [1]}
        assert d._verification is None
        assert d.order == 12 and obstruction(d).is_trivial
        assert extend(d).order == 13
        assert not trivialize(d).ok
        assert verify_deformation(d).ok
        assert calls == {"_verified": [1], "_Defects": [1]}

    def test_reading_the_obstruction_does_not_make_a_deformation(self):
        # the unverified obstruction of a series that is no deformation
        # is kept nowhere, so the series is still refused afterwards
        f = identity_morphism(divided_power(3))
        comp = morphism_complex(f)
        w = comp.from_flat(2, [1] + [0] * (comp.cochain_dim(2) - 1))
        d = TruncatedDeformation.from_higher_coefficients(f, [w], 1)
        _obstruction_cochain(d)
        self.refused(d, "coassociativity[source] fails at order 1, entry "
                        "(1, 1)")


class TestCertifiedTrivialization:
    """trivialize certifies an unverified input by its final check, which
    makes the input the transport of its order-0 terms, after checking
    those; it verifies the input only where the staircase fails."""

    @staticmethod
    def spies(monkeypatch):
        """The lists that get one entry per call of
        deformation._verified, series.intertwining_failure and
        deformation._packed_defects."""
        import coaldef.deformation as deformation
        calls = {}
        for module, name in ((deformation, "_verified"),
                             (series, "intertwining_failure"),
                             (deformation, "_packed_defects")):
            seen, real = calls.setdefault(name, []), getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, seen=seen,
                                real=real: seen.append(1) or real(*args))
        return calls

    def test_a_gauge_trivialization_forms_no_verification(self,
                                                          monkeypatch):
        d, _ = TestTrivialize._gauge(12)
        calls = self.spies(monkeypatch)
        result = trivialize(d)
        assert result.ok
        assert calls == {"_verified": [], "intertwining_failure": [1],
                         "_packed_defects": []}
        # no report is kept, so verify_deformation computes one
        assert d._verification is None
        assert verify_deformation(d).ok
        assert calls["_verified"] == [1]
        monkeypatch.undo()
        assert apply_equivalence(result.isomorphism, d) == \
            TruncatedDeformation.trivial(d.morphism, 12)

    def test_a_block_verifies_once_and_answers_as_when_verified(
            self, monkeypatch):
        f = identity_morphism(divided_power(3))
        reps = morphism_complex(f).cohomology(2).representatives
        built = integrate(sum(reps[1:], reps[0]), 6).deformation
        verified = TruncatedDeformation(f, built.coeffs)
        assert verify_deformation(verified).ok
        fresh = TruncatedDeformation(f, built.coeffs)
        calls = self.spies(monkeypatch)
        result = trivialize(fresh)
        assert (result.ok, result.blocked_order) == (False, 1)
        assert calls["_verified"] == [1]
        assert trivialize(verified) == result
        assert calls["_verified"] == [1]

    @pytest.mark.parametrize("morphism, message", [
        (lambda: identity_morphism(broken_coalgebra()),
         "not a deformation (coassociativity[source] fails at order 0, "
         "entry (3, 0))"),
        (into_broken,
         "not a deformation (coassociativity[target] fails at order 0, "
         "entry (3, 0))"),
        (doubled_dp2, NOT_A_MORPHISM)], ids=["source", "target", "map"])
    def test_order_zero_that_is_no_deformation_is_refused(self, morphism,
                                                          message):
        # the staircase of a trivial series succeeds with no step, and
        # its final check holds: only the order-0 checks refuse it
        f = morphism()
        d = TruncatedDeformation.trivial(f, 2)
        with pytest.raises(InvalidStructureError) as err:
            trivialize(d)
        assert str(err.value) == message

    @pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=repr)
    def test_moved_entry_of_a_gauge_deformation_is_refused(self, field):
        f = identity_morphism(divided_power(3, field))
        comp = morphism_complex(f)
        d = apply_equivalence(random_isomorphism(comp, 3, fresh_rng(6),
                                                 bound=2),
                              TruncatedDeformation.trivial(f, 3))
        coeffs = list(d.coeffs)
        a, b, ab = (p.matrix for p in coeffs[2].parts())
        coeffs[2] = comp.element(a, b, ab + Matrix.from_sparse(
            field, ab.rows, ab.cols, {(0, 1): 1}), 2)
        moved = TruncatedDeformation(f, coeffs)
        message = "morphism condition fails at order 2, entry (0, 1)"
        with pytest.raises(InvalidStructureError) as err:
            trivialize(moved)
        assert str(err.value) == f"not a deformation ({message})"
        assert moved._verification[0].message == message


class TestSeriesOrders:
    @pytest.mark.parametrize("cls,degree", [(TruncatedDeformation, 2),
                                            (FormalIsomorphism, 1)])
    def test_more_coefficients_than_order_rejected(self, cls, degree):
        f, comp = scalar_setup()
        zeros = [comp.zero(degree)] * 3
        assert cls.from_higher_coefficients(f, zeros, 3).order == 3
        assert cls.from_higher_coefficients(f, zeros).order == 3
        with pytest.raises(DimensionError):
            cls.from_higher_coefficients(f, zeros, 2)

    MESSAGES = {
        TruncatedDeformation: (
            "a deformation has at least its order-0 term",
            "order-0 coefficient must be the structure maps of the morphism",
            "deformation coefficients must be degree-2 cochains over the "
            "same morphism"),
        FormalIsomorphism: (
            "an isomorphism has at least its order-0 term",
            "order-0 coefficient of a formal isomorphism must be the "
            "identity pair",
            "isomorphism coefficients must be degree-1 cochains over the "
            "same morphism")}

    @pytest.mark.parametrize("cls,degree", [(TruncatedDeformation, 2),
                                            (FormalIsomorphism, 1)])
    def test_constructor_rejects_a_malformed_series(self, cls, degree):
        empty, wrong_constant, wrong_coefficient = self.MESSAGES[cls]
        f, comp = scalar_setup()
        c0 = cls.from_higher_coefficients(f, [], 0).coefficient(0)
        other = identity_morphism(divided_power(2))
        other_c0 = cls.from_higher_coefficients(other, [], 0).coefficient(0)
        two = Matrix.from_rows(QQ, [[2]])
        with pytest.raises(DimensionError) as err:
            cls(f, [])
        assert str(err.value) == empty
        for bad in (comp.zero(degree), comp.zero(3 - degree), other_c0,
                    comp.element(two, two, two if degree == 2 else None,
                                 degree)):
            with pytest.raises(InvalidStructureError) as err:
                cls(f, [bad])
            assert str(err.value) == wrong_constant
        for bad in (comp.zero(3 - degree), comp.zero(3),
                    morphism_complex(other).zero(degree)):
            with pytest.raises(DimensionError) as err:
                cls(f, [c0, comp.zero(degree), bad])
            assert str(err.value) == wrong_coefficient
        assert cls(f, [c0, comp.zero(degree)]) == \
            cls.from_higher_coefficients(f, [], 1)

    def test_a_deformation_never_equals_an_isomorphism(self):
        for f in (identity_morphism(grouplike(1)),
                  identity_morphism(zero_comultiplication(1))):
            for order in range(3):
                d = TruncatedDeformation.trivial(f, order)
                p = FormalIsomorphism.identity(f, order)
                assert d != p and p != d
                assert not d == p and not p == d
                assert d == TruncatedDeformation.trivial(f, order)
                assert p == FormalIsomorphism.identity(f, order)
                assert repr(d) == f"TruncatedDeformation(order={order}, " \
                    f"over {f!r})"
                assert repr(p) == f"FormalIsomorphism(order={order}, " \
                    f"over {f!r})"

    def test_negative_truncation_rejected(self, dp_setup):
        f, comp, w = dp_setup
        d = integrate(w, 3).deformation
        assert d.truncate(0).order == 0
        for order in (-1, -2, -4):
            with pytest.raises(DimensionError):
                d.truncate(order)
