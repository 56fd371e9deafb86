"""Random-instance generators shared by the unit and acceptance tests.

Random *valid* coalgebras and morphisms are built by conjugating seed
structures (grouplike, divided-power, zero-comultiplication, direct
sums) by random invertible basis changes, which preserves every
defining identity while scrambling all matrix entries.  Cochains are
unconstrained linear maps of the right shape.
"""

import json
import random
from fractions import Fraction

from coaldef.coalgebra import (
    CoalgebraMorphism,
    change_basis,
    change_basis_morphism,
    collapse_morphism,
    direct_sum,
    divided_power,
    grouplike,
    identity_morphism,
    inclusion_morphism,
    regular_bicomodule,
    zero_comultiplication,
    zero_morphism,
)
from coaldef.cohomology import Cochain, MorphismComplex, morphism_complex
from coaldef.deformation import FormalIsomorphism, TruncatedDeformation
from coaldef.exactlinalg import QQ, Matrix, kernel_basis


# pairwise coprime denominators, some past a machine word, so that
# common denominators grow
LARGE_PRIMES = (2, 3, 5, 7, 1000003, 998244353, 2 ** 31 - 1, 2 ** 61 - 1,
                2 ** 89 - 1, 2 ** 127 - 1)


def rational(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rational_matrix(rng, rows, cols, bound=9):
    return Matrix.from_rows(QQ, [
        [rational(rng, bound) for _ in range(cols)] for _ in range(rows)])


def field_matrix(rng, field, rows, cols, bound=9):
    """Random entries: bounded rationals over QQ, uniform over GF(p)."""
    if field.kind == "rational":
        return rational_matrix(rng, rows, cols, bound)
    return Matrix.from_rows(field, [
        [rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def invertible_matrix(rng, n, bound=9, field=QQ):
    while True:
        m = field_matrix(rng, field, n, n, bound)
        if m.inverse() is not None:
            return m


def seed_coalgebras(max_dim=3, field=QQ):
    """Coalgebras with integer structure constants, built over ``field``."""
    pool = [grouplike(1, field), zero_comultiplication(1, field)]
    if max_dim >= 2:
        pool += [grouplike(2, field), divided_power(2, field),
                 zero_comultiplication(2, field),
                 direct_sum(grouplike(1, field), grouplike(1, field))]
    if max_dim >= 3:
        pool += [grouplike(3, field), divided_power(3, field),
                 direct_sum(grouplike(1, field), divided_power(2, field))]
    return pool


def random_coalgebra(rng, max_dim=3, field=QQ):
    seed = rng.choice(seed_coalgebras(max_dim, field))
    if seed.dim == 0:
        return seed
    return change_basis(seed, invertible_matrix(rng, seed.dim, field=field))


def seed_morphisms(max_dim=3, field=QQ):
    """Morphisms with integer structure constants, built over ``field``."""
    pool = [identity_morphism(grouplike(1, field)),
            identity_morphism(zero_comultiplication(1, field))]
    if max_dim >= 2:
        pool += [identity_morphism(divided_power(2, field)),
                 identity_morphism(grouplike(2, field)),
                 collapse_morphism(2, field),
                 inclusion_morphism(grouplike(1, field), grouplike(1, field)),
                 zero_morphism(grouplike(1, field), divided_power(2, field))]
    if max_dim >= 3:
        pool += [collapse_morphism(3, field),
                 identity_morphism(divided_power(3, field)),
                 inclusion_morphism(grouplike(1, field),
                                    divided_power(2, field))]
    return pool


def random_morphism(rng, max_dim=3, field=QQ):
    seed = rng.choice(seed_morphisms(max_dim, field))
    p = invertible_matrix(rng, seed.source.dim, field=field)
    q = invertible_matrix(rng, seed.target.dim, field=field)
    return change_basis_morphism(seed, p, q)


def random_bicomodule(rng, max_dim=3, field=QQ):
    if rng.random() < 0.5:
        return regular_bicomodule(random_coalgebra(rng, max_dim, field))
    from coaldef.coalgebra import bicomodule_via
    return bicomodule_via(random_morphism(rng, max_dim, field))


def random_cochain(bicomodule, degree, rng, bound=9):
    d = bicomodule.over.dim
    return Cochain(bicomodule, degree, field_matrix(
        rng, bicomodule.field, d ** degree, bicomodule.dim, bound))


def random_morphism_cochain(comp: MorphismComplex, degree, rng, bound=9):
    f = comp.morphism
    field = f.field
    a = field_matrix(rng, field, f.source.dim ** degree, f.source.dim, bound)
    b = field_matrix(rng, field, f.target.dim ** degree, f.target.dim, bound)
    if degree == 1:
        return comp.element(a, b, None, 1)
    ab = field_matrix(rng, field, f.target.dim ** (degree - 1), f.source.dim,
                      bound)
    return comp.element(a, b, ab, degree)


def random_cocycle(comp: MorphismComplex, rng, degree=2, bound=5):
    """A random element of the kernel of the degree-``degree`` differential."""
    ker = kernel_basis(comp.differential_matrix(degree))
    w = comp.zero(degree)
    for j in range(ker.dim):
        coeff = rational(rng, bound)
        if coeff:
            vec = ker.basis.submatrix_columns([j])
            w = w + comp.from_flat(degree, vec.column_entries(0)).scale(coeff)
    return w


def random_isomorphism(comp: MorphismComplex, order, rng, bound=4):
    f = comp.morphism
    higher = []
    for _ in range(order):
        a = field_matrix(rng, f.field, f.source.dim, f.source.dim, bound)
        b = field_matrix(rng, f.field, f.target.dim, f.target.dim, bound)
        higher.append(comp.element(a, b, None, 1))
    return FormalIsomorphism.from_higher_coefficients(f, higher, order)


def dilate_deformation(d: TruncatedDeformation, k) -> TruncatedDeformation:
    """Substitute t -> t^k: shifts every coefficient from order n to k*n."""
    comp = morphism_complex(d.morphism)
    coeffs = [d.coeffs[0]]
    for n in range(1, d.order * k + 1):
        coeffs.append(d.coefficient(n // k) if n % k == 0 else comp.zero(2))
    return TruncatedDeformation(d.morphism, coeffs)


def doubled_dp2():
    """f = 2 id on divided_power(2): not a coalgebra morphism, since
    delta(f(e0)) = 2 e0 (x) e0 but (f (x) f)(delta(e0)) = 4 e0 (x) e0."""
    dp2 = divided_power(2)
    return CoalgebraMorphism(dp2, dp2, Matrix.from_rows(QQ, [[2, 0], [0, 2]]))


# what every query and operation over doubled_dp2() raises
NOT_A_MORPHISM = ("not a coalgebra morphism (morphism compatibility: "
                  "first failing entry at (0, 0) with value -2)")


def fresh_rng(seed):
    return random.Random(seed)


def tall_grouplike5():
    """grouplike(5) after a basis change by fractions with numerator and
    denominator up to 1000: every structure constant is nonzero, and the
    largest integer of its problem file has 216 bits.  The D_2 of its
    identity took 50 s over QQ (0.6 s over GF(2^31 - 1)) before the CLI
    bounded the height of the entries."""
    return change_basis(grouplike(5),
                        invertible_matrix(fresh_rng(5), 5, bound=1000))


# Problem files that once crashed, hung or flooded the parser: nesting
# past the JSON decoder's recursion limit, an integer past Python's
# digit limit, an exponent that Fraction would expand into 30 million
# digits, and 34 KB declaring 1000 coalgebras of dimension 16.
DEEP_NESTING = "[" * 100000 + "]" * 100000
HUGE_INTEGER = ('{"coalgebras": {"c": {"dim": 1, "delta": [[0, 0, 0, '
                + "7" * 5000 + ']]}}}')
EXPONENT_SCALAR = ('{"coalgebras": {"c": {"dim": 2, '
                   '"delta": [[0,0,0,"1e30000000"]]}}}')
MANY_COALGEBRAS = json.dumps({"coalgebras": {
    f"c{i}": {"dim": 16, "delta": []} for i in range(1000)}})

# a comultiplication of dimension 16 whose first 1024 structure
# constants are 1/q for the first 1024 primes q: over one common
# denominator every entry would carry a 12,000-bit int
_PRIMES = [q for q in range(2, 8200)
           if all(q % r for r in range(2, int(q ** 0.5) + 1))][:1024]
DISTINCT_DENOMINATORS = json.dumps({"coalgebras": {"c": {"dim": 16, "delta": [
    [k // 256, k // 16 % 16, k % 16, f"1/{q}"]
    for k, q in enumerate(_PRIMES)]}}})

# one coefficient spelled twice: "1" and "01" both read as order 1 under
# int(), and the later one silently replaced the earlier
_ONE_BY_ONE = {
    "coalgebras": {"g": {"dim": 1, "delta": [[0, 0, 0, "1"]]}},
    "morphisms": {"f": {"source": "g", "target": "g", "matrix": [["1"]]}}}
ALIASED_ISOMORPHISM = json.dumps(dict(_ONE_BY_ONE, isomorphisms={"p": {
    "morphism": "f", "order": 1,
    "coeffs": {"1": {"A": [["2"]], "B": [["2"]]},
               "01": {"A": [["5"]], "B": [["5"]]}}}}))
ALIASED_DEFORMATION = json.dumps(dict(_ONE_BY_ONE, deformations={"d": {
    "morphism": "f", "order": 1,
    "coeffs": {"1": {"F": [["2"]]}, "01": {"F": [["5"]]}}}}))
