"""Every Matrix operation against an entrywise reference, in both fields.

A matrix is stored as row-major ints over one positive common
denominator, with gcd(den, *ints) = 1, the zero matrix over den 1, and
over GF(p) den 1 with every int in [0, p).  Each test builds its
operands from plain lists of scalars, applies one operation, and checks
the result entry by entry against the same operation on the lists
(Fractions over QQ, ints modulo p over GF(p)) and the canonical form of
the result's storage.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaldef.exactlinalg import (QQ, DimensionError, Matrix, PrimeField,
                                 QuotientError, Subspace, image_basis,
                                 kernel_basis, quotient_data, rank, solve)

import reference
from helpers import LARGE_PRIMES, fresh_rng
from reference import reduce, ref_rref

FIELDS = (QQ, PrimeField(2), PrimeField(101), PrimeField(2 ** 31 - 1))
SIZES = (0, 1, 2, 3, 4)


def canonical(m):
    """m, after asserting that its storage is in canonical form."""
    ints, den = m.as_integer_ratio()
    assert len(ints) == m.rows * m.cols
    assert all(type(x) is int for x in ints)
    assert den > 0 and gcd(den, *ints) == 1
    if m.field.kind == "prime":
        assert den == 1 and all(0 <= x < m.field.p for x in ints)
    return m


def entries(m):
    """The entries read one by one, checking the scalar type."""
    rows = m.to_rows()
    kind = Fraction if m.field.kind == "rational" else int
    assert all(type(x) is kind for r in rows for x in r)
    return rows


def denominators(rng, field):
    """A denominator built from LARGE_PRIMES, invertible in the field."""
    d = 1
    for _ in range(rng.randint(0, 2)):
        q = rng.choice(LARGE_PRIMES)
        if field.kind == "rational" or q % field.p:
            d *= q
    return d


def scalar(rng, field):
    """A raw scalar: zero, a small integer, or a fraction over large primes."""
    roll = rng.random()
    if roll < 0.35:
        return 0
    if roll < 0.7:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-10 ** 12, 10 ** 12), denominators(rng, field))


def operand(rng, field, rows, cols):
    """(Matrix, reference rows) of a random rows x cols matrix."""
    raw = [[scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
    ref = [[reduce(field, x) for x in r] for r in raw]
    if rows:
        m = Matrix.from_rows(field, raw)
    else:
        m = Matrix.zeros(field, 0, cols)
    return canonical(m), ref


def ref_matmul(field, a, b, inner, cols):
    return [[reduce(field, sum(r[t] * b[t][j] for t in range(inner)))
             for j in range(cols)] for r in a]


def check(m, ref, shape):
    assert m.shape == shape
    assert entries(canonical(m)) == ref


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_constructors(seed, field):
    rng = fresh_rng(seed)
    rows, cols = rng.choice(SIZES), rng.choice(SIZES)
    m, ref = operand(rng, field, rows, cols)
    check(m, ref, (rows, cols))
    if rows:
        assert m == Matrix.from_rows(field, ref)
    for i in range(rows):
        for j in range(cols):
            assert m[i, j] == ref[i][j]
    # the sparse constructor: ints over one denominator
    den = denominators(rng, field)
    ints = {(i, j): rng.randint(-10 ** 20, 10 ** 20)
            for i in range(rows) for j in range(cols) if rng.random() < 0.5}
    sparse = Matrix.from_sparse(field, rows, cols, ints, den)
    check(sparse, [[reduce(field, Fraction(ints.get((i, j), 0), den))
                    for j in range(cols)] for i in range(rows)], (rows, cols))
    if not ints:
        assert sparse.as_integer_ratio()[1] == 1
    with pytest.raises(IndexError):
        Matrix.from_sparse(field, rows, cols, {(rows, 0): 1})
    # the dense constructor from ints over one (possibly negative)
    # denominator normalizes, and inverts as_integer_ratio
    flat = [ints.get((i, j), 0) for i in range(rows) for j in range(cols)]
    sign = rng.choice((1, -1))
    assert Matrix.from_integer_ratio(field, rows, cols,
                                     [sign * x for x in flat],
                                     sign * den) == sparse
    assert Matrix.from_integer_ratio(field, rows, cols,
                                     *m.as_integer_ratio()) == m
    with pytest.raises(DimensionError):
        Matrix.from_integer_ratio(field, rows, cols, flat + [0], den)
    with pytest.raises(ZeroDivisionError):
        Matrix.from_integer_ratio(field, rows, cols, flat, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_linear_combinations(seed, field):
    rng = fresh_rng(seed)
    rows, cols = rng.choice(SIZES), rng.choice(SIZES)
    (a, ra), (b, rb) = (operand(rng, field, rows, cols) for _ in range(2))
    shape = (rows, cols)

    def entrywise(op, *refs):
        return [[reduce(field, op(*xs)) for xs in zip(*rs)]
                for rs in zip(*refs)]

    check(a + b, entrywise(lambda x, y: x + y, ra, rb), shape)
    check(a - b, entrywise(lambda x, y: x - y, ra, rb), shape)
    check(-a, entrywise(lambda x: -x, ra), shape)
    s = scalar(rng, field)
    check(a.scale(s), entrywise(lambda x: x * reduce(field, s), ra), shape)
    check(a - a, entrywise(lambda x: 0, ra), shape)
    assert (a - a).as_integer_ratio()[1] == 1
    assert (a + b == b + a) and (a - b == -(b - a))
    with pytest.raises(DimensionError):
        a + Matrix.zeros(field, rows + 1, cols)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_products(seed, field):
    rng = fresh_rng(seed)
    n, k, m = (rng.choice(SIZES) for _ in range(3))
    a, ra = operand(rng, field, n, k)
    b, rb = operand(rng, field, k, m)
    check(a @ b, ref_matmul(field, ra, rb, k, m), (n, m))
    c, rc = operand(rng, field, rng.choice(SIZES), rng.choice(SIZES))
    kron = [[reduce(field, ra[i][j] * rc[s][t])
             for j in range(k) for t in range(c.cols)]
            for i in range(n) for s in range(c.rows)]
    check(a.kron(c), kron, (n * c.rows, k * c.cols))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_reshaping(seed, field):
    rng = fresh_rng(seed)
    rows, cols = rng.choice(SIZES), rng.choice(SIZES)
    a, ra = operand(rng, field, rows, cols)
    check(a.transpose(), [list(c) for c in zip(*ra)] if rows else
          [[] for _ in range(cols)], (cols, rows))
    b, rb = operand(rng, field, rows, rng.choice(SIZES))
    c, rc = operand(rng, field, rows, rng.choice(SIZES))
    check(a.hstack(b, c), [x + y + z for x, y, z in zip(ra, rb, rc)],
          (rows, a.cols + b.cols + c.cols))
    d, rd = operand(rng, field, rng.choice(SIZES), cols)
    check(a.vstack(d, a), ra + rd + ra, (2 * rows + d.rows, cols))
    flat = [x for r in ra for x in r]
    if flat:
        size = rng.choice(SIZES)
        index = [rng.randrange(len(flat)) for _ in range(size * 2)]
        check(a.gather(size, 2, index),
              [[flat[index[2 * i]], flat[index[2 * i + 1]]]
               for i in range(size)], (size, 2))
    picked = [rng.randrange(cols) for _ in range(rng.randint(0, 3))] \
        if cols else []
    check(a.submatrix_columns(picked), [[r[j] for j in picked] for r in ra],
          (rows, len(picked)))


def test_selections_renormalize():
    # [1/2, 1] is stored as [1, 2] / 2; its second column alone is 1 / 1
    m = Matrix.from_rows(QQ, [[Fraction(1, 2), 1]])
    assert m.as_integer_ratio() == ([1, 2], 2)
    for part in (m.submatrix_columns([1]), m.gather(1, 1, [1])):
        assert canonical(part) == Matrix.from_rows(QQ, [[1]])
        assert part.as_integer_ratio() == ([1], 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_equality_is_entrywise(seed, field):
    rng = fresh_rng(seed)
    rows, cols = rng.choice(SIZES[1:]), rng.choice(SIZES[1:])
    a, ra = operand(rng, field, rows, cols)
    assert a == Matrix.from_rows(field, ra)
    i, j = rng.randrange(rows), rng.randrange(cols)
    ra[i][j] = reduce(field, ra[i][j] + 1)
    assert a != Matrix.from_rows(field, ra)
    assert a != Matrix.zeros(field, rows, cols + 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_elimination(seed, field):
    rng = fresh_rng(seed)
    rows, cols = rng.choice(SIZES), rng.choice(SIZES)
    a, ra = operand(rng, field, rows, cols)
    r, pivots = a.rref()
    ref, ref_pivots = ref_rref(field, ra, cols)
    check(r, ref, (rows, cols))
    assert list(pivots) == ref_pivots
    n = rng.choice(SIZES)
    s, rs = operand(rng, field, n, n)
    inv = s.inverse()
    if len(ref_rref(field, rs, n)[1]) < n:
        assert inv is None
    else:
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        augmented, _ = ref_rref(field, [r + e for r, e in zip(rs, identity)],
                                2 * n)
        check(inv, [row[n:] for row in augmented], (n, n))
        assert s @ inv == Matrix.identity(field, n)
    # the derived operations, against the same ones built on ref_rref
    assert rank(a) == reference.rank(a) == len(ref_pivots)
    image = image_basis(a)
    assert image == Subspace.from_columns(a) == reference.image_basis(a)
    assert kernel_basis(a) == reference.kernel_basis(a)
    y, _ = operand(rng, field, cols, 1)
    b, _ = operand(rng, field, rows, 1)
    for rhs in (a @ y, b):
        x = solve(a, rhs)
        assert x == reference.solve(a, rhs)
        assert x is None or a @ x == rhs
    # a contained pair, and one that need not be
    t, _ = operand(rng, field, cols, rng.choice(SIZES))
    im = image_basis(a @ t)
    assert quotient_data(image, im) == reference.quotient_data(image, im)
    u, _ = operand(rng, field, rows, rng.choice(SIZES))
    im = image_basis(u)
    try:
        expected = reference.quotient_data(image, im)
    except QuotientError:
        with pytest.raises(QuotientError):
            quotient_data(image, im)
    else:
        assert quotient_data(image, im) == expected
