import importlib
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coaldef
from coaldef import _backend, _kernels_py
from coaldef.exactlinalg import (
    QQ,
    DimensionError,
    Matrix,
    PrimeField,
    QuotientError,
    Subspace,
    image_basis,
    kernel_basis,
    quotient_data,
    rank,
    solve,
    stacked_ints,
)
from coaldef.sparse import Elimination, sparse_rref

from helpers import field_matrix, fresh_rng, rational, rational_matrix
from reference import ref_rref


def mat(rows):
    return Matrix.from_rows(QQ, rows)


def col(entries):
    return Matrix.column(QQ, entries)


def span(columns):
    return Subspace.from_columns(mat([list(r) for r in zip(*columns)]))


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(QQ, 3)) == 3

    def test_zero(self):
        assert rank(Matrix.zeros(QQ, 2, 2)) == 0

    def test_rank_one(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1

    def test_prime_field_differs(self):
        m = Matrix.from_rows(PrimeField(2), [[2]])
        assert rank(m) == 0
        assert rank(mat([[2]])) == 1


class TestKernel:
    def test_identity_trivial(self):
        assert kernel_basis(Matrix.identity(QQ, 4)).dim == 0

    def test_zero_full(self):
        k = kernel_basis(Matrix.zeros(QQ, 2, 3))
        assert k.dim == 3 and k.ambient_dim == 3

    def test_rank_one(self):
        k = kernel_basis(mat([[1, 2], [2, 4]]))
        assert k == span([(-2, 1)])

    def test_no_rows(self):
        assert kernel_basis(Matrix.zeros(QQ, 0, 2)).dim == 2


class TestImage:
    def test_identity(self):
        im = image_basis(Matrix.identity(QQ, 2))
        assert im == span([(1, 0), (0, 1)])

    def test_zero(self):
        assert image_basis(Matrix.zeros(QQ, 3, 2)).dim == 0

    def test_rank_one(self):
        assert image_basis(mat([[1, 2], [2, 4]])) == span([(1, 2)])


class TestSolve:
    def test_identity(self):
        b = col([3, Fraction(1, 2)])
        assert solve(Matrix.identity(QQ, 2), b) == b

    def test_inconsistent(self):
        assert solve(Matrix.zeros(QQ, 2, 2), col([1, 0])) is None

    def test_canonical_free_variables_zero(self):
        x = solve(mat([[1, 2], [2, 4]]), col([1, 2]))
        assert x == col([1, 0])

    def test_exactness(self):
        rng = fresh_rng(7)
        for _ in range(25):
            m = rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            b = rational_matrix(rng, m.rows, 1)
            x = solve(m, b)
            if x is not None:
                assert m @ x == b

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve(mat([[1, 2]]), col([1, 2]))


class TestQuotient:
    def test_equal_spaces(self):
        s = span([(1, 0), (0, 1)])
        dim, reps = quotient_data(s, s)
        assert dim == 0 and reps == []

    def test_zero_image(self):
        s = span([(1, 0), (0, 1)])
        z = Subspace.zero(QQ, 2)
        dim, reps = quotient_data(s, z)
        assert dim == 2 and len(reps) == 2

    def test_one_dimensional(self):
        dim, reps = quotient_data(span([(1, 0), (0, 1)]), span([(1, 1)]))
        assert dim == 1 and len(reps) == 1

    def test_not_contained(self):
        with pytest.raises(QuotientError):
            quotient_data(span([(1, 1)]), span([(1, 0)]))


class TestCanonicalization:
    def test_same_span_same_representation(self):
        a = span([(1, 2), (0, 1)])
        b = span([(1, 3), (2, 5)])
        assert a == b
        assert a.basis == b.basis

    def test_scaling_invariance(self):
        assert span([(-2, 1)]) == span([(4, -2)])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_column_ops_preserve_representation(self, seed):
        rng = fresh_rng(seed)
        m = rational_matrix(rng, 4, 3, bound=5)
        s1 = Subspace.from_columns(m)
        # mix columns by a random invertible transformation
        from helpers import invertible_matrix
        s2 = Subspace.from_columns(m @ invertible_matrix(rng, 3, bound=5))
        assert s1 == s2


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_rank_nullity(self, seed):
        rng = fresh_rng(seed)
        m = rational_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert rank(m) + kernel_basis(m).dim == m.cols

    def test_determinism(self):
        rng = fresh_rng(3)
        m = rational_matrix(rng, 5, 7)
        r1, p1 = m.rref()
        r2, p2 = Matrix.from_rows(QQ, m.to_rows()).rref()
        assert r1 == r2 and p1 == p2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_rref_structure_and_row_space(self, seed):
        rng = fresh_rng(seed)
        m = rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=5)
        r, piv = m.rref()
        assert list(piv) == sorted(piv)
        for row_idx, p in enumerate(piv):
            for i in range(m.rows):
                assert r[i, p] == (1 if i == row_idx else 0)
            for c in range(p):
                assert r[row_idx, c] == 0
        for i in range(len(piv), m.rows):
            assert all(r[i, c] == 0 for c in range(m.cols))
        # row space is preserved: stacking rows of m and r changes nothing
        stacked = m.transpose().hstack(r.transpose())
        assert rank(stacked) == rank(m)


class TestMatrixOps:
    def test_matmul_shapes(self):
        a = rational_matrix(fresh_rng(1), 2, 3)
        b = rational_matrix(fresh_rng(2), 3, 4)
        assert (a @ b).shape == (2, 4)
        with pytest.raises(DimensionError):
            b @ a

    def test_kron_values(self):
        a = mat([[1, 2]])
        b = mat([[3], [4]])
        k = a.kron(b)
        assert k.to_rows() == [[3, 6], [4, 8]]

    def test_inverse(self):
        m = mat([[1, 2], [3, 5]])
        inv = m.inverse()
        assert m @ inv == Matrix.identity(QQ, 2)
        assert mat([[1, 2], [2, 4]]).inverse() is None

    def test_scalar_coercion_and_entries(self):
        m = Matrix.from_rows(QQ, [["3/7", -2], [Fraction(1, 2), "0"]])
        assert m[0, 0] == Fraction(3, 7)
        assert m[0, 1] == -2
        assert m[1, 1] == 0

    def test_prime_field_arithmetic(self):
        f5 = PrimeField(5)
        m = Matrix.from_rows(f5, [["1/2", 7]])
        assert m.to_rows() == [[3, 2]]
        assert (m + m).to_rows() == [[1, 4]]
        assert m.scale(2).to_rows() == [[1, 4]]

    def test_prime_field_rejects_composite(self):
        # 561 is a Carmichael number, 2047 and 3215031751 are strong
        # pseudoprimes to small bases, the last one to every base 2..37
        for n in (6, 561, 2047, 3215031751, 318665857834031151167461):
            with pytest.raises(ValueError, match="not prime"):
                PrimeField(n)

    def test_prime_field_large_modulus(self):
        started = time.perf_counter()
        assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
        assert time.perf_counter() - started < 0.5
        with pytest.raises(ValueError, match="too large"):
            PrimeField(3317044064679887385961981)

    def test_zero_denominator_mod_p(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(5).coerce("1/5")


class TestArithmeticKernel:
    def test_outputs_stay_normalized(self):
        rng = fresh_rng(99)
        a, b = (Matrix.from_rows(QQ, [[rational(rng, 20) for _ in range(6)]
                                      for _ in range(6)]) for _ in range(2))
        # Matrix results: one canonical (ints, den) pair each
        for out in (a @ b, a + b, a - b, -a, a.scale(Fraction(-4, 6)),
                    a.kron(b), a.rref()[0], a - a):
            ints, den = out.as_integer_ratio()
            assert den > 0
            assert gcd(den, *ints) == 1
        assert (a - a).as_integer_ratio()[1] == 1

    def test_stale_extension_is_ignored(self, monkeypatch):
        # an extension module left behind by an old build must not
        # replace the kernel
        stale = types.ModuleType("coaldef._kernels")
        monkeypatch.setitem(sys.modules, "coaldef._kernels", stale)
        monkeypatch.setattr(coaldef, "_kernels", stale, raising=False)
        try:
            importlib.reload(_backend)
            assert _backend.kernel() is _kernels_py
        finally:
            monkeypatch.undo()
            importlib.reload(_backend)


def _every_construction(rng, field):
    """Matrices from every constructor and every arithmetic operation."""
    a, b = (field_matrix(rng, field, 3, 3, 10 ** 6) for _ in range(2))
    c = field_matrix(rng, field, 3, 2, 10 ** 6)
    ints, den = a.as_integer_ratio()
    unipotent = Matrix.from_rows(field, [[1, 5, "-7/3"], [0, 1, 4],
                                         [0, 0, 1]])
    return [
        a, c, Matrix.zeros(field, 2, 3), Matrix.zeros(field, 0, 2),
        Matrix.identity(field, 3), Matrix.column(field, [1, 0, 5]),
        Matrix.column(field, []),
        Matrix.from_sparse(field, 2, 2, {(0, 1): -7, (1, 0): 3}, 7),
        Matrix.from_integer_ratio(field, 3, 3, [-x for x in ints], den),
        Matrix.from_rows(field, [["-12/5", "3"], [0, "7/9"]]),
        a @ b, a @ c, a + b, a - b, a - a, -a, a.scale(Fraction(-4, 6)),
        a.kron(c), a.transpose(), a.hstack(c), a.vstack(b),
        a.gather(1, 9, range(9)), a.submatrix_columns([2, 0]),
        a.rref()[0], unipotent.inverse()]


class TestPeak:
    @pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(101)))
    @pytest.mark.parametrize("seed", range(4))
    def test_kept_peak_is_the_largest_absolute_int(self, field, seed):
        # the largest |int| of the canonical storage, read once and kept:
        # a second read gives the same value
        for m in _every_construction(fresh_rng(seed), field):
            ints, _ = m.as_integer_ratio()
            expected = max(map(abs, ints), default=0)
            assert m.peak() == expected
            assert m.peak() == expected

    @pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(101)))
    def test_stacked_ints_are_the_storage_of_the_stacked_columns(self,
                                                                 field):
        # the parts' row-major ints over their lcm, with no matrix formed,
        # are the storage of the column that stacks their entries
        rng = fresh_rng(5)
        parts = [field_matrix(rng, field, r, c, 10 ** 6)
                 for r, c in ((2, 3), (0, 4), (3, 1), (1, 1))]
        column = Matrix.zeros(field, 0, 1).vstack(*(
            m.gather(m.rows * m.cols, 1, range(m.rows * m.cols))
            for m in parts))
        ints, den = stacked_ints(parts)
        assert (ints, den) == column.as_integer_ratio()
        assert stacked_ints([]) == ([], 1)


def test_import_loads_the_elimination_engine():
    # coaldef.sparse loads with the package, so a first elimination
    # imports nothing; it also imports on its own, through its cycle
    # with exactlinalg
    path = [str(Path(coaldef.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    for script, expected in (
            ("import sys, coaldef; print('coaldef.sparse' in sys.modules)",
             "True\n"),
            ("import coaldef.sparse as s; print(s.Elimination.__name__)",
             "Elimination\n")):
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True, text=True, check=True)
        assert out.stdout == expected


def _sparse_operand(rng, field, rows, cols):
    """A random matrix, most entries zero, as (Matrix, dict rows)."""
    def entry():
        if rng.random() < 0.7:
            return 0
        if field.kind == "rational":
            return rng.choice((1, -1, 2, rng.randint(-9, 9)))
        return rng.randrange(field.p)
    dense = [[entry() for _ in range(cols)] for _ in range(rows)]
    m = Matrix.from_rows(field, dense) if rows else Matrix.zeros(field, 0, cols)
    sparse = [{j: x for j, x in enumerate(r) if x} for r in dense]
    return m, sparse


def _reduced_rows(echelon, field, pivots):
    """The rows of a SparseEchelon scaled to pivot entry 1, as scalars."""
    out = []
    for c in pivots:
        row = echelon.rows[c]
        dense = [0] * echelon.width
        for k, x in row.items():
            if k < echelon.width:
                dense[k] = x if field.kind == "prime" else Fraction(x, row[c])
        out.append(dense)
    return out


class TestSparseRref:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from((QQ, PrimeField(2), PrimeField(101))))
    def test_matches_dense_rref_both_pivot_orders(self, seed, field):
        rng = fresh_rng(seed)
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        m, sparse = _sparse_operand(rng, field, rows, cols)
        r, piv = ref_rref(field, m.to_rows(), cols)
        echelon = sparse_rref(field, [dict(x) for x in sparse], cols)
        assert sorted(echelon.rows) == piv
        assert _reduced_rows(echelon, field, piv) == r[:len(piv)]
        # rightmost pivots: the reference rref of the mirrored matrix
        r, piv = ref_rref(field, [row[::-1] for row in m.to_rows()], cols)
        echelon = sparse_rref(field, sparse, cols, reverse=True)
        pivots = [cols - 1 - p for p in piv]
        assert sorted(echelon.rows, reverse=True) == pivots
        assert _reduced_rows(echelon, field, pivots) == \
            [row[::-1] for row in r[:len(piv)]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from((QQ, PrimeField(2), PrimeField(101))))
    def test_bookkeeping_columns_record_row_combinations(self, seed, field):
        rng = fresh_rng(seed)
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m, sparse = _sparse_operand(rng, field, rows, cols)
        for i, row in enumerate(sparse):
            row[cols + i] = 1
        echelon = sparse_rref(field, sparse, cols)
        for c, row in echelon.rows.items():
            # the row is sum_i row[cols + i] * (row i of m), exactly
            combo = [0] * cols
            for k, t in row.items():
                if k >= cols:
                    for j in range(cols):
                        combo[j] += t * m[k - cols, j]
            if field.kind == "prime":
                combo = [x % field.p for x in combo]
            assert combo == [row.get(j, 0) for j in range(cols)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from((QQ, PrimeField(2), PrimeField(101))))
    def test_solve_reads_the_recorded_combinations_once(self, seed, field):
        # the combinations a solve applies are the solver's bookkeeping
        # columns, read out once per elimination
        rng = fresh_rng(seed)
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m, sparse = _sparse_operand(rng, field, rows, cols)
        entries = {(i, j): x for i, row in enumerate(sparse)
                   for j, x in row.items()}
        elimination = Elimination(field, cols, entries, 1)
        x_den, combinations = elimination.combinations
        pivots = elimination.solver.rows
        assert [c for c, *_ in combinations] == list(pivots)
        assert x_den == (1 if field.kind == "prime" else
                         lcm(*(row[c] for c, row in pivots.items())))
        for c, indices, coefficients, scale in combinations:
            assert dict(zip((cols + i for i in indices), coefficients)) == \
                {k: t for k, t in pivots[c].items() if k >= cols}
            assert scale == x_den // pivots[c][c]
        assert elimination.combinations is elimination.combinations
