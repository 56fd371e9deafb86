"""Exact linear algebra over the rationals and over prime fields.

Everything downstream (cochain differentials, cohomology, obstruction
solves) reduces to the operations here: matrix products, Kronecker
products, reduced row echelon form, and the rank / kernel / image /
solve / quotient family built on top of them.  All arithmetic is exact;
there is no floating point anywhere in this package.

Matrices are immutable and dense in semantics.  Internally an entry is a
normalized integer pair (rationals) or an int in ``[0, p)`` (prime
fields); the arithmetic itself lives in :mod:`coaldef._kernels_py`,
fetched through :mod:`coaldef._backend`.

The cochain complexes eliminate their differentials sparsely instead
(:mod:`coaldef.sparse`); the dense routines here give the same results
and stay as public API and as the tests' reference.
"""

from __future__ import annotations

from fractions import Fraction

from . import _backend


class ExactLinalgError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(ExactLinalgError):
    """Operands have incompatible shapes."""


class QuotientError(ExactLinalgError):
    """quotient_data called with a subspace that is not contained in the other.

    In cohomology computations this signals a broken complex (a
    differential whose square is not zero), so it is never expected on
    valid input.
    """


# ---------------------------------------------------------------------------
# fields


class Rationals:
    """The field of arbitrary-precision rationals."""

    kind = "rational"

    def coerce(self, x):
        """Normalize ``x`` (int, Fraction, or string like '3/7') to an int pair."""
        if isinstance(x, int):
            return x, 1
        if isinstance(x, Fraction):
            return x.numerator, x.denominator
        if isinstance(x, str):
            f = Fraction(x.strip())
            return f.numerator, f.denominator
        raise TypeError(f"cannot coerce {x!r} to a rational scalar")

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")


# Miller-Rabin with the first 13 primes as bases decides primality
# exactly below this bound (Sorenson and Webster, 2015).  Twelve bases
# are not enough: 318665857834031151167461 is a strong pseudoprime to
# all of 2..37.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality for 2 <= n < _MILLER_RABIN_LIMIT."""
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field of integers modulo ``p``."""

    kind = "prime"

    def __init__(self, p):
        if p < 2:
            raise ValueError(f"modulus must be a prime >= 2, got {p}")
        if p >= _MILLER_RABIN_LIMIT:
            raise ValueError(f"modulus {p} is too large (the limit is "
                             f"{_MILLER_RABIN_LIMIT - 1})")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self._from_fraction(x)
        if isinstance(x, str):
            return self._from_fraction(Fraction(x.strip()))
        raise TypeError(f"cannot coerce {x!r} to a GF({self.p}) scalar")

    def _from_fraction(self, f):
        den = f.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator of {f} vanishes modulo {self.p}"
            )
        return (f.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


QQ = Rationals()


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """An immutable ``rows x cols`` matrix over a fixed field.

    A linear map V -> W with dim V = cols and dim W = rows; composition
    is the ``@`` operator.  Construct via :meth:`from_rows`,
    :meth:`zeros`, :meth:`identity`, or :meth:`column`.
    """

    __slots__ = ("field", "rows", "cols", "_num", "_den", "_rref")

    def __init__(self, field, rows, cols, num, den):
        # Trusted constructor: num/den are flat row-major lists already in
        # canonical form (den is None for prime fields).  Takes ownership.
        self.field = field
        self.rows = rows
        self.cols = cols
        self._num = num
        self._den = den
        self._rref = None

    # -- construction

    @classmethod
    def zeros(cls, field, rows, cols):
        size = rows * cols
        if field.kind == "rational":
            return cls(field, rows, cols, [0] * size, [1] * size)
        return cls(field, rows, cols, [0] * size, None)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m._num[i * n + i] = 1
        return m

    @classmethod
    def from_rows(cls, field, rows):
        """Build from an iterable of rows of scalars (ints, Fractions, strings)."""
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
        if field.kind == "rational":
            num = []
            den = []
            for r in rows:
                for x in r:
                    n, d = field.coerce(x)
                    num.append(n)
                    den.append(d)
            return cls(field, nrows, ncols, num, den)
        vals = [field.coerce(x) for r in rows for x in r]
        return cls(field, nrows, ncols, vals, None)

    @classmethod
    def column(cls, field, entries):
        """A column vector (an empty entry list gives the 0x1 matrix)."""
        entries = list(entries)
        if not entries:
            return cls.zeros(field, 0, 1)
        return cls.from_rows(field, [[x] for x in entries])

    # -- inspection

    @property
    def shape(self):
        return self.rows, self.cols

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        idx = i * self.cols + j
        if self._den is None:
            return self._num[idx]
        return Fraction(self._num[idx], self._den[idx])

    def to_rows(self):
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def column_entries(self, j):
        return [self[i, j] for i in range(self.rows)]

    def is_zero(self):
        return not any(self._num)

    def first_nonzero(self):
        """(row, col) of the first nonzero entry in row-major order, or None."""
        for idx, n in enumerate(self._num):
            if n:
                return divmod(idx, self.cols)
        return None

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._num == other._num
            and self._den == other._den
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic

    def _require_same_shape(self, other):
        if self.field != other.field:
            raise DimensionError("field mismatch")
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other):
        self._require_same_shape(other)
        k = _backend.kernel()
        if self._den is None:
            return Matrix(self.field, self.rows, self.cols,
                          k.p_add(self._num, other._num, self.field.p), None)
        n, d = k.q_add(self._num, self._den, other._num, other._den)
        return Matrix(self.field, self.rows, self.cols, n, d)

    def __sub__(self, other):
        self._require_same_shape(other)
        k = _backend.kernel()
        if self._den is None:
            return Matrix(self.field, self.rows, self.cols,
                          k.p_sub(self._num, other._num, self.field.p), None)
        n, d = k.q_sub(self._num, self._den, other._num, other._den)
        return Matrix(self.field, self.rows, self.cols, n, d)

    def __neg__(self):
        k = _backend.kernel()
        if self._den is None:
            return Matrix(self.field, self.rows, self.cols,
                          k.p_neg(self._num, self.field.p), None)
        n, d = k.q_neg(self._num, self._den)
        return Matrix(self.field, self.rows, self.cols, n, d)

    def scale(self, s):
        k = _backend.kernel()
        if self._den is None:
            return Matrix(self.field, self.rows, self.cols,
                          k.p_scale(self._num, self.field.coerce(s), self.field.p),
                          None)
        sn, sd = self.field.coerce(s)
        n, d = k.q_scale(self._num, self._den, sn, sd)
        return Matrix(self.field, self.rows, self.cols, n, d)

    def __matmul__(self, other):
        if self.field != other.field:
            raise DimensionError("field mismatch")
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot compose {self.shape} with {other.shape}")
        k = _backend.kernel()
        if self._den is None:
            c = k.p_matmul(self._num, other._num,
                           self.rows, self.cols, other.cols, self.field.p)
            return Matrix(self.field, self.rows, other.cols, c, None)
        n, d = k.q_matmul(self._num, self._den, other._num, other._den,
                          self.rows, self.cols, other.cols)
        return Matrix(self.field, self.rows, other.cols, n, d)

    def kron(self, other):
        """Kronecker product; the matrix of the tensor product of two maps.

        Row/column order matches the tensor-basis flattening used across
        the package (leftmost factor most significant).
        """
        if self.field != other.field:
            raise DimensionError("field mismatch")
        k = _backend.kernel()
        if self._den is None:
            c = k.p_kron(self._num, self.rows, self.cols,
                         other._num, other.rows, other.cols, self.field.p)
        else:
            c, d = k.q_kron(self._num, self._den, self.rows, self.cols,
                            other._num, other._den, other.rows, other.cols)
            return Matrix(self.field, self.rows * other.rows,
                          self.cols * other.cols, c, d)
        return Matrix(self.field, self.rows * other.rows,
                      self.cols * other.cols, c, None)

    def transpose(self):
        num = [0] * (self.rows * self.cols)
        den = None if self._den is None else [1] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                num[j * self.rows + i] = self._num[i * self.cols + j]
                if den is not None:
                    den[j * self.rows + i] = self._den[i * self.cols + j]
        return Matrix(self.field, self.cols, self.rows, num, den)

    def hstack(self, *others):
        """The block row [self | others...]."""
        if not others:
            return self
        parts = (self,) + others
        for m in others:
            if m.field != self.field or m.rows != self.rows:
                raise DimensionError("hstack shape mismatch")
        cols = sum(m.cols for m in parts)
        num = [0] * (self.rows * cols)
        den = None if self._den is None else [1] * (self.rows * cols)
        offset = 0
        for m in parts:
            for i in range(self.rows):
                at, lo = i * cols + offset, i * m.cols
                num[at:at + m.cols] = m._num[lo:lo + m.cols]
                if den is not None:
                    den[at:at + m.cols] = m._den[lo:lo + m.cols]
            offset += m.cols
        return Matrix(self.field, self.rows, cols, num, den)

    def vstack(self, *others):
        """The block column [self; others...]."""
        if not others:
            return self
        parts = (self,) + others
        for m in others:
            if m.field != self.field or m.cols != self.cols:
                raise DimensionError("vstack shape mismatch")
        num = []
        den = [] if self._den is not None else None
        for m in parts:
            num += m._num
            if den is not None:
                den += m._den
        return Matrix(self.field, sum(m.rows for m in parts), self.cols,
                      num, den)

    def gather(self, rows, cols, index):
        """The rows x cols matrix whose row-major entry t is this matrix's
        row-major entry index[t]: a reshape or a permutation of entries."""
        num = self._num
        den = None if self._den is None else [self._den[t] for t in index]
        return Matrix(self.field, rows, cols, [num[t] for t in index], den)

    def submatrix_columns(self, col_indices):
        num = []
        den = [] if self._den is not None else None
        for i in range(self.rows):
            base = i * self.cols
            for j in col_indices:
                num.append(self._num[base + j])
                if den is not None:
                    den.append(self._den[base + j])
        return Matrix(self.field, self.rows, len(col_indices), num, den)

    # -- elimination

    def rref(self):
        """(reduced row echelon form, pivot column tuple); cached."""
        if self._rref is None:
            k = _backend.kernel()
            if self._den is None:
                r, piv = k.p_rref(self._num, self.rows, self.cols, self.field.p)
                m = Matrix(self.field, self.rows, self.cols, r, None)
            else:
                rn, rd, piv = k.q_rref(self._num, self._den, self.rows, self.cols)
                m = Matrix(self.field, self.rows, self.cols, rn, rd)
            self._rref = (m, tuple(piv))
        return self._rref

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        aug, piv = self.hstack(Matrix.identity(self.field, n)).rref()
        if len([p for p in piv if p < n]) != n:
            return None
        return aug.submatrix_columns(range(n, 2 * n))


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A linear subspace of K^ambient_dim in canonical form.

    The basis matrix (columns are basis vectors) is the reduced column
    echelon form of any spanning set, so equal subspaces have identical
    representations and ``==`` is semantic equality.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_columns(cls, mat: Matrix) -> "Subspace":
        """Canonicalize the span of the columns of ``mat``."""
        r, piv = mat.transpose().rref()
        rank = len(piv)
        num = []
        den = [] if r._den is not None else None
        for i in range(rank):
            num.extend(r._num[i * r.cols:(i + 1) * r.cols])
            if den is not None:
                den.extend(r._den[i * r.cols:(i + 1) * r.cols])
        rows_mat = Matrix(mat.field, rank, mat.rows, num, den)
        return cls(mat.rows, rows_mat.transpose())

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(ambient_dim, Matrix.zeros(field, ambient_dim, 0))

    @property
    def dim(self):
        return self.basis.cols

    @property
    def field(self):
        return self.basis.field

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# derived operations


def rank(m: Matrix) -> int:
    """Exact rank over the matrix's field."""
    return len(m.rref()[1])


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the null space {v : m @ v = 0}."""
    r, piv = m.rref()
    pivset = set(piv)
    free = [c for c in range(m.cols) if c not in pivset]
    if not free:
        return Subspace.zero(m.field, m.cols)
    cols = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for row_idx, p in enumerate(piv):
            x = r[row_idx, f]
            if x:
                v[p] = -x
        cols.append(v)
    spanning = Matrix.from_rows(m.field, list(map(list, zip(*cols))))
    return Subspace.from_columns(spanning)


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.from_columns(m)


def solve(m: Matrix, b: Matrix):
    """A particular solution x of m @ x = b, or None if inconsistent.

    Canonical choice: reduced echelon with leftmost pivots and all free
    variables set to zero, so identical inputs always produce the same
    solution.
    """
    if b.rows != m.rows or b.cols != 1:
        raise DimensionError(f"rhs must be a {m.rows}-row column vector")
    aug, piv = m.hstack(b).rref()
    if piv and piv[-1] == m.cols:
        return None
    entries = [0] * m.cols
    for row_idx, p in enumerate(piv):
        entries[p] = aug[row_idx, m.cols]
    return Matrix.column(m.field, entries)


def quotient_data(ker: Subspace, im: Subspace):
    """Dimension and representatives of the quotient ker / im.

    Requires im to be a subspace of ker (raises QuotientError otherwise).
    The representatives are the canonical ker-basis vectors that complete
    an im-basis to a basis of ker, returned as column vectors.
    """
    if ker.ambient_dim != im.ambient_dim:
        raise DimensionError("ambient dimension mismatch")
    # both bases are independent, so the rank of [im | ker] is ker.dim
    # exactly when im lies in ker
    _, piv = im.basis.hstack(ker.basis).rref()
    if len(piv) != ker.dim:
        raise QuotientError(
            "second subspace is not contained in the first; "
            "if these came from a cochain complex its differential is broken"
        )
    reps = [
        ker.basis.submatrix_columns([p - im.dim])
        for p in piv
        if p >= im.dim
    ]
    return ker.dim - im.dim, reps
