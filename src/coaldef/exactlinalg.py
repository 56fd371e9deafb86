"""Exact linear algebra over the rationals and over prime fields.

Everything downstream (cochain differentials, cohomology, obstruction
solves) reduces to the operations here: matrix products, Kronecker
products, reduced row echelon form, and the rank / kernel / image /
solve / quotient family built on top of them.  All arithmetic is exact;
there is no floating point anywhere in this package.

Matrices are immutable and dense in semantics.  Each is stored as one
canonical pair, row-major integer entries over one positive common
denominator, the same form in QQ and in GF(p); the field only says how
to normalize it (divide by the gcd, or reduce modulo p).  The integer
arithmetic lives in :mod:`coaldef._kernels_py`, fetched through
:mod:`coaldef._backend`.

Elimination has one engine, :mod:`coaldef.sparse`.  ``Matrix.rref``,
``Matrix.inverse``, ``Subspace.from_columns`` and the rank / kernel /
image / solve / quotient family hand it a matrix's nonzero ints over
the common denominator and read the canonical result back as
matrices; reduced echelon forms are unique, so the dense API and the
sparse queries of the cochain complexes agree entry for entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from . import _backend, sparse


class ExactLinalgError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(ExactLinalgError):
    """Operands have incompatible shapes."""


class QuotientError(ExactLinalgError):
    """A quotient ker / im was asked for with im not contained in ker.

    In cohomology computations this signals a broken complex (a
    differential whose square is not zero), so it is never expected on
    valid input.
    """


# ---------------------------------------------------------------------------
# fields
#
# A field turns scalars into (int, den) pairs, brings a matrix ints / den
# to its canonical form and reads one entry back as a scalar; nothing
# else about a matrix depends on the field.


class Rationals:
    """The field of arbitrary-precision rationals."""

    kind = "rational"

    def coerce(self, x):
        """``x`` (int, Fraction, or string like '3/7') as a pair
        (numerator, denominator) in lowest terms."""
        if isinstance(x, int):
            return x, 1
        if isinstance(x, Fraction):
            return x.numerator, x.denominator
        if isinstance(x, str):
            f = Fraction(x.strip())
            return f.numerator, f.denominator
        raise TypeError(f"cannot coerce {x!r} to a rational scalar")

    def ratio(self, num, den):
        """The scalar num / den, given in lowest terms with den > 0, as
        :meth:`coerce` gives it."""
        return num, den

    def normalize(self, ints, den):
        """The canonical form of ints / den (den > 0): both divided by
        gcd(den, *ints), so the zero matrix sits over den 1."""
        g = gcd(den, *ints)
        if g == 1:
            return ints, den
        return [x // g for x in ints], den // g

    def element(self, x, den):
        return Fraction(x, den)

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
        """``x`` (int, Fraction, or string like '3/7') as a pair
        (residue in [0, p), 1)."""
        if isinstance(x, int):
            return x % self.p, 1
        if isinstance(x, str):
            x = Fraction(x.strip())
        if isinstance(x, Fraction):
            return self.ratio(x.numerator, x.denominator)
        raise TypeError(f"cannot coerce {x!r} to a GF({self.p}) scalar")

    def ratio(self, num, den):
        """The scalar num / den, given in lowest terms with den > 0, as
        :meth:`coerce` gives it; ZeroDivisionError if p divides den."""
        return num * self._inverse(den, f"{num}/{den}") % self.p, 1

    def _inverse(self, den, what):
        if den % self.p == 0:
            raise ZeroDivisionError(
                f"denominator of {what} vanishes modulo {self.p}")
        return pow(den, self.p - 2, self.p)

    def normalize(self, ints, den):
        """The canonical form of ints / den: every int in [0, p), den 1."""
        p = self.p
        if den != 1:
            s = self._inverse(den, "the matrix")
            return [x * s % p for x in ints], 1
        return [x % p for x in ints], 1

    def element(self, x, den):
        return x

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
    :meth:`from_sparse`, :meth:`from_integer_ratio`, :meth:`zeros`,
    :meth:`identity`, or :meth:`column`.

    Storage is one canonical pair: the row-major integer entries and one
    positive common denominator, with gcd(den, *ints) = 1 and the zero
    matrix over den 1.  Over GF(p) den is 1 and the ints lie in [0, p).
    Equal matrices therefore have equal storage, and each operation is
    one integer kernel followed by the field's ``normalize``.  The
    largest |int| of the storage is kept once read (:meth:`peak`).
    """

    __slots__ = ("field", "rows", "cols", "_num", "_denom", "_peak")

    def __init__(self, field, rows, cols, ints, den):
        # Trusted constructor: (ints, den) is already canonical.  Takes
        # ownership of the list.
        self.field = field
        self.rows = rows
        self.cols = cols
        self._num = ints
        self._denom = den

    @classmethod
    def from_integer_ratio(cls, field, rows, cols, ints, den):
        """The rows x cols matrix whose row-major entry k is ints[k] / den,
        brought to canonical form (the inverse of :meth:`as_integer_ratio`).

        ``den`` is a nonzero int; the list ``ints`` is taken over, not
        copied.
        """
        if len(ints) != rows * cols:
            raise DimensionError(
                f"{len(ints)} entries for a {rows}x{cols} matrix")
        if den < 0:
            ints, den = [-x for x in ints], -den
        elif not den:
            raise ZeroDivisionError("zero common denominator")
        return cls(field, rows, cols, *field.normalize(ints, den))

    # -- construction

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, [0] * (rows * cols), 1)

    @classmethod
    def identity(cls, field, n):
        ints = [0] * (n * n)
        ints[::n + 1] = [1] * n
        return cls(field, n, n, ints, 1)

    @classmethod
    def from_rows(cls, field, rows):
        """Build from an iterable of rows of scalars (ints, Fractions, strings)."""
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
        pairs = [field.coerce(x) for r in rows for x in r]
        # entries in lowest terms over the lcm of their denominators are
        # already canonical
        den = lcm(*(d for _, d in pairs))
        return cls(field, nrows, ncols, [x * (den // d) for x, d in pairs],
                   den)

    @classmethod
    def from_sparse(cls, field, rows, cols, entries, den=1):
        """The matrix whose entry (i, j) is entries[(i, j)] / den and
        zero where ``entries`` (a dict of ints) has no key."""
        ints = [0] * (rows * cols)
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError((i, j))
            ints[i * cols + j] = x
        return cls.from_integer_ratio(field, rows, cols, ints, den)

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

    def as_integer_ratio(self):
        """(ints, den): entry k in row-major order is ints[k] / den.

        The canonical storage itself (see the class docstring); the list
        is shared with the matrix and must not be modified.
        """
        return self._num, self._denom

    def peak(self):
        """The largest absolute value of the ints of
        :meth:`as_integer_ratio` (0 for a matrix with no entry), scanned
        on the first call and kept: the storage never changes."""
        try:
            return self._peak
        except AttributeError:
            self._peak = peak = max(map(abs, self._num), default=0)
            return peak

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.field.element(self._num[i * self.cols + j], self._denom)

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
            and self._denom == other._denom
            and self._num == other._num
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic

    def _require_same_shape(self, other):
        if self.field != other.field:
            raise DimensionError("field mismatch")
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")

    def _combine(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        self._require_same_shape(other)
        a, b = self._denom, other._denom
        den = lcm(a, b)
        ints = _backend.kernel().lincomb(self._num, den // a,
                                         other._num, sign * (den // b))
        return Matrix.from_integer_ratio(self.field, self.rows, self.cols,
                                         ints, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        n, d = self.field.coerce(s)
        ints = _backend.kernel().lincomb(self._num, n)
        return Matrix.from_integer_ratio(self.field, self.rows, self.cols,
                                         ints, self._denom * d)

    def __matmul__(self, other):
        if self.field != other.field:
            raise DimensionError("field mismatch")
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot compose {self.shape} with {other.shape}")
        ints = _backend.kernel().matmul(self._num, other._num,
                                        self.rows, self.cols, other.cols)
        return Matrix.from_integer_ratio(self.field, self.rows, other.cols,
                                         ints, self._denom * other._denom)

    def kron(self, other):
        """Kronecker product; the matrix of the tensor product of two maps.

        Row/column order matches the tensor-basis flattening used across
        the package (leftmost factor most significant).
        """
        if self.field != other.field:
            raise DimensionError("field mismatch")
        ints = _backend.kernel().kron(self._num, self.rows, self.cols,
                                      other._num, other.rows, other.cols)
        return Matrix.from_integer_ratio(self.field, self.rows * other.rows,
                                         self.cols * other.cols, ints,
                                         self._denom * other._denom)

    def transpose(self):
        return self.gather(self.cols, self.rows,
                           [i * self.cols + j for j in range(self.cols)
                            for i in range(self.rows)])

    @staticmethod
    def _over_common(parts):
        """(den, ints per part): every part's entries over the lcm den of
        their denominators.  Canonical parts stay canonical together: a
        prime power dividing den exactly divides some part's own
        denominator, and that part has an int it does not divide."""
        den = lcm(*(m._denom for m in parts))
        k = _backend.kernel()
        return den, [m._num if m._denom == den
                     else k.lincomb(m._num, den // m._denom) for m in parts]

    def hstack(self, *others):
        """The block row [self | others...]."""
        if not others:
            return self
        parts = (self,) + others
        for m in others:
            if m.field != self.field or m.rows != self.rows:
                raise DimensionError("hstack shape mismatch")
        den, blocks = Matrix._over_common(parts)
        ints = []
        for i in range(self.rows):
            for m, block in zip(parts, blocks):
                ints += block[i * m.cols:(i + 1) * m.cols]
        return Matrix(self.field, self.rows, sum(m.cols for m in parts),
                      ints, den)

    def vstack(self, *others):
        """The block column [self; others...]."""
        if not others:
            return self
        parts = (self,) + others
        for m in others:
            if m.field != self.field or m.cols != self.cols:
                raise DimensionError("vstack shape mismatch")
        den, blocks = Matrix._over_common(parts)
        ints = []
        for block in blocks:
            ints += block
        return Matrix(self.field, sum(m.rows for m in parts), self.cols,
                      ints, den)

    def gather(self, rows, cols, index):
        """The rows x cols matrix whose row-major entry t is this matrix's
        row-major entry index[t]: a reshape, a permutation or a selection
        of entries."""
        num = self._num
        return Matrix.from_integer_ratio(self.field, rows, cols,
                                         [num[t] for t in index], self._denom)

    def submatrix_columns(self, col_indices):
        return self.gather(self.rows, len(col_indices),
                           [i * self.cols + j for i in range(self.rows)
                            for j in col_indices])

    # -- elimination

    def rref(self):
        """(reduced row echelon form, pivot column tuple), read off the
        image echelon of the transpose, whose columns are these rows."""
        echelon = _elimination(self.transpose()).image
        r = _pivot_rows(echelon).transpose()
        zeros = Matrix.zeros(self.field, self.rows - r.rows, self.cols)
        return r.vstack(zeros), tuple(sorted(echelon.rows))

    def inverse(self):
        """Inverse of a square matrix, or None if singular.

        Column j is the canonical solution of self x = e_j, and some
        e_j has none exactly when self is singular.
        """
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        elimination = _elimination(self)
        columns = []
        for j in range(n):
            x = elimination.solve([int(i == j) for i in range(n)], 1)
            if x is None:
                return None
            columns.append((dict(enumerate(x[0])), x[1]))
        return _column_matrix(self.field, n, columns)


def stacked_ints(parts):
    """(ints, den): the row-major ints of the matrices ``parts``, one
    after another, over the lcm den of their denominators: the storage
    of their :meth:`Matrix.vstack` when they have one width, with no
    matrix formed.  Canonical parts give a canonical pair (see
    ``Matrix._over_common``)."""
    den, blocks = Matrix._over_common(parts)
    return list(chain.from_iterable(blocks)), den


# ---------------------------------------------------------------------------
# elimination, through coaldef.sparse


def _elimination(m):
    """The :class:`coaldef.sparse.Elimination` of m: its nonzero ints as
    a dict {(row, col): int} over the common denominator."""
    ints, den = m.as_integer_ratio()
    return sparse.Elimination(
        m.field, m.rows, m.cols,
        {divmod(k, m.cols): x for k, x in enumerate(ints) if x}, den)


def _column_matrix(field, rows, columns):
    """The matrix whose column t is v / scale for the pair (v, scale) =
    columns[t], with v a dict {row: int}."""
    k = len(columns)
    den = lcm(*(scale for _, scale in columns))
    ints = [0] * (rows * k)
    for t, (v, scale) in enumerate(columns):
        for i, x in v.items():
            ints[i * k + t] = x * (den // scale)
    return Matrix.from_integer_ratio(field, rows, k, ints, den)


def _pivot_rows(echelon):
    """The reduced rows of a SparseEchelon, by pivot column, as columns:
    a pivot row stands for itself divided by its pivot entry."""
    return _column_matrix(echelon.field, echelon.width,
                          [(echelon.rows[p], echelon.rows[p][p])
                           for p in sorted(echelon.rows)])


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
        """Canonicalize the span of the columns of ``mat``: the reduced
        echelon rows of its columns, as columns."""
        return cls(mat.rows, _pivot_rows(_elimination(mat).image))

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
    return _elimination(m).image.rank


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the null space {v : m @ v = 0}.

    The kernel vectors of :class:`coaldef.sparse.Elimination` are the
    reduced column echelon form already.
    """
    return Subspace(m.cols, _column_matrix(m.field, m.cols,
                                           _elimination(m).kernel))


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
    x = _elimination(m).solve(*b.as_integer_ratio())
    if x is None:
        return None
    return Matrix.from_integer_ratio(m.field, m.cols, 1, *x)


def quotient_data(ker: Subspace, im: Subspace):
    """Dimension and representatives of the quotient ker / im.

    Requires im to be a subspace of ker (raises QuotientError otherwise).
    The representatives are the canonical ker-basis vectors that complete
    an im-basis to a basis of ker, returned as column vectors.  ker is
    the kernel of the rows spanning the kernel of ker.basis^T, and its
    reduced column echelon basis their canonical kernel basis.
    """
    if ker.ambient_dim != im.ambient_dim:
        raise DimensionError("ambient dimension mismatch")
    rows = [v for v, _ in _elimination(ker.basis.transpose()).kernel]
    q = sparse.Quotient(
        sparse.sparse_rref(ker.field, rows, ker.ambient_dim, reverse=True),
        sparse._rows_of(_elimination(im.basis).entries, True).values())
    return ker.dim - im.dim, [
        Matrix.from_integer_ratio(ker.field, ker.ambient_dim, 1, *r)
        for r in q.representatives]
