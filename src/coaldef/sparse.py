"""Exact sparse elimination of linear operators.

An operator is a dict ``{(row, col): int}`` of its nonzero entries; over
QQ the ints share one denominator, which only scales rows, so only the
solve needs it, and over GF(p) they lie in [1, p).  :func:`sparse_rref`
brings dict rows to reduced row echelon form, fraction-free over QQ.
Reduced echelon forms are unique, so every result agrees entry for
entry with a dense Gauss-Jordan elimination, which the tests keep as
the reference.

This is the one elimination engine of the package.
:class:`Elimination` holds the canonical kernel and image bases and the
canonical solve of one operator, and :class:`Quotient` a kernel modulo
a subspace, read in the coordinates of the kernel's free columns: the
cohomology of one degree, and the dense ``quotient_data``.  The dense
API of :mod:`coaldef.exactlinalg` is a thin layer over these, and it
and :mod:`coaldef.cohomology` load this module with the package.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from . import _backend, exactlinalg


class SparseEchelon:
    """A sparse matrix in reduced row echelon form, built one row at a time.

    A row is a dict ``{column: int}`` holding its nonzero entries.  Over
    GF(p) the ints lie in [1, p) and each pivot entry is 1.  Over QQ a
    row stands for the line it spans: rows stay integer (fraction-free),
    and each pivot row is kept primitive with a positive pivot entry,
    so the reduced echelon row is the pivot row divided by its pivot
    entry.  Columns at or past ``width`` are bookkeeping columns: they
    are never pivots but take part in every row operation, so a row
    that starts as ``{width + i: 1}`` records the combination of
    inserted rows that it became.

    The pivot of a row is its leftmost column, or its rightmost one
    with ``reverse``.  A reduced row echelon form is unique, so the
    pivot rows do not depend on the order of insertion: inserting
    sparse rows first only keeps the fill low.
    """

    __slots__ = ("field", "width", "reverse", "rows", "_users")

    def __init__(self, field, width, reverse=False):
        self.field = field
        self.width = width
        self.reverse = reverse
        self.rows = {}     # pivot column -> pivot row
        self._users = {}   # free column -> pivot columns of the rows holding it

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Clear every pivot column from ``row`` in place and return it.

        Over QQ the result is a nonzero multiple of the true remainder,
        so a row with bookkeeping columns keeps track of that multiple.
        """
        rows = self.rows
        p = self.field.p if self.field.kind == "prime" else None
        for c in [k for k in row if k in rows]:
            _eliminate(row, c, rows[c], p)
        return row

    def insert(self, row):
        """Add ``row`` (consumed) unless it is dependent on the pivot rows.

        Returns the new pivot column, or None for a dependent row.
        """
        self.reduce(row)
        real = [k for k in row if k < self.width]
        if not real:
            return None
        c = max(real) if self.reverse else min(real)
        p = self.field.p if self.field.kind == "prime" else None
        _normalize(row, c, p)
        users = self._users
        rows = self.rows
        touched = [k for k in real if k != c]
        for q in users.pop(c, ()):
            # the Jordan step: clear c from an earlier pivot row, keeping
            # the column index current
            qrow = rows[q]
            before = {k for k in touched if k in qrow}
            _eliminate(qrow, c, row, p)
            for k in touched:
                if k in qrow:
                    if k not in before:
                        users.setdefault(k, set()).add(q)
                elif k in before:
                    users[k].discard(q)
            if p is None:
                _normalize(qrow, q, None)
        for k in touched:
            users.setdefault(k, set()).add(c)
        rows[c] = row
        return c


def _eliminate(row, c, prow, p):
    """Clear column c of ``row`` with the pivot row ``prow`` (pivot c)."""
    x = row[c]
    if p is not None:
        for k, v in prow.items():
            y = (row.get(k, 0) - x * v) % p
            if y:
                row[k] = y
            else:
                del row[k]
        return
    a = prow[c]
    if a != 1:
        g = gcd(a, x)
        a, x = a // g, x // g
        for k in row:
            row[k] *= a
    for k, v in prow.items():
        y = row.get(k, 0) - x * v
        if y:
            row[k] = y
        else:
            del row[k]


def _normalize(row, c, p):
    """Scale ``row`` to pivot entry 1 (GF(p)), or primitive with a
    positive pivot entry (QQ)."""
    if p is not None:
        inv = pow(row[c], -1, p)
        if inv != 1:
            for k in row:
                row[k] = row[k] * inv % p
        return
    g = gcd(*row.values())
    if row[c] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def sparse_rref(field, rows, width, reverse=False, blocks=()):
    """The reduced row echelon form of a sparse matrix, as a SparseEchelon.

    ``rows`` are dicts ``{column: int}`` (consumed), ``width`` the
    number of columns.  Rows with the fewest nonzeros are inserted
    first, in the row-selection style of LaMacchia and Odlyzko, "Solving
    large sparse linear systems over finite fields" (CRYPTO 1990).

    It starts from ``blocks``, pairs (echelon, offset) of echelons with
    the same ``reverse`` on disjoint columns once shifted by offset: it
    copies their shifted rows, as a Jordan step edits rows in place.
    """
    echelon = SparseEchelon(field, width, reverse)
    for block, offset in blocks:
        for c, row in block.rows.items():
            echelon.rows[c + offset] = {k + offset: x for k, x in row.items()}
        for k, users in block._users.items():
            echelon._users[k + offset] = {q + offset for q in users}
    for row in sorted(rows, key=len):
        echelon.insert(row)
    return echelon


def _rows_of(entries, transpose=False):
    """The nonzero rows (or columns) of a sparse operator, as dicts."""
    rows = defaultdict(dict)
    if transpose:
        for (i, j), x in entries.items():
            rows[j][i] = x
    else:
        for (i, j), x in entries.items():
            rows[i][j] = x
    return rows


def kernel_vectors(echelon, columns=None):
    """The canonical kernel basis, ``(v, scale)`` pairs for the vectors
    v / scale, read from a rightmost-pivot reduced echelon form: each
    e_j - sum_p r_p[j] e_p of a free column j (of ``columns``, all by
    default) is reduced already."""
    pivots = echelon.rows
    p = echelon.field.p if echelon.field.kind == "prime" else None
    vectors = []
    for j in range(echelon.width) if columns is None else columns:
        if j not in pivots:
            holders = echelon._users.get(j, ())
            scale = lcm(*(pivots[q][q] for q in holders))
            v = {q: -pivots[q][j] * (scale // pivots[q][q]) for q in holders}
            if p:
                v = {q: x % p for q, x in v.items()}
            v[j] = scale
            vectors.append((v, scale))
    return vectors


def _annihilated(echelon, v):
    """Whether v ({column: int}) is in the kernel of the operator that
    ``echelon`` eliminates: every row vanishes on it.  A pivot column
    lies in its own row only and ``_users`` lists the rows holding a
    free one, so only the nonzeros of v are read."""
    rows, users = echelon.rows, echelon._users
    acc = {}
    for k, x in v.items():
        if k in rows:
            acc[k] = acc.get(k, 0) + rows[k][k] * x
        else:
            for q in users.get(k, ()):
                acc[q] = acc.get(q, 0) + rows[q][k] * x
    p = echelon.field.p if echelon.field.kind == "prime" else None
    return not any(y % p if p else y for y in acc.values())


class Elimination:
    """The exact sparse elimination of one ``rows x cols`` operator D,
    given as ``entries / den``.

    Each part is computed on first use, and each is fixed by the
    uniqueness of reduced echelon forms:

    * ``echelon`` -- the reduced echelon form of the rows of D with
      rightmost pivots, and ``kernel``, the canonical kernel basis that
      :func:`kernel_vectors` reads from it;
    * ``image`` -- the canonical image basis: the reduced echelon rows
      of the columns of D;
    * ``solver`` -- the leftmost-pivot elimination of [D | I], whose
      bookkeeping columns record the row combination behind each pivot
      row, and ``combinations``, those combinations read out once for
      :meth:`solve`.
    """

    def __init__(self, field, rows, cols, entries, den):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.den = den

    @cached_property
    def echelon(self):
        return sparse_rref(self.field, _rows_of(self.entries).values(),
                           self.cols, reverse=True)

    @cached_property
    def kernel(self):
        return kernel_vectors(self.echelon)

    @cached_property
    def image(self):
        return sparse_rref(self.field,
                           _rows_of(self.entries, transpose=True).values(),
                           self.rows)

    @cached_property
    def solver(self):
        cols = self.cols
        rows = _rows_of(self.entries)
        for i, row in rows.items():
            row[cols + i] = 1
        return sparse_rref(self.field, rows.values(), cols)

    @cached_property
    def combinations(self):
        """(x_den, [(c, indices, coefficients, scale)]): for each pivot
        row of ``solver``, its pivot column c and the recorded
        combination of the rows of D (the row indices and ints of its
        bookkeeping columns); over QQ x_den is the lcm of the pivot
        entries and scale is x_den over row c's, over GF(p) both are 1."""
        cols, pivots = self.cols, self.solver.rows
        x_den = 1 if self.field.kind == "prime" else \
            lcm(*(row[c] for c, row in pivots.items()))
        combinations = []
        for c, row in pivots.items():
            recorded = [(k - cols, t) for k, t in row.items() if k >= cols]
            combinations.append((c, [k for k, _ in recorded],
                                 [t for _, t in recorded], x_den // row[c]))
        return x_den, combinations

    def solve(self, b, b_den):
        """The canonical solution of D x = b / b_den, or None.

        b is an int list; the solution is a pair (ints, den), the
        entries ints / den.  Its pivot entries are the recorded row
        combinations applied to b and its free entries are zero, which
        solves the system whenever it is solvable; an exact residual
        check through the operator decides whether it is.
        """
        x = [0] * self.cols
        prime = self.field.kind == "prime"
        # the combinations act on the rows of entries = den * D: below,
        # x is x_den times the canonical solution y of entries @ y = b,
        # and y * den / b_den solves D x = b / b_den
        x_den, combinations = self.combinations
        for c, indices, coefficients, scale in combinations:
            y = sum(map(mul, coefficients, map(b.__getitem__, indices)))
            x[c] = y % self.field.p if prime else y * scale
        out = _backend.kernel().sparse_apply(self.entries, x, len(b))
        if prime:
            p = self.field.p
            if any((y - z) % p for y, z in zip(out, b)):
                return None
            return x, 1
        if any(y != z * x_den for y, z in zip(out, b)):
            return None
        return [y * self.den for y in x], x_den * b_den


class Quotient:
    """A kernel Z modulo a subspace B, in the coordinates of the
    canonical kernel basis.

    ``kernel`` is the rightmost-pivot reduced echelon form of an
    operator whose kernel is Z.  Its kernel vector u_j of a free column
    j is 1 at j and 0 at every other free column, so a vector z of Z is
    sum z_j u_j over the free j.  ``spanning`` are vectors ({index:
    int}) spanning B; each is checked to lie in Z, and their free
    entries are eliminated with rightmost pivots into ``image``, B in
    these coordinates.  u_j lies in B + span(u_i, i < j) exactly when a
    vector of B ends at j, so the representatives, pairs (ints, den) of
    the u_j whose j is no pivot of ``image``, are the pivots of
    [B | u_j], the canonical choice of
    :func:`coaldef.exactlinalg.quotient_data`.
    """

    def __init__(self, kernel, spanning):
        pivots = kernel.rows
        restricted = []
        for v in spanning:
            if not _annihilated(kernel, v):
                raise exactlinalg.QuotientError(
                    "the image is not contained in the kernel; if they come "
                    "from a cochain complex, its differential does not "
                    "square to zero")
            restricted.append({k: x for k, x in v.items() if k not in pivots})
        self.kernel = kernel
        self.image = sparse_rref(kernel.field, restricted, kernel.width,
                                 reverse=True)
        self.columns = [j for j in range(kernel.width)
                        if j not in pivots and j not in self.image.rows]
        self.representatives = [
            ([v.get(k, 0) for k in range(kernel.width)], scale)
            for v, scale in kernel_vectors(kernel, self.columns)]
        self.kernel_dim = kernel.width - kernel.rank
        self.image_dim = self.image.rank

    def coordinates(self, b, b_den):
        """Representative coordinates of the vector b / b_den, or None if
        it is not in the kernel: its free entries reduced by ``image``,
        with a marker column keeping the scale of the row."""
        v = {k: x for k, x in enumerate(b) if x}
        if not _annihilated(self.kernel, v):
            return None
        marker, field = self.kernel.width, self.kernel.field
        row = {k: x for k, x in v.items() if k not in self.kernel.rows}
        row[marker] = 1
        self.image.reduce(row)
        if field.kind == "prime":
            return [row.get(j, 0) % field.p for j in self.columns]
        return [Fraction(row.get(j, 0), row[marker] * b_den)
                for j in self.columns]
