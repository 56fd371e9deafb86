"""The dense reference for exact elimination: one Gauss-Jordan.

``ref_rref`` row-reduces plain lists of field elements (Fractions over
QQ, ints in [0, p) over GF(p)) with leftmost pivots, taking the first
nonzero row at or below the pivot row.  The dense ``rank``,
``kernel_basis``, ``image_basis``, ``solve`` and ``quotient_data``
below are built on it: they take and return the same ``Matrix`` and
``Subspace`` objects as the functions of the same names in
:mod:`coaldef.exactlinalg`, which eliminate sparsely through
:mod:`coaldef.sparse`.  Reduced echelon forms are unique, so the two
must agree entry for entry.

``reference_serialize_problem`` is the problem-file writer as the json
module's own encoder runs it, every scalar one ``str(Fraction)``: the
canonical text of :func:`coaldef.problemfile.serialize_problem`.

``reference_trivialize`` is the staircase as a loop of whole-series
operations: at every step it transports the whole deformation and
composes the whole isomorphism again.  The incremental
:func:`coaldef.deformation.trivialize` must return the same result.

``read_defects`` reads every slot of the packed deformation equations
back as matrices, through the slot reader of their
``series.PackedDefects`` record: verification only tests them for
zero, and the tests compare the read with the Kronecker form of the
equations.
"""

import json
from fractions import Fraction

from coaldef.cohomology import morphism_complex
from coaldef.deformation import (FormalIsomorphism, InternalInvariantError,
                                 TrivializationResult, _Defects,
                                 _packed_defects, apply_equivalence,
                                 compose_isomorphisms, infinitesimal)
from coaldef.exactlinalg import DimensionError, Matrix, QuotientError, Subspace
from coaldef.problemfile import _field_spec, _morphism_name, _name_of


def reduce(field, x):
    """The scalar x (int or Fraction) as an element of the field."""
    if field.kind == "rational":
        return Fraction(x)
    if isinstance(x, int):
        return x % field.p
    return x.numerator * pow(x.denominator, field.p - 2, field.p) % field.p


def ref_rref(field, rows, cols):
    """Gauss-Jordan on rows of scalars: (reduced rows, pivots)."""
    p = field.p if field.kind == "prime" else None

    def norm(x):
        return x % p if p else x

    a = [[reduce(field, x) if x else 0 for x in r] for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        s = pow(a[r][c], p - 2, p) if p else 1 / a[r][c]
        a[r] = [norm(x * s) if x else x for x in a[r]]
        # the row update skips the zero entries of the pivot row
        nonzero = [(k, y) for k, y in enumerate(a[r]) if y]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f:
                for k, y in nonzero:
                    row[k] = norm(row[k] - f * y)
        pivots.append(c)
    return a, pivots


def span(field, ambient_dim, vectors):
    """The canonical Subspace spanned by vectors (lists of field
    elements): the nonzero rows of their reduced echelon form, as
    columns."""
    reduced, pivots = ref_rref(field, vectors, ambient_dim)
    return Subspace(ambient_dim, Matrix.from_rows(
        field, [[reduced[t][i] for t in range(len(pivots))]
                for i in range(ambient_dim)]))


def rows_of(m):
    """The rows of m as lists of field elements, with int zeros."""
    ints, den = m.as_integer_ratio()
    flat = [m.field.element(x, den) if x else 0 for x in ints]
    return [flat[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]


def rank(m):
    return len(ref_rref(m.field, rows_of(m), m.cols)[1])


def image_basis(m):
    return span(m.field, m.rows, rows_of(m.transpose()))


def kernel_basis(m):
    """e_f - sum_p r_p[f] e_p for each free column f, canonicalized."""
    reduced, pivots = ref_rref(m.field, rows_of(m), m.cols)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [0] * m.cols
        v[f] = 1
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = reduce(m.field, -row[f])
        vectors.append(v)
    return span(m.field, m.cols, vectors)


def solve(m, b):
    """The canonical solution of m @ x = b (pivot entries read off the
    reduced [m | b], free entries zero), or None if inconsistent."""
    if b.rows != m.rows or b.cols != 1:
        raise DimensionError(f"rhs must be a {m.rows}-row column vector")
    reduced, pivots = ref_rref(m.field, rows_of(m.hstack(b)), m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    entries = [0] * m.cols
    for row, p in zip(reduced, pivots):
        entries[p] = row[m.cols]
    return Matrix.column(m.field, entries)


def quotient_data(ker, im):
    """(dim ker / im, the ker-basis columns that are pivots of
    [im | ker]); QuotientError unless im lies in ker."""
    if ker.ambient_dim != im.ambient_dim:
        raise DimensionError("ambient dimension mismatch")
    # both bases are independent, so the rank of [im | ker] is ker.dim
    # exactly when im lies in ker
    _, pivots = ref_rref(ker.field, rows_of(im.basis.hstack(ker.basis)),
                         im.dim + ker.dim)
    if len(pivots) != ker.dim:
        raise QuotientError("the image is not contained in the kernel")
    reps = [ker.basis.submatrix_columns([p - im.dim])
            for p in pivots if p >= im.dim]
    return ker.dim - im.dim, reps


def reference_trivialize(d):
    """Cobound the leading nonzero coefficient w at order l, transport
    d by I - chi t^l, check that orders 1..l cleared, and repeat; the
    composite of the steps trivializes d, or the class of a w that does
    not cobound blocks."""
    comp = morphism_complex(d.morphism)
    current = d
    iso = FormalIsomorphism.identity(d.morphism, d.order)
    while True:
        lead = infinitesimal(current)
        if lead.trivial:
            return TrivializationResult(True, iso)
        l = lead.generalized_order
        w = lead.coefficient
        if not lead.is_cocycle:
            raise InternalInvariantError(
                "leading coefficient of a valid deformation must be a "
                "2-cocycle")
        chi = comp.is_coboundary(w)
        if chi is None:
            return TrivializationResult(
                False, None, l, w, tuple(comp.class_coordinates(w)))
        step_higher = [comp.zero(1)] * (l - 1) + [-chi]
        step = FormalIsomorphism.from_higher_coefficients(
            d.morphism, step_higher, d.order)
        current = apply_equivalence(step, current)
        for i in range(1, l + 1):
            if not current.coefficient(i).is_zero():
                raise InternalInvariantError(
                    "staircase step failed to clear its order")
        iso = compose_isomorphisms(step, iso)


def read_defects(series_a, series_b, series_f, orders):
    """The defects (D_a, D_b, D_f) of the deformation equations at each
    of ``orders``, as matrices: the order just above the series from the
    order-n queries of ``_Defects`` (``series.Cauchy`` states), as the
    obstruction is, and otherwise by the slot reader of the
    ``_packed_defects`` record."""
    if list(orders) == [len(series_a)]:
        return [_Defects(series_a, series_b, series_f).next_order()]
    defects = _packed_defects(series_a, series_b, series_f, max(orders) + 1)
    return list(zip(*[
        [Matrix.from_integer_ratio(defects.field, *shape, *slot)
         for slot in slots] for shape, slots in defects.slots(orders)]))


def _quadruples(m, dim):
    return [[a, b, c, str(m[b * dim + c, a])] for a in range(dim)
            for b in range(dim) for c in range(dim) if m[b * dim + c, a]]


def _rows(m):
    return [[str(x) for x in row] for row in m.to_rows()]


def _coefficient(w):
    f = w.morphism
    return {"A": _quadruples(w.a_part.matrix, f.source.dim),
            "B": _quadruples(w.b_part.matrix, f.target.dim),
            "F": _rows(w.ab_part.matrix)}


def reference_serialize_problem(pf):
    """The JSON object of a problem file, written by the json module with
    ``indent=2`` and ``sort_keys=True``."""
    obj = {"field": _field_spec(pf.field)}
    if pf.coalgebras:
        obj["coalgebras"] = {
            name: {"dim": c.dim, "delta": _quadruples(c.delta, c.dim)}
            for name, c in pf.coalgebras.items()}
    if pf.morphisms:
        obj["morphisms"] = {
            name: {"source": _name_of(pf, f.source, name),
                   "target": _name_of(pf, f.target, name),
                   "matrix": _rows(f.matrix)}
            for name, f in pf.morphisms.items()}
    if pf.cocycles:
        obj["cocycles"] = {
            name: {"morphism": _morphism_name(pf, w.morphism, name),
                   **_coefficient(w)}
            for name, w in pf.cocycles.items()}
    for section, spec in (("deformations", _coefficient),
                          ("isomorphisms", lambda c: {
                              "A": _rows(c.a_part.matrix),
                              "B": _rows(c.b_part.matrix)})):
        series = getattr(pf, section)
        if series:
            obj[section] = {
                name: {"morphism": _morphism_name(pf, s.morphism, name),
                       "order": s.order,
                       "coeffs": {str(n): spec(s.coefficient(n))
                                  for n in range(1, s.order + 1)
                                  if not s.coefficient(n).is_zero()}}
                for name, s in series.items()}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
