"""The JSON problem-file format of the batch front end.

A problem file is a single JSON object with a field declaration and up
to five named-object sections::

    {
      "field": "rational",                    // or {"prime": 13}
      "coalgebras":   {name: {"dim": d, "delta": [[a, b, c, coeff], ...]}},
      "morphisms":    {name: {"source": ..., "target": ..., "matrix": rows}},
      "cocycles":     {name: {"morphism": ..., "A": quads, "B": quads,
                              "F": rows}},
      "deformations": {name: {"morphism": ..., "order": N,
                              "coeffs": {"1": {"A": quads, "B": quads,
                                               "F": rows}, ...}}},
      "isomorphisms": {name: {"morphism": ..., "order": N,
                              "coeffs": {"1": {"A": rows, "B": rows}, ...}}}
    }

Scalars are plain integers or exact strings in the form ``str(Fraction)``
writes: an optional sign, digits, and optionally ``/`` and more digits
("3", "-2/7"); exponents, decimal points, underscores and spaces are
rejected.  A quadruple ``[a, b, c, coeff]`` adds ``coeff * e_b (x) e_c``
to the image of ``e_a``; it describes any map X -> X (x) X
(comultiplications and the comultiplication slots of degree-2
cochains).  Plain linear maps are dense row lists.  Deformation
coefficient keys start at "1" and are spelled as ``str(n)`` writes
them: the order-0 coefficient is always the structure maps of the
morphism and is never stored.  The deformations and isomorphisms
sections are read by one loop and written by one, keyed by the class
and its coefficient degree (:func:`_parse_coefficient`,
:func:`_coefficient_spec`).  A key repeated within one JSON object is
an error.  Serialization is canonical (sorted keys, zero coefficients
omitted), so parse/serialize round-trips are identities.

:func:`load_problem` reads the file on every call but parses each text
once: a process-wide table keyed by the full text and the field
override keeps the :data:`_PARSES_KEPT` most recently used parses, so a
file rewritten with other bytes is parsed again and a parse error
repeats.  Each load gets a fresh :class:`ProblemFile` with fresh
tables, so adding or removing names never reaches a later load; the
coalgebras, morphisms, cochains, deformations and isomorphisms in them
are shared between loads of equal texts.  Nothing mutates them but
their own caches: a morphism's complex (``f._complex``) and a
deformation's verification report.  So commands on one file hold one
morphism and reach its complex directly.  A kept parse also keeps its
morphisms' complexes, and the records in them, alive after the
structure table of :mod:`coaldef.cohomology` (``_RECORDS_KEPT``) has
dropped them: what a process holds is bounded by both constants.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import gcd, lcm

from .coalgebra import Coalgebra, CoalgebraMorphism, direct_sum, divided_power, \
    grouplike, zero_comultiplication
from .cohomology import MorphismCochain, morphism_complex
from .deformation import FormalIsomorphism, TruncatedDeformation
from .exactlinalg import QQ, Matrix, PrimeField


class ProblemFileError(Exception):
    """The file does not parse or fails referential validation."""


# Upper bounds on the sizes a problem file may declare, checked before
# anything of that size is allocated: a coalgebra of dimension d costs
# d^3 entries per comultiplication, and a deformation or isomorphism of
# order N holds N coefficients.  MAX_ENTRIES bounds the sum over the
# whole file; it admits one deformation of order MAX_ORDER over
# coalgebras of dimension MAX_DIM (about 0.54M entries).
MAX_DIM = 16
MAX_ORDER = 64
MAX_ENTRIES = 1 << 20

# A matrix is stored as ints over one common denominator, so distinct
# denominators within one matrix multiply, and each entry then carries
# their product: a comultiplication of dimension 16 with 1024 distinct
# 80-bit denominators needs ints of 82,000 bits, and checking it ran for
# more than 5 minutes on a 2-vCPU host.  For each matrix of a file, the
# number of entries given times the bits of their common denominator is
# bounded.
MAX_SCALED_BITS = 1 << 22

# What str(Fraction) writes: an optional sign, digits, optionally /digits;
# and a run of such scalars, each followed by a comma.
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_SCALARS = re.compile(r"(?:[+-]?[0-9]+(?:/[0-9]+)?,)*")

# Integers of the file are tested with ``type(x) is int``: JSON gives
# exact ints, and true and false arrive as bool, a subclass of int.


def _bounded_int(spec, key, bound, where):
    value = spec.get(key)
    if type(value) is not int or not 0 <= value <= bound:
        raise ProblemFileError(
            f"{where}: {key} must be an int in 0..{bound}, got {value!r}")
    return value


@dataclass
class ProblemFile:
    field: object = QQ
    coalgebras: dict = dataclass_field(default_factory=dict)
    morphisms: dict = dataclass_field(default_factory=dict)
    cocycles: dict = dataclass_field(default_factory=dict)
    deformations: dict = dataclass_field(default_factory=dict)
    isomorphisms: dict = dataclass_field(default_factory=dict)


# ---------------------------------------------------------------------------
# scalar and matrix encoding


def _parse_scalar(field, x, where):
    """Validate a scalar and bring it, once, to the field's normal form,
    the pair of ints that ``field.coerce`` gives (over QQ the reduced
    numerator and denominator)."""
    if type(x) is int:
        return field.coerce(x)
    if not isinstance(x, str):
        raise ProblemFileError(f"{where}: scalar must be an int or string, got {x!r}")
    match = _SCALAR.fullmatch(x)
    if match is None:
        raise ProblemFileError(f"{where}: bad scalar {x!r} (expected digits "
                               f"with an optional sign and /denominator)")
    num, den = match.groups()
    try:
        num = int(num)
        if den is None:
            return field.coerce(num)
        den = int(den)
        if not den:
            # worded as Fraction(num, 0) words it
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        g = gcd(num, den)
        return field.ratio(num // g, den // g)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFileError(f"{where}: bad scalar {x!r} ({exc})") from None


def _decoded(field, scalars):
    """The scalars of one matrix as (ints, den), ints[k] / den the k-th,
    read together: one regex validates them all, int() reads the digits
    and one lcm of the denominators as written puts them over one.

    None when some scalar needs the per-scalar reading, which raises its
    error or reduces it first: a scalar outside the grammar, a zero
    denominator (over GF(p), a multiple of p), or a common denominator
    past the MAX_SCALED_BITS bound, which the reduced ones may meet.
    """
    if not scalars:
        return [], 1
    kinds = set(map(type, scalars))
    if not kinds <= {str, int}:
        return None
    try:
        texts = list(map(str, scalars)) if int in kinds else scalars
        joined = ",".join(texts) + ","
        # a comma inside a scalar would split it into two valid ones
        if joined.count(",") != len(texts) or \
                _SCALARS.fullmatch(joined) is None:
            return None
        if "/" not in joined:
            return list(map(int, texts)), 1
        parts = list(map(int, "/".join([t if "/" in t else t + "/1"
                                        for t in texts]).split("/")))
    except ValueError:  # digits past Python's limit
        return None
    nums, dens = parts[::2], parts[1::2]
    # the lcm is at most the product of the distinct denominators: past
    # the bound, it is left to the reduced ones
    limit, distinct = MAX_SCALED_BITS // len(texts), set(dens)
    if sum(map(int.bit_length, distinct)) > limit:
        return None
    den = lcm(*distinct)
    if not den or den.bit_length() > limit or \
            field.kind == "prime" and not den % field.p:
        return None
    return [x * (den // d) for x, d in zip(nums, dens)], den


def _quadruples_to_matrix(field, quads, dim, where):
    """Structure-constant quadruples -> the (dim^2 x dim) matrix of the map.

    Repeated quadruples for one (a, b, c) add up.
    """
    if not isinstance(quads, list):
        raise ProblemFileError(f"{where}: expected a list of quadruples")
    if quads and set(map(type, quads)) == {list} \
            and set(map(len, quads)) == {4}:
        a, b, c, coeffs = zip(*quads)
        indices = a + b + c
        decoded = set(map(type, indices)) == {int} and \
            0 <= min(indices) and max(indices) < dim and \
            _decoded(field, coeffs)
        if decoded:
            nums, den = decoded
            ints = [0] * dim ** 3
            for i, j, k, x in zip(a, b, c, nums):
                ints[(j * dim + k) * dim + i] += x
            return Matrix.from_integer_ratio(field, dim * dim, dim, ints, den)
    # one at a time, for the first error in file order
    values = []
    for q in quads:
        if not (isinstance(q, list) and len(q) == 4):
            raise ProblemFileError(f"{where}: quadruple must be [a, b, c, coeff]")
        a, b, c, coeff = q
        if not (type(a) is int and type(b) is int and type(c) is int
                and 0 <= a < dim and 0 <= b < dim and 0 <= c < dim):
            idx = next(i for i in (a, b, c)
                       if type(i) is not int or not 0 <= i < dim)
            raise ProblemFileError(
                f"{where}: basis index {idx} out of range for dim {dim}")
        values.append(((b * dim + c, a), _parse_scalar(field, coeff, where)))
    return _summed(field, dim * dim, dim, values, where)


def _summed(field, rows, cols, values, where):
    """The rows x cols matrix with the sum of the parsed scalars of the
    ``((row, col), scalar)`` pairs ``values`` at each position."""
    limit = MAX_SCALED_BITS // max(len(values), 1)
    den = 1
    # each distinct denominator once: the lcm of a prefix divides the lcm
    # of all, so some prefix exceeds the bound exactly when the whole does
    for d in {d for _, (_, d) in values}:
        den = lcm(den, d)
        if den.bit_length() > limit:
            raise ProblemFileError(
                f"{where}: {len(values)} entries over a common denominator "
                f"of more than {limit} bits exceed the limit of "
                f"{MAX_SCALED_BITS} bits")
    entries = defaultdict(int)
    for key, (x, d) in values:
        entries[key] += x * (den // d)
    return Matrix.from_sparse(field, rows, cols, entries, den)


def _scalar_texts(ints, den):
    """str(Fraction(x, den)) of each x in ints, without the Fractions."""
    if den == 1:
        return list(map(str, ints))
    out = []
    for x in ints:
        g = gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return out


def _matrix_to_quadruples(m: Matrix, dim):
    """The quadruples of the nonzero entries, ordered by (a, b, c)."""
    ints, den = m.as_integer_ratio()
    quads = []
    for a in range(dim):
        column = ints[a::dim]
        rows = [r for r, x in enumerate(column) if x]
        quads += [[a, r // dim, r % dim, text] for r, text in
                  zip(rows, _scalar_texts([column[r] for r in rows], den))]
    return quads


def _rows_to_matrix(field, rows, shape, where):
    if not isinstance(rows, list) or len(rows) != shape[0] \
            or any(not isinstance(r, list) or len(r) != shape[1] for r in rows):
        raise ProblemFileError(
            f"{where}: expected a {shape[0]}x{shape[1]} row list")
    decoded = _decoded(field, [x for r in rows for x in r])
    if decoded:
        return Matrix.from_integer_ratio(field, *shape, *decoded)
    return _summed(field, *shape, [
        ((i, j), _parse_scalar(field, x, where))
        for i, r in enumerate(rows) for j, x in enumerate(r)], where)


def _matrix_to_rows(m: Matrix):
    texts = _scalar_texts(*m.as_integer_ratio())
    return [texts[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]


# ---------------------------------------------------------------------------
# parsing


def parse_problem(obj, field_override=None) -> ProblemFile:
    if not isinstance(obj, dict):
        raise ProblemFileError("top level must be a JSON object")
    _reject_duplicates(obj, "top level")
    known = {"field", "coalgebras", "morphisms", "cocycles", "deformations",
             "isomorphisms"}
    for key in obj:
        if key not in known:
            raise ProblemFileError(f"unknown top-level section {key!r}")
    field = field_override or _parse_field(obj.get("field", "rational"))
    _check_declared_size(obj)
    pf = ProblemFile(field=field)

    for name, spec in _section(obj, "coalgebras").items():
        where = f"coalgebras.{name}"
        dim = _bounded_int(spec, "dim", MAX_DIM, where)
        delta = _quadruples_to_matrix(field, spec.get("delta", []), dim, where)
        pf.coalgebras[name] = Coalgebra(name, dim, delta)

    for name, spec in _section(obj, "morphisms").items():
        where = f"morphisms.{name}"
        src = _resolve(pf.coalgebras, spec.get("source"), where + ".source")
        tgt = _resolve(pf.coalgebras, spec.get("target"), where + ".target")
        mat = _rows_to_matrix(field, spec.get("matrix"),
                              (tgt.dim, src.dim), where + ".matrix")
        pf.morphisms[name] = CoalgebraMorphism(src, tgt, mat)

    for name, spec in _section(obj, "cocycles").items():
        where = f"cocycles.{name}"
        f = _resolve(pf.morphisms, spec.get("morphism"), where + ".morphism")
        pf.cocycles[name] = _parse_coefficient(field, f, spec, 2, where)

    for section, cls in (("deformations", TruncatedDeformation),
                         ("isomorphisms", FormalIsomorphism)):
        for name, spec in _section(obj, section).items():
            where = f"{section}.{name}"
            f = _resolve(pf.morphisms, spec.get("morphism"),
                         where + ".morphism")
            order = _bounded_int(spec, "order", MAX_ORDER, where)
            comp = morphism_complex(f)
            higher = [None] * order
            for key, cspec in _section(spec, "coeffs", where).items():
                n = _coeff_order(key, order, where)
                higher[n - 1] = _parse_coefficient(
                    field, f, cspec, cls._degree, f"{where}.coeffs.{key}")
            getattr(pf, section)[name] = cls.from_higher_coefficients(
                f, [comp.zero(cls._degree) if c is None else c
                    for c in higher])

    return pf


def _check_declared_size(obj):
    """Reject a file whose declared sizes add up to over MAX_ENTRIES.

    Runs on the raw JSON, before anything is allocated.  A coalgebra of
    dimension d declares d^3 entries, a morphism between dimensions s
    and t declares t*s, a cocycle one degree-2 coefficient (s^3 + t^3 +
    t*s), a deformation of order N that many coefficients, and an
    isomorphism of order N that many pairs (s^2 + t^2).  A name that
    does not resolve counts nothing here; parsing reports it.
    """
    dims = {name: _bounded_int(spec, "dim", MAX_DIM, f"coalgebras.{name}")
            for name, spec in _section(obj, "coalgebras").items()}
    declared = [(f"coalgebras.{name}", d ** 3) for name, d in dims.items()]
    ends = {}
    for name, spec in _section(obj, "morphisms").items():
        s, t = (dims.get(x) if isinstance(x, str) else None
                for x in (spec.get("source"), spec.get("target")))
        if s is not None and t is not None:
            ends[name] = s, t
            declared.append((f"morphisms.{name}", t * s))
    for section in ("cocycles", "deformations", "isomorphisms"):
        for name, spec in _section(obj, section).items():
            where = f"{section}.{name}"
            count = 1 if section == "cocycles" else \
                _bounded_int(spec, "order", MAX_ORDER, where)
            f = spec.get("morphism")
            if isinstance(f, str) and f in ends:
                s, t = ends[f]
                size = s * s + t * t if section == "isomorphisms" else \
                    s ** 3 + t ** 3 + t * s
                declared.append((where, count * size))
    total = 0
    for where, size in declared:
        total += size
        if total > MAX_ENTRIES:
            raise ProblemFileError(
                f"{where}: the file declares more than {MAX_ENTRIES} matrix "
                f"entries in all")


def _parse_field(spec):
    if spec == "rational":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        _reject_duplicates(spec, "field")
        p = spec["prime"]
        if type(p) is not int:
            raise ProblemFileError("field.prime must be an int")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise ProblemFileError(str(exc)) from None
    raise ProblemFileError(
        f"field must be \"rational\" or {{\"prime\": p}}, got {spec!r}")


def parse_field_spec(text):
    """Parse a command-line field designation: 'rational' or 'prime:p'."""
    if text == "rational":
        return QQ
    if text.startswith("prime:"):
        try:
            return PrimeField(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ProblemFileError(f"bad field {text!r}: {exc}") from None
    raise ProblemFileError(
        f"bad field {text!r} (expected 'rational' or 'prime:<p>')")


def _section(obj, key, where=""):
    sec = obj.get(key, {})
    if not isinstance(sec, dict):
        raise ProblemFileError(f"{where or key}: must be an object")
    _reject_duplicates(sec, f"{where}.{key}" if where else key)
    for name, spec in sec.items():
        if not isinstance(spec, dict):
            raise ProblemFileError(f"{where or key}.{name}: must be an object")
        _reject_duplicates(spec, f"{where or key}.{name}")
    return sec


class _Object(dict):
    """A JSON object that remembers the keys the text gave more than once."""

    duplicates = ()


def _object(pairs):
    obj = _Object(pairs)
    if len(obj) != len(pairs):
        counts = Counter(k for k, _ in pairs)
        obj.duplicates = [k for k, n in counts.items() if n > 1]
    return obj


def _reject_duplicates(obj, where):
    # json.loads would keep the last of the repeated keys, silently
    duplicates = getattr(obj, "duplicates", ())
    if duplicates:
        raise ProblemFileError(f"{where}: duplicate key {duplicates[0]!r}")


def _resolve(table, name, where):
    if not isinstance(name, str):
        raise ProblemFileError(f"{where}: expected a name string")
    if name not in table:
        raise ProblemFileError(f"{where}: unknown name {name!r}")
    return table[name]


def _coeff_order(key, order, where):
    """The order that a coefficient key names: n is spelled str(n) only."""
    try:
        n = int(key)
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise ProblemFileError(
            f"{where}: coefficient key {key!r} is not an order written in "
            f"decimal digits without sign, spaces or leading zeros")
    if not 1 <= n <= order:
        raise ProblemFileError(
            f"{where}: coefficient order {n} outside 1..{order} "
            f"(order 0 is fixed by the morphism)")
    return n


def _parse_coefficient(field, f, spec, degree, where):
    """The cochain of a coefficient object: of degree 2, the quadruples A
    and B and the rows F (zero when absent); of degree 1, the rows A
    and B."""
    s, t = f.source.dim, f.target.dim
    if degree == 1:
        return morphism_complex(f).element(
            _rows_to_matrix(field, spec.get("A"), (s, s), where + ".A"),
            _rows_to_matrix(field, spec.get("B"), (t, t), where + ".B"),
            None, 1)
    a = _quadruples_to_matrix(field, spec.get("A", []), s, where + ".A")
    b = _quadruples_to_matrix(field, spec.get("B", []), t, where + ".B")
    fm = spec.get("F")
    fmat = Matrix.zeros(field, t, s) if fm is None else \
        _rows_to_matrix(field, fm, (t, s), where + ".F")
    return morphism_complex(f).element(a, b, fmat, degree)


def parse_problem_text(text, field_override=None) -> ProblemFile:
    try:
        obj = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an integer past Python's digit limit, or
        # nesting past the decoder's recursion limit
        raise ProblemFileError(f"invalid JSON: {exc}") from None
    return parse_problem(obj, field_override)


# A batch of commands reads a few files, most of them more than once (a
# command reads the file the one before wrote), so a few parses keep the
# hits while bounding what a long-lived process holds.
_PARSES_KEPT = 4


@lru_cache(maxsize=_PARSES_KEPT)
def _parsed(text, field_override) -> ProblemFile:
    """The parse of ``text`` under ``field_override``: the process-wide
    table, which keeps the :data:`_PARSES_KEPT` most recently used
    parses.  A parse that raises is not kept, so it raises again."""
    return parse_problem_text(text, field_override)


def load_problem(path, field_override=None) -> ProblemFile:
    """The problem file at ``path``, read on every call and parsed once
    per text (:func:`_parsed`).  The file and its five tables are the
    caller's own; the objects in the tables are shared with every load
    of an equal text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    pf = _parsed(text, field_override)
    return ProblemFile(pf.field, dict(pf.coalgebras), dict(pf.morphisms),
                       dict(pf.cocycles), dict(pf.deformations),
                       dict(pf.isomorphisms))


# ---------------------------------------------------------------------------
# serialization


def serialize_problem(pf: ProblemFile) -> str:
    """The canonical text of a problem file: its JSON object as
    :func:`_emit` writes it, and a newline."""
    obj = {"field": _field_spec(pf.field)}
    if pf.coalgebras:
        obj["coalgebras"] = {
            name: {"dim": c.dim,
                   "delta": _matrix_to_quadruples(c.delta, c.dim)}
            for name, c in pf.coalgebras.items()
        }
    if pf.morphisms:
        obj["morphisms"] = {
            name: {"source": _name_of(pf, f.source, name),
                   "target": _name_of(pf, f.target, name),
                   "matrix": _matrix_to_rows(f.matrix)}
            for name, f in pf.morphisms.items()
        }
    if pf.cocycles:
        obj["cocycles"] = {
            name: {"morphism": _morphism_name(pf, w.morphism, name),
                   **_coefficient_spec(w)}
            for name, w in pf.cocycles.items()
        }
    for section in ("deformations", "isomorphisms"):
        if getattr(pf, section):
            obj[section] = {
                name: {"morphism": _morphism_name(pf, x.morphism, name),
                       "order": x.order,
                       "coeffs": {str(n): _coefficient_spec(c)
                                  for n, c in enumerate(x.coeffs)
                                  if n and not c.is_zero()}}
                for name, x in getattr(pf, section).items()
            }
    return _emit(obj) + "\n"


def _emit(obj, indent=""):
    """The JSON text of a tree of dicts with string keys, lists, strings
    and ints at the nesting given by ``indent``: byte for byte what the
    json module writes with ``indent=2`` and ``sort_keys=True``.  Given
    an indent, the json module encodes one scalar per Python call; here
    each list of scalars is encoded and joined in one step."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return str(obj)
    if not obj:
        return "{}" if type(obj) is dict else "[]"
    inner = indent + "  "
    if type(obj) is dict:
        items = [encode_basestring_ascii(k) + ": " + _emit(obj[k], inner)
                 for k in sorted(obj)]
    elif set(map(type, obj)) <= {str, int}:
        items = [encode_basestring_ascii(x) if type(x) is str else str(x)
                 for x in obj]
    else:
        items = [_emit(x, inner) for x in obj]
    brackets = "{}" if type(obj) is dict else "[]"
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + indent + brackets[1])


def write_problem(pf: ProblemFile, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_problem(pf))


def _field_spec(field):
    if field.kind == "rational":
        return "rational"
    return {"prime": field.p}


def _coefficient_spec(w: MorphismCochain):
    """The coefficient object of a cochain, as :func:`_parse_coefficient`
    reads it."""
    if w.degree == 1:
        return {"A": _matrix_to_rows(w.a_part.matrix),
                "B": _matrix_to_rows(w.b_part.matrix)}
    f = w.morphism
    return {
        "A": _matrix_to_quadruples(w.a_part.matrix, f.source.dim),
        "B": _matrix_to_quadruples(w.b_part.matrix, f.target.dim),
        "F": _matrix_to_rows(w.ab_part.matrix),
    }


def _named(table, x, missing):
    """The name of x in ``table``: of x itself when the table holds it,
    else of the first object equal to it.  Parsing sorts the tables, so
    naming by value alone could rename an object in a round trip."""
    names = [name for name, y in table.items() if y is x] or \
        [name for name, y in table.items() if y == x]
    if not names:
        raise ProblemFileError(f"cannot serialize {missing}")
    return names[0]


def _name_of(pf, coalg, context):
    return _named(pf.coalgebras, coalg, f"{context!r}: its coalgebra "
                  f"{coalg.name!r} is not in the file")


def _morphism_name(pf, f, context):
    return _named(pf.morphisms, f,
                  f"{context!r}: its morphism is not in the file")


# ---------------------------------------------------------------------------
# built-in corpus


def builtin_corpus(field=QQ) -> dict:
    """The fixture problem files emitted by the command-line front end.

    ``fixtures`` holds valid structures (including the divided-power
    deformation and its infinitesimal), ``invalid`` a non-coassociative
    coalgebra, and ``obstructed`` a cocycle over the two-dimensional
    zero-comultiplication coalgebra whose integration blocks at order 2
    (its obstruction has a nonzero degree-3 class because the complex
    has zero differentials in the relevant spots).
    """
    g1 = grouplike(1, field)
    g2 = grouplike(2, field)
    g3 = grouplike(3, field)
    dp2 = divided_power(2, field)
    dp3 = divided_power(3, field)
    s12 = direct_sum(g1, dp2, name="sum_g1_dp2")
    nil = Coalgebra("nil", 0, Matrix.zeros(field, 0, 0))

    fixtures = ProblemFile(field=field)
    for c in (g1, g2, g3, dp2, dp3, s12, nil):
        fixtures.coalgebras[c.name] = c

    def ident(c):
        return CoalgebraMorphism(c, c, Matrix.identity(field, c.dim))

    fixtures.morphisms["id_grouplike1"] = ident(g1)
    fixtures.morphisms["id_grouplike2"] = ident(g2)
    fixtures.morphisms["id_divided_power2"] = ident(dp2)
    fixtures.morphisms["collapse2"] = CoalgebraMorphism(
        g2, g1, Matrix.from_rows(field, [[1, 1]]))
    incl = Matrix.from_sparse(field, 3, 1, {(0, 0): 1})
    fixtures.morphisms["include_g1"] = CoalgebraMorphism(g1, s12, incl)

    fid = fixtures.morphisms["id_divided_power2"]
    comp = morphism_complex(fid)
    bump = Matrix.from_sparse(field, 4, 2, {(3, 1): 1})  # e1 -> e1 (x) e1
    w = comp.element(bump, bump, Matrix.zeros(field, 2, 2), 2)
    fixtures.cocycles["dp2_infinitesimal"] = w
    fixtures.cocycles["zero_g1"] = morphism_complex(
        fixtures.morphisms["id_grouplike1"]).zero(2)
    d = TruncatedDeformation.from_higher_coefficients(fid, [w], 2)
    fixtures.deformations["dp2_deformation"] = d
    fixtures.deformations["trivial_g1"] = TruncatedDeformation.trivial(
        fixtures.morphisms["id_grouplike1"], 3)

    iso_comp = morphism_complex(fixtures.morphisms["id_grouplike1"])
    two = Matrix.from_rows(field, [[2]])
    fixtures.isomorphisms["g1_iso"] = FormalIsomorphism.from_higher_coefficients(
        fixtures.morphisms["id_grouplike1"],
        [iso_comp.element(two, two, None, 1)], 2)

    invalid = ProblemFile(field=field)
    # e0 -> e0 (x) e1: not coassociative
    broken_delta = Matrix.from_sparse(field, 4, 2, {(1, 0): 1})
    invalid.coalgebras["broken"] = Coalgebra("broken", 2, broken_delta)

    obstructed = ProblemFile(field=field)
    z2 = zero_comultiplication(2, field)
    obstructed.coalgebras[z2.name] = z2
    fz = CoalgebraMorphism(z2, z2, Matrix.identity(field, 2))
    obstructed.morphisms["id_zero2"] = fz
    zcomp = morphism_complex(fz)
    # e0 -> e0 (x) e1: not coassociative, yet a cocycle here
    knot = Matrix.from_sparse(field, 4, 2, {(1, 0): 1})
    wz = zcomp.element(knot, knot, Matrix.zeros(field, 2, 2), 2)
    obstructed.cocycles["stuck_cocycle"] = wz
    obstructed.deformations["stuck_deformation"] = \
        TruncatedDeformation.from_higher_coefficients(fz, [wz], 1)

    return {"fixtures": fixtures, "invalid": invalid, "obstructed": obstructed}
