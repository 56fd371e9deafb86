import json
from fractions import Fraction

import pytest

from coaldef.coalgebra import divided_power, identity_morphism
from coaldef.deformation import FormalIsomorphism
from coaldef.exactlinalg import QQ, Matrix, PrimeField
from coaldef.problemfile import (
    MAX_DIM,
    MAX_ENTRIES,
    MAX_ORDER,
    ProblemFile,
    ProblemFileError,
    _PARSES_KEPT,
    _parsed,
    builtin_corpus,
    load_problem,
    parse_field_spec,
    parse_problem_text,
    serialize_problem,
)

from helpers import (ALIASED_DEFORMATION, ALIASED_ISOMORPHISM, DEEP_NESTING,
                     EXPONENT_SCALAR, HUGE_INTEGER, MANY_COALGEBRAS)


MINIMAL = {
    "field": "rational",
    "coalgebras": {"g": {"dim": 1, "delta": [[0, 0, 0, "1"]]}},
    "morphisms": {"f": {"source": "g", "target": "g", "matrix": [["1"]]}},
    "cocycles": {"w": {"morphism": "f", "A": [], "B": [], "F": [["0"]]}},
    "deformations": {"d": {"morphism": "f", "order": 2, "coeffs": {}}},
    "isomorphisms": {"p": {"morphism": "f", "order": 1,
                           "coeffs": {"1": {"A": [["2"]], "B": [["2"]]}}}},
}


def test_minimal_file_parses():
    pf = parse_problem_text(json.dumps(MINIMAL))
    assert pf.coalgebras["g"].dim == 1
    assert pf.morphisms["f"].matrix[0, 0] == 1
    assert pf.deformations["d"].order == 2
    assert pf.isomorphisms["p"].coefficient(1).a_part.matrix[0, 0] == 2


def test_corpus_round_trips():
    for name, pf in builtin_corpus().items():
        text = serialize_problem(pf)
        again = parse_problem_text(text)
        assert again == pf, name
        assert serialize_problem(again) == text, name


def test_prime_field_file():
    obj = dict(MINIMAL, field={"prime": 5})
    pf = parse_problem_text(json.dumps(obj))
    assert pf.field == PrimeField(5)
    assert pf.morphisms["f"].matrix[0, 0] == 1


def test_field_override():
    pf = parse_problem_text(json.dumps(MINIMAL), parse_field_spec("prime:7"))
    assert pf.field == PrimeField(7)


def test_parse_field_spec():
    assert parse_field_spec("rational") == QQ
    assert parse_field_spec("prime:13") == PrimeField(13)
    with pytest.raises(ProblemFileError):
        parse_field_spec("prime:6")
    with pytest.raises(ProblemFileError):
        parse_field_spec("real")


@pytest.mark.parametrize("mutate,fragment", [
    (lambda o: o.__setitem__("bogus", {}), "unknown top-level"),
    (lambda o: o["coalgebras"]["g"].__setitem__("dim", -1), "dim"),
    (lambda o: o["coalgebras"]["g"].__setitem__("delta", [[0, 0, 5, "1"]]),
     "out of range"),
    (lambda o: o["coalgebras"]["g"].__setitem__("delta", [[0, 0, 0, "1/0"]]),
     "bad scalar"),
    (lambda o: o["morphisms"]["f"].__setitem__("source", "nope"),
     "unknown name"),
    (lambda o: o["morphisms"]["f"].__setitem__("matrix", [["1", "2"]]),
     "row list"),
    (lambda o: o["deformations"]["d"]["coeffs"].__setitem__(
        "0", {"A": [], "B": [], "F": [["0"]]}), "order 0"),
    (lambda o: o["deformations"]["d"]["coeffs"].__setitem__(
        "9", {"A": [], "B": [], "F": [["0"]]}), "outside"),
    (lambda o: o["coalgebras"]["g"].__setitem__("dim", True),
     "coalgebras.g: dim must be an int"),
    (lambda o: o["coalgebras"]["g"].__setitem__("dim", "1"),
     "coalgebras.g: dim must be an int"),
    (lambda o: o["coalgebras"]["g"].__setitem__("dim", MAX_DIM + 1),
     f"coalgebras.g: dim must be an int in 0..{MAX_DIM}"),
    (lambda o: o["deformations"]["d"].__setitem__("order", True),
     "deformations.d: order must be an int"),
    (lambda o: o["deformations"]["d"].__setitem__("order", MAX_ORDER + 1),
     f"deformations.d: order must be an int in 0..{MAX_ORDER}"),
    (lambda o: o["isomorphisms"]["p"].__setitem__("order", False),
     "isomorphisms.p: order must be an int"),
    (lambda o: o.__setitem__("field", {"prime": True}), "field.prime"),
    (lambda o: o["coalgebras"]["g"].__setitem__("delta", [[0, 0, 0, True]]),
     "scalar must be an int or string"),
])
def test_parse_errors(mutate, fragment):
    obj = json.loads(json.dumps(MINIMAL))
    mutate(obj)
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(json.dumps(obj))
    assert fragment in str(err.value)


def test_invalid_json():
    with pytest.raises(ProblemFileError):
        parse_problem_text("{not json")


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ProblemFileError, match="invalid JSON"):
        parse_problem_text(DEEP_NESTING)


def test_integer_past_digit_limit_is_a_parse_error():
    with pytest.raises(ProblemFileError, match="invalid JSON"):
        parse_problem_text(HUGE_INTEGER)


@pytest.mark.parametrize("scalar", [
    "1e30000000", "1.5", "1_000", " 1", "1/-2", "--1", "1/2/3", "", "٣"])
def test_scalar_outside_grammar_is_rejected(scalar):
    obj = json.loads(EXPONENT_SCALAR)
    obj["coalgebras"]["c"]["delta"][0][3] = scalar
    with pytest.raises(ProblemFileError, match="coalgebras.c: bad scalar"):
        parse_problem_text(json.dumps(obj))


@pytest.mark.parametrize("scalar,value", [
    ("3", 3), ("-3", -3), ("+3", 3), ("-2/7", Fraction(-2, 7)), ("0", 0),
    (5, 5)])
def test_scalar_grammar_accepts_fraction_strings(scalar, value):
    obj = {"coalgebras": {"c": {"dim": 1, "delta": [[0, 0, 0, scalar]]}}}
    assert parse_problem_text(json.dumps(obj)).coalgebras["c"].delta[0, 0] \
        == value


def _one_scalar(field, scalar):
    return json.dumps({"field": field, "coalgebras": {
        "c": {"dim": 1, "delta": [[0, 0, 0, scalar]]}}})


@pytest.mark.parametrize("field,scalar,message", [
    ("rational", True, "scalar must be an int or string, got True"),
    ({"prime": 7}, False, "scalar must be an int or string, got False"),
    ("rational", 1.5, "scalar must be an int or string, got 1.5"),
    ("rational", "1e3", "bad scalar '1e3' (expected digits with an "
                        "optional sign and /denominator)"),
    ("rational", "-3/0", "bad scalar '-3/0' (Fraction(-3, 0))"),
    ({"prime": 7}, "3/0", "bad scalar '3/0' (Fraction(3, 0))"),
    # the denominator that must not vanish is the reduced one
    ({"prime": 7}, "2/14", "bad scalar '2/14' (denominator of 1/7 "
                           "vanishes modulo 7)")])
def test_scalar_messages(field, scalar, message):
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(_one_scalar(field, scalar))
    assert str(err.value) == "coalgebras.c: " + message


@pytest.mark.parametrize("field,scalar,ratio", [
    ("rational", "-4/6", ([-2], 3)), ("rational", "-0/5", ([0], 1)),
    ({"prime": 7}, "7/7", ([1], 1)), ({"prime": 7}, "-14/7", ([5], 1)),
    ({"prime": 7}, 9, ([2], 1))])
def test_scalars_parse_to_reduced_ratios(field, scalar, ratio):
    pf = parse_problem_text(_one_scalar(field, scalar))
    assert pf.coalgebras["c"].delta.as_integer_ratio() == ratio


def test_scaled_bits_count_reduced_denominators():
    # k / (k q) is 1/q: 30,000 entries over q = 2^127 - 1 stay within
    # the 139 bits each that MAX_SCALED_BITS leaves them, which the
    # unreduced denominators, of up to 142 bits, would not
    q = 2 ** 127 - 1
    obj = {"coalgebras": {"c": {"dim": 1, "delta": [
        [0, 0, 0, f"{k}/{k * q}"] for k in range(1, 30001)]}}}
    delta = parse_problem_text(json.dumps(obj)).coalgebras["c"].delta
    assert delta.as_integer_ratio() == ([30000], q)


def test_total_declared_size_is_bounded():
    # 1000 coalgebras of dimension 16 declare 4096 entries each
    over = MAX_ENTRIES // 16 ** 3
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(MANY_COALGEBRAS)
    assert str(err.value).startswith(f"coalgebras.c{over}: the file declares")


def test_declared_size_counts_coefficients():
    # one small coalgebra, but an order-64 deformation over it repeated
    obj = json.loads(json.dumps(MINIMAL))
    obj["coalgebras"]["g"]["dim"] = 4
    obj["coalgebras"]["g"]["delta"] = []
    obj["morphisms"]["f"]["matrix"] = [["0"] * 4 for _ in range(4)]
    obj["cocycles"] = {}
    obj["isomorphisms"] = {}
    per_deformation = MAX_ORDER * (4 ** 3 * 2 + 4 * 4)
    copies = MAX_ENTRIES // per_deformation + 1
    obj["deformations"] = {f"d{i}": {"morphism": "f", "order": MAX_ORDER}
                           for i in range(copies)}
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(json.dumps(obj))
    assert str(err.value).startswith(f"deformations.d{copies - 1}: ")


def test_zero_dimensional_coalgebra():
    obj = {"coalgebras": {"nil": {"dim": 0, "delta": []}}}
    pf = parse_problem_text(json.dumps(obj))
    assert pf.coalgebras["nil"].dim == 0
    assert parse_problem_text(serialize_problem(pf)) == pf


def test_quadruples_accumulate():
    obj = {"coalgebras": {"g": {"dim": 1,
                                "delta": [[0, 0, 0, "1/2"], [0, 0, 0, "1/2"]]}}}
    pf = parse_problem_text(json.dumps(obj))
    assert pf.coalgebras["g"].delta[0, 0] == 1


def test_serialize_requires_referenced_objects():
    pf = builtin_corpus()["fixtures"]
    orphan = pf.morphisms["id_grouplike1"]
    lone = ProblemFile(field=QQ, morphisms={"f": orphan})
    with pytest.raises(ProblemFileError):
        serialize_problem(lone)


def test_equal_objects_keep_their_names_through_round_trips():
    # two equal copies of dp2, "y" inserted first, and two equal
    # identities, "z" inserted first; the isomorphism is over "a", whose
    # coalgebra is "x".  Naming by value would write "y" and "z" here
    # and, once parsing has sorted the tables, "x" and "a"
    dp2 = divided_power(2)
    pf = ProblemFile(field=QQ, coalgebras={"y": divided_power(2), "x": dp2})
    pf.morphisms["z"] = identity_morphism(pf.coalgebras["y"])
    pf.morphisms["a"] = identity_morphism(dp2)
    pf.isomorphisms["p"] = FormalIsomorphism.identity(pf.morphisms["a"], 1)
    text = serialize_problem(pf)
    obj = json.loads(text)
    assert obj["isomorphisms"]["p"]["morphism"] == "a"
    assert obj["morphisms"]["a"]["source"] == "x"
    assert serialize_problem(parse_problem_text(text)) == text


def test_deformation_file_with_broken_morphism_still_parses():
    # parsing must not insist on validity: `check` locates failures later
    obj = {
        "coalgebras": {"g2": {"dim": 2, "delta": [[0, 0, 0, "1"], [1, 1, 1, "1"]]},
                       "g1": {"dim": 1, "delta": [[0, 0, 0, "1"]]}},
        "morphisms": {"bad": {"source": "g2", "target": "g1",
                              "matrix": [["1", "2"]]}},
        "deformations": {"d": {"morphism": "bad", "order": 1, "coeffs": {}}},
    }
    pf = parse_problem_text(json.dumps(obj))
    from coaldef.deformation import verify_deformation
    rep = verify_deformation(pf.deformations["d"])
    assert not rep.ok
    assert rep.order == 0 and rep.equation == "morphism"


def test_size_bounds_admit_benchmark_inputs():
    # a dp4 coalgebra with a cocycle and order-12 deformations, larger than
    # the dp3 files the benchmark writes
    obj = {
        "coalgebras": {"dp4": {"dim": 4, "delta": [
            [k, i, k - i, "1"] for k in range(4) for i in range(k + 1)]}},
        "morphisms": {"id": {"source": "dp4", "target": "dp4",
                             "matrix": [[str(int(i == j)) for j in range(4)]
                                        for i in range(4)]}},
        "cocycles": {"w": {"morphism": "id"}},
        "deformations": {"g": {"morphism": "id", "order": 12, "coeffs": {}}},
        "isomorphisms": {"p": {"morphism": "id", "order": 12, "coeffs": {}}},
    }
    pf = parse_problem_text(json.dumps(obj))
    assert pf.coalgebras["dp4"].dim == 4 <= MAX_DIM
    assert pf.deformations["g"].order == 12 <= MAX_ORDER
    for field in (QQ, PrimeField(5)):
        for corpus in builtin_corpus(field).values():
            assert all(c.dim <= MAX_DIM for c in corpus.coalgebras.values())
            assert all(d.order <= MAX_ORDER
                       for d in corpus.deformations.values())
            assert parse_problem_text(serialize_problem(corpus)) == corpus
    # one deformation of the largest order over the largest coalgebra fits
    one_of_each = (MAX_DIM ** 3 + MAX_DIM ** 2
                   + MAX_ORDER * (2 * MAX_DIM ** 3 + MAX_DIM ** 2))
    assert one_of_each <= MAX_ENTRIES


@pytest.mark.parametrize("text,where", [
    (ALIASED_ISOMORPHISM, "isomorphisms.p"),
    (ALIASED_DEFORMATION, "deformations.d"),
])
def test_aliased_coefficient_keys_are_rejected(text, where):
    with pytest.raises(ProblemFileError,
                       match=f"{where}: coefficient key '01' is not an order"):
        parse_problem_text(text)
    # with the alias gone the file parses, and order 1 is the "1" entry
    obj = json.loads(text)
    section = where.split(".")[0]
    del obj[section][where.split(".")[1]]["coeffs"]["01"]
    pf = parse_problem_text(json.dumps(obj))
    if section == "isomorphisms":
        assert pf.isomorphisms["p"].coefficient(1).a_part.matrix[0, 0] == 2
    else:
        assert pf.deformations["d"].coefficient(1).ab_part.matrix[0, 0] == 2


@pytest.mark.parametrize("section", ["deformations", "isomorphisms"])
@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "1.0", "1_0", "١",
                                 "x", ""])
def test_coefficient_key_must_be_canonical(section, key):
    name = "d" if section == "deformations" else "p"
    obj = json.loads(json.dumps(MINIMAL))
    obj[section][name]["coeffs"] = {key: {"A": [["2"]], "B": [["2"]]}
                                    if section == "isomorphisms" else {}}
    with pytest.raises(ProblemFileError,
                       match=f"{section}.{name}: coefficient key .* is not "
                             f"an order"):
        parse_problem_text(json.dumps(obj))


@pytest.mark.parametrize("text,fragment", [
    # the same order twice: json.loads alone would keep the second
    ('{"coalgebras": {"g": {"dim": 1, "delta": []}},'
     ' "morphisms": {"f": {"source": "g", "target": "g", "matrix": [["1"]]}},'
     ' "isomorphisms": {"p": {"morphism": "f", "order": 1, "coeffs":'
     ' {"1": {"A": [["2"]], "B": [["2"]]}, "1": {"A": [["5"]], "B": [["5"]]}}'
     '}}}', "isomorphisms.p.coeffs: duplicate key '1'"),
    ('{"coalgebras": {"g": {"dim": 1, "delta": []},'
     ' "g": {"dim": 2, "delta": []}}}', "coalgebras: duplicate key 'g'"),
    ('{"coalgebras": {"g": {"dim": 1, "dim": 2, "delta": []}}}',
     "coalgebras.g: duplicate key 'dim'"),
    ('{"coalgebras": {}, "coalgebras": {}}',
     "top level: duplicate key 'coalgebras'"),
    ('{"field": {"prime": 5, "prime": 7}}', "field: duplicate key 'prime'"),
])
def test_duplicate_keys_are_rejected(text, fragment):
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_repeated_quadruples_add_exactly(field):
    # "1/3" + "-5/6" + "7/2" = 3 over QQ; over GF(5) the same sum mod 5
    quads = [[0, 0, 0, "1/3"], [0, 0, 0, "-5/6"], [0, 0, 0, "7/2"],
             [1, 0, 1, 4], [1, 0, 1, "-4"]]
    obj = {"field": "rational" if field == QQ else {"prime": 5},
           "coalgebras": {"c": {"dim": 2, "delta": quads}}}
    delta = parse_problem_text(json.dumps(obj)).coalgebras["c"].delta
    # equal as stored: normalized pairs, the cancelled entry as 0/1
    assert delta == Matrix.from_rows(field, [[3, 0], [0, 0], [0, 0], [0, 0]])


class TestParseTable:
    """load_problem reads every time and parses each text once."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The texts parsed by the table from now on."""
        import coaldef.problemfile as pfmod
        texts, parse = [], pfmod.parse_problem_text

        def counting_parse(text, field_override=None):
            texts.append(text)
            return parse(text, field_override)

        monkeypatch.setattr(pfmod, "parse_problem_text", counting_parse)
        return texts

    def test_equal_bytes_at_two_paths_parse_once(self, tmp_path, parses):
        text = json.dumps(MINIMAL)
        (tmp_path / "a.json").write_text(text)
        (tmp_path / "b.json").write_text(text)
        first = load_problem(tmp_path / "a.json")
        second = load_problem(tmp_path / "b.json")
        assert parses == [text]
        assert second is not first
        for section in ("coalgebras", "morphisms", "cocycles",
                        "deformations", "isomorphisms"):
            table, other = getattr(first, section), getattr(second, section)
            assert other is not table and other.keys() == table.keys()
            assert all(other[name] is table[name] for name in table)
        assert second.field is first.field

    def test_field_override_gets_its_own_parse(self, tmp_path, parses):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(MINIMAL))
        rational = load_problem(path)
        mod5 = load_problem(path, PrimeField(5))
        assert len(parses) == 2
        assert rational.field == QQ and mod5.field == PrimeField(5)
        assert mod5.morphisms["f"] is not rational.morphisms["f"]
        # an equal field, built anew, finds the kept parse
        again = load_problem(path, PrimeField(5))
        assert len(parses) == 2
        assert again.morphisms["f"] is mod5.morphisms["f"]

    def test_rewritten_file_parses_again(self, tmp_path, parses):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(MINIMAL))
        before = load_problem(path)
        changed = json.loads(json.dumps(MINIMAL))
        changed["deformations"]["d"]["order"] = 3
        path.write_text(json.dumps(changed))
        after = load_problem(path)
        assert len(parses) == 2
        assert before.deformations["d"].order == 2
        assert after.deformations["d"].order == 3

    def test_changed_tables_do_not_reach_the_next_load(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(MINIMAL))
        pf = load_problem(path)
        kept = dict(pf.cocycles)
        del pf.morphisms["f"]
        pf.cocycles["extra"] = pf.cocycles.pop("w")
        pf.field = PrimeField(7)
        again = load_problem(path)
        assert again.field == QQ and set(again.morphisms) == {"f"}
        assert again.cocycles == kept

    def test_parse_error_repeats(self, tmp_path, parses):
        path = tmp_path / "bad.json"
        bad = json.loads(json.dumps(MINIMAL))
        bad["morphisms"]["f"]["source"] = "missing"
        path.write_text(json.dumps(bad))
        messages = []
        for _ in range(2):
            with pytest.raises(ProblemFileError) as err:
                load_problem(path)
            messages.append(str(err.value))
        assert len(parses) == 2
        assert messages[0] == messages[1]
        assert "unknown name 'missing'" in messages[0]
        assert _parsed.cache_info().currsize == 0

    def test_read_error_is_a_problem_file_error(self, tmp_path):
        with pytest.raises(ProblemFileError, match="cannot read"):
            load_problem(tmp_path / "absent.json")

    def test_least_recently_used_parse_is_evicted_at_the_bound(
            self, tmp_path, parses):
        paths = []
        for k in range(_PARSES_KEPT + 1):
            text = json.loads(json.dumps(MINIMAL))
            text["deformations"]["d"]["order"] = k
            paths.append(tmp_path / f"p{k}.json")
            paths[-1].write_text(json.dumps(text))
        firsts = [load_problem(p) for p in paths[:_PARSES_KEPT]]
        assert _parsed.cache_info().currsize == _PARSES_KEPT
        # reading the first parse makes the second the least recent
        load_problem(paths[0])
        load_problem(paths[_PARSES_KEPT])
        assert len(parses) == _PARSES_KEPT + 1
        assert _parsed.cache_info().currsize == _PARSES_KEPT
        assert load_problem(paths[0]).deformations["d"] is \
            firsts[0].deformations["d"]
        assert len(parses) == _PARSES_KEPT + 1
        fresh = load_problem(paths[1]).deformations["d"]
        assert fresh is not firsts[1].deformations["d"]
        assert fresh.order == 1
        assert len(parses) == _PARSES_KEPT + 2
