"""Fuzzing of the problem-file parser and the command-line front end.

Malformed, huge and deeply nested input must end in a parsed file or a
ProblemFileError, and every command in exit code 0, 1 or 2 without a
traceback.
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coaldef.cli import main
from coaldef.problemfile import ProblemFile, ProblemFileError, \
    parse_problem_text

from helpers import (DEEP_NESTING, EXPONENT_SCALAR, HUGE_INTEGER,
                     MANY_COALGEBRAS)

VALID = {
    "field": "rational",
    "coalgebras": {"g": {"dim": 2, "delta": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}},
    "morphisms": {"f": {"source": "g", "target": "g",
                        "matrix": [["1", "0"], ["0", "1"]]}},
    "cocycles": {"w": {"morphism": "f", "A": [[1, 0, 1, "1/2"]], "B": [],
                       "F": [["0", "0"], ["0", "0"]]}},
    "deformations": {"d": {"morphism": "f", "order": 2, "coeffs": {}}},
    "isomorphisms": {"p": {"morphism": "f", "order": 1,
                           "coeffs": {"1": {"A": [["2", "0"], ["0", "0"]],
                                            "B": [["0", "0"], ["0", "0"]]}}}},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(-1, 20) | st.text(max_size=8)
    | st.sampled_from(["1e30000000", "3/0", "-2/7", "g", "f", "1.5"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


PATHS = list(_paths(VALID))[1:]


# replacements that often keep a file valid, so that the commands run
near_values = st.integers(0, 3) | st.sampled_from(
    ["0", "1", "-1", "2/3", "g", "f", 4, 16, 17, 64])


@st.composite
def mutated_files(draw):
    """The valid file with up to three of its values replaced."""
    obj = json.loads(json.dumps(VALID))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(PATHS))
        node = obj
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = draw(near_values | json_values)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier replacement removed this path
    return json.dumps(obj)


def nested(depth):
    return "[" * depth + "]" * depth


problem_texts = st.one_of(
    mutated_files(),
    json_values.map(json.dumps),
    st.text(max_size=40),
    st.integers(1, 10 ** 5).map(nested),
    st.integers(4290, 4400).map(lambda n: "[" + "9" * n + "]"),
)

HOSTILE = [DEEP_NESTING, HUGE_INTEGER, EXPONENT_SCALAR, MANY_COALGEBRAS]


def _with_examples(*extra):
    def decorate(test):
        for text in HOSTILE:
            test = example(text, *extra)(test)
        return test
    return decorate


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@_with_examples()
@given(problem_texts)
def test_parser_returns_a_file_or_a_problem_file_error(text):
    try:
        assert isinstance(parse_problem_text(text), ProblemFile)
    except ProblemFileError:
        pass


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@_with_examples(("check", "c"))
@given(problem_texts, st.sampled_from([
    ("check", "g"), ("check", "f"), ("check", "w"), ("check", "d"),
    ("check", "p"), ("cohomology", "morphism", "f", "2"),
    ("obstruct", "d"), ("trivialize", "d", "-o", "OUT"),
    ("integrate", "w", "2", "-o", "OUT")]))
def test_cli_exits_with_a_documented_code(tmp_path, text, command):
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    args = [str(tmp_path / "out.json") if a == "OUT" else a
            for a in command]
    result = CliRunner().invoke(main, [args[0], str(path)] + args[1:])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
