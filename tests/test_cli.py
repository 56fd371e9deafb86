import hashlib
import json
import re
import time

import pytest
from click.testing import CliRunner

from coaldef.cli import (MAX_COCHAIN_DIM, MAX_DEGREE, MAX_DIFFERENTIAL_BITS,
                         MAX_DIFFERENTIAL_TERMS, main)
from coaldef.coalgebra import change_basis, divided_power, identity_morphism
from coaldef.cohomology import MorphismComplex, _ComplexBase
from coaldef.problemfile import (MAX_DIM, MAX_ORDER, ProblemFile,
                                 _parsed, write_problem)

from helpers import (ALIASED_ISOMORPHISM, DEEP_NESTING,
                     DISTINCT_DENOMINATORS, EXPONENT_SCALAR, HUGE_INTEGER,
                     MANY_COALGEBRAS, fresh_rng, invertible_matrix,
                     tall_grouplike5)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    runner = CliRunner()
    result = runner.invoke(main, ["--fixtures", str(path)])
    assert result.exit_code == 0, result.output
    return path


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def stable_lines(output):
    """Report lines without the timing line (excluded from determinism)."""
    return [l for l in output.splitlines() if not l.startswith("time:")]


def json_lines(output):
    return [l for l in output.splitlines() if l.startswith("json: ")]


# dp2 with f = 2 id, which breaks morphism compatibility at entry (0, 0)
DOUBLED_DP2 = {
    "coalgebras": {"dp2": {"dim": 2, "delta": [[0, 0, 0, "1"], [1, 0, 1, "1"],
                                               [1, 1, 0, "1"]]}},
    "morphisms": {"double": {"source": "dp2", "target": "dp2",
                             "matrix": [["2", "0"], ["0", "2"]]}},
    "cocycles": {"w": {"morphism": "double", "A": [], "B": [],
                       "F": [["0", "0"], ["0", "0"]]}},
    "isomorphisms": {"p": {"morphism": "double", "order": 1, "coeffs": {}}},
    "deformations": {"d": {"morphism": "double", "order": 1, "coeffs": {}}},
}


# dp2 with its identity and the cocycle bump(e1) = e1 (x) e1 on both sides
DP2_BUMP = {
    "coalgebras": DOUBLED_DP2["coalgebras"],
    "morphisms": {"id": {"source": "dp2", "target": "dp2",
                         "matrix": [["1", "0"], ["0", "1"]]}},
    "cocycles": {"w": {"morphism": "id", "A": [[1, 1, 1, "1"]],
                       "B": [[1, 1, 1, "1"]], "F": [["0", "0"], ["0", "0"]]}},
}


def machine_section(output):
    for line in output.splitlines():
        if line.startswith("json: "):
            return json.loads(line[len("json: "):])
    raise AssertionError(f"no machine-readable line in: {output}")


class TestFixturesFlag:
    def test_writes_three_files(self, corpus_dir):
        names = sorted(p.name for p in corpus_dir.iterdir())
        assert names == ["fixtures.json", "invalid.json", "obstructed.json"]


class TestCheck:
    def test_ok(self, corpus_dir):
        r = run("check", corpus_dir / "fixtures.json", "grouplike2")
        assert r.exit_code == 0
        assert machine_section(r.output)["status"] == "ok"

    def test_deformation_ok(self, corpus_dir):
        r = run("check", corpus_dir / "fixtures.json", "dp2_deformation")
        assert r.exit_code == 0

    def test_cocycle_ok(self, corpus_dir):
        r = run("check", corpus_dir / "fixtures.json", "dp2_infinitesimal")
        assert r.exit_code == 0

    def test_isomorphism_ok(self, corpus_dir):
        r = run("check", corpus_dir / "fixtures.json", "g1_iso")
        assert r.exit_code == 0

    def test_deformation_assembles_no_operator(self, corpus_dir,
                                               monkeypatch):
        # verification multiplies series and never eliminates, so the
        # budget of check counts terms and dimensions only
        assembled = []
        monkeypatch.setattr(_ComplexBase, "operator",
                            lambda self, n: assembled.append(n))
        r = run("check", corpus_dir / "fixtures.json", "dp2_deformation")
        assert r.exit_code == 0, r.output
        assert assembled == []

    def test_invalid_located(self, corpus_dir):
        r = run("check", corpus_dir / "invalid.json", "broken")
        assert r.exit_code == 1
        payload = machine_section(r.output)["payload"]
        assert payload["position"] is not None

    def test_isomorphism_over_non_morphism_still_loads(self, tmp_path):
        bad = {
            "coalgebras": {"g2": {"dim": 2, "delta": [[0, 0, 0, "1"],
                                                      [1, 1, 1, "1"]]},
                           "g1": {"dim": 1, "delta": [[0, 0, 0, "1"]]}},
            "morphisms": {"bad": {"source": "g2", "target": "g1",
                                  "matrix": [["1", "2"]]}},
            "isomorphisms": {"p": {"morphism": "bad", "order": 1,
                                   "coeffs": {}}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        r = run("check", path, "bad")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        machine = machine_section(r.output)
        assert machine["status"] == "fail"
        assert machine["payload"]["position"] == [0, 1]

    def test_isomorphism_over_non_morphism_fails(self, tmp_path):
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(DOUBLED_DP2))
        r = run("check", path, "p")
        assert r.exit_code == 1
        machine = machine_section(r.output)
        assert machine["status"] == "fail"
        assert machine["payload"]["kind"] == "isomorphisms"
        assert machine["payload"]["position"] == [0, 0]
        assert "morphism compatibility" in machine["payload"]["detail"]

    def test_unknown_name_is_usage_error(self, corpus_dir):
        r = run("check", corpus_dir / "fixtures.json", "missing")
        assert r.exit_code == 2

    def test_missing_file_is_usage_error(self):
        r = run("check", "no_such_file.json", "x")
        assert r.exit_code == 2


class TestCohomology:
    def test_morphism_complex(self, corpus_dir):
        r = run("cohomology", corpus_dir / "fixtures.json", "morphism",
                "id_grouplike1", 2)
        assert r.exit_code == 0
        assert machine_section(r.output)["payload"]["h_dim"] == 0

    def test_source_by_morphism_name(self, corpus_dir):
        r = run("cohomology", corpus_dir / "fixtures.json", "source",
                "id_divided_power2", 2)
        assert machine_section(r.output)["payload"]["h_dim"] == 1

    def test_coalgebra_name_directly(self, corpus_dir):
        r = run("cohomology", corpus_dir / "fixtures.json", "target",
                "grouplike1", 1)
        assert r.exit_code == 0
        assert machine_section(r.output)["payload"]["h_dim"] == 0

    def test_degree_zero_usage_error(self, corpus_dir):
        r = run("cohomology", corpus_dir / "fixtures.json", "morphism",
                "id_grouplike1", 0)
        assert r.exit_code == 2

    def test_zero_dimensional_coalgebra(self, corpus_dir):
        r = run("cohomology", corpus_dir / "fixtures.json", "source", "nil", 2)
        assert r.exit_code == 0
        assert machine_section(r.output)["payload"]["h_dim"] == 0
        assert run("check", corpus_dir / "fixtures.json", "nil").exit_code == 0

    def test_invalid_structure_fails(self, corpus_dir):
        r = run("cohomology", corpus_dir / "invalid.json", "source", "broken", 1)
        assert r.exit_code == 1


class TestObstruct:
    def test_unobstructed(self, corpus_dir):
        r = run("obstruct", corpus_dir / "fixtures.json", "dp2_deformation")
        assert r.exit_code == 0
        payload = machine_section(r.output)["payload"]
        assert payload["three_cocycle"] == "confirmed"
        assert payload["h3_class"] == []

    def test_obstructed(self, corpus_dir):
        r = run("obstruct", corpus_dir / "obstructed.json", "stuck_deformation")
        assert r.exit_code == 1
        payload = machine_section(r.output)["payload"]
        assert payload["three_cocycle"] == "confirmed"
        assert any(x != "0" for x in payload["h3_class"])


class TestIntegrate:
    def test_writes_reverifiable_deformation(self, corpus_dir, tmp_path):
        out = tmp_path / "out.json"
        r = run("integrate", corpus_dir / "fixtures.json",
                "dp2_infinitesimal", 4, "-o", out)
        assert r.exit_code == 0
        check = run("check", out, "dp2_infinitesimal")
        assert check.exit_code == 0

    def test_applies_d2_to_the_cocycle_once(self, tmp_path, monkeypatch):
        # integrate tests the cocycle; the command does not test it again
        applied = []
        real = MorphismComplex.differential

        def counting(comp, w):
            applied.append(w.degree)
            return real(comp, w)

        monkeypatch.setattr(MorphismComplex, "differential", counting)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(DP2_BUMP))
        r = run("integrate", path, "w", 3, "-o", tmp_path / "out.json")
        assert r.exit_code == 0, r.output
        assert applied == [2]

    def test_zero_cocycle_gives_trivial_file(self, corpus_dir, tmp_path):
        out = tmp_path / "trivial.json"
        r = run("integrate", corpus_dir / "fixtures.json", "zero_g1", 3,
                "-o", out)
        assert r.exit_code == 0
        data = json.loads(out.read_text())
        assert data["deformations"]["zero_g1"]["coeffs"] == {}

    def test_obstructed_exit_code(self, corpus_dir, tmp_path):
        out = tmp_path / "stuck.json"
        r = run("integrate", corpus_dir / "obstructed.json", "stuck_cocycle",
                3, "-o", out)
        assert r.exit_code == 1
        payload = machine_section(r.output)["payload"]
        assert payload["failing_order"] == 2
        assert any(x != "0" for x in payload["h3_class"])

    def test_non_morphism_fails_located(self, tmp_path):
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(DOUBLED_DP2))
        out = tmp_path / "out.json"
        r = run("integrate", path, "w", 2, "-o", out)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "status: fail" in r.output.splitlines()
        assert len(json_lines(r.output)) == 1
        detail = machine_section(r.output)["payload"]["detail"]
        assert "morphism compatibility" in detail and "(0, 0)" in detail
        assert not out.exists()

    def test_builds_one_complex_and_assembles_no_d3(self, tmp_path,
                                                   monkeypatch):
        # the QQ budget reads the height of D_3 from its blocks, and H^3
        # reads the kernel of D_3 from theirs and D_2, so neither
        # integrate nor obstruct assembles D_3
        path = tmp_path / "dp2.json"
        path.write_text(json.dumps(DP2_BUMP))
        built, scattered = [], []
        build, scatter = MorphismComplex.__init__, MorphismComplex._scatter

        def counting_build(self, f):
            built.append(f)
            build(self, f)

        def counting_scatter(self, n, *args):
            scattered.append(n)
            return scatter(self, n, *args)

        monkeypatch.setattr(MorphismComplex, "__init__", counting_build)
        monkeypatch.setattr(MorphismComplex, "_scatter", counting_scatter)
        r = run("integrate", path, "w", 3, "-o", tmp_path / "out.json")
        assert r.exit_code == 0, r.output
        assert len(built) == 1
        r = run("obstruct", tmp_path / "out.json", "w")
        assert r.exit_code == 0, r.output
        assert scattered and 3 not in scattered

    @pytest.mark.parametrize("command", [
        ("cohomology", "FILE", "morphism", "id", 2),
        ("integrate", "FILE", "w", 3, "-o", "OUT")])
    def test_checks_the_morphism_once(self, tmp_path, monkeypatch, command):
        # the located report of the command and the complex's own check
        # are one check_morphism call
        path = tmp_path / "dp2.json"
        path.write_text(json.dumps(DP2_BUMP))
        from coaldef import cli, coalgebra, cohomology
        checked = []
        check = coalgebra.check_morphism

        def counting_check(f):
            checked.append(f)
            return check(f)

        for module in (coalgebra, cohomology, cli):
            if getattr(module, "check_morphism", None) is check:
                monkeypatch.setattr(module, "check_morphism", counting_check)
        files = {"FILE": path, "OUT": tmp_path / "out.json"}
        r = run(*(files.get(a, a) for a in command))
        assert r.exit_code == 0, r.output
        assert len(checked) == 1

    def test_checks_coassociativity_once_per_record(self, tmp_path,
                                                    monkeypatch):
        # cohomology and integrate read whether both comultiplications are
        # coassociative from the shared record of the morphism's complex
        from coaldef import cli, cohomology
        (tmp_path / "dp2.json").write_text(json.dumps(DP2_BUMP))
        monkeypatch.chdir(tmp_path)
        _parsed.cache_clear()
        cohomology._shared_record.cache_clear()
        checked, check = [], cli.check_coassociative
        for module in (cli, cohomology):
            monkeypatch.setattr(module, "check_coassociative", lambda c: (
                checked.append(c.name) or check(c)))
        for argv in (("cohomology", "dp2.json", "morphism", "id", 2),
                     ("cohomology", "dp2.json", "morphism", "id", 1),
                     ("integrate", "dp2.json", "w", 2, "-o", "out.json")):
            r = run(*argv)
            assert r.exit_code == 0, r.output
        assert checked == ["dp2", "dp2"]

    def test_order_above_bound_is_usage_error(self, corpus_dir, tmp_path):
        r = run("integrate", corpus_dir / "fixtures.json", "zero_g1",
                MAX_ORDER + 1, "-o", tmp_path / "x.json")
        assert r.exit_code == 2

    def test_non_cocycle_usage_error(self, corpus_dir, tmp_path):
        # build a file whose "cocycle" is not closed
        import coaldef.problemfile as pfmod
        pf = pfmod.load_problem(str(corpus_dir / "fixtures.json"))
        bad = dict(json.loads((corpus_dir / "fixtures.json").read_text()))
        bad["cocycles"]["not_closed"] = {
            "morphism": "id_divided_power2",
            "A": [[0, 0, 0, "1"]], "B": [], "F": [["0", "0"], ["0", "0"]]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        r = run("integrate", f, "not_closed", 2, "-o", tmp_path / "x.json")
        assert r.exit_code == 2
        # the message carries the whole coboundary, byte for byte
        assert r.output.splitlines()[-1] == (
            "Error: 'not_closed' is not a 2-cocycle; its coboundary has "
            "entries {'A': [['0', '0'], ['0', '-1'], ['0', '0'], ['0', '0'], "
            "['0', '1'], ['0', '0'], ['0', '0'], ['0', '0']], 'B': [['0', "
            "'0'], ['0', '0'], ['0', '0'], ['0', '0'], ['0', '0'], ['0', "
            "'0'], ['0', '0'], ['0', '0']], 'F': [['-1', '0'], ['0', '0'], "
            "['0', '0'], ['0', '0']]}")
        assert not (tmp_path / "x.json").exists()


def dp2_problem(coalgebra):
    """The identity of dp2 with the cocycle bump, and f = 2 id (not a
    morphism) with a deformation, over a coalgebra named ``coalgebra``."""
    def over(matrix):
        return {"source": coalgebra, "target": coalgebra, "matrix": matrix}

    return {"coalgebras": {coalgebra: DOUBLED_DP2["coalgebras"]["dp2"]},
            "morphisms": {"id": over([["1", "0"], ["0", "1"]]),
                          "double": over([["2", "0"], ["0", "2"]])},
            "cocycles": DP2_BUMP["cocycles"],
            "deformations": DOUBLED_DP2["deformations"]}


DP2_COMMANDS = [("cohomology", "p.json", "morphism", "id", 2),
                ("cohomology", "p.json", "morphism", "double", 2),
                ("integrate", "p.json", "w", 3, "-o", "out.json"),
                ("check", "out.json", "w"),
                ("obstruct", "out.json", "w"),
                ("trivialize", "out.json", "w", "-o", "iso.json"),
                ("check", "p.json", "d"),
                ("obstruct", "p.json", "d")]


class TestSharedRecords:
    """Commands in one process share the records of equal structures."""

    def run_in(self, directory, coalgebra, monkeypatch):
        """The json lines of DP2_COMMANDS over ``dp2_problem(coalgebra)``,
        run in ``directory``."""
        directory.mkdir()
        (directory / "p.json").write_text(json.dumps(dp2_problem(coalgebra)))
        monkeypatch.chdir(directory)
        return [json_lines(run(*argv).output) for argv in DP2_COMMANDS]

    def test_equal_structure_from_another_file_is_not_rebuilt(
            self, tmp_path, monkeypatch):
        from coaldef.sparse import Elimination
        self.run_in(tmp_path / "first", "dp2", monkeypatch)
        scattered, eliminated = [], []
        scatter, eliminate = MorphismComplex._scatter, Elimination.__init__

        def counting_scatter(self, n, *args):
            scattered.append(n)
            return scatter(self, n, *args)

        def counting_elimination(self, *args):
            eliminated.append(args[1:3])
            eliminate(self, *args)

        monkeypatch.setattr(MorphismComplex, "_scatter", counting_scatter)
        monkeypatch.setattr(Elimination, "__init__", counting_elimination)
        self.run_in(tmp_path / "second", "renamed", monkeypatch)
        assert scattered == [] and eliminated == []

    def test_equal_structure_from_another_file_is_not_scanned(
            self, tmp_path, monkeypatch):
        # the height that the budget bounds is kept in the shared record
        # with the operator it was read from
        for name, coalgebra in (("first", "dp2"), ("second", "renamed")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "p.json").write_text(
                json.dumps(dp2_problem(coalgebra)))
        argv = ("cohomology", "p.json", "morphism", "id", 2)
        monkeypatch.chdir(tmp_path / "first")
        first = run(*argv)
        assert first.exit_code == 0, first.output
        read = []
        operator = _ComplexBase.operator
        monkeypatch.setattr(_ComplexBase, "operator", lambda self, n: (
            read.append(n) or operator(self, n)))
        monkeypatch.chdir(tmp_path / "second")
        second = run(*argv)
        assert json_lines(second.output) == json_lines(first.output)
        assert read == []

    def test_kept_parses_change_no_output(self, tmp_path, monkeypatch):
        # a batch whose commands share parsed files writes what a batch
        # that parses every file afresh writes
        def outcomes(directory, fresh):
            directory.mkdir()
            (directory / "p.json").write_text(
                json.dumps(dp2_problem("dp2")))
            monkeypatch.chdir(directory)
            lines = []
            for argv in DP2_COMMANDS:
                if fresh:
                    _parsed.cache_clear()
                lines.append(json_lines(run(*argv).output))
            return lines, {p.name: p.read_bytes()
                           for p in sorted(directory.iterdir())}

        kept = outcomes(tmp_path / "kept", False)
        assert _parsed.cache_info().hits > 0
        fresh = outcomes(tmp_path / "fresh", True)
        assert fresh == kept
        assert set(kept[1]) == {"p.json", "out.json"}

    def test_obstruct_after_check_forms_no_product(self, tmp_path,
                                                   monkeypatch):
        # check keeps the order-(N+1) defects on the shared parse of the
        # deformation, and obstruct reads them there
        from coaldef import deformation
        (tmp_path / "p.json").write_text(json.dumps(dp2_problem("dp2")))
        monkeypatch.chdir(tmp_path)
        assert run("integrate", "p.json", "w", 3, "-o", "out.json") \
            .exit_code == 0
        fresh = run("obstruct", "out.json", "w").output
        _parsed.cache_clear()
        packed = []
        pack = deformation._packed_defects
        monkeypatch.setattr(deformation, "_packed_defects",
                            lambda *args: packed.append(1) or pack(*args))
        assert run("check", "out.json", "w").exit_code == 0
        assert len(packed) == 1
        r = run("obstruct", "out.json", "w")
        assert r.exit_code == 0, r.output
        assert len(packed) == 1
        assert json_lines(r.output) == json_lines(fresh)

    def test_a_failing_coalgebra_is_named_by_its_own_file(self, tmp_path,
                                                          monkeypatch):
        # the shared record keeps whether both comultiplications are
        # coassociative, not the report, which names the coalgebra
        monkeypatch.chdir(tmp_path)
        for name in ("broken", "renamed"):
            (tmp_path / f"{name}.json").write_text(json.dumps({
                "coalgebras": {name: BROKEN},
                "morphisms": {"id": {"source": name, "target": name,
                                     "matrix": [["1", "0"], ["0", "1"]]}}}))
            r = run("cohomology", f"{name}.json", "morphism", "id", 2)
            assert r.exit_code == 1
            assert machine_section(r.output)["payload"]["detail"] == (
                f"coassociativity of {name!r}: first failing entry at "
                f"(3, 0) with value -1")

    def test_names_do_not_reach_the_output(self, tmp_path, monkeypatch):
        # the second run reads the records of the first, whose
        # coalgebra had another name
        first = self.run_in(tmp_path / "first", "dp2", monkeypatch)
        second = self.run_in(tmp_path / "second", "renamed", monkeypatch)
        assert all(len(lines) == 1 for lines in first)
        assert second == first


class TestTrivialize:
    def test_success_writes_isomorphism(self, corpus_dir, tmp_path):
        # a deformation over the scalar morphism always trivializes
        src = tmp_path / "src.json"
        out1 = tmp_path / "d.json"
        r = run("integrate", corpus_dir / "fixtures.json", "zero_g1", 2,
                "-o", out1)
        assert r.exit_code == 0
        out2 = tmp_path / "iso.json"
        r = run("trivialize", out1, "zero_g1", "-o", out2)
        assert r.exit_code == 0
        data = json.loads(out2.read_text())
        assert "zero_g1" in data["isomorphisms"]

    def test_blocked(self, corpus_dir, tmp_path):
        r = run("trivialize", corpus_dir / "fixtures.json", "dp2_deformation",
                "-o", tmp_path / "iso.json")
        assert r.exit_code == 1
        payload = machine_section(r.output)["payload"]
        assert payload["h2_class"]
        assert not (tmp_path / "iso.json").exists()


class TestNonMorphismDeformation:
    @pytest.mark.parametrize("command", ["obstruct", "trivialize"])
    def test_fails_at_order_zero_and_writes_nothing(self, tmp_path, command):
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(DOUBLED_DP2))
        out = tmp_path / "out.json"
        extra = ["-o", out] if command == "trivialize" else []
        r = run(command, path, "d", *extra)
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert "status: fail" in r.output.splitlines()
        assert len(json_lines(r.output)) == 1
        assert machine_section(r.output)["payload"]["detail"] == \
            "morphism condition fails at order 0, entry (0, 0)"
        assert not out.exists()


# the fixture coalgebra "broken", e0 -> e0 (x) e1, which is not
# coassociative, with its identity and with the inclusion e0 -> e1 of
# zero_comultiplication(1) into it: both pass the morphism check
BROKEN = {"dim": 2, "delta": [[0, 0, 1, "1"]]}
BROKEN_ORDER_ZERO = {
    "coalgebras": {"broken": BROKEN, "z": {"dim": 1, "delta": []}},
    "morphisms": {"id": {"source": "broken", "target": "broken",
                         "matrix": [["1", "0"], ["0", "1"]]},
                  "in": {"source": "z", "target": "broken",
                         "matrix": [["0"], ["1"]]}},
    "deformations": {"source": {"morphism": "id", "order": 2, "coeffs": {}},
                     "target": {"morphism": "in", "order": 2, "coeffs": {}}},
}


class TestTrivializeRefusals:
    """trivialize verifies an input only where its staircase fails; the
    report of a series that is no deformation is what it was when every
    input was verified first."""

    @staticmethod
    def write_problems(directory):
        from coaldef.deformation import TruncatedDeformation, \
            apply_equivalence
        from coaldef.exactlinalg import Matrix
        from helpers import random_isomorphism
        (directory / "order0.json").write_text(json.dumps(BROKEN_ORDER_ZERO))
        (directory / "doubled.json").write_text(json.dumps(DOUBLED_DP2))
        # a gauge deformation of id(dp3) with one entry of F_2 moved
        f = identity_morphism(divided_power(3))
        comp = MorphismComplex(f)
        d = apply_equivalence(random_isomorphism(comp, 3, fresh_rng(6),
                                                 bound=2),
                              TruncatedDeformation.trivial(f, 3))
        coeffs = list(d.coeffs)
        a, b, ab = (p.matrix for p in coeffs[2].parts())
        coeffs[2] = comp.element(a, b, ab + Matrix.from_sparse(
            ab.field, ab.rows, ab.cols, {(0, 1): 1}), 2)
        pf = ProblemFile()
        pf.coalgebras["dp3"] = f.source
        pf.morphisms["f"] = f
        pf.deformations["moved"] = TruncatedDeformation(f, coeffs)
        write_problem(pf, directory / "moved.json")

    @pytest.mark.parametrize("file, name, line", [
        ("order0.json", "source",
         'json: {"command": "trivialize order0.json source", "payload": '
         '{"detail": "coassociativity[source] fails at order 0, entry '
         '(3, 0)", "name": "source"}, "status": "fail"}'),
        ("order0.json", "target",
         'json: {"command": "trivialize order0.json target", "payload": '
         '{"detail": "coassociativity[target] fails at order 0, entry '
         '(3, 0)", "name": "target"}, "status": "fail"}'),
        ("doubled.json", "d",
         'json: {"command": "trivialize doubled.json d", "payload": '
         '{"detail": "morphism condition fails at order 0, entry (0, 0)", '
         '"name": "d"}, "status": "fail"}'),
        ("moved.json", "moved",
         'json: {"command": "trivialize moved.json moved", "payload": '
         '{"detail": "morphism condition fails at order 2, entry (0, 1)", '
         '"name": "moved"}, "status": "fail"}')],
        ids=["source", "target", "map", "moved"])
    def test_fails_located_and_writes_nothing(self, tmp_path, monkeypatch,
                                              file, name, line):
        self.write_problems(tmp_path)
        monkeypatch.chdir(tmp_path)
        r = run("trivialize", file, name, "-o", "iso.json")
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert json_lines(r.output) == [line]
        assert not (tmp_path / "iso.json").exists()


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("check", "fixtures.json", "dp2_deformation"),
        ("cohomology", "fixtures.json", "morphism", "id_divided_power2", 2),
        ("obstruct", "fixtures.json", "dp2_deformation"),
    ])
    def test_identical_reports(self, corpus_dir, args):
        argv = [args[0], str(corpus_dir / args[1]), *args[2:]]
        first = run(*argv)
        second = run(*argv)
        assert first.exit_code == second.exit_code
        assert stable_lines(first.output) == stable_lines(second.output)


class TestFieldFlag:
    def test_prime_field_override(self, corpus_dir):
        r = run("--field", "prime:5", "check", corpus_dir / "fixtures.json",
                "divided_power2")
        assert r.exit_code == 0

    def test_bad_field_spec(self, corpus_dir):
        # a composite, then a modulus above the primality test's bound
        for spec in ("prime:6", "prime:3317044064679887385961981"):
            r = run("--field", spec, "check", corpus_dir / "fixtures.json",
                    "grouplike1")
            assert r.exit_code == 2


class TestProblemFileLimits:
    @pytest.mark.parametrize("section,key,value,where", [
        ("coalgebras", "dim", True, "coalgebras.dp2: dim"),
        ("coalgebras", "dim", MAX_DIM + 1, "coalgebras.dp2: dim"),
        ("isomorphisms", "order", True, "isomorphisms.p: order"),
        ("isomorphisms", "order", MAX_ORDER + 1, "isomorphisms.p: order"),
    ])
    def test_bad_size_is_located_usage_error(self, tmp_path, section, key,
                                             value, where):
        obj = json.loads(json.dumps(DOUBLED_DP2))
        name = next(iter(obj[section]))
        obj[section][name][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        r = run("check", path, "dp2")
        assert r.exit_code == 2
        assert where in r.output

    def test_boolean_prime_is_usage_error(self, tmp_path):
        obj = dict(DOUBLED_DP2, field={"prime": True})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        r = run("check", path, "dp2")
        assert r.exit_code == 2
        assert "field.prime" in r.output


class TestHostileInput:
    @pytest.mark.parametrize("text,fragment", [
        (DEEP_NESTING, "invalid JSON: "),
        (HUGE_INTEGER, "invalid JSON: "),
        (EXPONENT_SCALAR, "coalgebras.c: bad scalar '1e30000000'"),
        (MANY_COALGEBRAS, "coalgebras.c256: the file declares more than"),
        (ALIASED_ISOMORPHISM,
         "isomorphisms.p: coefficient key '01' is not an order"),
        (DISTINCT_DENOMINATORS,
         "coalgebras.c: 1024 entries over a common denominator"),
    ])
    def test_one_located_message_and_exit_two(self, tmp_path, text,
                                              fragment):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        r = run("check", path, "c")
        assert r.exit_code == 2
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert fragment in r.output
        assert r.output.count("Error:") == 1


# the identity of the ten-dimensional grouplike coalgebra: D_2 and D_3
# of its deformation complex act on cochains over the dimension budget
# (dim C^2 = 2100, dim C^3 = 21000), D_1 does not
GROUPLIKE10 = {
    "coalgebras": {"g10": {"dim": 10, "delta": [[i, i, i, "1"]
                                                for i in range(10)]}},
    "morphisms": {"id": {"source": "g10", "target": "g10",
                         "matrix": [[str(int(i == j)) for j in range(10)]
                                    for i in range(10)]}},
    "cocycles": {"w": {"morphism": "id"}},
    "deformations": {"d": {"morphism": "id", "order": 1}},
}


def identity_problem(path, coalgebra):
    """A problem file holding ``coalgebra`` and its identity morphism "f"."""
    pf = ProblemFile()
    pf.coalgebras["c"] = coalgebra
    pf.morphisms["f"] = identity_morphism(coalgebra)
    write_problem(pf, path)
    return path


class TestDifferentialBudget:
    def test_cohomology_degree_over_budget(self, corpus_dir):
        r = run("cohomology", corpus_dir / "fixtures.json", "morphism",
                "id_divided_power2", 12)
        assert r.exit_code == 2
        assert "id_divided_power2: the degree-12 differential acts on " \
               "20480-dimensional cochains" in r.output

    def test_degree_above_bound_is_usage_error(self, corpus_dir):
        r = run("cohomology", corpus_dir / "fixtures.json", "source", "nil",
                MAX_DEGREE + 1)
        assert r.exit_code == 2
        assert run("cohomology", corpus_dir / "fixtures.json", "source",
                   "nil", MAX_DEGREE).exit_code == 0

    @pytest.mark.parametrize("args,degree", [
        (("obstruct", "d"), 3),
        (("trivialize", "d", "-o", "OUT"), 2),
        (("integrate", "w", 2, "-o", "OUT"), 3),
        (("check", "w"), 2),
        (("check", "d"), 2),
    ])
    def test_commands_check_their_largest_differential(self, tmp_path, args,
                                                       degree):
        path = tmp_path / "g10.json"
        path.write_text(json.dumps(GROUPLIKE10))
        out = tmp_path / "out.json"
        r = run(args[0], path, *[out if a == "OUT" else a for a in args[1:]])
        assert r.exit_code == 2
        assert not out.exists()
        assert f"the degree-{degree} differential" in r.output
        r = run("cohomology", path, "morphism", "id", 1)
        assert r.exit_code == 0

    def test_budget_admits_largest_benchmark_and_test_matrices(self):
        # D_3 of id(dp4) (cohomology-qq), D_8 of id(dp2) and D_3 of
        # id(dp5), a 6875 x 1375 matrix with 12,120 nonzeros
        for dim, n in ((4, 3), (2, 8), (5, 3)):
            comp = MorphismComplex(identity_morphism(divided_power(dim)))
            assert comp.cochain_dim(n) <= MAX_COCHAIN_DIM
            assert comp.scatter_terms(n) <= MAX_DIFFERENTIAL_TERMS
            entries, _ = comp.operator(n)
            bits = max(abs(x).bit_length() for x in entries.values())
            assert comp.scatter_terms(n) * bits <= MAX_DIFFERENTIAL_BITS

    def test_third_cohomology_of_divided_power_five(self, tmp_path):
        path = identity_problem(tmp_path / "dp5.json", divided_power(5))
        r = run("cohomology", path, "morphism", "f", 3)
        assert r.exit_code == 0, r.output
        payload = machine_section(r.output)["payload"]
        assert (payload["cocycle_dim"], payload["coboundary_dim"],
                payload["h_dim"]) == (229, 225, 4)
        assert len(payload["representatives"]) == 4

    def test_dense_structure_constants_over_term_budget_exit_fast(
            self, tmp_path):
        # a basis change makes every structure constant of dp5 nonzero:
        # D_3 keeps its shape but is scattered from 168,650 terms
        dense = change_basis(divided_power(5),
                             invertible_matrix(fresh_rng(5), 5, bound=3))
        comp = MorphismComplex(identity_morphism(dense))
        assert comp.cochain_dim(3) <= MAX_COCHAIN_DIM
        assert comp.scatter_terms(3) > MAX_DIFFERENTIAL_TERMS
        path = identity_problem(tmp_path / "dense_dp5.json", dense)
        started = time.perf_counter()
        r = run("cohomology", path, "morphism", "f", 3)
        assert time.perf_counter() - started < 1.0
        assert r.exit_code == 2
        assert "the degree-3 differential would be scattered from" in r.output

    def test_tall_structure_constants_over_height_budget_exit_fast(
            self, tmp_path):
        # under the term and cochain budgets, but elimination over QQ
        # grows with the height of the entries; GF(p) has no growth
        path = identity_problem(tmp_path / "tall_g5.json", tall_grouplike5())
        assert max(int(x).bit_length()
                   for x in re.findall(r"\d+", path.read_text())) == 216
        started = time.perf_counter()
        r = run("cohomology", path, "morphism", "f", 2)
        assert time.perf_counter() - started < 1.0
        assert r.exit_code == 2
        assert r.output.count("Error:") == 1
        assert "terms times bits is over the limit" in r.output
        r = run("--field", "prime:2147483647", "cohomology", path,
                "morphism", "f", 2)
        assert r.exit_code == 0, r.output


# Every check, cohomology (all three complexes, degrees 1-3), obstruct,
# integrate (order 3) and trivialize command that the three --fixtures
# files admit, read over each field; one sha256 per field covers the
# argv, exit code, stdout without its time: line and any output file.
GOLDEN_DIGESTS = {
    "rational":
        "e0be556bfda493de0fce34ccc9eb1ecd6dce548dfa3c935388b198c976310981",
    "prime:5":
        "a936c97eb4a44b62ef415bada546dd0bc18d9b4a5f74b466a717c59bb519a91d",
    "prime:2":
        "4aed026f19ec50f68cad31abef0fd23e2e4c01d10c5355167611d3b50578b1b4",
}


def golden_commands(corpus):
    commands = []
    for fname in ("fixtures.json", "invalid.json", "obstructed.json"):
        obj = json.loads((corpus / fname).read_text())
        for section in ("coalgebras", "morphisms", "cocycles",
                        "deformations", "isomorphisms"):
            commands += [["check", fname, name]
                         for name in obj.get(section, {})]
        for section, kinds in (("morphisms", ("source", "target", "morphism")),
                               ("coalgebras", ("source", "target"))):
            commands += [["cohomology", fname, kind, name, str(n)]
                         for name in obj.get(section, {})
                         for kind in kinds for n in (1, 2, 3)]
        for name in obj.get("deformations", {}):
            commands.append(["obstruct", fname, name])
            commands.append(["trivialize", fname, name, "-o", "out.json"])
        commands += [["integrate", fname, name, "3", "-o", "out.json"]
                     for name in obj.get("cocycles", {})]
    return commands


@pytest.mark.parametrize("field_spec", sorted(GOLDEN_DIGESTS))
def test_golden_corpus_output(corpus_dir, tmp_path, monkeypatch, field_spec):
    for path in corpus_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    digest = hashlib.sha256()
    for argv in golden_commands(tmp_path):
        if out.exists():
            out.unlink()
        argv = ["--field", field_spec] + argv
        r = CliRunner().invoke(main, argv)
        assert r.exception is None or isinstance(r.exception, SystemExit), \
            (argv, r.exception)
        digest.update(repr((argv, r.exit_code, stable_lines(r.output),
                            out.read_text() if out.exists() else None))
                      .encode())
    assert digest.hexdigest() == GOLDEN_DIGESTS[field_spec]


@pytest.mark.parametrize("field_spec", sorted(GOLDEN_DIGESTS))
def test_golden_corpus_output_in_reverse_order(corpus_dir, tmp_path,
                                               monkeypatch, field_spec):
    # complex records are shared by value across the commands of one
    # process; no command's output may depend on which ran before it
    for path in corpus_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"

    def replay(commands):
        outcomes = []
        for argv in commands:
            if out.exists():
                out.unlink()
            r = CliRunner().invoke(main, ["--field", field_spec] + argv)
            assert r.exception is None or isinstance(r.exception,
                                                     SystemExit), \
                (argv, r.exception)
            outcomes.append((argv, r.exit_code, stable_lines(r.output),
                             out.read_text() if out.exists() else None))
        return outcomes

    commands = golden_commands(tmp_path)
    forward = replay(commands)
    assert replay(commands[::-1])[::-1] == forward


def test_valid_deformations_are_verified_without_unpacking(tmp_path,
                                                           monkeypatch):
    # over QQ one mask per packed entry decides that every order of an
    # equation vanishes, so no order of a valid deformation is unpacked:
    # not of a gauge deformation of order 12, nor of a file `integrate`
    # wrote.  Only slot 13 is read, once per equation: the order-13
    # defects that verification keeps for the obstruction
    from coaldef import _kernels_py
    from coaldef.deformation import (TruncatedDeformation,
                                     apply_equivalence, verify_deformation)
    from helpers import random_cocycle, random_isomorphism
    f = identity_morphism(divided_power(3))
    comp = MorphismComplex(f)
    gauge = apply_equivalence(random_isomorphism(comp, 12, fresh_rng(12)),
                              TruncatedDeformation.trivial(f, 12))
    pf = ProblemFile()
    pf.coalgebras["dp3"] = f.source
    pf.morphisms["f"] = f
    pf.cocycles["w"] = random_cocycle(comp, fresh_rng(5), bound=3)
    write_problem(pf, tmp_path / "problem.json")
    out = tmp_path / "integrated.json"
    assert run("integrate", tmp_path / "problem.json", "w", 12, "-o",
               out).exit_code == 0
    unpacked = []
    real = _kernels_py.unpack
    monkeypatch.setattr(_kernels_py, "unpack", lambda packed, w, slots:
                        unpacked.append(list(slots))
                        or real(packed, w, slots))
    assert verify_deformation(gauge).ok
    r = run("check", out, "w")
    assert r.exit_code == 0, r.output
    assert '"status": "ok"' in json_lines(r.output)[0]
    assert unpacked == [[13]] * 6
