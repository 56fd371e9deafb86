"""The benchmark's workloads: inputs made from a seed, one pass, exact checks.

* ``cohomology-qq`` -- ``cohomology(1..3)`` of the deformation complex of
  ``identity_morphism(divided_power(4))`` and of ``collapse_morphism(4)``
  over QQ, on complexes built fresh in the pass (users pay assembly on
  every run).  These inputs are fixed by definition; the seed does not
  change them.
* ``cohomology-gfp`` -- the same over GF(2147483647); it must reproduce
  the QQ dimensions.
* ``deform-cli`` -- six seeded problems over ``identity_morphism(
  divided_power(3))``, each a random 2-cocycle (random combination of the
  H^2 representatives plus a random coboundary) and a gauge-trivial
  order-12 deformation (a random formal isomorphism applied to the
  trivial one), driven through ``coaldef.cli.main`` in process.  Six
  problems average out most of the cost difference between seeds.

Smoke sizes (dp2, collapse2, order 3, one problem) run the same code in
a second or two, for the benchmark's own test.

An operation is one ``cohomology(n)`` call or one CLI command.  Each
returns an :class:`Op` whose ``failures`` list the checks it failed and
whose ``digest`` must repeat across passes and across traced and
untraced runs.
"""

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from coaldef import cli
from coaldef.coalgebra import collapse_morphism, divided_power, identity_morphism
from coaldef.cohomology import MorphismComplex
from coaldef.deformation import (FormalIsomorphism, TruncatedDeformation,
                                 apply_equivalence)
from coaldef.exactlinalg import QQ, PrimeField
from coaldef.problemfile import ProblemFile, load_problem, write_problem

PRIME = 2147483647

SIZES = {
    False: {"dp": 4, "collapse": 4, "deform_dp": 3, "order": 12,
            "problems": 6},
    True: {"dp": 2, "collapse": 2, "deform_dp": 2, "order": 3,
           "problems": 1},
}

# (cocycle_dim, coboundary_dim, h_dim) of the deformation complex, by
# morphism and degree; over GF(p) the same values are required.
EXPECTED = {
    "id_dp4": {1: (3, 0, 3), 2: (32, 29, 3), 3: (115, 112, 3)},
    "collapse4": {1: (0, 0, 0), 2: (17, 17, 0), 3: (52, 52, 0)},
    "id_dp3": {2: (18, 16, 2)},
    "id_dp2": {1: (1, 0, 1), 2: (8, 7, 1), 3: (13, 12, 1)},
    "collapse2": {1: (0, 0, 0), 2: (5, 5, 0), 3: (6, 6, 0)},
}

clock = time.perf_counter


@dataclass
class Op:
    name: str
    seconds: float
    digest: str = ""
    exit_ok: bool = True
    failures: list = field(default_factory=list)


def setup(workload, seed, smoke):
    """Build the inputs of one pass; deform-cli writes its problem files."""
    size = SIZES[smoke]
    if workload == "deform-cli":
        comp = MorphismComplex(identity_morphism(divided_power(
            size["deform_dp"])))
        reps = comp.cohomology(2).representatives
        return [_write_problem(seed, k, comp, reps, size["order"])
                for k in range(size["problems"])]
    field_ = QQ if workload == "cohomology-qq" else PrimeField(PRIME)
    return [(f"id_dp{size['dp']}",
             identity_morphism(divided_power(size["dp"], field_))),
            (f"collapse{size['collapse']}",
             collapse_morphism(size["collapse"], field_))]


def run_pass(workload, inputs):
    """Run one pass: (raw results, seconds of the pass)."""
    if workload == "deform-cli":
        return _deform_pass(inputs)
    return _cohomology_pass(inputs)


def check_pass(workload, results):
    """Check a pass's results: (ops, seconds per stage).

    Kept apart from :func:`run_pass` so that checking is neither timed
    nor traced.
    """
    if workload == "deform-cli":
        return _deform_check(results)
    return _cohomology_check(results)


# ---------------------------------------------------------------------------
# cohomology-qq / cohomology-gfp


def _cohomology_pass(morphisms):
    results = []
    started = clock()
    for name, f in morphisms:
        comp = MorphismComplex(f)
        for n in (1, 2, 3):
            t = clock()
            try:
                report, error = comp.cohomology(n), None
            except Exception:
                report, error = None, traceback.format_exc()
            results.append((name, n, comp, report, error, clock() - t))
    return results, clock() - started


def _cohomology_check(results):
    ops = []
    for name, n, comp, report, error, seconds in results:
        op = Op(f"{name}.H{n}", seconds)
        if error is not None:
            op.failures.append(error)
        else:
            try:
                op.digest, failures = _check_report(name, n, comp, report)
                op.failures.extend(failures)
            except Exception:
                op.failures.append(traceback.format_exc())
        ops.append(op)
    stages = {"h2_s": sum(o.seconds for o in ops if o.name.endswith(".H2")),
              "h3_s": sum(o.seconds for o in ops if o.name.endswith(".H3"))}
    return ops, stages


def _check_report(name, n, comp, report):
    """(digest of the result, failed checks) of one cohomology report."""
    triple = (report.cocycle_dim, report.coboundary_dim, report.h_dim)
    failures = []
    if triple != EXPECTED[name][n]:
        failures.append(f"dimensions {triple}, expected {EXPECTED[name][n]}")
    if len(report.representatives) != report.h_dim:
        failures.append("representative count differs from h_dim")
    reps = [comp.flatten(r).column_entries(0) for r in report.representatives]
    return _digest(repr((triple, reps))), failures


# ---------------------------------------------------------------------------
# deform-cli


@dataclass
class Problem:
    index: int
    dim: int
    order: int
    cocycle: object            # the 2-cocycle written as "w"
    h2_coords: list            # its coordinates in the canonical H^2 basis


def _nonzero_rational(rng, bound=3):
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if x:
            return x


def _random_cochain(rng, comp, degree, density):
    """A cochain with a fixed share of random nonzero entries.

    The count is fixed so that the cost of a pass varies little with
    the seed.
    """
    size = comp.cochain_dim(degree)
    entries = [0] * size
    for i in rng.sample(range(size), round(density * size)):
        entries[i] = _nonzero_rational(rng)
    return comp.from_flat(degree, entries)


def _write_problem(seed, k, comp, reps, order):
    """Problem file ``problem-<k>.json`` with cocycle "w" and deformation "g".

    ``reps`` are the H^2 representatives of ``comp``, the deformation
    complex of the identity morphism the problem is about.
    """
    rng = random.Random(f"deform-cli:{seed}:{k}")
    f = comp.morphism
    coords = [_nonzero_rational(rng) for _ in reps]
    w = comp.differential(_random_cochain(rng, comp, 1, 0.5))
    for c, r in zip(coords, reps):
        w = w + r.scale(c)
    gauge = FormalIsomorphism.from_higher_coefficients(
        f, [_random_cochain(rng, comp, 1, 0.3) for _ in range(order)], order)
    g = apply_equivalence(gauge, TruncatedDeformation.trivial(f, order))

    pf = ProblemFile(field=QQ)
    pf.coalgebras["dp"] = f.source
    pf.morphisms["f"] = f
    pf.cocycles["w"] = w
    pf.deformations["g"] = g
    write_problem(pf, f"problem-{k}.json")
    return Problem(k, f.source.dim, order, w, coords)


def _commands(p):
    """(label, argv, expected exit code, expected status) per command."""
    prob, integ = f"problem-{p.index}.json", f"integrated-{p.index}.json"
    return [
        ("cohomology", ["cohomology", prob, "morphism", "f", "2"], 0, "ok"),
        ("integrate", ["integrate", prob, "w", str(p.order), "-o", integ],
         0, "ok"),
        ("check", ["check", integ, "w"], 0, "ok"),
        ("obstruct", ["obstruct", integ, "w"], 0, "ok"),
        ("trivialize_gauge",
         ["trivialize", prob, "g", "-o", f"iso-{p.index}.json"], 0, "ok"),
        ("trivialize_blocked",
         ["trivialize", integ, "w", "-o", f"iso-blocked-{p.index}.json"],
         1, "obstructed"),
    ]


def _invoke(argv):
    """Run one CLI command in process: (exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv, prog_name="coaldef")
        except SystemExit as exc:
            code = exc.code or 0
        except Exception:
            error = traceback.format_exc()
    if error is None and code != 0 and err.getvalue():
        error = err.getvalue()
    return code, out.getvalue(), error


def _deform_pass(problems):
    runs = []
    started = clock()
    for p in problems:
        for label, argv, code, status in _commands(p):
            t = clock()
            got = _invoke(argv)
            runs.append((p, label, code, status, got, clock() - t))
    return runs, clock() - started


def _deform_check(runs):
    ops = []
    for p, label, code, status, (got_code, out, error), seconds in runs:
        op = Op(f"p{p.index}.{label}", seconds)
        lines = out.splitlines()
        json_lines = [l for l in lines if l.startswith("json: ")]
        if error is not None:
            op.failures.append(error)
        if got_code != code:
            op.exit_ok = False
            op.failures.append(f"exit code {got_code}, expected {code}")
        if f"status: {status}" not in lines:
            op.failures.append(f"no 'status: {status}' line")
        if len(json_lines) != 1:
            op.failures.append(f"{len(json_lines)} json lines, expected 1")
        else:
            op.digest = _digest(json_lines[0])
            if not op.failures:
                try:
                    op.failures.extend(
                        _check_result(p, label, _json_payload(json_lines[0])))
                except Exception:
                    op.failures.append(traceback.format_exc())
        ops.append(op)
    stages = {"cohomology_s": _stage(ops, "cohomology"),
              "integrate_s": _stage(ops, "integrate"),
              "check_s": _stage(ops, "check"),
              "obstruct_s": _stage(ops, "obstruct"),
              "trivialize_s": _stage(ops, "trivialize")}
    return ops, stages


def _stage(ops, label):
    return sum(o.seconds for o in ops
               if o.name.split(".", 1)[1].startswith(label))


def _json_payload(line):
    return json.loads(line[len("json: "):])["payload"]


def _check_result(p, label, payload):
    """What is wrong with one command's result beyond its exit and status."""
    if label == "cohomology":
        triple = (payload["cocycle_dim"], payload["coboundary_dim"],
                  payload["h_dim"])
        expected = EXPECTED[f"id_dp{p.dim}"][2]
        if triple != expected:
            return [f"dimensions {triple}, expected {expected}"]
        if len(payload["representatives"]) != payload["h_dim"]:
            return ["representative count differs from h_dim"]
        return []
    if label == "integrate":
        if payload["order_reached"] != p.order:
            return [f"reached order {payload['order_reached']}"]
        d = load_problem(f"integrated-{p.index}.json").deformations["w"]
        if _rows(d.coefficient(1)) != _rows(p.cocycle):
            return ["order-1 coefficient is not the input cocycle"]
        return []
    if label == "obstruct":
        return [] if payload["h3_class"] == [] else ["nonzero H^3 class"]
    if label == "trivialize_gauge":
        iso = load_problem(f"iso-{p.index}.json").isomorphisms["g"]
        g = load_problem(f"problem-{p.index}.json").deformations["g"]
        moved = apply_equivalence(iso, g)
        if any(not moved.coefficient(n).is_zero()
               for n in range(1, moved.order + 1)):
            return ["the isomorphism does not trivialize the deformation"]
        return []
    if label == "trivialize_blocked":
        expected = [str(c) for c in p.h2_coords]
        if payload["blocked_order"] != 1 or payload["h2_class"] != expected:
            return [f"blocked at order {payload['blocked_order']} by class "
                    f"{payload['h2_class']}, expected order 1 and {expected}"]
        return []
    return []


def _rows(cochain):
    return [part.matrix.to_rows() for part in cochain.parts()]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]
