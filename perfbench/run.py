"""The coaldef benchmark: one workload, checked exactly, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``): ``cohomology-qq``,
``cohomology-gfp``, ``deform-cli``.

The system is a closed-loop batch: one caller issues each operation
after the previous one returns, so every figure is the time to a
verified exact result at a stated input size; there is no rate sweep.

Every pass runs in a fresh single-threaded process (``worker.py``),
which first sets up: it imports the package and builds the inputs from
the seed.  Set-up alone is also run in a few extra processes, and
``setup_s`` is the median over all of them.  Passes repeat until the
next one would end after ``--seconds``, and at least one runs; each
timing is the median over the passes.

Times are reference seconds (``hostspeed.py``): wall seconds scaled by
the speed of a fixed probe run alongside the work, so that the drift of
a shared host's speed does not read as a change of the program.
``pass_s`` is one pass in reference seconds; the raw ``wall_s`` (probe
time left out), ``setup_wall_s`` and the factor ``host_scale`` are
printed beside it.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` it reports the per-layer metrics of traced passes
(``tracing.py``), preceded by one untraced pass: the difference of the
two is the tracing overhead, and their CLI ``json:`` lines and
cohomology representatives must agree.  Lines before the last one give
the run context, every metric by name and unit, and any failed check.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cohomology-qq", "cohomology-gfp", "deform-cli")

# name, unit; reported on every workload with --trace 0.  The stage
# times of a workload (h2_s, h3_s; integrate_s, ...) and the raw wall
# times are printed by name too, but left out of the result line: the
# stages cover a second or less of a pass, and raw times follow the
# host's speed, so their run-to-run spread is too wide for a bound.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBES = 8
DEADLINE_S = 170


class BenchmarkError(Exception):
    """The benchmark could not run to the end (not a failed check)."""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coaldef", "__init__.py")):
        print(f"error: no coaldef sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        result, lines = measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def measure(args):
    started = time.monotonic()
    base = os.path.join(ROOT, ".perfbench_work")
    scratch = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    count = 0

    def worker(mode, trace=0):
        nonlocal count
        count += 1
        cwd = os.path.join(scratch, str(count))
        os.makedirs(cwd)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--trace", str(trace)]
        if args.smoke:
            cmd.append("--smoke")
        left = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, cwd=cwd, capture_output=True,
                                  text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(
                f"a {mode} process ran past {DEADLINE_S} s") from None
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchmarkError(
                f"{mode} process exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        setups = [worker("setup") for _ in range(SETUP_PROBES)]
        reference = worker("pass") if args.trace else None
        passes = []
        loop_start = time.monotonic()
        while True:
            passes.append(worker("pass", args.trace))
            elapsed = time.monotonic() - loop_start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return summarize(args, setups + passes, reference, passes)


def summarize(args, setups, reference, passes):
    checked = ([reference] if reference else []) + passes
    attempted, failed, problems = check_ops(checked)
    med = statistics.median
    stages = {k: med(p["stages"][k] for p in passes)
              for k in passes[0]["stages"]}
    e2e = {"setup_s": med(s["setup_s"] for s in setups),
           "pass_s": med(p["pass_s"] for p in passes),
           "peak_rss_mb": med(p["peak_rss_mb"] for p in passes)}
    raw = {"wall_s": med(p["wall_s"] for p in passes),
           "setup_wall_s": med(s["setup_wall_s"] for s in setups)}
    host_scale = med(p["host_scale"] for p in passes)

    lines = [
        "context: " + json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "backend": passes[0]["backend"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "passes": len(passes), "setups": len(setups),
            "probes": sum(p["probes"] for p in passes)}),
    ]
    lines += [f"check: {p}" for p in problems]
    lines.append(f"fail_frac {failed / attempted:.6g} "
                 f"(failed {failed} of {attempted} operations)")

    if not args.trace:
        units = END_TO_END
        metrics = e2e
        lines += [f"{name} {value:.6g} s"
                  for name, value in {**stages, **raw}.items()]
        lines.append(f"host_scale {host_scale:.6g} (reference s per s)")
    else:
        import tracing
        units = tracing.LAYER_METRICS
        metrics = {name: med(p["layers"][name] for p in passes)
                   for name in units}
        metrics["trace.pass_s"] = e2e["pass_s"]
        metrics["trace.untraced_pass_s"] = reference["pass_s"]
        metrics["trace.overhead_s"] = e2e["pass_s"] - reference["pass_s"]
        lines.append("wait: not applicable (single-threaded, no queues)")
        lines.append("kernels.matmul_dense_madds is computed as n*k*m per "
                     "matmul call, not counted")
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def check_ops(passes):
    """(attempted, failed, messages) over every operation of every pass.

    An operation fails if any of its own checks failed, or if its digest
    differs from the first pass's digest for the same operation.
    """
    first = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    attempted = failed = 0
    problems = []
    for number, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            why = list(op["failures"])
            if op["digest"] != first.get(op["name"]):
                why.append("result differs from the first pass")
            if why:
                failed += 1
                problems.append(f"pass {number} {op['name']}: "
                                + "; ".join(w.strip() for w in why))
    return attempted, failed, problems


if __name__ == "__main__":
    sys.exit(main())
