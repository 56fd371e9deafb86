"""One set-up, and optionally one pass, of a workload in a fresh process.

Started by ``run.py`` with its working directory set to a scratch
directory of its own; problem files are written there under fixed
relative names, so the CLI's ``json:`` lines repeat byte for byte.
Prints one JSON object on its last line of standard output.  Times in
it are reference seconds (``hostspeed.py``): set-up is bracketed by
probes, and a pass runs with the probe on a timer.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass
                                [--trace 0|1] [--smoke]
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402

BRACKET_PROBES = 10
before = hostspeed.probe_mean(BRACKET_PROBES)
started = time.perf_counter()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import coaldef
    import workloads
    inputs = workloads.setup(args.workload, args.seed, args.smoke)
    setup_wall = time.perf_counter() - started
    after = hostspeed.probe_mean(BRACKET_PROBES)
    result = {"setup_s": setup_wall * hostspeed.PROBE_S * 2 / (before + after),
              "setup_wall_s": setup_wall,
              "backend": getattr(coaldef, "backend_name", lambda: None)()}
    if args.mode == "pass":
        sampler = hostspeed.Sampler()
        workloads.clock = sampler.clock
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(sampler.clock)
            tracing.install(tracer)
        sampler.start()
        try:
            raw, wall = workloads.run_pass(args.workload, inputs)
        finally:
            sampler.stop()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.recording = False
        scale = sampler.scale()
        ops, stages = workloads.check_pass(args.workload, raw)
        result.update(pass_s=wall * scale, wall_s=wall, host_scale=scale,
                      probes=sampler.count,
                      stages={k: v * scale for k, v in stages.items()},
                      peak_rss_mb=peak_kb / 1024,
                      ops=[vars(op) for op in ops])
        if tracer is not None:
            layers = tracer.layer_metrics()
            for name, unit in tracing.LAYER_METRICS.items():
                if unit == "s" and name in layers:
                    layers[name] *= scale
            layers["cli.unexpected_exit"] = sum(not op.exit_ok for op in ops)
            result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
