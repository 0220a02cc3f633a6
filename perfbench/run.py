"""Repository benchmark: serve one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dmv-distinct --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` installs the
timing shims of :mod:`spans`, prints every per-layer metric and writes the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it (prefixed ``#``) record the host fingerprint, the workload's fixed
parameters, the traffic it actually served, the correctness gate and the
closed-section timings as measured, before host-speed adjustment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

#: BLAS threads, pinned identically for every workload (and inherited by
#: ProcessFleet workers) before numpy is first imported.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

#: name -> unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "e2e_p50_ms": "ms",
    "e2e_p99_ms": "ms",
    "goodput_qps": "1/s",
    "qerror_p50": "x",
    "qerror_p99": "x",
    "refresh_s": "s",
    "peak_rss_mb": "MB",
    "model_bytes": "B",
}


def _end_to_end(outcome) -> dict[str, float]:
    from layers import median, quantile, tail_quantile

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": median(outcome.setup_s),
        "qps": outcome.completed / outcome.serve_wall_s,
        "e2e_p50_ms": quantile(outcome.latencies_ms, 0.50),
        "e2e_p99_ms": tail_quantile(outcome.latencies_ms, 0.99),
        "goodput_qps": outcome.good / outcome.good_window_s,
        "qerror_p50": quantile(outcome.qerrors, 0.50),
        "qerror_p99": quantile(outcome.qerrors, 0.99),
        "refresh_s": median(outcome.refresh_s),
        # Runner plus its largest (already joined) child; ru_maxrss is KiB.
        "peak_rss_mb": (usage + children) / 1024.0,
        "model_bytes": float(outcome.model_bytes),
    }
    return {name: values[name] for name in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"run from the repository root: no package at {source}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    import workloads
    from host import PROBE_REFERENCE_S, fingerprint
    from layers import METRICS, median, per_layer, quantile, tail_quantile
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    host = fingerprint(BLAS_THREADS)
    print("# host " + json.dumps(host), flush=True)
    tracer = Tracer() if args.trace else None
    outcome = workloads.run(args.workload, args.seed, args.seconds, tracer)

    gate = outcome.gate
    failed = outcome.failed + len(gate.mismatches)
    correct = not gate.mismatches and not outcome.untyped_errors
    failed_frac = failed / outcome.attempted if outcome.attempted else 1.0
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "parameters": workloads.parameters(args.workload),
    }), flush=True)
    print("# traffic " + json.dumps({
        **outcome.traffic.shares(), **outcome.facts, "failed_frac": failed_frac,
        "latency_samples": len(outcome.latencies_ms),
        "qerror_samples": len(outcome.qerrors)}), flush=True)
    print("# gate " + json.dumps({
        "checked_against_reference": gate.checked, "max_drift": gate.max_drift,
        "mismatches": gate.mismatches[:5],
        "untyped_errors": outcome.untyped_errors[:5]}), flush=True)
    raw = outcome.raw
    print("# raw " + json.dumps({
        "host_factor": median(outcome.host.samples) / PROBE_REFERENCE_S,
        "setup_s": median(raw["setup_s"]), "refresh_s": median(raw["refresh_s"]),
        **({"qps": outcome.completed / raw["serve_wall_s"],
            "e2e_p50_ms": quantile(raw["latencies_ms"], 0.50),
            "e2e_p99_ms": tail_quantile(raw["latencies_ms"], 0.99)}
           if raw["serve_wall_s"] else {})}), flush=True)

    if args.trace:
        values = per_layer(outcome, tracer, failed_frac)
        units = {name: unit for name, (unit, _) in METRICS.items()}
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir,
                                 f"spans-{args.workload}-seed{args.seed}.json"),
                    {"host": host, "workload": args.workload, "seed": args.seed,
                     "metrics": values})
    else:
        values = _end_to_end(outcome)
        units = END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
