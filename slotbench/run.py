"""SLOTAlign repository benchmark: one command, four workloads.

Run from the repository root::

    python3 slotbench/run.py --workload fit-cold --seed 0 --seconds 20 --trace 0

``BENCHMARK.json`` lists the workloads the benchmark is judged on
(``fit-cold``, ``serve-burst``, ``scale-blocks``) and why each exists.
``serve-open`` (Poisson arrivals into the service) and ``scale-pool``
(``scale-blocks`` on the shipped process-pool executor) run the same
way by name; they are left out of ``BENCHMARK.json`` because the
shipped BLAS thread oversubscription makes their figures swing by more
than any bound the benchmark may set.  The program is the pure-Python
package under ``src/``; nothing is built.

With ``--trace 0`` the ops run untraced and the end-to-end metrics
are reported.  ``setup_s`` is the median of a few cold set-ups, each
timed from its process's start to the end of one warm-up op.  With ``--trace 1`` every other op of ``fit-cold`` and
``scale-blocks`` runs with spans around the calls into each layer, and
the per-layer metrics are reported (serve layers are read from the
timestamps jobs carry, so serve ops need no traced code path).
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results (and spans, when traced) are written under
``slotbench/out/``.  The command exits non-zero when any output check
fails.
"""

import time

PROCESS_T0 = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 3
"""Cold set-ups per run: this process's own and the rest each in a
fresh process.  ``setup_s`` is their median."""

SETUP_TIMEOUT = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up once, print the seconds since process start, and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report_metrics(names, values: dict, layers: bool = False) -> dict:
    """The metrics ``BENCHMARK.json`` lists, in its order, with units.

    Every end-to-end metric must be measured.  A layer that did no
    work in this workload reads 0, but a layer metric the spec does
    not list is an error, so a misspelt name cannot vanish.
    """
    if layers:
        unknown = set(values) - {m["name"] for m in names}
        if unknown:
            raise KeyError(f"not in BENCHMARK.json per_layer: {sorted(unknown)}")
        values = {m["name"]: values.get(m["name"], 0.0) for m in names}
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in names
    }


def trace_overhead(ops) -> float:
    """Traced over untraced median op latency, minus one."""
    traced = [op.latency for op in ops if op.ok and op.traced]
    plain = [op.latency for op in ops if op.ok and not op.traced]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


def cold_setup(args) -> float:
    """Seconds from start to the end of set-up in a fresh process."""
    command = [
        sys.executable, __file__, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]  # fmt: skip
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=SETUP_TIMEOUT
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import measure
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    # set-up ends with the warm-up op, so it pays every first-call cost
    workload.setup()
    setups = [time.perf_counter() - PROCESS_T0]
    if args.setup_only:
        workload.close()
        print(setups[0])
        return 0
    if not args.trace:  # a traced run does not report setup_s
        setups += [cold_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(setups)

    tracer = Tracer() if args.trace else None
    try:
        measured = workload.measure(args.seconds, tracer)
    finally:
        workload.close()
    summary = measure.summarize(measured.ops, measured.wall)
    summary["setup_s"] = setup_s
    env = measure.environment(**workload.environment())

    failed = sum(not op.ok for op in measured.ops)
    correct = not measured.problems
    if args.trace:
        layers = dict(measured.layers)
        layers["bench.trace_overhead_frac"] = trace_overhead(measured.ops)
        metrics = report_metrics(spec["per_layer"], layers, layers=True)
    else:
        metrics = report_metrics(spec["end_to_end"], summary)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["thread_env_flag"]:
        print(
            "WARNING: thread caps set in the environment "
            f"{env['thread_env']}; this run does not measure the shipped default",
            file=sys.stderr,
        )
    print(
        "setup    cold set-ups (process start to end of warm-up op) "
        + ", ".join(f"{r:.3f}" for r in setups)
        + " s"
    )
    print(
        f"ops      {len(measured.ops)} attempted, {failed} failed "
        f"(failed_frac {summary['failed_frac']:.4f}); tail is "
        f"p{summary['tail_percentile']:.0f} of {summary['samples']} "
        f"with {summary['tail_beyond']} beyond"
    )
    shown = report_metrics(spec["end_to_end"], summary)
    shown["failed_frac"] = {"value": summary["failed_frac"], "unit": "ratio"}
    if args.trace:
        shown.update(metrics)
    for name, metric in shown.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in measured.notes.items():
        print(f"note     {key}: {json.dumps(value, default=float)}")
    for problem in measured.problems[:10]:
        print(f"CHECK FAILED {problem}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "summary": summary,
        "setup_samples_s": setups,
        "latencies_s": [op.latency for op in measured.ops],
        "notes": measured.notes,
        "problems": measured.problems,
        "layers": measured.layers,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans.jsonl")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(measured.ops),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
