"""The repository benchmark: one command, four workloads, oracle-checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pos-fit --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the workload untraced and prints every end-to-end
metric; ``--trace 1`` measures it untraced and then again with spans
wrapped around the program's entry points, and prints the per-layer
metrics, a self-time summary per layer, the share of each operation the
layer spans account for, and the tracing overhead (traced minus untraced
end-to-end figures).  Each workload's own figures (``lone_p50_ms``,
``hmm.corpus.compile_s``, ...) are printed as ``metric`` lines.  The last
line of standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``, whose metrics are the same for every workload:
``END_TO_END`` untraced, ``PER_LAYER`` traced.

Inputs come from ``repro.datasets`` and the seed only, and are cached per
seed in ``.perfbench_cache/``.  Spans and full results are written to
``.perfbench_out/``.  BLAS pools are pinned to one thread before numpy
loads; the environment stamp records it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "pos-fit": "perfbench.workloads.pos_fit",
    "tag-serve": "perfbench.workloads.tag_serve",
    "stream": "perfbench.workloads.stream",
    "long-decode": "perfbench.workloads.long_decode",
}
#: Coverage below this share of an operation's time is flagged as unattributed.
MIN_COVERAGE = 0.8

#: The result line's metrics, as ``BENCHMARK.json`` names them, with units.
#: Every workload reports every one: ``tokens_per_s``, ``latency_ms`` and
#: ``accuracy`` are the figures its ``HEADLINE`` maps them to.
END_TO_END = {
    "tokens_per_s": "tok/s",
    "latency_ms": "ms",
    "accuracy": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: The traced result line's metrics.  Each workload's ``CATEGORY`` sorts its
#: layer spans into the three layers every workload passes through: emission
#: scoring, the recursions (forward-backward, Viterbi, streaming steps), and
#: the orchestration that feeds them (EM and the DPP M-step, routing and dispatch,
#: streaming sessions, long-sequence stitching).  Self time is per token the
#: measured operations processed.
PER_LAYER = {
    "emissions.ns_per_tok": "ns/tok",
    "recursion.ns_per_tok": "ns/tok",
    "orchestration.ns_per_tok": "ns/tok",
    "trace.coverage": "share",
}

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rss-probe",
        action="store_true",
        help="internal: set up and run one pass, print the peak RSS, exit",
    )
    return parser.parse_args(argv)


def measure(module, inputs, args, tracer):
    """Measure once, with ``SETUP_REPS`` set-ups around it (median = setup_s).

    Half the set-ups run before the measurement and half after it: a
    shared host holds one speed for a second or so, longer than a burst of
    short set-ups takes, so set-ups taken at one moment share its speed.
    """
    from perfbench import stats

    bench = module.Bench(inputs, args.seed, tracer)
    times = []

    def set_up() -> None:
        start = time.perf_counter()
        bench.setup()
        times.append(time.perf_counter() - start)

    before = (module.SETUP_REPS + 1) // 2
    try:
        for rep in range(before):
            if rep:
                bench.teardown()
            set_up()
        # Start from a collected heap: the first full collection after
        # set-up would otherwise stall a random phase for tens of ms.
        gc.collect()
        outcome = bench.measure(args.seconds)
        for _ in range(module.SETUP_REPS - before):
            bench.teardown()
            set_up()
    finally:
        bench.teardown()
    mid = stats.median(times)
    outcome.put("setup_s", mid.value, "s", mid.n, f"median of {mid.n} set-ups")
    return outcome


def headline(module, outcome) -> dict:
    """The ``END_TO_END`` metrics, each taken from the figure the workload maps it to."""
    from perfbench import harness

    shown = {}
    for name, unit in END_TO_END.items():
        source = module.HEADLINE.get(name, name)
        metric = outcome.metrics[source]
        if metric.unit != unit:
            raise ValueError(f"{source} is in {metric.unit}, {name} must be in {unit}")
        note = metric.note if source == name else f"{source}: {metric.note}"
        shown[name] = harness.Metric(metric.value, unit, metric.n, note)
    return shown


def per_layer(module, tracer, outcome, coverage: float) -> dict:
    """The ``PER_LAYER`` metrics of a traced run."""
    from perfbench import harness, trace

    scope = getattr(module, "SCOPE", module.ROOTS)
    times = trace.category_times(tracer.spans, scope, module.CATEGORY)
    tokens = max(outcome.tokens, 1)
    shown = {}
    for layer in ("emissions", "recursion", "orchestration"):
        spent = times[layer]
        shown[f"{layer}.ns_per_tok"] = harness.Metric(
            spent.self_s * 1e9 / tokens, "ns/tok", spent.calls,
            f"self time over {outcome.tokens} tokens",
        )
    shown["trace.coverage"] = harness.Metric(coverage, "share", len(tracer.spans), "of root-span time")
    return shown


def rss_probe(args) -> float:
    """Peak RSS (MB) of a separate process running one untimed pass."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--rss-probe",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"rss probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure (missing {ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, trace

    module = importlib.import_module(WORKLOADS[args.workload])
    inputs = harness.cached_inputs(module.INPUT_NAME, args.seed, module.make_inputs)

    if args.rss_probe:
        bench = module.Bench(inputs, args.seed, None)
        bench.setup()
        try:
            bench.probe()
        finally:
            bench.teardown()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))
        return 0

    env = harness.environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    untraced = measure(module, inputs, args, None)
    report: dict[str, object] = {"environment": env, "workload": args.workload}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        try:
            untraced.put("peak_rss_mb", rss_probe(args), "MB", 1, "own process, one untimed pass")
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            untraced.check(False, f"peak RSS probe failed: {exc}")
        named, attempted, failed = untraced.metrics, untraced.attempted, untraced.failed
        errors, details = untraced.errors, untraced.details
        shown = headline(module, untraced)
    else:
        tracer = trace.Tracer()
        module.instrument(tracer)
        try:
            traced = measure(module, inputs, args, tracer)
        finally:
            tracer.restore()
        named = module.layers(tracer, traced)
        share = trace.coverage(tracer.spans, module.ROOTS)
        shown = per_layer(module, tracer, traced, share)
        rows = trace.summarise(tracer.spans)
        roots_s = sum(s.duration for s in tracer.spans if s.name in module.ROOTS)
        print(trace.format_summary(rows, roots_s))
        verdict = "ok" if share >= MIN_COVERAGE else "LOW: unattributed time"
        print(f"coverage {share:.3f} of root-span time ({verdict}; roots: {', '.join(module.ROOTS)})")
        overhead = {
            name: {
                "untraced": m.value,
                "traced": traced.metrics[name].value,
                "delta": traced.metrics[name].value - m.value,
            }
            for name, m in untraced.metrics.items()
            if name in traced.metrics
        }
        for name, row in overhead.items():
            unit = untraced.metrics[name].unit
            print(
                f"trace overhead {name}: {row['traced']:.6g} - {row['untraced']:.6g} "
                f"= {row['delta']:+.6g} {unit}"
            )
        tracer.write(harness.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
        report["trace_overhead"] = overhead
        report["layers"] = [row.__dict__ for row in rows]
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        errors = untraced.errors + traced.errors
        details = {"untraced": untraced.details, "traced": traced.details}

    for key, value in details.items():
        print(f"detail {key}: {json.dumps(value, default=str)}")
    for name, metric in named.items():
        print(f"metric {name} = {metric.value:.6g} {metric.unit} (n={metric.n}; {metric.note})")
    for name, metric in shown.items():
        print(f"result {name} = {metric.value:.6g} {metric.unit} (n={metric.n}; {metric.note})")
    for message in errors:
        print(f"FAILED {message}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in shown.items()},
    }
    report.update(result)
    report["samples"] = {name: {"n": m.n, "note": m.note} for name, m in {**named, **shown}.items()}
    report["details"] = details
    report["raw_samples"] = untraced.samples
    harness.OUT_DIR.mkdir(exist_ok=True)
    (harness.OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
