"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

``--trace 0`` times whole passes over the workload for about
``--seconds`` with nothing installed and prints the end-to-end
metrics, every time scaled to the reference speed of
``calibrate.py``. ``--trace 1`` vets one fixed pass untraced, then the
same pass again with layer wrappers installed (``tracing.py``), and prints the per-layer metrics; the exact
counts of the two passes must agree. Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``. See ``perfbench/README.md`` for the workloads and
what each metric should predict.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
#: Set-up runs per timed run: this process plus fresh processes.
SETUP_SAMPLES = 7
#: Reference times that set the speed of one set-up run.
SETUP_CALIBRATION = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("fleet", "analysis", "store")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def setup(args):
    """Import the program, generate the inputs, warm up. Returns the
    workload and the seconds since this process started."""
    from workloads import build

    workload = build(args.workload, args.seed, args.size, SCRATCH)
    workload.warm()
    return workload, time.perf_counter() - PROCESS_START


def at_reference_speed(seconds: float) -> float:
    """``seconds`` just measured, brought to the reference speed by the
    median of reference times taken right after."""
    from calibrate import REFERENCE_S, reference_seconds

    reference = [reference_seconds() for _ in range(SETUP_CALIBRATION)]
    return seconds * REFERENCE_S / statistics.median(reference)


def setup_in_fresh_process(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(tally, setup_times) -> dict[str, float]:
    """Every time at the reference speed (``Tally.scaled``)."""
    from workloads import percentile

    busy_s = sum(tally.scaled(tally.segments))
    latencies = tally.scaled(tally.latencies)
    return {
        "addons_per_s": tally.attempted / busy_s,
        "knodes_per_s": tally.ast_nodes / 1000.0 / busy_s,
        "vet_p50_ms": statistics.median(latencies) * 1000.0,
        "vet_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "largest_vet_s": statistics.median(tally.scaled(tally.largest)),
        "peak_rss_mb": tally.peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(untraced, traced, tracer, workers: int) -> dict[str, float]:
    from tracing import attributed_seconds, summarize

    table = summarize(tracer.spans)

    def total(name, parent="*"):
        entry = table.get((name, parent))
        return entry.total if entry else 0.0

    def self_time(name):
        entry = table.get((name, "*"))
        return entry.self_time if entry else 0.0

    def calls(name, parent="*"):
        entry = table.get((name, parent))
        return entry.calls if entry else 0

    counts, batch = traced.counts, traced.batch
    items = max(1, counts["items"])
    updates = batch["updates"]
    store_s = (
        total("store.cache_load", "batch.vet_many")
        + total("store.cache_put", "batch.vet_many")
        + total("store.version")
    )
    worker_busy = batch["worker_busy_s"]
    attributed = attributed_seconds(tracer.spans)
    return {
        "js.parse_s": total("js.parse"),
        "js.node_count_s": total("js.node_count"),
        "js.ast_knodes": counts["ast_nodes"] / 1000.0,
        "preanalysis.self_s": self_time("preanalysis"),
        "preanalysis.surface_s": total("lint.surface", "preanalysis"),
        "preanalysis.resolve_s": total("preanalysis.resolve"),
        "preanalysis.callgraph_s": total("preanalysis.callgraph"),
        "preanalysis.prune_s": total("preanalysis.prune"),
        "preanalysis.pruned_nodes": counts["pruned_nodes"],
        "preanalysis.resolved_sites": counts["resolved_sites"],
        "lint.prefilter_s": total("lint.prefilter"),
        "lint.prefilter_hit_ratio": counts["prefiltered"] / items,
        "lint.surface_calls_per_addon": calls("lint.surface") / items,
        "ir.lower_s": total("ir.lower"),
        "ir.lower_prefiltered_s": total("ir.lower_prefiltered"),
        "webext.parse_s": total("webext.parse"),
        "webext.lower_s": total("webext.lower"),
        "webext.guards_s": total("webext.guards"),
        "analysis.interpret_s": total("analysis.interpret"),
        "analysis.fixpoint_steps": counts["fixpoint_steps"],
        "analysis.states_created": counts["states_created"],
        "analysis.state_joins": counts["state_joins"],
        "pdg.self_s": self_time("pdg"),
        "pdg.icfg_s": total("pdg.icfg"),
        "pdg.ddg_s": total("pdg.ddg"),
        "pdg.cdg_s": total("pdg.cdg"),
        "pdg.edges": counts["pdg_edges"],
        "signatures.infer_s": total("signatures.infer"),
        "signatures.entries": counts["signature_entries"],
        "diffvet.certification_attempted": counts["certification_attempted"],
        "diffvet.fast_lane_ratio": batch["incremental"] / updates if updates else 0.0,
        "diffvet.certify_s": batch["certify_s"],
        "batch.vet_many_s": total("batch.vet_many"),
        "batch.worker_busy_s": worker_busy,
        "batch.dispatch_overhead_s": (
            total("batch.vet_many") * workers - worker_busy - store_s
            if batch["tasks"] else 0.0
        ),
        "batch.cache_hit_ratio": (
            batch["cached"] / batch["tasks"] if batch["tasks"] else 0.0
        ),
        "batch.pool_retries": counts["pool_retries"],
        "store.cache_load_s": total("store.cache_load", "batch.vet_many"),
        "store.cache_put_s": total("store.cache_put", "batch.vet_many"),
        "store.version_s": total("store.version"),
        "store.cache_loads": calls("store.cache_load", "batch.vet_many"),
        "store.cache_puts": calls("store.cache_put", "batch.vet_many"),
        "trace.attributed_frac": attributed / traced.wall,
        "trace.unattributed_s": traced.wall - attributed,
        "trace.overhead_frac": traced.wall / untraced.wall - 1.0,
    }


def run(args) -> dict:
    """Run one workload; returns the result object the last line prints."""
    from tracing import Tracer

    declared = declared_metrics()
    workload, setup_s = setup(args)
    problems: list[str] = []
    try:
        if args.trace:
            untraced = workload.run_pass()
            tracer = Tracer()
            tracer.install(workload.layers)
            try:
                traced = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            if untraced.exact() != traced.exact():
                problems.append(
                    "exact counts differ between two passes of one seed: "
                    f"{untraced.exact()} != {traced.exact()}"
                )
            tallies = (untraced, traced)
            values = per_layer(untraced, traced, tracer, workload.workers)
            units = declared["per_layer"]
        else:
            tally = workload.run_timed(args.seconds)
            setup_times = [at_reference_speed(setup_s)] + [
                at_reference_speed(setup_in_fresh_process(args))
                for _ in range(SETUP_SAMPLES - 1)
            ]
            tallies = (tally,)
            values = end_to_end(tally, setup_times)
            units = declared["end_to_end"]
    finally:
        workload.close()
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: emitted metrics {sorted(values)} do not match "
            f"BENCHMARK.json {sorted(units)}"
        )
    attempted = sum(t.attempted for t in tallies)
    failures = [problem for t in tallies for problem in t.failures] + problems
    for problem in failures[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    failed = min(attempted, len(failures))
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} items, failed_frac={failed / max(1, attempted):.4f}, "
        f"loop wall {sum(t.wall for t in tallies):.2f}s"
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's sources are missing ({ROOT / 'src' / 'repro'});"
            " run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        workload, setup_s = setup(args)
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
