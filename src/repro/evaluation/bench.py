"""``addon-sig bench``: the corpus benchmark harness.

Runs the full benchmark corpus through the batch vetting engine under
the paper's timing protocol (``runs`` pipeline executions per addon,
first discarded, per-phase medians of the rest — Section 6.2) and writes
a machine-readable ``BENCH_corpus.json``:

- per addon: P1/P2/P3 median times, hot-path counters (fixpoint steps,
  states created, joins, PDG edges, ...), AST size, verdict;
- corpus totals plus the end-to-end wall time of the sweep itself (which
  is what the parallel engine improves — per-addon medians measure the
  single-pipeline hot paths).

Run: ``addon-sig bench [--runs N] [--workers N] [--output FILE]``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from repro.addons import CORPUS
from repro.batch import VetTask, summarize, vet_corpus, vet_many

SCHEMA = "addon-sig/bench-corpus/v8"

#: Where the examples corpus (the prefilter's benchmark) lives.
EXAMPLES_DIR = "examples/addons"

#: Where the versioned update pairs (the fast lane's benchmark) live.
VERSIONS_DIR = "examples/addons/versions"

#: Where the WebExtensions mini-corpus (the multi-file pipeline's
#: benchmark) lives: one directory per extension, each with a manifest.
EXTENSIONS_DIR = "examples/extensions"


# ----------------------------------------------------------------------
# The sweep and statistics layer shared by every harness (this report,
# ``addon-sig fleet`` and ``addon-sig service-bench``)


def timed_sweep(tasks: list[VetTask], **options) -> tuple[list, float]:
    """``vet_many(tasks, **options)`` and its end-to-end wall clock."""
    start = time.perf_counter()
    outcomes = vet_many(tasks, **options)
    return outcomes, time.perf_counter() - start


def wall_arms(
    on: float, off: float, on_key: str = "wall_on_s", off_key: str = "wall_off_s"
) -> dict:
    """The wall clocks of an on/off comparison and their delta."""
    return {
        on_key: round(on, 6),
        off_key: round(off, 6),
        "wall_delta_s": round(off - on, 6),
    }


def identical_signatures(first, second) -> bool:
    """Did two sweeps over the same tasks infer bit-identical signatures?"""
    return all(
        a.signature_text == b.signature_text for a, b in zip(first, second)
    )


def counter_total(outcomes, name: str) -> int:
    """One hot-path counter summed over a sweep."""
    return sum(outcome.counters.get(name, 0) for outcome in outcomes)


def tally(items) -> dict[str, int]:
    """Occurrences per distinct item, keyed in sorted order."""
    return dict(sorted(Counter(items).items()))


def _hit_rate(hits: int, total: int) -> float | None:
    """``hits/total`` rounded — or ``None`` (a null rate, not a crash)
    when the corpus was empty or fully filtered and ``total`` is 0."""
    if total == 0:
        return None
    return round(hits / total, 4)


def merge_report(
    path: str | Path, sections: dict, keep: tuple[str, ...] | None = None
) -> dict:
    """Write ``sections`` into the JSON report at ``path``; returns the
    written report. The sections already there survive unless
    ``sections`` replaces them — all of them, or with ``keep`` only the
    named ones. An unreadable or non-object report counts as empty."""
    from repro.store import atomic_write_json

    path = Path(path)
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        previous = {}
    report = dict(sections)
    if isinstance(previous, dict):
        report.update(
            (key, value) for key, value in previous.items()
            if key not in sections and (keep is None or key in keep)
        )
    atomic_write_json(path, report, fsync=False)
    return report


# ----------------------------------------------------------------------
# The side-corpus sections


def _js_files(examples_dir: str | Path | None) -> list[Path] | None:
    """The ``*.js`` files of a side corpus, or ``None`` (section skipped)
    when there is no such directory."""
    if examples_dir is None or not Path(examples_dir).is_dir():
        return None
    return sorted(Path(examples_dir).glob("*.js"))


def _bench_prefilter(examples_dir: str | Path | None) -> dict | None:
    """Measure the relevance prefilter on the examples corpus.

    Vets every ``*.js`` under ``examples_dir`` twice — prefilter on,
    prefilter off — in-process, uncached, with ``recover=True`` (the
    corpus deliberately contains an unparseable legacy addon). Returns
    the hit rate, both wall clocks, and whether the two sweeps produced
    bit-identical signatures (they must: the prefilter is sound)."""
    files = _js_files(examples_dir)
    if files is None:
        return None

    def tasks(prefilter: bool) -> list[VetTask]:
        return [
            VetTask(
                name=path.name,
                source=path.read_text(encoding="utf-8"),
                recover=True,
                prefilter=prefilter,
            )
            for path in files
        ]

    on, wall_on = timed_sweep(tasks(True), use_cache=False, workers=1)
    off, wall_off = timed_sweep(tasks(False), use_cache=False, workers=1)
    hits = sum(outcome.prefiltered for outcome in on)
    return {
        "corpus": str(Path(examples_dir)),
        "addons": len(files),
        "hits": hits,
        "hit_rate": _hit_rate(hits, len(files)),
        **wall_arms(wall_on, wall_off),
        "identical_signatures": identical_signatures(on, off),
    }


def _callgraph_edges(source: str) -> int:
    """Call-graph edges of ``source`` as parsed under recovery (0 when
    even recovery cannot parse it: its vet outcome is a failure)."""
    from repro.api import front_end
    from repro.js.errors import FrontendError
    from repro.preanalysis import build_callgraph

    try:
        trees, _skips = front_end(source).parse_files(source, recover=True)
    except FrontendError:
        return 0
    return build_callgraph(trees).edges


def _bench_preanalysis(examples_dir: str | Path | None) -> dict | None:
    """Measure the whole-program pre-analysis on the examples corpus.

    Vets every ``*.js`` under ``examples_dir`` twice — pre-analysis on,
    pre-analysis off — with the prefilter enabled in both arms,
    in-process, uncached, ``recover=True``. Records the computed-site
    resolution rate, the fraction of AST nodes pruned as unreachable,
    the prefilter hit rate in each arm (the resolver's contribution is
    the difference), both wall clocks, and whether the arms produced
    bit-identical signatures (they must: resolution and pruning are
    sound)."""
    files = _js_files(examples_dir)
    if files is None:
        return None

    def tasks(preanalysis: bool) -> list[VetTask]:
        return [
            VetTask(
                name=path.name,
                source=path.read_text(encoding="utf-8"),
                recover=True,
                prefilter=True,
                preanalysis=preanalysis,
            )
            for path in files
        ]

    on, wall_on = timed_sweep(tasks(True), use_cache=False, workers=1)
    off, wall_off = timed_sweep(tasks(False), use_cache=False, workers=1)
    resolved = counter_total(on, "resolved_sites")
    residual = counter_total(on, "residual_dynamic_sites")
    pruned = counter_total(on, "pruned_nodes")
    total_nodes = sum(outcome.ast_nodes or 0 for outcome in on)
    hits_on = sum(outcome.prefiltered for outcome in on)
    hits_off = sum(outcome.prefiltered for outcome in off)
    return {
        "corpus": str(Path(examples_dir)),
        "addons": len(files),
        "resolved_sites": resolved,
        "residual_dynamic_sites": residual,
        # Of all computed property sites, how many the constant-string
        # lattice pinned down to named accesses.
        "resolution_rate": _hit_rate(resolved, resolved + residual),
        "pruned_nodes": pruned,
        "pruned_node_fraction": (
            _hit_rate(pruned, total_nodes + pruned) if total_nodes else None
        ),
        # Vetting no longer builds the advisory call graph, so it is
        # built here, outside both timed arms.
        "callgraph_edges": sum(
            _callgraph_edges(path.read_text(encoding="utf-8"))
            for path in files
        ),
        # The prefilter's hit rate with and without the resolver — the
        # difference is what the pre-analysis buys the fast lane.
        "hits_with_preanalysis": hits_on,
        "hit_rate_with_preanalysis": _hit_rate(hits_on, len(files)),
        "hits_without_preanalysis": hits_off,
        "hit_rate_without_preanalysis": _hit_rate(hits_off, len(files)),
        **wall_arms(wall_on, wall_off),
        "identical_signatures": identical_signatures(on, off),
    }


def _bench_incremental(versions_dir: str | Path | None) -> dict | None:
    """Measure the incremental fast lane on the versioned update pairs.

    For every pair under ``versions_dir`` the approved old version is
    vetted once to establish the baseline signature, then the new
    version is vetted twice — fast lane on, fast lane off — in-process,
    uncached. Returns the certificate hit count/rate, both wall clocks,
    and whether the fast lane served bit-identical signatures to the
    full re-analysis (it must: the certificate is sound)."""
    from repro.diffvet import discover_pairs

    if versions_dir is None or not Path(versions_dir).is_dir():
        return None
    pairs = discover_pairs(versions_dir)
    baselines = vet_many(
        [
            VetTask(name=f"{pair.name}@old", source=pair.old_source(),
                    recover=True)
            for pair in pairs
        ],
        use_cache=False, workers=1,
    )

    def tasks(incremental: bool) -> list[VetTask]:
        return [
            VetTask(
                name=f"{pair.name}@new",
                source=pair.new_source(),
                recover=True,
                baseline_source=pair.old_source(),
                baseline_signature_text=baseline.signature_text,
                incremental=incremental,
            )
            for pair, baseline in zip(pairs, baselines)
        ]

    fast, wall_fast = timed_sweep(tasks(True), use_cache=False, workers=1)
    full, wall_full = timed_sweep(tasks(False), use_cache=False, workers=1)
    hits = sum(outcome.incremental for outcome in fast)
    return {
        "corpus": str(versions_dir),
        "pairs": len(pairs),
        "hits": hits,
        "hit_rate": _hit_rate(hits, len(pairs)),
        # The cost gate's economics: certificates attempted vs. skipped
        # because full re-analysis was predicted cheaper.
        "certifications_attempted": counter_total(
            fast, "certification_attempted"
        ),
        "certifications_skipped": counter_total(fast, "certification_skipped"),
        **wall_arms(wall_fast, wall_full, "wall_incremental_s", "wall_full_s"),
        "identical_signatures": identical_signatures(fast, full),
        "verdicts": tally(o.diff_verdict for o in fast if o.diff_verdict),
    }


def _bench_webext(extensions_dir: str | Path | None, runs: int = 3) -> dict | None:
    """Measure the multi-file WebExtensions pipeline on the mini-corpus.

    Each extension directory under ``extensions_dir`` is vetted with the
    prefilter off under the engine's timing protocol (``runs`` runs,
    warm-up discarded, per-phase medians of the rest), recording the
    cross-component shape (components, dispatched channels, sender
    guards). A second single-run sweep with the prefilter on yields the
    bundle-level hit rate and the bit-identical-signatures soundness
    check."""
    from repro.webext.loader import load_source

    if extensions_dir is None or not Path(extensions_dir).is_dir():
        return None
    roots = sorted(
        child for child in Path(extensions_dir).iterdir()
        if child.is_dir() and (child / "manifest.json").exists()
    )
    sources = [load_source(root) for root in roots]

    def tasks(prefilter: bool, task_runs: int) -> list[VetTask]:
        return [
            VetTask(name=root.name, source=source, runs=task_runs,
                    prefilter=prefilter)
            for root, source in zip(roots, sources)
        ]

    timed = vet_many(tasks(False, runs), use_cache=False, workers=1)
    filtered = vet_many(tasks(True, 1), use_cache=False, workers=1)
    extensions = []
    for outcome, hit in zip(timed, filtered):
        if not outcome.ok:
            raise RuntimeError(f"{outcome.name}: {outcome.error}")
        extensions.append({
            "name": outcome.name,
            "degraded": outcome.degraded,
            "prefiltered": hit.prefiltered,
            "ast_nodes": outcome.ast_nodes,
            **{
                f"{phase}_s": round(outcome.times[phase], 6)
                for phase in ("p1", "p2", "p3")
            },
            "total_s": round(outcome.total_time, 6),
            "samples_kept": outcome.timing_samples,
            **{
                name: outcome.counters.get(name, 0)
                for name in ("components", "channels", "sender_guards",
                             "signature_entries")
            },
        })
    hits = sum(outcome.prefiltered for outcome in filtered)
    return {
        "corpus": str(Path(extensions_dir)),
        "extensions": extensions,
        "count": len(extensions),
        "prefilter_hits": hits,
        "prefilter_hit_rate": _hit_rate(hits, len(extensions)),
        "identical_signatures": identical_signatures(filtered, timed),
    }


def run_bench(
    runs: int = 3,
    k: int = 1,
    workers: int | None = None,
    output: str | Path | None = "BENCH_corpus.json",
    use_cache: bool = False,
    timeout: float | None = None,
    examples_dir: str | Path | None = EXAMPLES_DIR,
    versions_dir: str | Path | None = VERSIONS_DIR,
    extensions_dir: str | Path | None = EXTENSIONS_DIR,
    corpus=None,
) -> dict:
    """Benchmark the corpus; returns (and optionally writes) the report.

    Beyond the timings, the report records each addon's robustness
    outcome (typed failure kind, degraded flag and degradation kinds)
    and a corpus-level per-kind breakdown, so the perf trajectory in
    ``BENCH_corpus.json`` also tracks robustness regressions.

    Since v3 the report also carries a ``prefilter`` section: the
    examples corpus (``examples/addons``) vetted with the relevance
    prefilter on and off — hit count/rate, both wall clocks, and a
    bit-identical-signatures check. Skipped (``None``) when the
    examples directory is absent.

    Since v4 it also carries an ``incremental`` section — the versioned
    update pairs (``examples/addons/versions``) vetted with the
    differential fast lane on and off: certificate hit rate, both wall
    clocks, the diff-verdict breakdown, and the fast-lane soundness
    check (served signatures bit-identical to full re-analysis) — and
    each per-addon entry records ``samples_kept``, how many timing
    samples actually survived the warm-up discard.

    Since v5 the default protocol is ``runs=3`` (discard the warm-up,
    median of 2 kept samples — the cheapest protocol whose medians are
    not single samples) and the incremental section counts fast-lane
    certifications attempted vs. skipped by the cost gate
    (``repro.batch.FAST_LANE_MIN_SOURCE_CHARS``).

    Since v6 the report carries a ``webext`` section: the multi-file
    extension mini-corpus (``examples/extensions``) vetted under the
    same timing protocol — per-extension phase medians, cross-component
    shape (components, dispatched channels, sender guards), and the
    bundle-level prefilter hit rate with its bit-identical-signatures
    soundness check. Skipped (``None``) when the extensions directory
    is absent or holds no manifests.

    Since v7 hit rates are *null* (``None``) with zero counts when a
    section's corpus directory exists but is empty or fully filtered —
    never a ZeroDivisionError — and the report can carry a ``fleet``
    section written by ``addon-sig fleet`` (:mod:`repro.corpusgen
    .fleet`): store-scale throughput, cache/prefilter/incremental hit
    rates, peak RSS, and the zero-must-hold verdict-mismatch count over
    a generated corpus. ``run_bench`` preserves an existing ``fleet``
    section in ``output`` when rewriting the other sections.

    Since v8 the report carries a ``preanalysis`` section: the examples
    corpus vetted with the whole-program pre-analysis on and off —
    computed-site resolution rate, pruned-node fraction, call-graph
    edge count, the prefilter hit rate in each arm (the resolver's
    contribution is the difference), wall delta, and the bit-identical
    -signatures soundness check — and the ``fleet`` prefilter section
    gains the matching ``hits_without_resolution`` control and
    ``resolution_gain``.

    ``corpus`` restricts the sweep to the given addon specs (default:
    the full benchmark corpus)."""
    start = time.perf_counter()
    outcomes = vet_corpus(corpus if corpus is not None else CORPUS,
                          runs=runs, k=k, workers=workers,
                          use_cache=use_cache, timeout=timeout)
    wall_s = time.perf_counter() - start

    addons = []
    for outcome in outcomes:
        entry: dict = {
            "name": outcome.name,
            "ok": outcome.ok,
            "cached": outcome.cached,
            "degraded": outcome.degraded,
            "prefiltered": outcome.prefiltered,
        }
        if outcome.degradations:
            entry["degradations"] = list(outcome.degradations)
        if outcome.ok and outcome.times is not None:
            entry.update(
                verdict=outcome.verdict,
                ast_nodes=outcome.ast_nodes,
                **{f"{phase}_s": seconds for phase, seconds in outcome.times.items()},
                total_s=outcome.total_time,
                samples_kept=outcome.timing_samples,
                counters=dict(outcome.counters),
            )
        else:
            entry["error"] = outcome.error
            entry["failure"] = outcome.failure
        addons.append(entry)
    timed = [entry for entry in addons if "total_s" in entry]

    report = {
        "schema": SCHEMA,
        "protocol": {
            "runs": runs,
            "discard_first": runs > 1,
            "statistic": "median",
            "k": k,
            "workers": workers,
            "timeout_s": timeout,
        },
        "addons": addons,
        "corpus": {
            "count": len(addons),
            "ok": len(timed),
            # Sum of per-addon median pipeline times (sequential cost)...
            **{
                key: round(sum((entry[key] for entry in timed), 0.0), 6)
                for key in ("p1_s", "p2_s", "p3_s", "total_s")
            },
            # ...versus the batch engine's actual end-to-end wall clock.
            "wall_s": round(wall_s, 6),
        },
        # The per-kind failure/degradation breakdown: the robustness
        # trajectory tracked alongside the perf trajectory.
        "robustness": summarize(outcomes),
        # The relevance prefilter measured on the examples corpus.
        "prefilter": _bench_prefilter(examples_dir),
        # The whole-program pre-analysis measured on the same corpus.
        "preanalysis": _bench_preanalysis(examples_dir),
        # The incremental fast lane measured on the versioned pairs.
        "incremental": _bench_incremental(versions_dir),
        # The multi-file WebExtensions pipeline on its mini-corpus.
        "webext": _bench_webext(extensions_dir, runs=runs),
    }
    if output is not None:
        # A fleet section (written by ``addon-sig fleet``) rides along:
        # rewriting the bench sections must not drop it.
        report = merge_report(output, report, keep=("fleet",))
    return report


def render_bench(report: dict) -> str:
    lines = [
        f"corpus bench ({report['protocol']['runs']} runs/addon, median after warm-up discard)",
        "",
    ]
    for addon in report["addons"]:
        if addon["ok"]:
            cached = " [cached]" if addon["cached"] else ""
            degraded = ""
            if addon.get("degraded"):
                kinds = sorted({d["kind"] for d in addon.get("degradations", [])})
                degraded = f" [degraded: {','.join(kinds)}]"
            lines.append(
                f"  {addon['name']:<22} {addon['verdict']:<5}"
                f" P1 {addon['p1_s']:.3f}s  P2 {addon['p2_s']:.3f}s"
                f"  P3 {addon['p3_s']:.3f}s  total {addon['total_s']:.3f}s"
                f"{cached}{degraded}"
            )
        else:
            kind = addon.get("failure") or "?"
            lines.append(
                f"  {addon['name']:<22} ERROR [{kind}] {addon['error']}"
            )
    corpus = report["corpus"]
    lines.append("")
    lines.append(
        f"  corpus: {corpus['ok']}/{corpus['count']} ok,"
        f" summed pipeline {corpus['total_s']:.3f}s,"
        f" batch wall {corpus['wall_s']:.3f}s"
    )
    def rate(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.0%}"

    prefilter = report.get("prefilter")
    if prefilter:
        lines.append(
            f"  prefilter ({prefilter['corpus']}):"
            f" {prefilter['hits']}/{prefilter['addons']} addons skipped"
            f" (hit rate {rate(prefilter['hit_rate'])}),"
            f" wall {prefilter['wall_on_s']:.3f}s on"
            f" vs {prefilter['wall_off_s']:.3f}s off"
        )
    preanalysis = report.get("preanalysis")
    if preanalysis:
        lines.append(
            f"  preanalysis ({preanalysis['corpus']}):"
            f" {preanalysis['resolved_sites']} computed site(s) resolved"
            f" (rate {rate(preanalysis['resolution_rate'])}),"
            f" {preanalysis['pruned_nodes']} node(s) pruned,"
            f" prefilter {rate(preanalysis['hit_rate_without_preanalysis'])}"
            f" -> {rate(preanalysis['hit_rate_with_preanalysis'])}"
        )
    incremental = report.get("incremental")
    if incremental:
        lines.append(
            f"  incremental ({incremental['corpus']}):"
            f" {incremental['hits']}/{incremental['pairs']} updates fast-laned"
            f" (hit rate {rate(incremental['hit_rate'])}),"
            f" wall {incremental['wall_incremental_s']:.3f}s on"
            f" vs {incremental['wall_full_s']:.3f}s off"
        )
    webext = report.get("webext")
    if webext:
        total = sum(e["total_s"] for e in webext["extensions"])
        channels = sum(e["channels"] for e in webext["extensions"])
        lines.append(
            f"  webext ({webext['corpus']}):"
            f" {webext['count']} extensions in {total:.3f}s,"
            f" {channels} channels dispatched,"
            f" prefilter hit rate {rate(webext['prefilter_hit_rate'])}"
        )
    fleet = report.get("fleet")
    if fleet:
        throughput = fleet.get("throughput", {})
        lines.append(
            f"  fleet: {fleet['count']} generated addons,"
            f" {throughput.get('addons_per_s') or 0:.1f} addons/s,"
            f" verdict mismatches {fleet['verdict_mismatches']}"
        )
    robustness = report.get("robustness", {})
    if robustness.get("failed") or robustness.get("degraded"):
        failures = ", ".join(
            f"{kind}={count}" for kind, count in robustness["failures"].items()
        ) or "none"
        degraded = ", ".join(
            f"{kind}={count}"
            for kind, count in robustness["degradation_kinds"].items()
        ) or "none"
        lines.append(
            f"  robustness: failures [{failures}], degraded [{degraded}]"
        )
    return "\n".join(lines)
