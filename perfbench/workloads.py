"""The benchmark's three workloads, their seeded inputs and verdict checks.

- ``fleet`` — generated store addons (3/4 single files, 1/4 MV3
  bundles), each vetted in-process by ``repro.api.vet(prefilter=True)``:
  the benign-heavy shape where the front end and the prefilter matter.
- ``analysis`` — the ten curated addons plus the ``scaling`` flat/chain
  shapes, in-process: every item reaches the interpreter and the PDG.
- ``store`` — a submission stream through ``repro.batch.vet_many`` with
  an on-disk cache and a ``VersionStore``: the only workload that runs
  the pool, the cache and differential vetting.

Every item carries its known answer; :class:`Tally` counts an item as
failed when its signature or verdict is wrong, when vetting raised, or
when the run degraded. Exact counts (AST nodes, fixpoint steps, PDG
edges, ...) are kept per pass so a traced run can require them to
repeat bit for bit.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, ParallelReference, reference_seconds
from tracing import PIPELINE_LAYERS, STORE_LAYERS

#: Reference times on either side of a segment that set its speed: a
#: few seconds of the run, long enough to smooth the reference's own
#: jitter and short enough to follow the host's load.
CALIBRATION_WINDOW = 5

#: Per-report counters that must repeat exactly on every run of a seed.
EXACT_COUNTERS = (
    "fixpoint_steps",
    "states_created",
    "state_joins",
    "pdg_edges",
    "signature_entries",
    "pruned_nodes",
    "resolved_sites",
    "certification_attempted",
    "pool_retries",
)


def exact_counts(ast_nodes: int, prefiltered: bool, counters: dict) -> Counter:
    counts = Counter({name: counters.get(name, 0) for name in EXACT_COUNTERS})
    counts["items"] = 1
    counts["ast_nodes"] = ast_nodes
    counts["prefiltered"] = int(prefiltered)
    return counts


@dataclass
class Tally:
    """What one pass or timed loop vetted, and how long each part took.

    A pass is cut into segments: fixed runs of consecutive work (a
    block of items, or one ``vet_many`` call). An untraced pass times
    the reference routine (``calibrate.py``) before each segment, and
    every time measured in the segment is kept with the index of that
    reference time, so ``scaled`` can bring it to the reference speed.
    """

    #: Measured seconds: the loop's elapsed time minus ``untimed``.
    wall: float = 0.0
    #: Seconds the benchmark spent between items on its own account.
    untimed: float = 0.0
    attempted: int = 0
    #: Per-item time to verdict and its reference index, of every item
    #: vetted (the cache's answers have none of their own).
    latencies: list[tuple[float, int]] = field(default_factory=list)
    #: The same, of the items among the largest inputs.
    largest: list[tuple[float, int]] = field(default_factory=list)
    #: Measured seconds of each segment and its reference index.
    segments: list[tuple[float, int]] = field(default_factory=list)
    #: Times of the reference routine, in the order they were taken.
    reference: list[float] = field(default_factory=list)
    ast_nodes: int = 0
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    #: Outcome-derived batch figures (``store`` only).
    batch: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0

    def exact(self) -> Counter:
        """Every count that must repeat exactly for one seed."""
        counts = Counter(self.counts)
        for name in ("tasks", "updates", "cached", "incremental"):
            counts[f"batch.{name}"] = self.batch[name]
        return counts

    def record(
        self, latency: float | None, ast_nodes: int, problem: str | None, large: bool
    ) -> None:
        self.attempted += 1
        self.ast_nodes += ast_nodes
        if latency is not None:
            sample = (latency, len(self.reference) - 1)
            self.latencies.append(sample)
            if large:
                self.largest.append(sample)
        if problem is not None:
            self.failures.append(problem)

    def segment(self, seconds: float) -> None:
        self.segments.append((seconds, len(self.reference) - 1))

    def calibrate(self, reference: Callable[[], float] = reference_seconds) -> None:
        """Time the reference routine, outside the measured time."""
        start = perf_counter()
        self.reference.append(reference())
        self.untimed += perf_counter() - start

    def scaled(self, samples: list[tuple[float, int]]) -> list[float]:
        """``samples`` at the reference speed: each time times
        ``REFERENCE_S`` over the median of the reference times taken
        within ``CALIBRATION_WINDOW`` segments of it."""
        reference = self.reference
        return [
            seconds * REFERENCE_S / statistics.median(
                reference[max(0, index - CALIBRATION_WINDOW):
                          index + CALIBRATION_WINDOW + 1]
            )
            for seconds, index in samples
        ]


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return peak_kb / 1024.0


def largest_names(named_sources: list[tuple[str, str]]) -> frozenset[str]:
    """The 5% of inputs with the longest source (at least one)."""
    ranked = sorted(named_sources, key=lambda pair: (-len(pair[1]), pair[0]))
    keep = max(1, len(ranked) // 20)
    return frozenset(name for name, _ in ranked[:keep])


class Workload:
    """A fixed pass over seeded inputs (``vet_pass``), timed or traced."""

    #: The layer wrappers a traced pass installs.
    layers: tuple = ()
    #: Worker processes the pass vets on.
    workers = 1

    def vet_pass(self, tally: Tally, tracer=None) -> None:
        raise NotImplementedError

    def run_timed(self, seconds: float) -> Tally:
        """Vet as many whole passes as fit ``seconds`` at the first
        pass's speed (at least one). Whole passes keep the input mix,
        and with it every median, the same on every run.

        Peak memory is read after the first pass: the program's
        process-wide intern and memo tables grow with the work done
        until they reach their bounds, so a later reading would depend
        on how many passes the machine's speed allowed."""
        tally = Tally()
        start = perf_counter()
        self.vet_pass(tally)
        tally.peak_rss_mb = peak_rss_mb()
        first = tally.exact()
        passes = max(1, round(seconds / (perf_counter() - start - tally.untimed)))
        for _ in range(passes - 1):
            before = tally.exact()
            self.vet_pass(tally)
            if tally.exact() - before != first:
                tally.failures.append("exact counts differ between passes")
        tally.wall = perf_counter() - start - tally.untimed
        return tally

    def run_pass(self, tracer=None) -> Tally:
        """Vet one pass, with ``tracer`` recording spans if given."""
        tally = Tally()
        start = perf_counter()
        self.vet_pass(tally, tracer)
        tally.wall = perf_counter() - start - tally.untimed
        return tally

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# In-process workloads: fleet and analysis


@dataclass(frozen=True)
class Item:
    """One ``api.vet`` call and the check of its report."""

    name: str
    source: str
    options: dict
    #: ``report -> problem text`` or ``None`` when the verdict is right.
    check: Callable[[object], str | None]


def _degraded(name: str, report) -> str | None:
    if report.degraded:
        kinds = sorted({d.kind.value for d in report.degradations})
        return f"{name}: unexpected degradation {kinds}"
    return None


def _signature_check(name: str, expected: str):
    def check(report) -> str | None:
        got = report.signature.render()
        if got != expected:
            return f"{name}: signature {got!r} != expected {expected!r}"
        return _degraded(name, report)

    return check


def _verdict_check(name: str, expected: str):
    def check(report) -> str | None:
        got = report.comparison.verdict.value
        if got != expected:
            return f"{name}: Table 2 verdict {got} != expected {expected}"
        return _degraded(name, report)

    return check


def _flows_check(name: str, expected: int):
    def check(report) -> str | None:
        got = len(report.signature.flows)
        if got != expected:
            return f"{name}: {got} flows != expected {expected}"
        return _degraded(name, report)

    return check


class InProcessWorkload(Workload):
    """Items vetted one at a time through ``repro.api.vet``.

    With ``collect``, garbage is collected before each item, outside
    the measured time, so that each item's time covers its own work.
    A segment is ``segment_items`` consecutive items.
    """

    layers = PIPELINE_LAYERS

    def __init__(
        self, items: list[Item], warmup: list[Item], segment_items: int,
        collect: bool = False,
    ) -> None:
        from repro import api

        self._api = api
        self.items = items
        self.warmup = warmup
        self.segment_items = segment_items
        self.collect = collect
        self.large = largest_names([(item.name, item.source) for item in items])

    def warm(self) -> None:
        for item in self.warmup:
            self._api.vet(item.source, **item.options)

    def _vet(self, item: Item, tally: Tally) -> None:
        if self.collect:
            start = perf_counter()
            gc.collect()
            tally.untimed += perf_counter() - start
        start = perf_counter()
        try:
            report = self._api.vet(item.source, **item.options)
        except Exception as exc:  # a typed failure is a failed item
            tally.record(
                perf_counter() - start, 0,
                f"{item.name}: {type(exc).__name__}: {exc}",
                item.name in self.large,
            )
            return
        latency = perf_counter() - start
        tally.counts.update(
            exact_counts(report.ast_nodes, report.prefiltered, report.counters)
        )
        tally.record(
            latency, report.ast_nodes, item.check(report), item.name in self.large
        )

    def vet_pass(self, tally: Tally, tracer=None) -> None:
        count = len(self.items)
        for first in range(0, count, self.segment_items):
            if tracer is None:
                tally.calibrate()
            untimed = tally.untimed
            start = perf_counter()
            for request in range(first, min(first + self.segment_items, count)):
                if tracer is not None:
                    tracer.begin_request(request)
                self._vet(self.items[request], tally)
            tally.segment(perf_counter() - start - (tally.untimed - untimed))


#: Inputs per workload: the full size and a seconds-long smoke size.
SIZES = {
    "fleet": {"full": {"addons": 1000, "warmup": 20},
              "smoke": {"addons": 24, "warmup": 2}},
    "analysis": {"full": {"curated": 10, "sizes": (32, 64, 128)},
                 "smoke": {"curated": 3, "sizes": (2, 4)}},
    "store": {"full": {"new": 40, "updates": 12, "sweeps": 6},
              "smoke": {"new": 6, "updates": 3, "sweeps": 2}},
}


def build_fleet(seed: int, size: dict) -> InProcessWorkload:
    from repro.corpusgen import generate_corpus

    corpus = generate_corpus(size["addons"], seed)
    items = [
        Item(
            addon.name, addon.source, {"prefilter": True},
            _signature_check(addon.name, addon.expected_signature),
        )
        for addon in corpus
    ]
    return InProcessWorkload(items, warmup=items[: size["warmup"]], segment_items=20)


def build_analysis(seed: int, size: dict) -> InProcessWorkload:
    """The curated corpus and the scaling shapes are fixed inputs, so
    ``seed`` changes nothing here. The order is fixed too: the peak RSS
    of the largest shape depends on what earlier items left behind.

    Garbage is collected between items. A full collection over the
    program's process-wide intern and memo tables takes about half a
    second, and the collector's own schedule drops it on whichever
    item crosses its threshold, which varies from run to run; with
    sixteen items a pass, that would decide the medians. ``fleet``
    keeps the collector's schedule, so its pauses count there."""
    from repro.addons.corpus import CORPUS
    from repro.evaluation.scaling import SHAPES, expected_flows

    items = []
    for spec in CORPUS[: size["curated"]]:
        options = {
            "prefilter": True,
            "manual": spec.manual_signature,
            "real_extras": spec.real_extras,
        }
        items.append(Item(
            spec.name, spec.source(), options,
            _verdict_check(spec.name, spec.expected_verdict),
        ))
    for shape, synthesize in SHAPES.items():
        for count in size["sizes"]:
            name = f"{shape}-{count}"
            items.append(Item(
                name, synthesize(count), {"prefilter": True},
                _flows_check(name, expected_flows(shape, count)),
            ))
    warmup = [
        Item(f"{shape}-1", synthesize(1), {"prefilter": True}, lambda report: None)
        for shape, synthesize in SHAPES.items()
    ]
    return InProcessWorkload(items, warmup=warmup, segment_items=1, collect=True)


# ----------------------------------------------------------------------
# The store workload


class StoreWorkload(Workload):
    """Sweeps of new addons, updates and re-submissions through
    ``vet_many`` against one cache directory and one ``VersionStore``.
    Each ``vet_many`` call is a segment.

    Sweep ``k`` submits, in one ``vet_many`` call with the version
    store: ``new`` fresh addons, the approved bases of update group
    ``k``, and the new versions of update group ``k - 1`` (whose bases
    sweep ``k - 1`` recorded, so they are diffed against them). A second
    call re-submits sweep ``k - 1``'s fresh addons unchanged, which the
    cache answers.
    """

    layers = STORE_LAYERS

    def __init__(self, seed: int, size: dict, scratch: Path) -> None:
        from repro import batch
        from repro.corpusgen import generate_corpus, generate_updates

        self._batch = batch
        self.size = size
        self.scratch = scratch
        self.workers = os.cpu_count() or 1
        sweeps = size["sweeps"]
        self.corpus = generate_corpus(size["new"] * sweeps, seed)
        self.updates = generate_updates(size["updates"] * sweeps, seed)
        sources = [(a.name, a.source) for a in self.corpus]
        sources += [(u.name, u.old_source) for u in self.updates]
        sources += [(u.name + "@new", u.new_source) for u in self.updates]
        self.large = largest_names(sources)
        self._runs = 0
        self._reference: ParallelReference | None = None

    def warm(self) -> None:
        """Vet a few tasks in-process so lazily imported modules are
        loaded before the pool forks its workers."""
        tasks = [self._batch.VetTask(name=a.name, source=a.source)
                 for a in self.corpus[:4]]
        update = self.updates[0]
        tasks.append(self._batch.VetTask(
            name=update.name, source=update.new_source,
            baseline_source=update.old_source,
            baseline_signature_text=update.old_expected,
        ))
        self._batch.vet_many(tasks, workers=1, use_cache=False)

    def _calibrate(self, tally: Tally, tracer) -> None:
        """Time the reference on as many processes as the pool has,
        started on first use so that set-up does not include them."""
        if tracer is not None:
            return
        if self._reference is None:
            self._reference = ParallelReference(self.workers)
        tally.calibrate(self._reference)

    def _fresh_dir(self) -> Path:
        self._runs += 1
        directory = self.scratch / f"store-{os.getpid()}-{self._runs}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        return directory

    def _sweep(self, k: int, cache: Path, versions, tally: Tally, tracer) -> None:
        from repro.batch import VetTask

        new_count, update_count = self.size["new"], self.size["updates"]
        fresh = self.corpus[k * new_count:(k + 1) * new_count]
        bases = self.updates[k * update_count:(k + 1) * update_count]
        changed = self.updates[(k - 1) * update_count:k * update_count] if k else []
        tasks, expected = [], []
        for addon in fresh:
            tasks.append(VetTask(name=addon.name, source=addon.source))
            expected.append((addon.name, addon.expected_signature, None))
        for update in bases:
            tasks.append(VetTask(name=update.name, source=update.old_source))
            expected.append((update.name, update.old_expected, None))
        for update in changed:
            tasks.append(VetTask(name=update.name, source=update.new_source))
            expected.append(
                (update.name + "@new", update.new_expected, update.expected_verdicts)
            )
        self._calibrate(tally, tracer)
        start = perf_counter()
        outcomes = self._batch.vet_many(
            tasks, workers=self.workers, cache_dir=cache, store=versions
        )
        for (name, signature, verdicts), outcome in zip(expected, outcomes):
            self._record(tally, name, outcome, signature, verdicts)
        tally.segment(perf_counter() - start)
        if k:
            self._calibrate(tally, tracer)
            start = perf_counter()
            previous = self.corpus[(k - 1) * new_count:k * new_count]
            outcomes = self._batch.vet_many(
                [VetTask(name=a.name, source=a.source) for a in previous],
                workers=self.workers, cache_dir=cache,
            )
            for addon, outcome in zip(previous, outcomes):
                self._record(
                    tally, addon.name, outcome, addon.expected_signature, None
                )
            tally.segment(perf_counter() - start)

    def _record(self, tally, name, outcome, signature, verdicts) -> None:
        """Check one outcome. Its time to verdict is the worker's
        pipeline time; a cache hit has none of its own (its lookup
        shows in the throughput and in ``store.cache_load_s``)."""
        problem = None
        if not outcome.ok:
            problem = f"{name}: {outcome.failure}: {outcome.error}"
        elif outcome.degraded:
            problem = f"{name}: unexpected degradation {outcome.degradation_kinds}"
        elif outcome.signature_text != signature:
            problem = (f"{name}: signature {outcome.signature_text!r}"
                       f" != expected {signature!r}")
        elif verdicts is not None and outcome.diff_verdict not in verdicts:
            problem = f"{name}: diff verdict {outcome.diff_verdict} not in {verdicts}"
        batch = tally.batch
        batch["tasks"] += 1
        batch["updates"] += verdicts is not None
        batch["cached"] += outcome.cached
        batch["incremental"] += outcome.incremental
        latency = None
        if not outcome.cached:
            latency = outcome.total_time
            batch["worker_busy_s"] += outcome.total_time
            if outcome.incremental:
                batch["certify_s"] += outcome.total_time
            tally.counts.update(exact_counts(
                outcome.ast_nodes, outcome.prefiltered, outcome.counters
            ))
        tally.record(latency, outcome.ast_nodes, problem, name in self.large)

    def vet_pass(self, tally: Tally, tracer=None) -> None:
        """All sweeps, against a fresh cache and version store."""
        from repro.diffvet.store import VersionStore

        directory = self._fresh_dir()
        try:
            cache = directory / "cache"
            versions = VersionStore(cache)
            for k in range(self.size["sweeps"]):
                self._sweep(k, cache, versions, tally, tracer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def close(self) -> None:
        if self._reference is not None:
            self._reference.close()
        try:
            self.scratch.rmdir()
        except OSError:  # absent, or another run's directories remain
            pass


def build(name: str, seed: int, size: str, scratch: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    if name == "fleet":
        return build_fleet(seed, SIZES[name][size])
    if name == "analysis":
        return build_analysis(seed, SIZES[name][size])
    return StoreWorkload(seed, SIZES[name][size], scratch)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]
