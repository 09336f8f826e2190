"""Span tracer that wraps gaussprg's public functions from outside the package.

Nothing under ``src/`` knows about it: :meth:`Tracer.installed` replaces,
for the duration of a ``with`` block, every name through which a caller
looks up a traced function (``gaussprg.harness.sample_batch``,
``gaussprg.generator.stream_words``, the ``SparsePolynomial.evaluate_batch``
class attribute, ...) with a wrapper that records a span, and restores the
originals on exit. Spans stay in memory; the caller writes them out once.

A span's self time is its duration minus the time its child spans on the
same thread cover. Spans that start on a pool thread with nothing open on
that thread attach to the enclosing ``harness.run_experiment`` span, so the
tree stays connected, but they never reduce its self time: the main thread
really is waiting while the pool works.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

# (module, qualified name) of every traced public function. The layers are
# gaussprg's modules.
TARGETS = (
    ("cli", "main"),
    ("harness", "run_experiment"),
    ("harness", "estimate_gap"),
    ("harness", "check_carbery_wright"),
    ("harness", "check_tail_bound"),
    ("harness", "check_derivative_identity"),
    ("generator", "plan"),
    ("generator", "sample_batch"),
    ("designs", "build_sampler"),
    ("designs", "verify_moments"),
    ("designs", "kwise_eval_batch"),
    ("designs", "design_sample_batch"),
    ("designs", "design_sample_batch_f64"),
    ("designs", "symbols_from_bytes"),
    ("_bits", "stream_words"),
    ("_bits", "stream_bytes"),
    ("_bits", "extract_blocks"),
    ("_bits", "extract_blocks_from_words"),
    ("ptf", "random_ptf"),
    ("ptf", "eval_ptf_batch"),
    ("hermite", "SparsePolynomial.evaluate_batch"),
    ("hermite", "derivative_moment_rhs"),
)

_RUN_EXPERIMENT = "harness.run_experiment"


def layer_name(module: str) -> str:
    """Metric names must start with a letter or a digit, so the ``_bits``
    layer reports as ``bits``."""
    return module.lstrip("_")


def metric_prefix(module: str, qualname: str) -> str:
    """Metric stem of a traced function: ``_bits.stream_words`` ->
    ``bits.stream_words``; a method reports under its own name."""
    return f"{layer_name(module)}.{qualname.rsplit('.', 1)[-1]}"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_sample_batch(counts, args, kwargs, result) -> None:
    config = args[0] if args else kwargs["config"]
    rows = result.shape[0]
    counts["generator.sample_batch.rows"] += rows
    counts["generator.matmul_flops_computed"] += (
        2 * rows * config.ell * config.kwise_order * config.n
    )


def _count_stream_words(counts, args, kwargs, result) -> None:
    counts["bits.words_drawn"] += result.size


def _count_stream_bytes(counts, args, kwargs, result) -> None:
    rows, nbytes = result.shape
    counts["bits.words_drawn"] += rows * -(-nbytes // 8)


def _count_points(counts, args, kwargs, result) -> None:
    counts["hermite.evaluate_batch.points"] += result.shape[0]


# Work counters recorded at the same boundaries as the spans.
_COUNTERS = {
    "generator.sample_batch": _count_sample_batch,
    "bits.stream_words": _count_stream_words,
    "bits.stream_bytes": _count_stream_bytes,
    "hermite.evaluate_batch": _count_points,
}

COUNT_NAMES = (
    "generator.sample_batch.rows",
    "bits.words_drawn",
    "generator.matmul_flops_computed",
    "hermite.evaluate_batch.points",
)


class Tracer:
    """In-memory span recorder for the functions in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_experiments: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so every call records a span named ``name``."""
        counter = _COUNTERS.get(name)
        is_experiment = name == _RUN_EXPERIMENT
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                opened = tracer._open_experiments
                parent = opened[-1] if opened else None
            sid = next(tracer._ids)
            stack.append(sid)
            if is_experiment:
                tracer._open_experiments.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_experiment:
                    tracer._open_experiments.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident())
                )
            if counter is not None:
                with tracer._lock:
                    counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every lookup path of every target; restore them on exit."""
        patches = []
        try:
            for module, qualname in TARGETS:
                name = metric_prefix(module, qualname)
                mod = importlib.import_module(f"gaussprg.{module}")
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                    patches.append((owner, attr, orig))
                    setattr(owner, attr, self.wrap(name, orig))
                    continue
                orig = getattr(mod, qualname)
                wrapped = self.wrap(name, orig)
                for holder in _package_modules():
                    for attr in [a for a, v in vars(holder).items() if v is orig]:
                        patches.append((holder, attr, orig))
                        setattr(holder, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)


def _package_modules():
    return [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "gaussprg" or key.startswith("gaussprg."))
    ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[s.parent].append((max(s.start, parent.start), min(s.end, parent.end)))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def root_time(spans: list[Span], thread: int) -> float:
    """Time covered by spans on ``thread`` that have no parent on it."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        parent = by_id.get(s.parent)
        if s.thread == thread and (parent is None or parent.thread != thread):
            total += s.duration
    return total


def layer_metrics(
    spans: list[Span], counts, wall_s: float, jobs: int, main_thread: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase, as name -> (value, unit).

    ``wall_s`` is the summed duration of the traced operations, timed
    around each call by the benchmark.
    """
    selfs = self_times(spans)
    metrics: dict[str, tuple[float, str]] = {}
    layer_self = dict.fromkeys((layer_name(module) for module, _ in TARGETS), 0.0)
    for module, qualname in TARGETS:
        name = metric_prefix(module, qualname)
        mine = [s for s in spans if s.name == name]
        own = sum(selfs[s.id] for s in mine)
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.self_s"] = (own, "s")
        layer_self[layer_name(module)] += own
    for layer, own in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = (own, "s")
    units = {"generator.matmul_flops_computed": "flop"}
    for name in COUNT_NAMES:
        metrics[name] = (counts.get(name, 0), units.get(name, "count"))
    # Work runs on the pool threads when there are any, else on the caller.
    pool = {s.thread for s in spans} - {main_thread}
    busy = sum(root_time(spans, t) for t in pool) if pool else root_time(spans, main_thread)
    metrics["harness.parallel_efficiency"] = (busy / (wall_s * jobs), "ratio")
    main_self = sum(selfs[s.id] for s in spans if s.thread == main_thread)
    metrics["trace.self_coverage"] = (main_self / wall_s, "ratio")
    metrics["trace.wall_s"] = (wall_s, "s")
    return metrics
