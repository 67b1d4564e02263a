"""In-memory span tracer and the instrumentation that feeds it.

The tracer records one :class:`Span` (name, start, end, parent, run id) per
call into a layer's public function.  Nothing under ``src/`` knows about
it: :func:`instrument` temporarily replaces those functions (at the module
or class attribute their callers look up) with wrappers that open and close
spans, and puts the originals back on exit.

Hot calls such as ``DijkstraCache.distances`` (~60k per ``gps-ingest``
round) are not spans: a *leaf timer* adds their duration to a plain
per-name total and to the enclosing span's ``leaf_s``, so the parent's self
time still excludes them.  Pure counters (:meth:`Tracer.count`) cost one
dict update.

A layer's self time is the summed duration of its spans minus the time
their child spans and leaf timers cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

__all__ = ["Span", "Tracer", "self_times", "instrument"]


class Span:
    """One timed call: ``parent`` is the id of the enclosing span or None."""

    __slots__ = ("id", "name", "start", "end", "parent", "run_id", "leaf_s")

    def __init__(self, span_id, name, start, parent, run_id):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.leaf_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run_id": self.run_id,
                "leaf_s": self.leaf_s}


class Tracer:
    """Collects spans, leaf-timer totals and counters in memory."""

    def __init__(self):
        self.spans = []
        self.leaf_totals = defaultdict(float)
        self.counts = defaultdict(int)
        self.run_id = None
        #: Serving instances created while instrumented (tallied per round).
        self.services = []
        self._open = []

    def begin(self, name):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.run_id)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    @property
    def innermost(self):
        """Name of the innermost open span (None outside every span)."""
        return self._open[-1].name if self._open else None

    def leaf(self, name, seconds):
        self.leaf_totals[name] += seconds
        if self._open:
            self._open[-1].leaf_s += seconds

    def count(self, name, amount=1):
        self.counts[name] += amount

    def span_counts(self):
        """Number of spans per name."""
        counts = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return counts


def self_times(spans, leaf_totals=None):
    """Self time per span name, plus each leaf timer's total.

    A span's self time is its duration minus the durations of its direct
    children and the leaf time recorded while it was innermost.  Summed over
    a tree, self times (leaves included) equal the root's duration.
    """
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    totals = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration - children[span.id] - span.leaf_s
    for name, seconds in (leaf_totals or {}).items():
        totals[name] += seconds
    return dict(totals)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _spanned(tracer, name, function, after=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _leaf_timed(tracer, name, function):
    clock = time.perf_counter

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = clock()
        try:
            return function(*args, **kwargs)
        finally:
            tracer.leaf(name, clock() - started)
    return wrapper


def _counted(tracer, name, function, inside=None):
    """Count calls, optionally only while ``inside`` is the innermost span."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if inside is None or tracer.innermost == inside:
            tracer.count(name)
        return function(*args, **kwargs)
    return wrapper


def _observed(tracer, function, after):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        after(tracer, args, result)
        return result
    return wrapper


def _after_simulate(tracer, args, trips):
    tracer.count("trajectory.trips", len(trips))


def _after_match_batch(tracer, args, paths):
    tracer.count("trajectory.fixes", sum(len(t) for t in args[1]))
    tracer.count("trajectory.match_traces", len(paths))
    tracer.count("trajectory.match_empty", sum(1 for p in paths if not p))


def _after_walks(tracer, args, walks):
    tracer.count("graph.walk_count", len(walks))


def _after_encode(tracer, args, embeddings):
    tracer.count("core.encode_paths", len(args[1]))
    if tracer.innermost == "serving.embed":
        tracer.count("serving.batch_paths", len(args[1]))


def _after_service_init(tracer, args, result):
    tracer.services.append(args[0])


@contextlib.contextmanager
def instrument(tracer):
    """Route calls into every layer through ``tracer`` for the ``with`` body."""
    def module(name):
        # import_module returns the submodule itself even where the package
        # re-exports a same-named function.
        return importlib.import_module(f"repro.{name}")

    core_model = module("core.model")
    core_trainer = module("core.trainer")
    core_wsccl = module("core.wsccl")
    synthetic = module("datasets.synthetic")
    gbm = module("downstream.gbm")
    downstream_tasks = module("downstream.tasks")
    tree = module("downstream.tree")
    skipgram = module("graph.skipgram")
    walks = module("graph.walks")
    tensor = module("nn.tensor")
    search = module("roadnet.search")
    service = module("serving.service")
    mapmatching = module("trajectory.mapmatching")
    simulator = module("trajectory.simulator")

    t = tracer
    patches = [
        # roadnet
        (simulator, "k_shortest_paths",
         lambda f: _spanned(t, "roadnet.ksp", f)),
        (search, "shortest_path",
         lambda f: _counted(t, "roadnet.spur_searches", f, inside="roadnet.ksp")),
        (search.DijkstraCache, "distances",
         lambda f: _leaf_timed(t, "roadnet.dijkstra", f)),
        # trajectory
        (simulator.TripSimulator, "simulate",
         lambda f: _spanned(t, "trajectory.simulate", f, _after_simulate)),
        (mapmatching.HMMMapMatcher, "match_batch",
         lambda f: _spanned(t, "trajectory.match", f, _after_match_batch)),
        (mapmatching, "shortest_path",
         lambda f: _counted(t, "trajectory.stitch_searches", f)),
        # graph
        (walks.RandomWalker, "generate_walks",
         lambda f: _spanned(t, "graph.walks", f, _after_walks)),
        (skipgram.SkipGramTrainer, "train",
         lambda f: _spanned(t, "graph.sgns", f)),
        # core
        (core_wsccl, "train_experts",
         lambda f: _spanned(t, "core.expert", f)),
        (core_wsccl, "difficulty_scores",
         lambda f: _spanned(t, "core.difficulty", f)),
        (core_trainer.WSCTrainer, "train_step",
         lambda f: _spanned(t, "core.train_step", f)),
        (tensor.Tensor, "backward",
         lambda f: _leaf_timed(t, "core.backward", f)),
        (core_model.WSCModel, "encode",
         lambda f: _spanned(t, "core.encode", f, _after_encode)),
        # serving
        (service.PathEmbeddingService, "embed",
         lambda f: _spanned(t, "serving.embed", f)),
        (service.PathEmbeddingService, "__init__",
         lambda f: _observed(t, f, _after_service_init)),
        # downstream
        (gbm.GradientBoostingRegressor, "fit",
         lambda f: _spanned(t, "downstream.gbm_fit", f)),
        (gbm.GradientBoostingClassifier, "fit",
         lambda f: _spanned(t, "downstream.gbm_fit", f)),
        (tree.DecisionTreeRegressor, "fit",
         lambda f: _spanned(t, "downstream.tree_fit", f)),
        (gbm.GradientBoostingRegressor, "predict",
         lambda f: _spanned(t, "downstream.gbm_predict", f)),
        (gbm.GradientBoostingClassifier, "predict_proba",
         lambda f: _spanned(t, "downstream.gbm_predict", f)),
        # datasets
        (synthetic, "build_city_dataset",
         lambda f: _spanned(t, "datasets.build", f)),
        (synthetic, "build_task_datasets",
         lambda f: _spanned(t, "datasets.tasks", f)),
    ]
    for metric in ("mae", "mare", "mape", "grouped_rank_correlation",
                   "accuracy", "hit_rate"):
        patches.append((downstream_tasks, metric,
                        lambda f: _spanned(t, "downstream.metrics", f)))

    originals = []
    try:
        for owner, attribute, make in patches:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
