"""The three benchmark workloads: inputs from a seed, timed loop, checks.

Each workload repeats a *round* (its fixed unit of work) until the run's
time is up.  In a traced run every second round is traced, so the untraced
rounds in between give the tracing overhead on identical work.

``tables``
    The paper's tables as their users run them: per city (Aalborg, Harbin,
    Chengdu at ``HarnessConfig.benchmark()`` scale, simulator paths) build
    the city, ``fit_wsccl(variant="full")`` and score all three downstream
    tasks with exact GBMs.  A round is the three-city run; rounds repeat the
    same cities, so every round must reproduce the first one's quality.
    Building the cities is the set-up.
``gps-ingest``
    Raw GPS to a corpus: a fleet of noisy traces on a 42x48 generated grid,
    half at Aalborg's dense regime (5 s, 5 m) and half at Harbin's sparse
    one (30 s, 12 m), mapped by one ``HMMMapMatcher.match_batch``.  A round
    builds a fresh matcher (its set-up) and matches the whole fleet.
``serve-zipf``
    Embedding traffic: a WSCCL model trained on the benchmark-scale Aalborg
    city behind a ``PathEmbeddingService`` whose cache holds fewer entries
    than the working set; one closed-loop client sends requests of 1-32
    Zipf-drawn paths, 30% of them with a fresh departure time.  The city is
    fixed and the seed drives the traffic.  A round is a block of requests.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets import TemporalPath
from repro.datasets import synthetic
from repro.evaluation import HarnessConfig, fit_wsccl, representation_task_results
from repro.roadnet import CityConfig, generate_city_network, shortest_path
from repro.serving import PathEmbeddingService
from repro.temporal import DepartureTime
from repro.trajectory import GPSSampler, HMMMapMatcher, SpeedModel

from .spans import Tracer, instrument
from .stats import edge_f1, layer_metrics, percentile, quality_problems

__all__ = ["Outcome", "WORKLOADS", "NAMED_METRICS"]

#: Workload-level metrics printed next to BENCHMARK.json's: name -> (unit, better).
NAMED_METRICS = {
    "pipeline_s": ("s", "lower"),
    "tt_mae_s": ("s", "lower"),
    "rank_tau": ("-", "higher"),
    "rec_acc": ("-", "higher"),
    "ingest_traces_per_s": ("traces/s", "higher"),
    "match_edge_f1": ("-", "higher"),
    "serve_paths_per_s": ("paths/s", "higher"),
    "serve_p50_ms": ("ms", "lower"),
    "serve_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_share": ("-", "lower"),
}

_SERVING_KEYS = ("requests", "batches", "real_steps", "padded_steps",
                 "cache_hits", "cache_misses", "cache_evictions")


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    #: Op-level failure messages (first few kept).
    failures: list = field(default_factory=list)
    #: Run-level check failures (inputs, reproducibility, trace arithmetic).
    problems: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self):
        return self.failed == 0 and not self.problems

    def fail(self, message, ops=1):
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(message)

    def finish(self, setup_samples):
        self.end_to_end["setup_s"] = float(np.median(setup_samples))
        self.end_to_end["peak_rss_mb"] = peak_rss_mb()
        self.named["peak_rss_mb"] = self.end_to_end["peak_rss_mb"]
        self.named["failed_share"] = self.failed / max(self.attempted, 1)
        self.info["setup_samples"] = len(setup_samples)


def peak_rss_mb():
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


QUALITY_FILE = Path(__file__).resolve().parent / "quality.json"


def check_quality(outcome, values):
    """Compare quality values with the stored reference for this seed.

    ``perfbench/quality.json`` holds, per quality metric, how far it may
    get worse than the value recorded for the same workload and seed, and
    a floor no seed may cross (the worst recorded value widened by the same
    tolerance).  Every breach is a run-level problem.
    """
    stored = json.loads(QUALITY_FILE.read_text())
    reference = stored["reference"].get(outcome.workload, {}).get(str(outcome.seed))
    outcome.info["quality_reference"] = reference is not None
    outcome.problems.extend(quality_problems(
        values, reference, stored["limits"], stored["floors"]))


def digest(*parts):
    """Short stable fingerprint of generated inputs."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def serving_totals(services):
    """Summed scrape counters of ``PathEmbeddingService`` instances."""
    totals = dict.fromkeys(_SERVING_KEYS, 0)
    for service in services:
        scraped = service.scrape()
        for key in _SERVING_KEYS:
            totals[key] += scraped.get(key, 0)
    return totals


class TracedRounds:
    """Runs rounds under :func:`instrument` and tallies program counters."""

    def __init__(self, workload, seed, services=()):
        self.tracer = Tracer()
        self.prefix = f"{workload}-{seed}"
        self.rounds = 0
        self.services = list(services)
        self.serving = dict.fromkeys(_SERVING_KEYS, 0)
        self.dijkstra = {"hits": 0, "misses": 0}

    def run(self, index, body):
        before = serving_totals(self.services)
        self.tracer.run_id = f"{self.prefix}-r{index}"
        with instrument(self.tracer), self.tracer.span("bench.round"):
            result = body()
        after = serving_totals(self.services + self.tracer.services)
        for key in _SERVING_KEYS:
            self.serving[key] += after[key] - before[key]
        self.tracer.services.clear()
        self.rounds += 1
        return result

    def report(self, outcome, final_loss, overhead_share):
        """Store the per-layer metrics and spans in ``outcome``.

        Self times can only add up to more than the round (a negative
        remainder) if spans overlap, which is reported as a problem.
        """
        metrics = layer_metrics(self.tracer, self.rounds, self.dijkstra,
                                self.serving, final_loss, overhead_share)
        if metrics["bench.remainder_s"] < -1e-6 * metrics["bench.round_s"]:
            outcome.problems.append(
                f"layer self times exceed the traced round by "
                f"{-metrics['bench.remainder_s']:.3g} s")
        outcome.per_layer = metrics
        outcome.spans = self.tracer.spans


def _overhead(traced, untraced):
    """Traced minus untraced time per unit of work, as a share of untraced."""
    return (traced - untraced) / untraced


def _check_seeds_differ(outcome, make_digest):
    """Seeds s and s + 1 must give different inputs; records the digest of s."""
    own, other = make_digest(outcome.seed), make_digest(outcome.seed + 1)
    outcome.info["input_digest"] = own
    if own == other:
        outcome.problems.append(
            f"seeds {outcome.seed} and {outcome.seed + 1} gave identical inputs")


def _keep_going(started, seconds, done, minimum, loop_s=()):
    """True until ``minimum`` units are done and the time is up.

    With the durations of the loop's iterations so far, ``loop_s``, the
    time counts as up once another iteration of median length would end
    after ``seconds``, so long rounds do not overrun the run.
    """
    ahead = percentile(loop_s, 50) if len(loop_s) else 0.0
    return done < minimum or time.perf_counter() - started + ahead < seconds


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
CITIES = ("aalborg", "harbin", "chengdu")
TASKS = ("travel_time", "ranking", "recommendation")
QUALITY = ("tt_mae_s", "rank_tau", "rec_acc", "final_loss")


def _city_seeds(seed):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(len(CITIES))]


def _trips_digest(city):
    return digest([(tuple(t.path), t.departure_time.day_of_week,
                    t.departure_time.seconds) for t in city.trips])


def _pipeline(name, city_seed, config):
    """One city: build -> fit WSCCL -> score the three downstream tasks.

    Returns the quality values and the seconds spent building the city.
    """
    tick = time.perf_counter()
    city = synthetic.build_city_dataset(name, scale=config.scale, seed=city_seed)
    build_s = time.perf_counter() - tick
    model = fit_wsccl(city, config, variant="full")
    rows = representation_task_results(model, city, config, tasks=TASKS)
    return {
        "tt_mae_s": rows["travel_time"]["MAE"],
        "rank_tau": rows["ranking"]["tau"],
        "rec_acc": rows["recommendation"]["Acc"],
        "final_loss": model.history.epoch_losses[-1],
    }, build_s


def run_tables(seed, seconds, trace):
    outcome = Outcome("tables", seed)
    config = HarnessConfig.benchmark()
    seeds = _city_seeds(seed)
    outcome.info["city_seeds"] = dict(zip(CITIES, seeds))
    _check_seeds_differ(outcome, lambda s: _trips_digest(
        synthetic.build_city_dataset(CITIES[0], scale=config.scale,
                                     seed=_city_seeds(s)[0])))

    first = {}  # city -> quality of its first successful pipeline

    def one_round():
        """Runs the three cities; returns the seconds spent building them."""
        build_s = 0.0
        for name, city_seed in zip(CITIES, seeds):
            outcome.attempted += 1
            try:
                quality, city_build_s = _pipeline(name, city_seed, config)
            except Exception as error:  # an op that raises is a failed op
                outcome.fail(f"{name}: {type(error).__name__}: {error}")
                continue
            build_s += city_build_s
            if not all(math.isfinite(quality[k]) for k in QUALITY):
                outcome.fail(f"{name}: non-finite quality {quality}")
            elif first.setdefault(name, quality) != quality:
                outcome.fail(f"{name}: same seed gave {quality}, "
                             f"first run gave {first[name]}")
        return build_s

    traced = TracedRounds("tables", seed)
    round_s = {False: [], True: []}
    setup = []  # city build seconds of each untraced round
    started = time.perf_counter()
    index = 0
    while _keep_going(started, seconds, index, 2, round_s[False] + round_s[True]):
        is_traced = trace and index % 2 == 1
        tick = time.perf_counter()
        if is_traced:
            traced.run(index, one_round)
        else:
            setup.append(one_round())
        round_s[is_traced].append(time.perf_counter() - tick)
        index += 1

    untraced = round_s[False]
    outcome.named["pipeline_s"] = percentile(untraced, 50)
    outcome.end_to_end["latency_p50_ms"] = outcome.named["pipeline_s"] * 1e3
    outcome.end_to_end["throughput_per_s"] = len(CITIES) / outcome.named["pipeline_s"]
    for key in QUALITY:
        values = [first[name][key] for name in CITIES if name in first]
        outcome.named[key] = float(np.mean(values)) if values else math.nan
    final_loss = outcome.named.pop("final_loss")
    check_quality(outcome, outcome.named)
    outcome.info.update(rounds=index, traced_rounds=traced.rounds,
                        round_s=untraced,
                        final_loss=final_loss)
    if trace:
        traced.report(outcome, final_loss, _overhead(
            percentile(round_s[True], 50), percentile(untraced, 50)))
    outcome.finish(setup)
    return outcome


# ----------------------------------------------------------------------
# gps-ingest
# ----------------------------------------------------------------------
GRID_ROWS, GRID_COLS = 42, 48
#: (label, sample interval s, noise std m): Aalborg's dense, Harbin's sparse.
REGIMES = (("dense", 5.0, 5.0), ("sparse", 30.0, 12.0))
TRACES_PER_REGIME = 150
PATH_EDGES = (10, 30)


def _ingest_network(seed):
    return generate_city_network(CityConfig(
        name="ingest-grid", grid_rows=GRID_ROWS, grid_cols=GRID_COLS,
        highway_ring=False, seed=seed))


def _fleet(network, seed, per_regime):
    """Noisy GPS traces along shortest OD routes of 10-30 edges."""
    rng = np.random.default_rng(seed)
    speed_model = SpeedModel(network, seed=seed)
    fleet = []
    for _, interval, noise in REGIMES:
        sampler = GPSSampler(network, speed_model, sample_interval=interval,
                             noise_std=noise, seed=int(rng.integers(2 ** 31)))
        made = attempts = 0
        while made < per_regime:
            attempts += 1
            if attempts > 100 * per_regime:
                raise RuntimeError("could not draw enough OD routes")
            origin, destination = (int(n) for n in
                                   rng.integers(0, network.num_nodes, size=2))
            if origin == destination:
                continue
            path = shortest_path(network, origin, destination)
            if path is None or not PATH_EDGES[0] <= len(path) <= PATH_EDGES[1]:
                continue
            departure = DepartureTime.from_hour(int(rng.integers(0, 7)),
                                                float(rng.uniform(6.0, 22.0)))
            fleet.append(sampler.sample(path, departure))
            made += 1
    return fleet


def _fleet_digest(seed):
    fleet = _fleet(_ingest_network(seed), seed, per_regime=2)
    return digest([(t.true_path, t.positions().round(6).tolist()) for t in fleet])


def run_gps_ingest(seed, seconds, trace):
    outcome = Outcome("gps-ingest", seed)
    _check_seeds_differ(outcome, _fleet_digest)
    network = _ingest_network(seed)
    fleet = _fleet(network, seed, TRACES_PER_REGIME)
    outcome.info.update(num_nodes=network.num_nodes, num_edges=network.num_edges,
                        traces=len(fleet), fixes=sum(len(t) for t in fleet))

    first_f1 = None
    setup = []
    traced = TracedRounds("gps-ingest", seed)
    match_s = {False: [], True: []}
    loop_s = []
    started = time.perf_counter()
    index = 0
    while _keep_going(started, seconds, index, 2, loop_s):
        is_traced = trace and index % 2 == 1
        tick = looped = time.perf_counter()
        matcher = HMMMapMatcher(network)
        matcher.grid_index
        matcher.dijkstra_cache
        setup.append(time.perf_counter() - tick)

        outcome.attempted += len(fleet)
        tick = time.perf_counter()
        try:
            if is_traced:
                paths = traced.run(index, lambda: matcher.match_batch(fleet))
            else:
                paths = matcher.match_batch(fleet)
        except Exception as error:  # the whole batch failed
            outcome.fail(f"match_batch: {type(error).__name__}: {error}",
                         ops=len(fleet))
            paths = None
        match_s[is_traced].append(time.perf_counter() - tick)
        index += 1
        if paths is None:
            continue
        if is_traced:
            traced.dijkstra["hits"] += matcher.dijkstra_cache.hits
            traced.dijkstra["misses"] += matcher.dijkstra_cache.misses

        scores = []
        for number, (gps_trace, path) in enumerate(zip(fleet, paths)):
            if not path:
                outcome.fail(f"trace {number}: empty match")
            elif not network.is_connected_path(path):
                outcome.fail(f"trace {number}: disconnected match")
            scores.append(edge_f1(path, gps_trace.true_path))
        if first_f1 is None:
            first_f1 = scores
        elif scores != first_f1:
            outcome.fail("same fleet gave different edge F1 scores",
                         ops=sum(a != b for a, b in zip(scores, first_f1)))
        loop_s.append(time.perf_counter() - looped)

    untraced = match_s[False]
    outcome.end_to_end["latency_p50_ms"] = percentile(untraced, 50) * 1e3
    outcome.end_to_end["throughput_per_s"] = len(fleet) / percentile(untraced, 50)
    outcome.named["ingest_traces_per_s"] = outcome.end_to_end["throughput_per_s"]
    outcome.named["match_edge_f1"] = float(np.mean(first_f1)) if first_f1 else math.nan
    check_quality(outcome, outcome.named)
    outcome.info.update(rounds=index, traced_rounds=traced.rounds,
                        round_s=untraced)
    if trace:
        traced.report(outcome, 0.0, _overhead(
            percentile(match_s[True], 50), percentile(untraced, 50)))
    outcome.finish(setup)
    return outcome


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
CACHE_CAPACITY = 256
MAX_REQUEST_PATHS = 32
FRESH_DEPARTURE_SHARE = 0.3
ZIPF_EXPONENT = 1.0
LENGTH_STRATA = 8
BLOCK_REQUESTS = 250
WARMUP_REQUESTS = 250
MIN_REQUESTS = 1000
SETUPS = 5
#: Every n-th request has its first path re-encoded directly and compared.
CHECK_EVERY = 25
EQUIVALENCE_TOLERANCE = 1e-10


class RequestStream:
    """Seeded request generator: 1-32 Zipf-drawn paths per request.

    Request sizes are log-uniform over 1-32: most requests are small and a
    few are large.  Under the service's default ``fixed`` bucket policy a
    request's misses take one or two encoder batches, so latencies have two
    modes; with uniform sizes the median request sat in the sparse gap
    between them and ``serve_p50_ms`` jumped with small changes in the mix.
    Popularity follows a Zipf law over a seeded ranking of ``items``.  The
    ranking deals items round-robin from ``LENGTH_STRATA`` length classes,
    so the popular head always has the corpus's mix of path lengths: the
    seed changes which paths are hot, not how much encoding a request costs.
    Each drawn path keeps its departure time, except a
    ``FRESH_DEPARTURE_SHARE`` of them which get a uniformly drawn new one
    (a guaranteed cache miss that is then written to the cache).
    """

    def __init__(self, items, seed):
        self.rng = np.random.default_rng(seed)
        by_length = np.argsort([len(tp) for tp in items], kind="stable")
        strata = np.array_split(by_length, LENGTH_STRATA)
        for stratum in strata:
            self.rng.shuffle(stratum)
        ranking = [stratum[i] for i in range(len(strata[0]))
                   for stratum in strata if i < len(stratum)]
        self.items = [items[i] for i in ranking]
        weights = np.arange(1, len(items) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def take(self, count):
        requests = []
        sizes = np.exp(self.rng.uniform(0.0, np.log(MAX_REQUEST_PATHS + 1), size=count))
        for size in np.minimum(sizes.astype(np.int64), MAX_REQUEST_PATHS):
            picks = np.searchsorted(self.cdf, self.rng.random(size), side="right")
            fresh = self.rng.random(size) < FRESH_DEPARTURE_SHARE
            request = []
            for pick, is_fresh in zip(picks, fresh):
                path = self.items[min(int(pick), len(self.items) - 1)]
                if is_fresh:
                    path = TemporalPath(path=path.path, departure_time=DepartureTime(
                        int(self.rng.integers(0, 7)),
                        float(self.rng.uniform(0.0, 86399.0))))
                request.append(path)
            requests.append(request)
        return requests


def _serve_inputs(config):
    """The benchmark-scale Aalborg city (its own layout seed) and its paths.

    The served city is the same for every seed; the seed drives the traffic.
    """
    city = synthetic.build_city_dataset("aalborg", scale=config.scale)
    items = list(dict.fromkeys(
        list(city.unlabeled.temporal_paths)
        + [example.temporal_path for example in city.tasks.ranking]))
    return city, items


def _stream_digest(items, seed):
    head = RequestStream(items, seed).take(20)
    return digest([[(tp.path, tp.departure_time.seconds) for tp in r] for r in head])


def run_serve_zipf(seed, seconds, trace):
    outcome = Outcome("serve-zipf", seed)
    config = HarnessConfig.benchmark()
    city, items = _serve_inputs(config)
    _check_seeds_differ(outcome, lambda s: _stream_digest(items, s))
    stream = RequestStream(items, seed)

    setup = []
    for _ in range(SETUPS):
        tick = time.perf_counter()
        model = fit_wsccl(city, config, variant="full")
        service = PathEmbeddingService(model, cache_capacity=CACHE_CAPACITY)
        setup.append(time.perf_counter() - tick)
    outcome.info.update(unique_items=len(items), cache_capacity=CACHE_CAPACITY)

    def serve(block, latencies, samples):
        """Send ``block``; returns (paths served, seconds inside embed)."""
        paths = 0
        first = len(latencies)
        for number, request in enumerate(block):
            outcome.attempted += 1
            tick = time.perf_counter()
            try:
                rows = service.embed(request)
            except Exception as error:  # a request that raises fails
                latencies.append(time.perf_counter() - tick)
                outcome.fail(f"request: {type(error).__name__}: {error}")
                continue
            latencies.append(time.perf_counter() - tick)
            paths += len(request)
            if rows.shape[0] != len(request) or not np.isfinite(rows).all():
                outcome.fail(f"request of {len(request)} paths: bad rows {rows.shape}")
            elif number % CHECK_EVERY == 0:
                samples.append((request[0], rows[0]))
        return paths, sum(latencies[first:])

    serve(stream.take(WARMUP_REQUESTS), [], [])
    service.reset_metrics()

    traced = TracedRounds("serve-zipf", seed, services=[service])
    latencies = {False: [], True: []}
    block_rates = {False: [], True: []}  # paths per second inside embed
    started = time.perf_counter()
    index = 0
    while _keep_going(started, seconds, len(latencies[False]), MIN_REQUESTS):
        is_traced = trace and index % 2 == 1
        block = stream.take(BLOCK_REQUESTS)
        samples = []
        if is_traced:
            served, busy = traced.run(
                index, lambda: serve(block, latencies[True], samples))
        else:
            served, busy = serve(block, latencies[False], samples)
        block_rates[is_traced].append(served / busy)
        for temporal_path, served in samples:
            direct = model.encode([temporal_path])[0]
            difference = float(np.max(np.abs(direct - served)))
            if not difference <= EQUIVALENCE_TOLERANCE:
                outcome.fail(f"served embedding differs from direct encode "
                             f"by {difference:.3g}")
        index += 1

    untraced = latencies[False]
    outcome.end_to_end["latency_p50_ms"] = percentile(untraced, 50) * 1e3
    outcome.end_to_end["throughput_per_s"] = percentile(block_rates[False], 50)
    outcome.named["serve_paths_per_s"] = outcome.end_to_end["throughput_per_s"]
    outcome.named["serve_p50_ms"] = outcome.end_to_end["latency_p50_ms"]
    outcome.named["serve_p99_ms"] = percentile(untraced, 99) * 1e3
    scraped = service.scrape()
    outcome.info.update(
        rounds=index, traced_rounds=traced.rounds, timed_requests=len(untraced),
        block_paths_per_s=block_rates[False],
        cache_hit_rate=scraped["cache_hit_rate"],
        padding_efficiency=scraped["padding_efficiency"],
        final_loss=model.history.epoch_losses[-1])
    if trace:
        # Time per path: blocks differ in size, so compare inverse rates.
        traced.report(outcome, outcome.info["final_loss"], _overhead(
            1.0 / percentile(block_rates[True], 50),
            1.0 / percentile(block_rates[False], 50)))
    outcome.finish(setup)
    return outcome


WORKLOADS = {
    "tables": run_tables,
    "gps-ingest": run_gps_ingest,
    "serve-zipf": run_serve_zipf,
}
