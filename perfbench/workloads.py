"""The benchmark's phases and workloads.

Every run drives the same five phases against the public API of ``repro``:
PA-TMR training (``Trainer.fit``), bulk scoring from a cold-started
checkpoint (``PredictionService.predict_encoded``), open-loop traffic to the
serving daemon (``ServingDaemon.submit``), graph preparation over a
generated sentence-pair stream (``repro.graph``) and streaming-ingest rounds
(``StreamIngestor.ingest``).  The workload names the phases that share the
run's measuring time; the others run a small fixed "probe" amount, so every
metric is reported on every workload while the named phases do most of the
work.

On a shared 2-cpu virtual machine the cpu speed changes by up to a third
for seconds to tens of seconds at a time.  So the phases do not run one
after the other: a run is a number of rounds, every round runs a fixed
number of short units of every phase, and each metric is a median over
units spread across the whole run.

All inputs derive from the run's seed: the SynthNYT bundle and model
initialisation (through ``prepare_context`` and ``build_method``), the
request order and arrival times, the pair stream and the delta bags.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.registry import build_method
from repro.config import DaemonConfig, ScaleProfile
from repro.exceptions import ServiceError
from repro.experiments.pipeline import prepare_context
from repro.graph import alias as graph_alias
from repro.graph import propagation as graph_propagation
from repro.graph.embeddings import EntityEmbeddings
from repro.graph.line import LineConfig, LineEmbeddingTrainer
from repro.graph.proximity import EntityProximityGraph
from repro.ingest import ArtifactVersionStore, StreamIngestor, synthetic_delta_bags
from repro.serve import PredictionRequest, PredictionService, ServingDaemon
from repro.training.trainer import Trainer

from benchstats import OpenLoop, highest_supported_percentile, percentile, require_percentile
from benchtrace import Tracer

clock = time.perf_counter

WORKLOADS: Dict[str, str] = {
    "train_serve": "PA-TMR training, bulk scoring and daemon traffic at 300 and 600 req/s: "
    "the model's forward, backward and optimizer; graph and ingest run at probe size.",
    "graph_ingest": "Graph preparation over a ~0.44M-pair stream and ingest rounds that "
    "publish: LINE, CSR build, propagation and versioned writes; the model runs at probe size.",
}

# The phases each workload gives its measuring time to.
OWN_PHASES = {
    "train_serve": ("train", "score", "online"),
    "graph_ingest": ("graph", "ingest"),
}
PHASES = ("train", "score", "online", "graph", "ingest")
# Units per round: a workload's own phases do about 4 s of work a round,
# the others a fixed probe amount.  Three training chunks a round make six
# rounds train on 18 chunks, twice the store's 9, so the loss check has a
# before and an after for every chunk.
OWN_UNITS = {"train": 10, "score": 4, "online": 2, "graph": 1, "ingest": 7}
PROBE_UNITS = {"train": 3, "score": 2, "online": 1, "graph": 2, "ingest": 2}
SECONDS_PER_ROUND = 4.0
MIN_ROUNDS = 6

DATASET = "nyt"
SETUP_REPEATS = 3
MIN_COOCCURRENCE = 2
PROPAGATION_LAYERS = 2
TRAIN_CHUNK = 256               # bags per Trainer.fit call: 8 batches of 32
# The daemon is bound by the interpreter lock.  On a shared 2-cpu VM,
# 1,000 and even 800 req/s sat near its knee whenever the cpu ran in its
# slow state: the p50 jumped from ~3.7 to ~5 ms and p99 to 30-70 ms in half
# the runs.  600 req/s keeps it well below.
LIGHT_RATE = 300.0
BUSY_RATE = 600.0
WARMUP_SECONDS = 0.5            # before the first burst
REWARM_SECONDS = 0.05           # before every later burst
# Seconds of each rate in one daemon unit: over six units 1,080 requests
# each, so p99 has at least 10 samples beyond it.
LIGHT_SECONDS = 0.6
BUSY_SECONDS = 0.3
ANSWER_TIMEOUT = 30.0
PARITY_EVERY = 97               # daemon answers re-scored with predict_encoded


@dataclasses.dataclass(frozen=True)
class GraphScale:
    entities: int
    base_pairs: int
    line_epochs: int


# LINE is about two thirds of a preparation at both scales.
GRAPH_MAIN = GraphScale(8_000, 56_000, 2)
GRAPH_PROBE = GraphScale(4_000, 28_000, 1)


class CheckFailed(AssertionError):
    """An output of the program was wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def pair_stream(seed: int, scale: GraphScale):
    """A long-tailed stream of per-sentence entity pairs, as a corpus emits.

    Returns the name arrays the graph consumes and the integer ids the
    output check counts distinct pairs from.
    """
    rng = np.random.default_rng([seed, 7])
    names = np.array([f"entity_{i:05d}" for i in range(scale.entities)], dtype=np.str_)
    # Quadratic skew on the endpoints gives the hub-dominated degree
    # distribution of real co-occurrence graphs.
    heads = (scale.entities * rng.random(scale.base_pairs) ** 2).astype(np.int64)
    tails = (scale.entities * rng.random(scale.base_pairs) ** 2).astype(np.int64)
    distinct = heads != tails
    heads, tails = heads[distinct], tails[distinct]
    mentions = np.minimum(rng.zipf(1.6, size=heads.size), 50)
    heads, tails = np.repeat(heads, mentions), np.repeat(tails, mentions)
    return names[heads], names[tails], heads, tails


def build_context(seed: int):
    return prepare_context(DATASET, profile=ScaleProfile.medium(), seed=seed)


def pa_tmr(context, seed: int):
    """A freshly initialised PA-TMR method and its one-epoch training config."""
    config = dataclasses.replace(context.training_config, epochs=1, backend="reference")
    method = build_method(
        "pa_tmr",
        vocab_size=context.vocab_size,
        num_relations=context.num_relations,
        model_config=context.model_config,
        training_config=config,
        kb=context.bundle.kb,
        entity_embeddings=context.entity_embeddings,
        seed=seed,
    )
    return method, config


def make_requests(context, seed: int) -> List[PredictionRequest]:
    """Token-list requests built from the test bags, in a seeded order."""
    bags = context.bundle.test.bags
    order = np.random.default_rng([seed, 11]).permutation(len(bags))
    return [
        PredictionRequest(
            head=bags[i].head_name,
            tail=bags[i].tail_name,
            sentences=[(s.tokens, s.head_position, s.tail_position) for s in bags[i].sentences],
        )
        for i in order
    ]


# ---------------------------------------------------------------------- #
# Phases
# ---------------------------------------------------------------------- #
class Phase:
    """One stage of the pipeline, measured in short units.

    ``unit(traced)`` does one unit of work and returns the seconds its
    measured part took.  In a traced run every unit is paired with a traced
    twin doing the same kind of work with the layer wrappers recording.
    """

    name = ""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.seconds: List[float] = []
        self.traced_seconds: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.index = 0              # the step the current unit belongs to

    def unit(self, traced: bool) -> float:
        raise NotImplementedError

    def step(self) -> None:
        """One unit, and in a traced run its traced twin; the two swap order
        every step so neither always runs on the caches the other warmed."""
        if self.tracer is None:
            self.seconds.append(self.unit(False))
        else:
            for traced in (False, True) if self.index % 2 == 0 else (True, False):
                if not traced:
                    self.seconds.append(self.unit(False))
                    continue
                self.tracer.phase = self.name
                try:
                    self.traced_seconds.append(self.unit(True))
                finally:
                    self.tracer.phase = None
        self.index += 1

    def metrics(self) -> Dict[str, float]:
        """End-to-end and per-layer numbers; runs the phase's final checks."""
        raise NotImplementedError

    def reports(self) -> float:
        """How many report units (epochs, passes, preparations, rounds) the
        traced twins covered; per-layer times are given per report unit."""
        return float(len(self.traced_seconds))


class TrainPhase(Phase):
    """``Trainer.fit`` (one epoch each) on consecutive chunks of the store."""

    name = "train"

    def __init__(self, context, seed: int, tracer: Optional[Tracer]) -> None:
        super().__init__(tracer)
        self.store = context.train_encoded
        self.chunks = [
            self.store.select(np.arange(start, min(start + TRAIN_CHUNK, len(self.store))))
            for start in range(0, len(self.store), TRAIN_CHUNK)
        ]
        self.trainer = self._trainer(context, seed)
        self.traced_trainer = self._trainer(context, seed) if tracer is not None else None
        self.rates: List[float] = []
        self.visits: Dict[int, List[float]] = {}
        self.losses: Dict[bool, List[List[float]]] = {False: [], True: []}
        self.traced_bags = 0

    @staticmethod
    def _trainer(context, seed: int) -> Trainer:
        method, config = pa_tmr(context, seed)
        return Trainer(method.model, context.num_relations, config)

    def unit(self, traced: bool) -> float:
        index = self.index % len(self.chunks)
        chunk = self.chunks[index]
        trainer = self.traced_trainer if traced else self.trainer
        start = clock()
        result = trainer.fit(chunk)
        seconds = clock() - start
        check(not result.diverged, f"training diverged: batch losses {result.batch_losses}")
        self.losses[traced].append(result.batch_losses)
        if traced:
            self.traced_bags += len(chunk)
        else:
            self.rates.append(len(chunk) / seconds)
            self.visits.setdefault(index, []).append(float(np.mean(result.batch_losses)))
            self.attempted += len(result.batch_losses)
        return seconds

    def metrics(self) -> Dict[str, float]:
        if self.tracer is not None:
            check(self.losses[True] == self.losses[False],
                  "traced batch losses differ from the untraced ones")
        revisited = [losses for losses in self.visits.values() if len(losses) > 1]
        check(bool(revisited), "training: no chunk was trained on twice")
        first = float(np.mean([losses[0] for losses in revisited]))
        last = float(np.mean([losses[-1] for losses in revisited]))
        check(last < first, f"training did not learn: mean loss {first:.4f} -> {last:.4f}")
        metrics = {"train_bags_per_s": statistics.median(self.rates)}
        if self.tracer is not None:
            size = self.trainer.config.batch_size
            metrics["train.batches"] = sum(-(-len(chunk) // size) for chunk in self.chunks)
        return metrics

    def reports(self) -> float:
        return self.traced_bags / len(self.store)


class ScorePhase(Phase):
    """Passes of ``predict_encoded`` over the test and train stores."""

    name = "score"

    def __init__(self, service: PredictionService, context, tracer: Optional[Tracer]) -> None:
        super().__init__(tracer)
        self.service = service
        self.stores = (context.test_encoded, context.train_encoded)
        self.num_relations = context.num_relations
        self.reference: List[np.ndarray] = []
        self.batches = 0

    def unit(self, traced: bool) -> float:
        batches = self.service.stats.batches
        start = clock()
        rows = [self.service.predict_encoded(store) for store in self.stores]
        seconds = clock() - start
        self.batches = self.service.stats.batches - batches
        self.attempted += self.batches
        for matrix, store in zip(rows, self.stores):
            check(matrix.shape == (len(store), self.num_relations), "score: wrong shape")
            check(bool(np.isfinite(matrix).all()), "score: non-finite probability")
            error = float(np.abs(matrix.sum(axis=1) - 1.0).max())
            check(error <= 1e-9, f"score: a probability row sums to 1 +- {error:.3g}")
        if not self.reference:
            self.reference = rows
        for matrix, first in zip(rows, self.reference):
            check(np.array_equal(matrix, first), "score: a repeated pass changed its answers")
        return seconds

    def metrics(self) -> Dict[str, float]:
        bags = sum(len(store) for store in self.stores)
        metrics = {"score_bags_per_s": bags / statistics.median(self.seconds)}
        if self.tracer is not None:
            metrics["score.batches"] = self.batches
        return metrics


@dataclasses.dataclass
class Traffic:
    latencies: List[float]
    lateness: List[float]
    attempted: int
    failed: int


def drive(daemon: ServingDaemon, requests: Sequence[PredictionRequest], rate: float,
          seconds: float, rng: np.random.Generator, first: int,
          parity: Optional[list] = None) -> Traffic:
    """Open-loop Poisson arrivals at ``rate`` for ``seconds`` from one thread.

    Each request is timed from its due time to the moment its future
    resolves.  Refused and timed-out requests count as failed.
    """
    count = int(round(rate * seconds))
    gaps = rng.exponential(1.0 / rate, size=count)
    offsets = np.cumsum(gaps) - gaps[0]
    futures: List[Optional[object]] = [None] * count
    answered: List[Optional[float]] = [None] * count
    failed = 0

    def send(index: int, _due: float) -> None:
        nonlocal failed
        try:
            future = daemon.submit(requests[(first + index) % len(requests)])
        except ServiceError:
            failed += 1
            return
        future.add_done_callback(lambda _f, i=index: answered.__setitem__(i, clock()))
        futures[index] = future

    dues, lateness = OpenLoop(offsets, clock=clock).run(send)
    latencies: List[float] = []
    for index, future in enumerate(futures):
        if future is None:
            continue
        try:
            result = future.result(timeout=ANSWER_TIMEOUT)
        except Exception:  # noqa: BLE001 - a failed or timed-out request
            failed += 1
            continue
        # The done callback runs just after the result is set; wait for it.
        while answered[index] is None:
            time.sleep(0.0005)
        latencies.append(answered[index] - dues[index])
        if parity is not None and (first + index) % PARITY_EVERY == 0:
            parity.append(((first + index) % len(requests), result.probabilities))
    return Traffic(latencies, lateness, count, failed)


class OnlinePhase(Phase):
    """Bursts of open-loop traffic, one light and one busy, to one daemon.

    A unit re-warms the daemon briefly and then holds the light rate and the
    busy rate; latencies are pooled over all bursts of the run.
    """

    name = "online"

    def __init__(self, service: PredictionService, context, seed: int,
                 tracer: Optional[Tracer]) -> None:
        super().__init__(tracer)
        self.service = service
        self.requests = make_requests(context, seed)
        self.rng = np.random.default_rng([seed, 13])
        self.next_request = 0
        self.traffic: Dict[Tuple[str, bool], List[Traffic]] = {
            (rate, traced): [] for rate in ("light", "busy") for traced in (False, True)
        }
        self.parity: list = []
        self.encode_times: Dict[int, float] = {}
        self.waits: List[float] = []
        self.batch_sizes: List[int] = []
        self.forward_times: List[float] = []
        if tracer is not None:
            tracer.probes.update({"online.encode": self._on_encode, "online.forward": self._on_batch})
        self.daemon = ServingDaemon(service, config=DaemonConfig()).start()
        self._burst(BUSY_RATE, WARMUP_SECONDS)

    def _on_encode(self, _args, bag, _start, end) -> None:
        self.encode_times[id(bag)] = end

    def _on_batch(self, args, _rows, start, end) -> None:
        # Queue wait: from the end of a request's encoding (its enqueue) to
        # the start of the batch that carries it.
        bags = args[1]
        self.batch_sizes.append(len(bags))
        self.forward_times.append(end - start)
        self.waits.extend(start - self.encode_times.pop(id(bag), start) for bag in bags)

    def _burst(self, rate: float, seconds: float, parity: Optional[list] = None) -> Traffic:
        traffic = drive(self.daemon, self.requests, rate, seconds, self.rng,
                        first=self.next_request, parity=parity)
        self.next_request += traffic.attempted
        return traffic

    def unit(self, traced: bool) -> float:
        if traced:
            self.tracer.phase = None
        self._burst(BUSY_RATE, REWARM_SECONDS)
        if traced:
            self.tracer.phase = self.name
        # A serving process does not hold the training corpus this process
        # set up; keep full collections over those objects out of the bursts.
        gc.collect()
        gc.freeze()
        start = clock()
        try:
            light = self._burst(LIGHT_RATE, LIGHT_SECONDS)
            busy = self._burst(BUSY_RATE, BUSY_SECONDS, None if traced else self.parity)
        finally:
            gc.unfreeze()
        for rate, traffic in (("light", light), ("busy", busy)):
            self.traffic[rate, traced].append(traffic)
            self.attempted += traffic.attempted
            self.failed += traffic.failed
        return clock() - start

    def close(self) -> None:
        self.daemon.close()
        if self.tracer is not None:
            for name in ("online.encode", "online.forward"):
                self.tracer.probes.pop(name, None)

    def _pooled(self, rate: str, traced: bool) -> Tuple[List[float], List[float]]:
        bursts = self.traffic[rate, traced]
        return ([x for t in bursts for x in t.latencies], [x for t in bursts for x in t.lateness])

    def metrics(self) -> Dict[str, float]:
        for index, probabilities in self.parity:
            expected = self.service.predict_encoded(
                [self.service.encode_request(self.requests[index])]
            )[0]
            error = float(np.abs(probabilities - expected).max())
            check(error <= 1e-12, f"online: daemon answer differs from predict_encoded by {error:.3g}")
            check(abs(float(probabilities.sum()) - 1.0) <= 1e-9, "online: row does not sum to 1")
        metrics: Dict[str, float] = {}
        lateness: List[float] = []
        for rate in ("light", "busy"):
            latencies, late = self._pooled(rate, False)
            lateness += late
            metrics[f"online_{rate}_p50_ms"] = 1e3 * require_percentile(latencies, 50)
            metrics[f"online_{rate}_p99_ms"] = 1e3 * require_percentile(latencies, 99)
            # For the run record: the sample count and the highest percentile
            # that still has ten samples beyond it.
            tail = highest_supported_percentile(len(latencies))
            metrics[f"online.{rate}_samples"] = len(latencies)
            metrics[f"online.{rate}_tail_percentile"] = tail
            metrics[f"online.{rate}_tail_ms"] = 1e3 * percentile(latencies, tail)
        metrics["online.generator_late_max_ms"] = 1e3 * max(lateness)
        if self.tracer is not None:
            encodes = self.tracer.span_counts("online").get("encode", 0)
            metrics.update({
                "online.encode_s": self.tracer.layer_self_times("online").get("encode", 0.0)
                / max(1, encodes),
                "online.forward_s": statistics.mean(self.forward_times),
                "online.queue_wait_p50_ms": 1e3 * percentile(self.waits, 50),
                "online.batch_occupancy_mean": statistics.mean(self.batch_sizes),
                "online.batches": len(self.batch_sizes),
                "online.overhead": percentile(self._pooled("busy", True)[0], 50)
                / percentile(self._pooled("busy", False)[0], 50) - 1.0,
            })
        return metrics


def expected_graph_size(heads: np.ndarray, tails: np.ndarray, entities: int) -> Tuple[int, int]:
    """Vertices and edges of the distinct unordered pairs kept by the threshold."""
    keys = np.minimum(heads, tails) * np.int64(entities) + np.maximum(heads, tails)
    unique, counts = np.unique(keys, return_counts=True)
    kept = unique[counts >= MIN_COOCCURRENCE]
    vertices = np.unique(np.concatenate([kept // entities, kept % entities]))
    return int(vertices.size), int(kept.size)


class GraphPhase(Phase):
    """Pair arrays -> proximity graph -> alias tables -> LINE -> propagation."""

    name = "graph"

    def __init__(self, stream, scale: GraphScale, seed: int, tracer: Optional[Tracer]) -> None:
        super().__init__(tracer)
        self.firsts, self.seconds_of_pairs, heads, tails = stream
        self.vertices, self.edges = expected_graph_size(heads, tails, scale.entities)
        self.line_config = LineConfig(
            embedding_dim=128, negative_samples=5, epochs=scale.line_epochs,
            batch_edges=512, seed=seed,
        )

    def unit(self, traced: bool) -> float:
        start = clock()
        graph = EntityProximityGraph.from_pair_arrays(
            self.firsts, self.seconds_of_pairs, min_cooccurrence=MIN_COOCCURRENCE
        )
        _, _, weights = graph.edge_arrays()
        graph_alias.AliasSampler(weights)
        graph_alias.AliasSampler(graph.degree_vector(power=0.75))
        trainer = LineEmbeddingTrainer(graph, self.line_config)
        trainer.train()
        propagated = graph_propagation.propagate_embeddings(
            graph,
            EntityEmbeddings(graph.vertices, trainer.embedding_matrix()),
            num_layers=PROPAGATION_LAYERS,
        )
        seconds = clock() - start
        self.attempted += 4  # build, alias tables, LINE, propagation
        check(
            (graph.num_vertices, graph.num_edges) == (self.vertices, self.edges),
            f"graph: {graph.num_vertices} vertices / {graph.num_edges} edges, "
            f"expected {self.vertices} / {self.edges}",
        )
        check(bool(np.isfinite(propagated.vectors).all()), "graph: non-finite embedding")
        return seconds

    def metrics(self) -> Dict[str, float]:
        metrics = {"graph_prep_s": statistics.median(self.seconds)}
        if self.tracer is not None:
            metrics.update({"graph.vertices": self.vertices, "graph.edges": self.edges})
        return metrics


class IngestPhase(Phase):
    """Refresh rounds of seeded delta bags, publishing a version each round."""

    name = "ingest"

    def __init__(self, ingestor: StreamIngestor, context, seed: int,
                 tracer: Optional[Tracer]) -> None:
        super().__init__(tracer)
        self.ingestor = ingestor
        self.context = context
        self.seed = seed
        self.rounds = 0
        self.published: List[int] = []
        self.dirty: List[int] = []
        self.finetuned: List[int] = []

    def unit(self, traced: bool) -> float:
        ingestor, context = self.ingestor, self.context
        bags = synthetic_delta_bags(
            context.bundle.kb, ingestor.config.batch_bags, context.num_relations,
            vocabulary=context.bundle.vocabulary, seed=self.seed * 10_000 + self.rounds,
        )
        before = len(ingestor.store)
        start = clock()
        report = ingestor.ingest(bags)
        seconds = clock() - start
        self.rounds += 1
        self.attempted += 1
        check(report.corpus_bags == before + len(bags) == len(ingestor.store),
              f"ingest: corpus went from {before} to {report.corpus_bags} bags after {len(bags)}")
        check(report.version == self.rounds,
              f"ingest: round {self.rounds} published version {report.version}")
        if traced:
            info = ingestor.version_store.current()
            self.published.append(
                sum(path.stat().st_size for path in info.path.rglob("*") if path.is_file())
            )
            self.dirty.append(report.num_dirty_vertices)
            self.finetuned.append(report.num_finetuned_vertices)
        return seconds

    def metrics(self) -> Dict[str, float]:
        store = self.ingestor.version_store
        info = store.current()
        check(info is not None and info.version == self.rounds,
              f"ingest: CURRENT is not version {self.rounds}")
        store.verify(info)
        kept = [version.version for version in store.list_versions()]
        check(kept == list(range(self.rounds - len(kept) + 1, self.rounds + 1)),
              f"ingest: retained versions {kept} do not end at {self.rounds}")
        metrics = {
            "ingest_bags_per_s": self.ingestor.config.batch_bags / statistics.median(self.seconds)
        }
        if self.tracer is not None:
            metrics.update({
                "ingest.publish_bytes": statistics.mean(self.published),
                "ingest.dirty_vertices": statistics.mean(self.dirty),
                "ingest.finetuned_vertices": statistics.mean(self.finetuned),
            })
        return metrics


# ---------------------------------------------------------------------- #
# A run
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class Run:
    """Everything one run measured."""

    build_seconds: List[float]              # context + pair stream builds
    traced_build_seconds: Optional[float]
    phases: Dict[str, Phase]
    metrics: Dict[str, float]


def run(workload: str, seed: int, seconds: float, workdir: Path,
        tracer: Optional[Tracer] = None) -> Run:
    """Set up, then rounds of every phase; see the module doc.

    ``seconds`` sets the number of rounds, each about ``SECONDS_PER_ROUND``
    of the workload's own phases, and never fewer than ``MIN_ROUNDS``.
    """
    own = OWN_PHASES[workload]
    scale = GRAPH_MAIN if "graph" in own else GRAPH_PROBE
    rounds = max(MIN_ROUNDS, round(seconds / SECONDS_PER_ROUND))

    # Set-up: the experiment context and the pair stream, built several
    # times for a steady median, plus each phase's own preparation (model
    # initialisation, checkpoint cold start, ingestor, daemon), timed once.
    setup_seconds = []
    traced_setup = None
    for repeat in range(SETUP_REPEATS):
        # A traced run traces the middle build and compares it with the others.
        traced = tracer is not None and repeat == 1
        if traced:
            tracer.phase = "setup"
        start = clock()
        context = build_context(seed)
        stream = pair_stream(seed, scale)
        if traced:
            traced_setup = clock() - start
            tracer.phase = None
        else:
            setup_seconds.append(clock() - start)

    start = clock()
    train = TrainPhase(context, seed, tracer)
    served, _ = pa_tmr(context, seed)
    checkpoint = workdir / "checkpoint"
    served.model.save(checkpoint, encoder=context.bag_encoder,
                      schema=context.bundle.schema, kb=context.bundle.kb)
    service = PredictionService.from_checkpoint(checkpoint)
    ingestor = StreamIngestor.from_context(
        context, model=served.model, version_store=ArtifactVersionStore(workdir / "versions")
    )
    phases: Dict[str, Phase] = {
        "train": train,
        "score": ScorePhase(service, context, tracer),
        "graph": GraphPhase(stream, scale, seed, tracer),
        "ingest": IngestPhase(ingestor, context, seed, tracer),
    }
    online = OnlinePhase(service, context, seed, tracer)
    phases["online"] = online
    preparation = clock() - start

    try:
        for _ in range(rounds):
            for name in PHASES:
                for _ in range((OWN_UNITS if name in own else PROBE_UNITS)[name]):
                    phases[name].step()
    finally:
        online.close()

    metrics = {"setup_s": statistics.median(setup_seconds) + preparation}
    for phase in phases.values():
        metrics.update(phase.metrics())
    return Run(setup_seconds, traced_setup, phases, metrics)
