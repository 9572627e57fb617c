"""Long-lived online serving daemon with adaptive micro-batching.

:class:`ServingDaemon` promotes the one-shot :class:`PredictionService` into
a concurrent server:

* callers :meth:`~ServingDaemon.submit` single ``(head, tail, sentences)``
  requests from any thread and get a future back;
* an asyncio event loop (owned by a background thread) lands requests in a
  bounded queue and a :class:`~repro.serve.coalescer.BatchCoalescer` drains
  them into padded batches under a latency deadline (``max_batch_size`` /
  ``max_wait_ms``, see :class:`repro.config.DaemonConfig`);
* batches dispatch to a pool of worker threads running the existing
  vectorized forward (:meth:`PredictionService.predict_encoded`, the shared
  padded-batch layer), and per-request results route back through the
  futures;
* :meth:`~ServingDaemon.reload` hot-swaps the model: a fresh
  :meth:`PredictionService.from_checkpoint` is built off the event loop,
  then a single reference assignment switches traffic over — batches
  already dispatched finish on the old model, batches dispatched after the
  swap use the new one;
* :meth:`~ServingDaemon.watch` follows a streaming-ingest artifact version
  store (:mod:`repro.ingest`): each newly published version triggers the
  same reload swap, and the active version id is reported in
  :meth:`~ServingDaemon.stats`;
* :meth:`~ServingDaemon.close` drains: no new requests are accepted, every
  queued request still gets its answer, then the loop and workers stop.

Failure semantics: a full queue rejects the submit with a typed
:class:`~repro.exceptions.ServiceError` instead of queueing unbounded work;
an exception inside a worker fails exactly the requests of that batch (their
futures re-raise it) and the daemon keeps serving.

Everything observable lives in :class:`~repro.serve.metrics.DaemonMetrics`
(:meth:`~ServingDaemon.stats` returns a frozen snapshot).  Numerical
contract: a response is bit-equal to ``service.predict_encoded`` over the
same coalesced batch — the daemon adds zero numerical perturbation — and
therefore equal to the direct single-request ``service.predict`` path to
float64 round-off (bit-equal when the batch holds one request; the batched
forward's results vary by ~1e-16 with batch composition, exactly like
``PredictionService``'s own chunking).  See ``docs/daemon.md``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..config import DaemonConfig
from ..exceptions import ServiceError
from ..utils.logging import get_logger
from .coalescer import BatchCoalescer, PendingRequest
from .metrics import DaemonMetrics
from .service import PredictionRequest, PredictionResult, PredictionService

logger = get_logger("serve.daemon")

__all__ = ["ServingDaemon", "BatchRunner"]

#: A batch executor: (service, encoded bags) -> (num_bags, num_relations)
#: probabilities.  Injectable so the concurrency tests can gate/fail batches
#: deterministically; the default runs the service's vectorized forward.
BatchRunner = Callable[[PredictionService, Sequence], np.ndarray]


def _default_batch_runner(service: PredictionService, bags: Sequence) -> np.ndarray:
    """Run one coalesced batch through the service's padded-batch forward."""
    return service.predict_encoded(bags)


class ServingDaemon:
    """Concurrent request loop over a (hot-swappable) :class:`PredictionService`.

    Parameters
    ----------
    service:
        The initial model/encoder/schema bundle; replaceable at runtime via
        :meth:`reload`.
    config:
        Batching/backpressure knobs; defaults to :class:`DaemonConfig`'s
        defaults (32-request batches, 2 ms deadline).
    clock:
        Monotonic time source for deadlines and latency metrics.  Injectable
        for tests; event-loop timers always use real time.
    batch_runner:
        Override of the batch executor (tests gate or fail batches through
        this seam).  Must return one probability row per bag, in order.

    Use as a context manager (``with ServingDaemon(service) as daemon:``) or
    call :meth:`start` / :meth:`close` explicitly.
    """

    def __init__(
        self,
        service: PredictionService,
        config: Optional[DaemonConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        batch_runner: Optional[BatchRunner] = None,
    ) -> None:
        self.config = config or DaemonConfig()
        self.config.validate()
        self._service = service
        self._clock = clock
        self._batch_runner = batch_runner or _default_batch_runner
        self.metrics = DaemonMetrics(latency_window=self.config.latency_window)

        self._coalescer = BatchCoalescer(
            self.config.max_batch_size, self.config.max_wait_seconds
        )
        self._state_lock = threading.Lock()
        self._drained = threading.Condition(self._state_lock)
        self._pending_count = 0          # queued + dispatched, not yet resolved
        self._running = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._timer: Optional[asyncio.TimerHandle] = None

        # Version-store watching (repro.ingest integration).  The store is
        # duck-typed — anything whose current() returns None or an object
        # with `.version` and `.checkpoint_path` — so the serving layer never
        # imports the ingest package.
        self._version_store = None
        self._active_version: Optional[int] = None
        self._reload_lock = threading.Lock()
        self._watch_stop: Optional[threading.Event] = None
        self._watch_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> PredictionService:
        """The service currently answering new batches (changes on reload)."""
        return self._service

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "ServingDaemon":
        """Spin up the event loop and worker pool; idempotent is an error."""
        with self._state_lock:
            if self._running:
                raise ServiceError("daemon is already running")
            self._running = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.num_workers, thread_name_prefix="repro-serve"
        )
        ready = threading.Event()

        def run_loop() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._loop_thread = threading.Thread(
            target=run_loop, name="repro-serve-loop", daemon=True
        )
        self._loop_thread.start()
        ready.wait()
        logger.info(
            "serving daemon started: %s, max_batch_size=%d, max_wait_ms=%.3g, "
            "queue_limit=%d, workers=%d",
            self._service.model.describe(),
            self.config.max_batch_size,
            self.config.max_wait_ms,
            self.config.queue_limit,
            self.config.num_workers,
        )
        return self

    def __enter__(self) -> "ServingDaemon":
        if not self._running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop intake, drain the queue, stop the loop.

        Every request accepted before the call still resolves (with a result
        or its batch's exception).  Raises :class:`ServiceError` if the
        drain exceeds ``timeout`` seconds; ``timeout=None`` waits forever.
        """
        self._stop_watcher()
        with self._state_lock:
            if not self._running:
                return
            self._running = False
        assert self._loop is not None and self._executor is not None

        flushed = threading.Event()
        self._loop.call_soon_threadsafe(self._flush_for_shutdown, flushed)
        flushed.wait()

        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drained:
            while self._pending_count > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServiceError(
                        f"shutdown drain timed out with {self._pending_count} "
                        "requests still in flight"
                    )
                self._drained.wait(timeout=remaining)

        self._executor.shutdown(wait=True)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._loop_thread is not None
        self._loop_thread.join()
        self._loop = None
        self._loop_thread = None
        self._executor = None
        logger.info("serving daemon stopped: %s", self.metrics.snapshot()["requests"])

    def _flush_for_shutdown(self, flushed: threading.Event) -> None:
        """(loop thread) Dispatch whatever the coalescer still holds."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for batch in self._coalescer.flush():
            self._dispatch(batch)
        flushed.set()

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def submit(
        self, request: PredictionRequest, top_k: int = 3
    ) -> "Future[PredictionResult]":
        """Queue one request; returns a future resolving to its result.

        Thread-safe.  Encoding happens synchronously on the caller's thread
        (so malformed requests raise :class:`~repro.exceptions.DataError`
        here, not inside a shared batch); the encoded bag then rides the
        coalescer.  Raises :class:`ServiceError` when the daemon is not
        running or the bounded queue is full (backpressure — retry later
        rather than queueing unbounded work).
        """
        with self._state_lock:
            if not self._running:
                raise ServiceError("daemon is not running; call start() first")
            if self._pending_count >= self.config.queue_limit:
                self.metrics.record_rejected()
                raise ServiceError(
                    f"request queue is full ({self.config.queue_limit} requests "
                    "queued or in flight); retry after the backlog drains"
                )
            self._pending_count += 1
        try:
            bag = self._service.encode_request(request)
        except Exception:
            self._resolve(1)
            raise
        item = PendingRequest(
            request=request,
            bag=bag,
            top_k=top_k,
            future=Future(),
            enqueued_at=self._clock(),
        )
        self.metrics.record_submitted()
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._admit, item)
        return item.future

    def predict(
        self,
        request: PredictionRequest,
        top_k: int = 3,
        timeout: Optional[float] = None,
    ) -> PredictionResult:
        """Blocking convenience wrapper: submit and wait for the answer."""
        return self.submit(request, top_k=top_k).result(timeout=timeout)

    def _resolve(self, count: int) -> None:
        """Mark ``count`` requests as no longer pending (done or failed)."""
        with self._drained:
            self._pending_count -= count
            if self._pending_count <= 0:
                self._drained.notify_all()

    # ------------------------------------------------------------------ #
    # Coalescing loop (event-loop thread)
    # ------------------------------------------------------------------ #
    def _admit(self, item: PendingRequest) -> None:
        batches = self._coalescer.add(item, self._clock())
        if not self._running:
            # A submit that won the race against close() but was admitted
            # after the shutdown flush: dispatch immediately instead of
            # making the drain wait out the coalescing deadline.
            batches += self._coalescer.flush()
        for batch in batches:
            self._dispatch(batch)
        self._reschedule_timer()

    def _timer_fired(self) -> None:
        self._timer = None
        for batch in self._coalescer.pop_due(self._clock()):
            self._dispatch(batch)
        self._reschedule_timer()

    def _reschedule_timer(self) -> None:
        """Arm the loop timer for the coalescer's next deadline, if any."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        deadline = self._coalescer.next_deadline()
        if deadline is None:
            return
        assert self._loop is not None
        delay = max(0.0, deadline - self._clock())
        self._timer = self._loop.call_later(delay, self._timer_fired)

    def _dispatch(self, batch: List[PendingRequest]) -> None:
        """Hand one ready batch to the worker pool.

        The current service reference is captured *here*: a reload between
        dispatch and execution must not split a batch across models, and
        batches dispatched before the swap complete on the old model.
        """
        service = self._service
        assert self._executor is not None
        self._executor.submit(self._run_batch, service, batch)

    # ------------------------------------------------------------------ #
    # Batch execution (worker threads)
    # ------------------------------------------------------------------ #
    def _run_batch(self, service: PredictionService, batch: List[PendingRequest]) -> None:
        try:
            probabilities = self._batch_runner(service, [item.bag for item in batch])
            if len(probabilities) != len(batch):
                raise ServiceError(
                    f"batch runner returned {len(probabilities)} rows "
                    f"for {len(batch)} requests"
                )
        except BaseException as error:  # noqa: BLE001 - routed to the batch's futures
            self.metrics.record_batch_failure(len(batch))
            for item in batch:
                if not item.future.set_running_or_notify_cancel():
                    continue
                item.future.set_exception(error)
            self._resolve(len(batch))
            logger.warning("batch of %d requests failed: %s", len(batch), error)
            return
        now = self._clock()
        latencies = []
        for item, row in zip(batch, probabilities):
            result = service.build_result(item.request, row, item.top_k)
            if item.future.set_running_or_notify_cancel():
                item.future.set_result(result)
            latencies.append(now - item.enqueued_at)
        self.metrics.record_batch(len(batch), latencies)
        self._resolve(len(batch))

    # ------------------------------------------------------------------ #
    # Hot reload + observability
    # ------------------------------------------------------------------ #
    def reload(self, checkpoint_path: Union[str, Path]) -> PredictionService:
        """Atomically swap in a fresh service from a checkpoint directory.

        The new :class:`PredictionService` is built on the calling thread —
        off the event loop, so serving continues while the checkpoint loads
        (cold start is ~tens of ms, see ``benchmarks/results/
        serve_cold_start.txt``) — and installed with one reference
        assignment.  Batches already dispatched finish on the old model;
        batches dispatched afterwards (including requests already queued in
        the coalescer) use the new one.  A failed load leaves the old
        service untouched.
        """
        new_service = PredictionService.from_checkpoint(
            checkpoint_path,
            batch_size=self._service.batch_size,
            backend=self._service.requested_backend,
        )
        self._service = new_service
        self.metrics.record_reload()
        logger.info(
            "hot-reloaded checkpoint %s: %s",
            checkpoint_path,
            new_service.model.describe(),
        )
        return new_service

    # ------------------------------------------------------------------ #
    # Version-store watching (streaming ingest pickup)
    # ------------------------------------------------------------------ #
    def watch(self, version_store, poll_interval: Optional[float] = 0.05) -> "ServingDaemon":
        """Follow an artifact version store, hot-reloading on new versions.

        ``version_store`` is duck-typed (an
        :class:`repro.ingest.versions.ArtifactVersionStore` or anything whose
        ``current()`` returns ``None`` or an object with ``.version`` and
        ``.checkpoint_path``).  The store's *current* version at watch time
        is adopted as the already-served baseline without reloading — the
        daemon's initial service is assumed to be that version — and only
        strictly newer versions trigger :meth:`reload`.

        With a ``poll_interval`` (seconds) a background thread polls the
        store; ``poll_interval=None`` registers the store without a thread so
        callers drive :meth:`check_for_update` themselves (what the
        deterministic tests do).  Watching stops at :meth:`close`.
        """
        if self._watch_thread is not None:
            raise ServiceError("daemon is already watching a version store")
        self._version_store = version_store
        info = version_store.current()
        self._active_version = info.version if info is not None else None
        if poll_interval is None:
            return self
        if poll_interval <= 0:
            raise ServiceError("poll_interval must be positive (or None for manual polling)")
        self._watch_stop = threading.Event()

        def poll() -> None:
            assert self._watch_stop is not None
            while not self._watch_stop.wait(poll_interval):
                try:
                    self.check_for_update()
                except Exception as error:  # noqa: BLE001 - keep polling
                    logger.warning("version-store poll failed: %s", error)

        self._watch_thread = threading.Thread(
            target=poll, name="repro-serve-watch", daemon=True
        )
        self._watch_thread.start()
        logger.info("watching version store (poll every %.3gs)", poll_interval)
        return self

    def check_for_update(self) -> Optional[int]:
        """Poll the watched store once; reload if a newer version is current.

        Returns the newly adopted version id, or ``None`` when the store has
        nothing newer.  Thread-safe (the poller thread and manual callers
        serialise on a lock); batches already dispatched finish on the old
        service exactly as with a direct :meth:`reload`.
        """
        if self._version_store is None:
            raise ServiceError("no version store is being watched; call watch() first")
        with self._reload_lock:
            info = self._version_store.current()
            if info is None:
                return None
            if self._active_version is not None and info.version <= self._active_version:
                return None
            self.reload(info.checkpoint_path)
            self._active_version = info.version
            logger.info("picked up version %d", info.version)
            return info.version

    def _stop_watcher(self) -> None:
        if self._watch_stop is not None:
            self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join()
        self._watch_thread = None
        self._watch_stop = None

    def stats(self) -> Dict[str, object]:
        """Frozen observability snapshot: metrics plus live queue depth."""
        snapshot = self.metrics.snapshot()
        with self._state_lock:
            snapshot["queue"] = {
                "pending": self._pending_count,
                "limit": self.config.queue_limit,
            }
            snapshot["running"] = self._running
        snapshot["model"] = self._service.model.describe()
        snapshot["version"] = self._active_version
        snapshot["backend"] = {
            "name": self._service.backend,
            "serve_dtype": (
                np.dtype(self._service.serve_dtype).name
                if self._service.serve_dtype is not None
                else None
            ),
        }
        return snapshot
