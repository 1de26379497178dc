"""Deterministic chunked scheduling over a persistent process pool.

The execution contract every consumer (batched σ̂ evaluation, RR-set
sampling, Monte-Carlo replicas, gossip replicas) relies on:

* **Work item ``i`` is self-describing.** Chunks carry the items
  themselves (candidate id lists, world indices, replica indices) and
  every task derives its randomness from the item — ``rng.replica(i)``,
  world stream ``i`` — never from which worker runs it or in what order.
* **Chunks are contiguous and merged in index order.** Results are
  collected by chunk index and flattened in ascending index order, so
  the serial iteration order is reproduced exactly; serial and parallel
  runs are bit-identical. Chunk *granularity* is therefore free to vary
  (see "chunk auto-tuning" below) without changing any result or any
  merged counter total.
* **Worker set-up work is never counted.** Worker processes install the
  null metrics registry and run the consumer's ``setup`` under it:
  redundant per-worker preparation (attaching the graph, re-sampling the
  shared world batch, re-running a baseline race) would otherwise
  multiply work counters by the worker count. Each *chunk* then runs
  under a fresh registry whose snapshot ships home and is merged in
  chunk order — total counters equal a serial run's.

Executor lifecycle (docs/parallel.md, "Executor lifecycle"):

* the worker pool is created **once**, lazily, on the first pooled map,
  and reused by every subsequent map until :meth:`ParallelExecutor.close`
  (the executor is a context manager; a ``weakref.finalize`` backstop
  releases the pool and any shm segments if the executor is dropped
  without closing);
* the graph publication is pinned for the pool's lifetime and
  re-published **only when the graph identity changes** (``graph is not
  previous_graph``); workers cache the materialised graph by publication
  token and re-attach only when the token changes;
* per-worker *task state* (``setup``'s return value) is cached by a spec
  token derived from ``(setup, task, payload, graph)`` — consecutive
  maps with the same spec (greedy candidate rounds, sketch doublings,
  Monte-Carlo checkpoint batches) reuse the state instead of rebuilding
  it, which is where the warm pool's amortised-setup win comes from.

Failure semantics (docs/parallel.md, "Failure semantics"):

* a chunk whose task raises is retried up to ``retries`` times **on the
  same pool** (a recycled worker) — chunks are self-describing, so a
  retry is bit-identical to the first attempt — and then surfaces as
  :class:`~repro.errors.ExecError` naming the chunk index and a preview
  of its items, chaining the original;
* with a ``timeout`` configured, an attempt that produces no result
  within ``timeout`` seconds of the previous completion (a hung task,
  or a worker killed mid-chunk — the pool loses such a task silently
  either way) is abandoned, the now-poisoned pool is terminated, and
  the missing chunks are retried in a fresh pool;
* when pool-level failures outlive the retry budget the executor
  *degrades*: the still-missing chunks run inline in the parent, which
  is bit-identical by the same self-describing-chunks argument. Only
  deterministic task errors (a chunk that raised on every attempt with
  no pool failure in sight) raise instead of degrading.

Retry/timeout/degradation events increment ``exec.chunks.retried``,
``exec.chunks.timeout``, and ``exec.degraded``; pool construction and
graph publication increment ``exec.pool.created`` and
``exec.publications`` (the warm-pool invariant a bench run asserts is
exactly one of each). Event counters are created only when the events
actually occur. Fault injection for tests comes from
:mod:`repro.exec.resilience` (``REPRO_EXEC_FAULTS`` or an explicit
:class:`~repro.exec.resilience.FaultPlan`); the plan rides inside each
chunk message, so faults fire only in pool workers, never inline.

Chunk auto-tuning: :meth:`ParallelExecutor.map_items` records the
observed per-item cost of each ``(setup, task)`` pair and sizes later
chunks to a wall-clock target, bounded by a deterministic floor (at
least one chunk per worker, at least one item per chunk) and ceiling
(:data:`MAX_CHUNKS_PER_WORKER`). Timing influences *scheduling
granularity only* — results and merged counter totals are
chunking-independent by the contract above.

The pool start method is the platform default (``fork`` on Linux);
worker state lives in the module-level ``_WORKER_STATE`` dict, which the
pool initializer clears — a forked worker inherits the parent's (or a
previous pool's) module state, and stale entries must never leak into a
new pool (regression-tested in ``tests/exec/test_pool.py``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExecError
from repro.exec.resilience import FaultPlan
from repro.exec.shm import materialize_graph, publish_graph
from repro.obs.registry import MetricsRegistry, metrics, set_registry, use_registry

__all__ = [
    "ParallelExecutor",
    "resolve_workers",
    "split_chunks",
    "split_even",
]

#: chunks each worker should see across a map, on average; more chunks
#: than workers smooths imbalance without shrinking chunks to nothing.
CHUNKS_PER_WORKER = 4

#: hard ceiling on auto-tuned chunks per worker — past this, message
#: overhead dominates whatever balance finer chunks would buy.
MAX_CHUNKS_PER_WORKER = 16

#: wall-clock duration the auto-tuner aims each chunk at.
TARGET_CHUNK_SECONDS = 0.05

#: default retry budget per map (attempts = retries + 1).
DEFAULT_RETRIES = 2

# Per-worker state: the materialised graph (keyed by publication token)
# and the consumer's task state (keyed by spec token). Module-level so
# the (picklable) _run_chunk function can reach it.
_WORKER_STATE: Dict[str, Any] = {}

# Process-unique tokens for graph publications and task specs. Workers
# key their caches on these, so they must never collide across
# executors.
_GRAPH_TOKENS = itertools.count(1)
_SPEC_TOKENS = itertools.count(1)

#: sentinel distinguishing "no graph seen yet" from a ``None`` graph.
_UNSET = object()


def resolve_workers(
    workers: Union[int, str, None], items: Optional[int] = None
) -> int:
    """Turn a worker request into a concrete count.

    ``None`` and ``1`` mean serial; ``0`` and ``"auto"`` mean one worker
    per CPU; any other positive int is taken literally. When ``items``
    is given the count is capped by it (no point spawning idle workers).
    """
    if workers is None:
        count = 1
    elif workers == "auto" or workers == 0:
        count = multiprocessing.cpu_count()
    else:
        count = int(workers)
        if count < 0:
            raise ExecError(f"workers must be >= 0, got {workers!r}")
    if items is not None:
        count = min(count, items)
    return max(1, count)


def split_even(items: Sequence[Any], chunk_count: int) -> List[List[Any]]:
    """Split ``items`` into exactly ``chunk_count`` contiguous chunks.

    Sizes differ by at most one and concatenating the chunks reproduces
    ``items`` exactly — the property the executor's index-order merge
    relies on.
    """
    items = list(items)
    if not items:
        return []
    chunk_count = max(1, min(len(items), int(chunk_count)))
    base, extra = divmod(len(items), chunk_count)
    chunks: List[List[Any]] = []
    start = 0
    for position in range(chunk_count):
        size = base + (1 if position < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


def split_chunks(
    items: Sequence[Any],
    worker_count: int,
    per_worker: int = CHUNKS_PER_WORKER,
) -> List[List[Any]]:
    """Deterministic contiguous split of ``items`` into balanced chunks.

    Aims for ``worker_count * per_worker`` chunks (never more than
    ``len(items)``).
    """
    return split_even(items, worker_count * per_worker)


def _preview_items(chunk) -> str:
    """Short human-readable preview of a chunk's items for error messages."""
    try:
        items = list(chunk)
    except TypeError:
        return repr(chunk)
    shown = ", ".join(repr(item) for item in items[:3])
    if len(items) > 3:
        shown += f", ... ({len(items)} items)"
    return f"[{shown}]"


def _chunk_error(
    index: int, chunk, attempts: int, cause: Optional[BaseException]
) -> ExecError:
    """Build the :class:`ExecError` a failed chunk surfaces as."""
    what = (
        f"{type(cause).__name__}: {cause}" if cause is not None
        else "timed out or its worker was lost"
    )
    error = ExecError(
        f"chunk {index} (items {_preview_items(chunk)}) failed after "
        f"{attempts} attempt(s): {what}"
    )
    error.__cause__ = cause
    return error


def _shippable(exc: BaseException) -> BaseException:
    """An exception safe to send back through the pool's result pipe."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExecError(f"unpicklable task error {type(exc).__name__}: {exc}")


def _init_worker() -> None:
    """Pool initializer: start this worker from a clean slate.

    Workers are *generic*: the graph handle and the task spec arrive
    inside each chunk message (keyed by tokens), so the initializer
    only has to guarantee a clean cache and an uncounted default
    registry. A forked worker inherits the parent's module state (and,
    if the process hosted an earlier pool, its leftovers): start clean
    so no previous graph or task state can leak into this pool.
    """
    _WORKER_STATE.clear()
    set_registry(None)  # set-up work is uncounted; chunks opt back in


def _worker_state_for(spec) -> Any:
    """Return (building if stale) this worker's state for ``spec``.

    The graph is cached by publication token and the task state by spec
    token; both rebuild under the null registry so amortised set-up
    stays uncounted regardless of when (or how often) it happens.
    """
    token, setup, _task, payload, _collect, _faults, graph_token, handle = spec
    if _WORKER_STATE.get("spec_token") == token:
        return _WORKER_STATE["state"]
    set_registry(None)
    if _WORKER_STATE.get("graph_token") != graph_token:
        _WORKER_STATE["graph"] = materialize_graph(handle)
        _WORKER_STATE["graph_token"] = graph_token
        # A new graph invalidates any cached task state built on it.
        _WORKER_STATE.pop("state", None)
        _WORKER_STATE.pop("spec_token", None)
    state = setup(_WORKER_STATE["graph"], payload)
    _WORKER_STATE["state"] = state
    _WORKER_STATE["spec_token"] = token
    return state


def _run_chunk(message) -> Tuple[int, Optional[BaseException], Any, Optional[dict]]:
    """Worker: run one ``(spec, index, attempt, chunk)`` message.

    Returns ``(index, error, result, snapshot)``. Task exceptions come
    back as values rather than raising through the pool: the parent
    needs the chunk index to retry deterministically, and
    ``imap_unordered`` would otherwise re-raise with no indication of
    which chunk failed. A failed attempt ships no snapshot — partially
    counted work must not pollute the merged totals.
    """
    spec, index, attempt, chunk = message
    try:
        faults: Optional[FaultPlan] = spec[5]
        if faults is not None:
            faults.apply(index, attempt)
        task = spec[2]
        collect = spec[4]
        state = _worker_state_for(spec)
        if not collect:
            return index, None, task(state, chunk), None
        registry = MetricsRegistry()
        with use_registry(registry):
            result = task(state, chunk)
        return index, None, result, registry.snapshot()
    except Exception as exc:
        return index, _shippable(exc), None, None


def _release_executor_resources(resources: Dict[str, Any]) -> None:
    """Finalizer target: terminate an owned pool, close the publication.

    Module-level and handed the mutable resource holder (never the
    executor itself) so ``weakref.finalize`` can run it at garbage
    collection or interpreter exit without keeping the executor alive.
    """
    pool = resources.get("pool")
    resources["pool"] = None
    if pool is not None:
        pool.terminate()
        pool.join()
    publication = resources.get("publication")
    resources["publication"] = None
    if publication is not None:
        publication.close()


class ParallelExecutor:
    """Deterministic, fault-tolerant fan-out of chunked work over one
    long-lived worker pool.

    The executor is built to be **created once and reused**: the first
    pooled map lazily spins up the pool and publishes the graph; later
    maps — whether more sigma rounds, sketch doublings, Monte-Carlo
    batches, or a different subsystem entirely — reuse both, and worker
    task state is cached between maps with an identical spec. Use it as
    a context manager, or call :meth:`close` when done; an executor
    dropped without closing is cleaned up by ``weakref.finalize``.

    Args:
        workers: worker request (see :func:`resolve_workers`); ``None``
            or ``1`` runs everything inline with zero pool overhead.
        share: graph publication mode (see
            :func:`~repro.exec.shm.publish_graph`).
        timeout: per-chunk deadline in seconds, measured from the
            previous completed chunk (``None`` = wait forever, the
            pre-resilience behavior). A timeout is also how a worker
            killed mid-chunk is detected — the pool loses such a task
            silently, so without a timeout the map blocks forever.
        retries: how many times failed chunks are re-executed before the
            executor gives up on the pool (``None`` = the default
            budget of :data:`DEFAULT_RETRIES`). Retries are
            bit-identical because chunks are self-describing; task
            errors retry on the *same* pool (recycled workers), and a
            fresh pool is built only when the previous one was poisoned
            by a timeout.
        degrade: whether pool-level failures that outlive the retry
            budget fall back to running the missing chunks inline in the
            parent (``True``, the default) or raise.
        faults: an explicit :class:`~repro.exec.resilience.FaultPlan`
            for tests; ``None`` reads the ambient ``REPRO_EXEC_FAULTS``
            plan. Faults fire only inside pool workers, never on the
            inline or degraded path.

    The consumer supplies two picklable module-level functions:

    * ``setup(graph, payload) -> state`` — a pure function of its
      arguments, run under the null registry (uncounted). The executor
      caches its result — per worker across maps, and on the inline
      path across calls — so it must not capture per-call mutable
      context;
    * ``task(state, chunk) -> result`` — runs once per chunk under a
      fresh registry whose snapshot is merged home in chunk order; it
      must treat ``state`` as read-only.
    """

    __slots__ = (
        "workers", "share", "timeout", "retries", "degrade", "faults",
        "_pool",
        "_publication", "_graph", "_graph_version", "_graph_handle",
        "_graph_token", "_spec_key", "_spec_token",
        "_inline_key", "_inline_graph", "_inline_version", "_inline_state",
        "_item_costs", "_resources", "_finalizer", "__weakref__",
    )

    def __init__(
        self,
        workers: Union[int, str, None] = None,
        share: str = "auto",
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        degrade: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.workers = workers
        self.share = share
        if timeout is not None and float(timeout) <= 0:
            raise ExecError(f"timeout must be > 0 seconds, got {timeout!r}")
        self.timeout = None if timeout is None else float(timeout)
        retries = DEFAULT_RETRIES if retries is None else int(retries)
        if retries < 0:
            raise ExecError(f"retries must be >= 0, got {retries!r}")
        self.retries = retries
        self.degrade = bool(degrade)
        self.faults = faults
        self._pool = None
        self._publication = None
        self._graph: Any = _UNSET
        self._graph_version: Optional[int] = None
        self._graph_handle = None
        self._graph_token: Optional[int] = None
        self._spec_key: Optional[tuple] = None
        self._spec_token: Optional[int] = None
        self._inline_key: Optional[tuple] = None
        self._inline_graph: Any = _UNSET
        self._inline_version: Optional[int] = None
        self._inline_state: Any = None
        self._item_costs: Dict[tuple, float] = {}
        self._resources: Dict[str, Any] = {"pool": None, "publication": None}
        self._finalizer = weakref.finalize(
            self, _release_executor_resources, self._resources
        )

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release the pool, the graph publication, and every cache.

        Idempotent, and not terminal: a later map lazily rebuilds
        whatever it needs, so ``close()`` between workloads simply
        returns the executor to its cold state.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._resources["pool"] = None
        publication, self._publication = self._publication, None
        if publication is not None:
            publication.close()
        self._resources["publication"] = None
        self._graph = _UNSET
        self._graph_version = None
        self._graph_handle = None
        self._graph_token = None
        self._spec_key = None
        self._spec_token = None
        self._inline_key = None
        self._inline_graph = _UNSET
        self._inline_version = None
        self._inline_state = None
        self._item_costs.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the maps ---------------------------------------------------------------

    def map_items(
        self,
        setup: Callable[[Any, Any], Any],
        task: Callable[[Any, Any], Any],
        payload: Any,
        items: Sequence[Any],
        graph=None,
    ) -> List[Any]:
        """Run ``task`` over auto-tuned chunks of ``items``; flatten in order.

        ``task`` must return a sequence with one entry per chunk item.
        Chunk sizes come from the per-item cost observed on earlier maps
        of the same ``(setup, task)`` pair, aimed at
        :data:`TARGET_CHUNK_SECONDS` per chunk with a deterministic
        floor (≥ 1 chunk per worker, ≥ 1 item per chunk); until a cost
        is known, the :func:`split_chunks` default applies. Tuning
        affects scheduling granularity only — results and merged counter
        totals are chunking-independent.
        """
        items = list(items)
        if not items:
            return []
        worker_count = resolve_workers(self.workers, len(items))
        chunks = self._plan_chunks(setup, task, items, worker_count)
        started = time.perf_counter()
        chunk_results = self.map_chunks(setup, task, payload, chunks, graph=graph)
        if worker_count > 1:
            self._observe_cost(setup, task, len(items), time.perf_counter() - started)
        flat: List[Any] = []
        for result in chunk_results:
            flat.extend(result)
        return flat

    def map_chunks(
        self,
        setup: Callable[[Any, Any], Any],
        task: Callable[[Any, Any], Any],
        payload: Any,
        chunks: Sequence[Any],
        graph=None,
    ) -> List[Any]:
        """Run ``task`` over every chunk; results come back in chunk order.

        Serial (one effective worker) and parallel execution produce
        identical result lists and — via snapshot merging — identical
        metric totals in the caller's registry, whether or not chunks
        were retried, timed out, or degraded along the way.
        """
        chunks = list(chunks)
        if not chunks:
            return []
        registry = metrics()
        worker_count = resolve_workers(self.workers, len(chunks))
        if worker_count <= 1:
            # Inline path: same code, no pool. Set-up stays uncounted
            # (exactly as in a worker) and its result is cached across
            # calls (exactly as in a worker); chunks run under the
            # caller's registry directly, which is what a serial run
            # does.
            state = self._inline_state_for(setup, task, payload, graph)
            return [
                self._run_inline(task, state, index, chunk)
                for index, chunk in enumerate(chunks)
            ]

        faults = self.faults if self.faults is not None else FaultPlan.from_env()
        handle, graph_token = self._ensure_publication(graph, registry)
        spec = self._spec_for(
            setup, task, payload, graph_token, handle, registry.enabled, faults
        )
        results: Dict[int, Any] = {}
        snapshots: Dict[int, Optional[dict]] = {}
        pending: Dict[int, Any] = dict(enumerate(chunks))
        last_errors: Dict[int, BaseException] = {}
        pool_failures = 0
        with registry.timer("time.exec.pool"):
            for attempt in range(self.retries + 1):
                if not pending:
                    break
                if attempt > 0:
                    registry.counter("exec.chunks.retried").add(len(pending))
                pool_failures += self._run_attempt(
                    spec, registry, attempt, pending, results,
                    snapshots, last_errors,
                )

        if pending:
            first = min(pending)
            # Degrade only when the *pool* misbehaved: a chunk that
            # raised deterministically on every attempt would fail
            # inline too, so surface it with its context instead.
            task_failure_only = pool_failures == 0 and all(
                index in last_errors for index in pending
            )
            if task_failure_only or not self.degrade:
                raise _chunk_error(
                    first, pending[first], self.retries + 1,
                    last_errors.get(first),
                )
            registry.counter("exec.degraded").add(1)
            state = self._inline_state_for(setup, task, payload, graph)
            for index in sorted(pending):
                results[index] = self._run_inline(
                    task, state, index, pending[index]
                )
                snapshots[index] = None
            pending.clear()

        ordered: List[Any] = []
        for index in range(len(chunks)):  # merge in chunk (= serial) order
            ordered.append(results[index])
            snapshot = snapshots.get(index)
            if snapshot is not None:
                registry.merge_snapshot(snapshot)
        return ordered

    # -- internals --------------------------------------------------------------

    def _plan_chunks(
        self, setup, task, items: List[Any], worker_count: int
    ) -> List[List[Any]]:
        """Size chunks from the observed per-item cost, with safe bounds."""
        if worker_count <= 1:
            return [items]
        cost = self._item_costs.get((setup, task))
        if not cost or cost <= 0.0:
            return split_chunks(items, worker_count)
        size = max(1, round(TARGET_CHUNK_SECONDS / cost))
        # Deterministic floor: never fewer chunks than workers (every
        # worker gets work), never fewer than one item per chunk.
        chunk_count = -(-len(items) // size)
        chunk_count = max(worker_count, chunk_count)
        chunk_count = min(
            len(items), chunk_count, worker_count * MAX_CHUNKS_PER_WORKER
        )
        return split_even(items, chunk_count)

    def _observe_cost(
        self, setup, task, item_count: int, elapsed: float
    ) -> None:
        """Fold one pooled map's per-item wall-clock into the cost EMA."""
        if item_count <= 0 or elapsed <= 0.0:
            return
        observed = elapsed / item_count
        key = (setup, task)
        previous = self._item_costs.get(key)
        self._item_costs[key] = (
            observed if previous is None else 0.5 * previous + 0.5 * observed
        )

    def _inline_state_for(self, setup, task, payload, graph) -> Any:
        """Inline-path task state, cached like a worker's would be."""
        try:
            payload_bytes = pickle.dumps(
                payload, protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            payload_bytes = None  # uncacheable payload: rebuild each call
        key = (setup, task, payload_bytes)
        version = getattr(graph, "version", None)
        if (
            payload_bytes is not None
            and key == self._inline_key
            and graph is self._inline_graph
            and version == self._inline_version
        ):
            return self._inline_state
        with use_registry(None):
            state = setup(graph, payload)
        if payload_bytes is not None:
            self._inline_key = key
            self._inline_graph = graph
            self._inline_version = version
            self._inline_state = state
        return state

    def _ensure_publication(self, graph, registry) -> Tuple[Any, int]:
        """Publish ``graph`` unless the pinned publication already covers it.

        The pin is ``(identity, version)``: graphs that mutate in place
        (:meth:`repro.graph.compact.IndexedDiGraph.apply_updates`) bump
        their ``version``, which forces a republication — and a new graph
        token, so workers drop every cache derived from the stale arrays.
        """
        version = getattr(graph, "version", None)
        if (
            graph is self._graph
            and version == self._graph_version
            and self._graph_token is not None
        ):
            return self._graph_handle, self._graph_token
        publication, self._publication = self._publication, None
        self._resources["publication"] = None
        if publication is not None:
            publication.close()
        if graph is None:
            handle: Any = None
            token = 0
        else:
            publication = publish_graph(graph, self.share)
            registry.counter("exec.publications").add(1)
            self._publication = publication
            self._resources["publication"] = publication
            handle = publication.handle
            token = next(_GRAPH_TOKENS)
        self._graph = graph
        self._graph_version = version
        self._graph_handle = handle
        self._graph_token = token
        return handle, token

    def _spec_for(
        self, setup, task, payload, graph_token, handle, collect, faults
    ) -> tuple:
        """Build the per-map chunk spec, reusing the token when unchanged.

        The token keys worker-side state caching, so it changes exactly
        when a rebuilt state could differ: new setup/task, new payload
        bytes, or a new graph publication. ``collect`` and ``faults``
        ride alongside (they affect a chunk's execution, not its state).
        """
        payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        key = (setup, task, graph_token, payload_bytes)
        if key != self._spec_key or self._spec_token is None:
            self._spec_key = key
            self._spec_token = next(_SPEC_TOKENS)
        return (
            self._spec_token, setup, task, payload,
            bool(collect), faults, graph_token, handle,
        )

    def _ensure_pool(self, registry):
        """Return the live pool, creating one if needed."""
        if self._pool is None:
            self._pool = multiprocessing.Pool(
                processes=resolve_workers(self.workers), initializer=_init_worker
            )
            registry.counter("exec.pool.created").add(1)
            self._resources["pool"] = self._pool
        return self._pool

    def _discard_pool(self) -> None:
        """Terminate a poisoned pool (hung or killed workers) and forget it."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._resources["pool"] = None
        pool.terminate()
        pool.join()

    def _run_attempt(
        self, spec, registry, attempt, pending, results, snapshots, last_errors,
    ) -> int:
        """One pool pass over the pending chunks.

        Completed chunks move from ``pending`` into ``results``; task
        errors are recorded in ``last_errors`` (the chunk stays pending)
        and retry on the same pool next attempt. Returns the number of
        pool-level failures observed (0 or 1): on a timeout the whole
        attempt is abandoned and the pool terminated — its workers may
        be hung or dead — so the next attempt runs everything still
        pending in a fresh pool.
        """
        pool = self._ensure_pool(registry)
        messages = [(spec, i, attempt, pending[i]) for i in sorted(pending)]
        received = 0
        iterator = pool.imap_unordered(_run_chunk, messages)
        for _ in range(len(messages)):
            try:
                index, error, result, snapshot = iterator.next(self.timeout)
            except multiprocessing.TimeoutError:
                registry.counter("exec.chunks.timeout").add(
                    len(messages) - received
                )
                self._discard_pool()
                return 1
            received += 1
            if error is not None:
                last_errors[index] = error
                continue
            results[index] = result
            snapshots[index] = snapshot
            del pending[index]
        return 0

    @staticmethod
    def _run_inline(task, state, index, chunk):
        """Run one chunk in-process, wrapping task errors with context."""
        try:
            return task(state, chunk)
        except ExecError:
            raise
        except Exception as exc:
            raise _chunk_error(index, chunk, 1, exc) from exc

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers!r}, share={self.share!r}, "
            f"timeout={self.timeout}, retries={self.retries}, "
            f"degrade={self.degrade})"
        )
