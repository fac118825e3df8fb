"""The fused (run x cell) work-queue scheduler.

Parallelism used to be siloed: :mod:`repro.sim.parallel` shards across
Monte-Carlo runs, :meth:`repro.multicast.coordination.CoordinationEntity.
rollout` shards across cells, and the sweep runner drives grid cells one
at a time — so a many-run x many-cell sweep leaves workers idle between
barriers. This module flattens all of that into **one** process pool fed
from a single work queue.

Determinism contract
--------------------
Every task carries a :class:`TaskAddress` ``(campaign, run_index,
cell_index)`` plus an explicit seed-derivation pair ``(seed,
spawn_index)``. The worker derives the task's generator as::

    np.random.default_rng(np.random.SeedSequence(seed).spawn(k)[i])

which depends only on ``(seed, i)`` — a ``SeedSequence`` child's
``spawn_key`` is its spawn position, independent of how many siblings
were spawned alongside it. Run ``i`` therefore sees the exact generator
the serial harness hands it, and cell ``j`` of a run sees the exact
child ``CoordinationEntity.rollout(seed=...)`` derives — results are
bit-identical to the serial path for any worker count and any task
completion order.

Fan-out
-------
A task may return a :class:`FanOut` instead of a result: the scheduler
then enqueues the fan-out's sub-items (e.g. one task per cell of a
multi-cell run) and, once every sub-result has arrived, enqueues a
reduction task that folds them — in canonical sub-item order — into the
parent task's result. The bookkeeping lives in :class:`ReductionLedger`,
which is a pure completion-order-independent state machine: the property
tests drive it with shuffled completion orders and assert the canonical
output never changes.

Dispatch grain
--------------
Submitting one pool task per (run x cell) item prices every item at a
full pickle/IPC round trip — a loss against the serial path when items
are tiny (many cells, few devices each). The scheduler therefore groups
consecutive canonical items into *chunks* (:func:`auto_chunk_size`, or
an explicit ``chunk_size``) and submits each chunk as one task; the
worker runs the chunk's items in order, each with its own derived
generator, and the scheduler unpacks the returned value list into the
exact per-item ledger completions the unchunked path performs. Results
are bit-identical for every chunk size and worker count.
"""

from __future__ import annotations

import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.parallel import RunFn, default_workers

#: A task function: (rng, address, payload) -> result | FanOut.
TaskFn = Callable[[np.random.Generator, "TaskAddress", Any], Any]

#: A reduction function: (state, sub_results, address) -> result.
ReduceFn = Callable[[Any, List[Any], "TaskAddress"], Any]


@dataclass(frozen=True)
class TaskAddress:
    """The deterministic identity of one work item.

    ``campaign`` names the campaign (a scenario fingerprint, a cache
    tag, ...), ``run_index`` the Monte-Carlo run and ``cell_index`` the
    cell within the run; ``-1`` marks the axis as unused (a run-level
    task has ``cell_index=-1``). Two tasks with the same address compute
    the same thing — the address, not the submission or completion
    order, is what the result is keyed by.
    """

    campaign: str
    run_index: int
    cell_index: int = -1

    def __str__(self) -> str:
        cell = "" if self.cell_index < 0 else f"/cell{self.cell_index}"
        return f"{self.campaign}/run{self.run_index}{cell}"


def derive_task_rng(seed: int, spawn_index: int) -> np.random.Generator:
    """The fixed ``SeedSequence`` child generator of one task.

    Child ``i`` of ``SeedSequence(seed)`` is identical no matter how
    many siblings are spawned, so this is bit-compatible with both
    ``spawn_generators(seed, n)[i]`` (the Monte-Carlo contract) and the
    per-cell children ``rollout(seed=...)`` derives.
    """
    if spawn_index < 0:
        raise ConfigurationError(
            f"spawn_index must be >= 0, got {spawn_index}"
        )
    child = np.random.SeedSequence(seed).spawn(spawn_index + 1)[spawn_index]
    return np.random.default_rng(child)


@dataclass(frozen=True)
class WorkItem:
    """One schedulable task: an address, a function and its seed pair."""

    address: TaskAddress
    fn: TaskFn
    payload: Any
    seed: int
    spawn_index: int


@dataclass(frozen=True)
class FanOut:
    """Returned by a task that expands into sub-tasks.

    ``items`` are scheduled like any other work item; once all their
    results are in, ``reduce_fn(state, results, address)`` runs (on the
    pool) with ``results`` in ``items`` order — the canonical order —
    regardless of completion order. Only top-level tasks may fan out
    (one level keeps the ledger, and the determinism argument, simple).
    """

    items: Tuple[WorkItem, ...]
    reduce_fn: ReduceFn
    state: Any


def _validate_picklable(items: Sequence[WorkItem]) -> None:
    """Reject unpicklable task functions before any pool submission.

    Deduplicated by function identity: a 10^4-item sweep reusing one
    module-level task fn pays for a single ``pickle.dumps``, not one per
    item.
    """
    seen: set = set()
    for item in items:
        key = id(item.fn)
        if key in seen:
            continue
        seen.add(key)
        try:
            pickle.dumps(item.fn)
        except Exception as exc:
            raise ConfigurationError(
                "fused dispatch requires picklable task functions "
                "(module-level function or functools.partial of "
                f"one); got {item.fn!r}: {exc}"
            ) from exc


def _execute_item(item: WorkItem) -> Any:
    """Worker entry point: derive the task generator and run the task."""
    rng = derive_task_rng(item.seed, item.spawn_index)
    return item.fn(rng, item.address, item.payload)


#: Chunks never grow past this: larger grains stop helping amortise the
#: per-task pickle/IPC round trip and start costing scheduling slack.
_MAX_CHUNK_SIZE = 64


def auto_chunk_size(n_items: int, workers: int) -> int:
    """The default dispatch grain for ``n_items`` over ``workers``.

    Aims at ~4 chunks per worker — enough batching to amortise the
    per-task pickle/IPC round trip when items are tiny (the regime
    where fused used to lose to serial), while keeping the queue deep
    enough that an uneven item mix still load-balances. A deterministic
    pure function of ``(n_items, workers)``: the chunk boundaries never
    depend on timing.
    """
    if n_items < 1:
        raise ConfigurationError(f"n_items must be >= 1, got {n_items}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return max(1, min(_MAX_CHUNK_SIZE, -(-n_items // (workers * 4))))


def _execute_chunk(items: Tuple[WorkItem, ...]) -> List[Any]:
    """Worker entry point for a chunk: run its items in canonical order.

    Each item still derives its own ``(seed, spawn_index)`` generator,
    so the values are element-for-element identical to ``_execute_item``
    — the chunk only changes how many results ride one IPC round trip.
    """
    return [_execute_item(item) for item in items]


def _execute_reduce(
    reduce_fn: ReduceFn,
    state: Any,
    results: List[Any],
    address: TaskAddress,
) -> Any:
    """Worker entry point for a fan-out's reduction."""
    return reduce_fn(state, results, address)


_UNSET = object()


@dataclass(frozen=True)
class PartialResult:
    """One completion streamed out of the ledger as it lands.

    ``kind`` is ``"top"`` (a top-level task that returned a plain
    value), ``"sub"`` (one fan-out sub-item, e.g. a single cell of a
    multi-cell run) or ``"reduce"`` (a fan-out's folded result filling
    its top-level slot). ``position`` is the sub-item's canonical
    position within its fan-out (None otherwise); ``address`` is the
    completing task's deterministic address when the scheduler knows it.

    Streaming is observational only: the canonical outputs still come
    from :meth:`ReductionLedger.results` in submission order, so
    consuming partials can never perturb determinism.
    """

    kind: str
    top_index: int
    value: Any
    position: Optional[int] = None
    address: Optional[TaskAddress] = None


#: Callback invoked (in the scheduling process) for each streamed
#: :class:`PartialResult`, in completion order.
PartialFn = Callable[[PartialResult], None]


@dataclass
class _Group:
    """One pending fan-out: sub-results accumulate until reduction."""

    top_index: int
    address: TaskAddress
    reduce_fn: ReduceFn
    state: Any
    results: List[Any]
    remaining: int


@dataclass(frozen=True)
class ReadyReduce:
    """A fan-out whose sub-results are all in: reduction can run."""

    top_index: int
    address: TaskAddress
    reduce_fn: ReduceFn
    state: Any
    results: List[Any]


class ReductionLedger:
    """Completion-order-independent reassembly of fused results.

    The scheduler feeds completions in whatever order the pool yields
    them; the ledger slots each one by address and reports what to do
    next (schedule a fan-out's sub-items, run a ready reduction, or
    nothing). ``results()`` returns the top-level results in submission
    order and refuses to answer before every slot is filled — so the
    output is a pure function of the per-task results, not of timing.
    """

    def __init__(self, n_top: int) -> None:
        if n_top < 1:
            raise ConfigurationError(f"need >= 1 top-level task, got {n_top}")
        self._top: List[Any] = [_UNSET] * n_top
        self._groups: Dict[int, _Group] = {}
        self._stream: List[PartialResult] = []

    def partial_results(self) -> Iterator[PartialResult]:
        """Drain the completions streamed since the last drain.

        Yields :class:`PartialResult` records in completion order —
        per-cell results flow out here while sibling cells (and whole
        other runs) are still in flight, instead of waiting for the
        one-reduce-per-run barrier.
        """
        while self._stream:
            yield self._stream.pop(0)

    def complete_top(
        self, index: int, value: Any, address: Optional[TaskAddress] = None
    ) -> Optional[FanOut]:
        """Record a top-level completion; returns a fan-out to schedule.

        A plain value fills the slot; a :class:`FanOut` opens a group
        whose reduction will fill the slot later.
        """
        if not 0 <= index < len(self._top):
            raise ConfigurationError(f"top-level index {index} out of range")
        if self._top[index] is not _UNSET or index in self._groups:
            raise ConfigurationError(
                f"top-level task {index} completed twice"
            )
        if isinstance(value, FanOut):
            if not value.items:
                raise ConfigurationError(
                    "a FanOut needs at least one sub-item"
                )
            self._groups[index] = _Group(
                top_index=index,
                address=value.items[0].address,
                reduce_fn=value.reduce_fn,
                state=value.state,
                results=[_UNSET] * len(value.items),
                remaining=len(value.items),
            )
            return value
        self._top[index] = value
        self._stream.append(
            PartialResult(
                kind="top", top_index=index, value=value, address=address
            )
        )
        return None

    def complete_sub(
        self,
        top_index: int,
        position: int,
        value: Any,
        address: Optional[TaskAddress] = None,
    ) -> Optional[ReadyReduce]:
        """Record one sub-item completion; returns the reduction when
        the group is complete."""
        group = self._groups.get(top_index)
        if group is None:
            raise ConfigurationError(
                f"no open fan-out for top-level task {top_index}"
            )
        if isinstance(value, FanOut):
            raise ConfigurationError(
                "nested fan-out: only top-level tasks may expand"
            )
        if not 0 <= position < len(group.results):
            raise ConfigurationError(
                f"sub-item position {position} out of range"
            )
        if group.results[position] is not _UNSET:
            raise ConfigurationError(
                f"sub-item {top_index}/{position} completed twice"
            )
        group.results[position] = value
        self._stream.append(
            PartialResult(
                kind="sub",
                top_index=top_index,
                value=value,
                position=position,
                address=address,
            )
        )
        group.remaining -= 1
        if group.remaining:
            return None
        del self._groups[top_index]
        return ReadyReduce(
            top_index=top_index,
            address=group.address,
            reduce_fn=group.reduce_fn,
            state=group.state,
            results=list(group.results),
        )

    def complete_reduce(
        self,
        top_index: int,
        value: Any,
        address: Optional[TaskAddress] = None,
    ) -> None:
        """Record a reduction's result into its top-level slot."""
        if not 0 <= top_index < len(self._top):
            raise ConfigurationError(
                f"top-level index {top_index} out of range"
            )
        if self._top[top_index] is not _UNSET:
            raise ConfigurationError(
                f"top-level task {top_index} completed twice"
            )
        if isinstance(value, FanOut):
            raise ConfigurationError(
                "nested fan-out: a reduction may not expand"
            )
        self._top[top_index] = value
        self._stream.append(
            PartialResult(
                kind="reduce",
                top_index=top_index,
                value=value,
                address=address,
            )
        )

    @property
    def done(self) -> bool:
        """True once every top-level slot holds a result."""
        return not self._groups and all(
            slot is not _UNSET for slot in self._top
        )

    def results(self) -> List[Any]:
        """Top-level results in canonical (submission) order."""
        if not self.done:
            raise ConfigurationError(
                "fused campaign incomplete: results are only available "
                "once every task has completed"
            )
        return list(self._top)


class FusedScheduler:
    """One process pool draining a flattened (run x cell) work queue.

    ``chunk_size`` sets the dispatch grain: the scheduler groups
    consecutive canonical items into chunks of that size and submits
    each chunk as one pool task (one pickle/IPC round trip for the
    whole chunk), then unpacks the returned values into exactly the
    per-item ledger completions the unchunked path performs. ``None``
    (the default) picks :func:`auto_chunk_size` per batch; ``1`` is
    bit-for-bit the per-item submission path. Results are identical for
    every chunk size because each item keeps its own derived generator
    and the ledger is completion-order-independent.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        workers = default_workers() if workers is None else workers
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._workers = workers
        self._chunk_size = chunk_size

    @property
    def workers(self) -> int:
        """Pool size."""
        return self._workers

    @property
    def chunk_size(self) -> Optional[int]:
        """The configured dispatch grain (None = auto per batch)."""
        return self._chunk_size

    def _grain(self, n_items: int) -> int:
        """The chunk size for one batch of ``n_items`` sibling tasks."""
        if self._chunk_size is not None:
            return self._chunk_size
        return auto_chunk_size(n_items, self._workers)

    def run(
        self,
        items: Sequence[WorkItem],
        on_partial: Optional[PartialFn] = None,
    ) -> List[Any]:
        """Execute every item (and whatever it fans out into).

        Returns the per-item results in submission order; fan-out items
        resolve to their reduction's result. Everything — task
        functions, payloads, fan-out states, results — must be
        picklable. ``on_partial`` (if given) is called in this process
        for every streamed :class:`PartialResult` as completions land —
        per-cell results surface while the rest of the queue is still
        draining.
        """
        items = list(items)
        if not items:
            raise ConfigurationError("no work items to dispatch")
        _validate_picklable(items)

        ledger = ReductionLedger(len(items))

        def drain() -> None:
            for partial in ledger.partial_results():
                if on_partial is not None:
                    on_partial(partial)

        # Start the resource tracker before the pool forks: every
        # worker then inherits the same tracker, which is what makes
        # shared-memory fleet registrations idempotent across processes
        # (see repro.devices.sharedmem's lifecycle contract).
        resource_tracker.ensure_running()
        with ProcessPoolExecutor(max_workers=self._workers) as pool:
            #: future -> ("top", start, chunk_items)
            #:        | ("sub", top_index, start, chunk_items)
            #:        | ("reduce", top_index)
            #: A chunk's items ride in the slot so completions can be
            #: unpacked against their canonical addresses.
            pending: Dict[Any, Tuple] = {}

            def submit_top(batch: Sequence[WorkItem]) -> None:
                grain = self._grain(len(batch))
                for start in range(0, len(batch), grain):
                    chunk = tuple(batch[start : start + grain])
                    pending[pool.submit(_execute_chunk, chunk)] = (
                        "top", start, chunk,
                    )

            def submit_sub(top_index: int, fanout: FanOut) -> None:
                grain = self._grain(len(fanout.items))
                for start in range(0, len(fanout.items), grain):
                    chunk = tuple(fanout.items[start : start + grain])
                    pending[pool.submit(_execute_chunk, chunk)] = (
                        "sub", top_index, start, chunk,
                    )

            def submit_reduce(ready: ReadyReduce) -> None:
                pending[
                    pool.submit(
                        _execute_reduce,
                        ready.reduce_fn,
                        ready.state,
                        ready.results,
                        ready.address,
                    )
                ] = ("reduce", ready.top_index, ready.address)

            submit_top(items)
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                # Handle a completion batch in submission order, not in
                # the set's hash order, so partials stream
                # deterministically.
                for future in [f for f in pending if f in done]:
                    slot = pending.pop(future)
                    value = future.result()
                    if slot[0] == "top":
                        _, start, chunk = slot
                        for offset, (item, result) in enumerate(
                            zip(chunk, value)
                        ):
                            fanout = ledger.complete_top(
                                start + offset,
                                result,
                                address=item.address,
                            )
                            if fanout is not None:
                                submit_sub(start + offset, fanout)
                    elif slot[0] == "sub":
                        _, top_index, start, chunk = slot
                        for offset, (item, result) in enumerate(
                            zip(chunk, value)
                        ):
                            ready = ledger.complete_sub(
                                top_index,
                                start + offset,
                                result,
                                address=item.address,
                            )
                            if ready is not None:
                                submit_reduce(ready)
                    else:
                        ledger.complete_reduce(
                            slot[1], value, address=slot[2]
                        )
                    drain()
        drain()
        return ledger.results()


def execute_items(
    items: Sequence[WorkItem],
    workers: Optional[int] = None,
    on_partial: Optional[PartialFn] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """One-call front: dispatch ``items`` through a fused scheduler."""
    return FusedScheduler(workers=workers, chunk_size=chunk_size).run(
        items, on_partial=on_partial
    )


# ----------------------------------------------------------------------
# Flat-map adapters (the montecarlo / rollout consumer surface)
# ----------------------------------------------------------------------
def _metric_task(
    rng: np.random.Generator, address: TaskAddress, payload: Any
) -> Dict[str, float]:
    """One Monte-Carlo run as a fused task (floats cross back, like the
    process backend's worker-side coercion)."""
    fn = payload
    return {k: float(v) for k, v in fn(rng, address.run_index).items()}


def run_fused(
    fn: RunFn,
    seed: int,
    n_runs: int,
    workers: Optional[int] = None,
    campaign: str = "montecarlo",
    on_partial: Optional[PartialFn] = None,
    chunk_size: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Execute a Monte-Carlo run function through the fused queue.

    The flat counterpart of :func:`repro.sim.parallel.run_in_processes`:
    run ``i`` is one work item addressed ``(campaign, i, -1)`` with the
    standard child generator, so the per-run metric dicts are
    bit-identical to the serial and process backends.
    """
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    items = [
        WorkItem(
            address=TaskAddress(campaign, run_index),
            fn=_metric_task,
            payload=fn,
            seed=seed,
            spawn_index=run_index,
        )
        for run_index in range(n_runs)
    ]
    return execute_items(
        items, workers=workers, on_partial=on_partial, chunk_size=chunk_size
    )


def _map_task(
    rng: np.random.Generator, address: TaskAddress, payload: Any
) -> Any:
    """Generic per-item map adapter (mirrors parallel.MapFn calling
    convention: fn(rng, item_index, item))."""
    fn, index, item = payload
    return fn(rng, index, item)


def map_fused(
    fn: Callable,
    seed: int,
    items: Sequence[Any],
    workers: Optional[int] = None,
    campaign: str = "map",
    cell_ids: Optional[Sequence[int]] = None,
    on_partial: Optional[PartialFn] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Map ``fn`` over ``items`` through the fused queue.

    The flat counterpart of :func:`repro.sim.parallel.map_in_processes`:
    item ``i`` receives ``SeedSequence(seed).spawn(n)[i]``, so results
    are bit-identical to ``map_serial`` for any worker count.
    ``cell_ids`` labels each item's task address as a cell of run 0
    (the rollout consumer); without it items address as run indices.
    """
    items = list(items)
    if not items:
        raise ConfigurationError("no items to map")
    if cell_ids is not None and len(cell_ids) != len(items):
        raise ConfigurationError(
            f"{len(cell_ids)} cell ids for {len(items)} items"
        )
    work = []
    for index, item in enumerate(items):
        if cell_ids is None:
            address = TaskAddress(campaign, index)
        else:
            address = TaskAddress(campaign, 0, int(cell_ids[index]))
        work.append(
            WorkItem(
                address=address,
                fn=_map_task,
                payload=(fn, index, item),
                seed=seed,
                spawn_index=index,
            )
        )
    return execute_items(
        work, workers=workers, on_partial=on_partial, chunk_size=chunk_size
    )
