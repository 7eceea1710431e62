"""Process-parallel execution of independent coarse-grained tasks.

A comparison runs one independent task per scheme, the chaos
experiment one per fault cell and the tenancy service one per range of
tenants.  This module provides the one
executor abstraction they share (region searches are too small to pay
for a worker process and run in the calling process):

* :func:`parallel_map` runs serially unless the caller asks for more
  than one worker with ``n_jobs`` (on a 2-vCPU host a pool of two lost
  to the serial loop on ``serve`` and ``fig07``, so nothing fans out by
  default);
* with ``n_jobs > 1`` it maps a picklable function over items with a
  ``ProcessPoolExecutor``, preserving item order (each item is pickled
  once, in the caller, and unpickled by the worker), and degrades to a
  plain serial loop when there is nothing to fan out, when a task does
  not pickle, or when the platform cannot spawn worker processes
  (sandboxes without ``fork`` semaphores, for example) — results are
  identical either way, because every task is independent and
  deterministic;
* worker exceptions are re-raised as :class:`TaskError` carrying the
  *label* of the failing item, with the original exception chained, so
  a failure in one of many concurrent tasks still says exactly which
  scheme, cell or tenant broke;
* under ``REPRO_SANITIZE=1`` (see :mod:`repro.determinism`) every
  worker's seed-lineage/draw-count ledger is captured per item and
  merged back into the parent's, so a sharded run's ledger is
  byte-comparable to a serial run's — the ``sanitize-report`` CLI
  diffs the two.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TypeVar

from ..determinism import ledger, reset_ledger, sanitize_enabled
from ..exceptions import ConfigurationError, ReproError

__all__ = ["TaskError", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


class TaskError(ReproError):
    """A parallel task failed; ``label`` names the task."""

    def __init__(self, label: str, cause: BaseException) -> None:
        self.label = label
        super().__init__(f"task {label!r} failed: {type(cause).__name__}: {cause}")


def _call_pickled(fn: Callable[[T], R], payload: bytes, sanitizing: bool) -> object:
    """Worker-side shim: unpickle the item the parent pickled once, and
    apply ``fn``; under the sanitizer, return ``(result, ledger)``.

    Under ``REPRO_SANITIZE=1`` it captures exactly the seed lineages and
    draw counts this one item produced (the worker ledger is reset
    first, because pool processes are reused across items) and ships
    them back with the result, so the parent's merged ledger is
    identical to a serial run's.
    """
    item = pickle.loads(payload)
    if not sanitizing:
        return fn(item)
    reset_ledger()
    result = fn(item)
    return result, ledger().snapshot()


def _run_serial(
    fn: Callable[[T], R], items: Sequence[T], labels: Sequence[str]
) -> list[R]:
    results: list[R] = []
    for item, label in zip(items, labels):
        try:
            results.append(fn(item))
        except Exception as exc:
            raise TaskError(label, exc) from exc
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    n_jobs: int = 1,
    labels: Sequence[str] | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, in order, across up to ``n_jobs``
    worker processes (default 1: the calling process).

    ``fn`` and the items must be picklable when more than one worker is
    used.  ``labels`` (same length as ``items``) name the items in
    error reports; they default to the item index.  The first failing
    item (in submission order) raises :class:`TaskError` with
    its label and the worker's exception chained.
    """
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
    items = list(items)
    if labels is None:
        labels = [f"#{i}" for i in range(len(items))]
    labels = [str(lab) for lab in labels]
    if len(labels) != len(items):
        raise ConfigurationError(
            f"labels ({len(labels)}) must match items ({len(items)})"
        )
    if n_jobs == 1 or len(items) <= 1:
        return _run_serial(fn, items, labels)

    # Unpicklable work must never reach the pool: a task that fails to
    # pickle inside the executor's feeder thread leaves the pool's
    # management thread permanently stuck (it is joined again at
    # interpreter exit, hanging the whole process).  Pickle up front
    # and run serially instead — same results, just one process.  The
    # bytes are what the workers get, so each item is pickled once.
    try:
        pickle.dumps(fn)
        payloads = [pickle.dumps(item) for item in items]
    except Exception:
        return _run_serial(fn, items, labels)

    try:
        executor = ProcessPoolExecutor(max_workers=min(n_jobs, len(items)))
    except (OSError, ImportError, NotImplementedError):
        # platforms without working process pools (restricted sandboxes,
        # missing POSIX semaphores) run the same tasks serially
        return _run_serial(fn, items, labels)
    sanitizing = sanitize_enabled()
    succeeded = False
    try:
        futures = [
            executor.submit(_call_pickled, fn, payload, sanitizing)
            for payload in payloads
        ]
        results: list[R] = []
        for future, label in zip(futures, labels):
            try:
                outcome = future.result()
                if sanitizing:
                    result, entries = outcome  # type: ignore[misc]
                    ledger().merge(entries)
                    results.append(result)
                else:
                    results.append(outcome)  # type: ignore[arg-type]
            except (BrokenProcessPool, pickle.PicklingError):
                # pool infrastructure failed (not the task itself):
                # recompute everything serially — tasks are pure, so
                # the answer is the same
                return _run_serial(fn, items, labels)
            except Exception as exc:
                if isinstance(exc, TaskError):
                    raise
                raise TaskError(label, exc) from exc
        succeeded = True
        return results
    finally:
        # on success every future is done, so join the workers: none is
        # left tearing down its pipes when the interpreter exits.  On
        # failure, drop the queued work without waiting.
        executor.shutdown(wait=succeeded, cancel_futures=not succeeded)
