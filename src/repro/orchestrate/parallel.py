"""Fan independent simulation runs out across processes.

Simulations are pure CPU-bound Python, so threads cannot help (GIL); the
runner uses :class:`concurrent.futures.ProcessPoolExecutor`.  Specs are
declarative and picklable (see :mod:`repro.orchestrate.spec`), results are
plain dataclasses, and workloads are deterministic, so executing in worker
processes yields bit-identical results to a serial loop — results are always
collected back **in submission order** regardless of completion order.

Determinism also means a spec that fails once fails again, so nothing is
ever retried.  Two failures exist only across a process boundary, and the
runner turns each into a structured record instead of a hang or a bare
traceback:

* a spec that runs longer than ``timeout_s`` is marked ``timeout``;
* a worker process that dies (``BrokenProcessPool``) marks every in-flight
  spec ``worker-lost`` — the pool cannot say which worker died.

Either one kills the pool and raises
:class:`~repro.errors.SpecFailedError` carrying the failed records.  Any
other exception a spec raises is recorded as ``error`` and propagates
unchanged.  Each result is cached as soon as it arrives, so rerunning the
same command after a failure executes only what is missing.

The runner keeps one :class:`SpecOutcome` per spec across every batch;
:meth:`ParallelRunner.journal` renders them as the JSON report behind
``--journal``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple

from repro.errors import SpecFailedError
from repro.orchestrate.cache import MISS
from repro.orchestrate.spec import spec_ref

#: Progress callback signature: called once per finished spec.
ProgressCallback = Callable[["RunProgress"], None]

#: Version of the :meth:`ParallelRunner.journal` layout.
JOURNAL_SCHEMA = 2


@dataclass(frozen=True)
class RunProgress:
    """One progress event: ``done`` of ``total`` specs finished."""

    done: int
    total: int
    spec: Any
    cached: bool

    def render(self) -> str:
        """Compact one-line rendering (used by the CLI)."""
        source = "cache" if self.cached else "run"
        return f"[{self.done}/{self.total}] {self.spec.label()} ({source})"


@dataclass
class SpecOutcome:
    """The journal record of one spec: where its result came from, or why not."""

    index: int                   #: position in its ``runner.run()`` batch
    label: str
    key: Optional[str] = None
    status: str = "pending"      #: cached | completed | timeout | worker-lost | error | pending
    source: str = "none"         #: cache | pool | serial | none
    duration_s: float = 0.0
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "index": self.index,
            "label": self.label,
            "key": self.key,
            "status": self.status,
            "source": self.source,
            "duration_s": round(self.duration_s, 6),
        }
        if self.error is not None:
            data["error"] = self.error
        return data


#: A submitted spec: (spec, its record, monotonic submission time).
_InFlight = Tuple[Any, SpecOutcome, float]


class ParallelRunner:
    """Executes batches of specs with caching and parallelism.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs serially in-process;
        ``None`` or ``0`` means one worker per CPU.
    cache:
        A :class:`~repro.orchestrate.cache.ResultCache`,
        :class:`~repro.orchestrate.cache.MemoryCache`, or any object with
        the same ``get``/``put``/``stats`` surface; ``None`` disables
        caching.  Hits skip execution entirely, misses are stored as soon
        as they finish.
    progress:
        Optional callback invoked with a :class:`RunProgress` after every
        spec resolves (from cache or execution).
    timeout_s:
        Wall-clock limit per spec on the worker pool; ``None`` (the
        default) means no limit.  Serial execution has no process boundary
        to kill across, so it never times out.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[Any] = None,
                 progress: Optional[ProgressCallback] = None,
                 timeout_s: Optional[float] = None) -> None:
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.timeout_s = timeout_s
        self.outcomes: List[SpecOutcome] = []
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pool_accepted_work = False
        self._pool_unavailable = False

    def close(self) -> None:
        """Shut down the worker pool (if one was ever created).

        Only called between batches, when nothing is in flight; an aborted
        batch has already killed its pool.
        """
        executor, self._executor = self._executor, None
        self._pool_accepted_work = False
        if executor is not None:
            executor.shutdown(cancel_futures=True)

    def _kill_pool(self) -> None:
        """Tear the pool down *now*: its workers may be hung or half dead,
        and a graceful shutdown would wait for them forever."""
        executor = self._executor
        if executor is None:
            return
        for process in list((getattr(executor, "_processes", None) or {}).values()):
            try:
                process.kill()
            except (OSError, ValueError):
                pass  # already gone
        self._executor = None
        self._pool_accepted_work = False
        executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _executor_or_none(self) -> Optional[ProcessPoolExecutor]:
        """The shared worker pool, created lazily on first parallel batch.

        The pool lives until :meth:`close` or until an aborted batch kills
        it, so a multi-experiment sweep pays worker startup — interpreter +
        numpy import on spawn-based platforms — once, not once per
        experiment.
        """
        if self._pool_unavailable:
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, PermissionError, ValueError):
                # No usable multiprocessing primitives here; stay serial.
                self._pool_unavailable = True
        return self._executor

    # ---------------------------------------------------------------- api
    def run(self, specs: Sequence[Any]) -> List[Any]:
        """Execute every spec; return results in the order specs were given.

        Raises :class:`~repro.errors.SpecFailedError` when a spec times out
        or loses its worker; whatever finished before that is cached.
        """
        specs = list(specs)
        total = len(specs)
        results: List[Any] = [MISS] * total
        pending: List[Tuple[Any, SpecOutcome]] = []
        done = 0

        def notify(spec, cached: bool) -> None:
            nonlocal done
            done += 1
            if self.progress is not None:
                self.progress(RunProgress(done=done, total=total, spec=spec,
                                          cached=cached))

        def complete(spec, outcome: SpecOutcome, result, source: str,
                     started: float) -> None:
            outcome.status, outcome.source = "completed", source
            outcome.duration_s = time.monotonic() - started
            results[outcome.index] = result
            if self.cache is not None:
                self.cache.put(spec, result)
            notify(spec, cached=False)

        for index, spec in enumerate(specs):
            label, key = spec_ref(spec)
            outcome = SpecOutcome(index=index, label=label, key=key)
            self.outcomes.append(outcome)
            hit = self.cache.get(spec) if self.cache is not None else MISS
            if hit is MISS:
                pending.append((spec, outcome))
                continue
            results[index] = hit
            outcome.status, outcome.source = "cached", "cache"
            notify(spec, cached=True)

        try:
            if len(pending) > 1 and self.jobs > 1:
                pending = self._run_pool(pending, complete)
            for spec, outcome in pending:
                started = time.monotonic()
                try:
                    result = spec.execute()
                except Exception as exc:
                    _fail(outcome, "error", "serial", started, _describe(exc))
                    raise
                complete(spec, outcome, result, "serial", started)
        except BaseException:
            # The batch is over and nobody will collect the remaining
            # futures, and workers may be wedged — kill, don't wait.
            self._kill_pool()
            raise
        return results

    def _run_pool(self, pending: List[Tuple[Any, SpecOutcome]],
                  complete) -> List[Tuple[Any, SpecOutcome]]:
        """Run ``pending`` on the worker pool; return what must run serially.

        The remainder is non-empty only when the platform cannot give us a
        pool: its constructor fails, or its first submit does.  A pool that
        breaks after it has accepted work is a worker loss.
        """
        queue = deque(pending)
        in_flight: Dict[Any, _InFlight] = {}
        while queue or in_flight:
            # At most `jobs` specs in flight: each one starts executing when
            # submitted, so its timeout clock never counts queue wait.
            while queue and len(in_flight) < self.jobs:
                executor = self._executor_or_none()
                if executor is None:
                    return list(queue)
                spec, outcome = queue[0]
                try:
                    future = executor.submit(_execute, spec)
                except (BrokenProcessPool, OSError):
                    if self._pool_accepted_work:
                        lost = [*in_flight.values(), (spec, outcome, time.monotonic())]
                        _abort(lost, "worker-lost", "the worker pool broke")
                    self._pool_unavailable = True
                    self._kill_pool()
                    return list(queue)
                self._pool_accepted_work = True
                queue.popleft()
                in_flight[future] = (spec, outcome, time.monotonic())

            finished, _ = wait(in_flight, timeout=self._next_deadline(in_flight),
                               return_when=FIRST_COMPLETED)
            broken = False
            for future in finished:
                spec, outcome, started = in_flight[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                except Exception as exc:
                    _fail(outcome, "error", "pool", started, _describe(exc))
                    raise
                del in_flight[future]
                complete(spec, outcome, result, "pool", started)
            if broken:
                _abort(in_flight.values(), "worker-lost", "a worker process died")
            if self.timeout_s is not None:
                now = time.monotonic()
                overdue = [entry for entry in in_flight.values()
                           if now - entry[2] >= self.timeout_s]
                if overdue:
                    _abort(overdue, "timeout",
                           f"exceeded the {self.timeout_s:g}s per-spec timeout")
        return []

    def _next_deadline(self, in_flight: Dict[Any, _InFlight]) -> Optional[float]:
        """Seconds until the oldest in-flight spec overruns its timeout."""
        if self.timeout_s is None:
            return None
        oldest = min(started for _spec, _outcome, started in in_flight.values())
        return max(0.0, oldest + self.timeout_s - time.monotonic())

    # ------------------------------------------------------------- journal
    def journal(self) -> Dict[str, Any]:
        """Structured per-spec report across every batch this runner ran."""
        return {
            "journal_schema": JOURNAL_SCHEMA,
            "timeout_s": self.timeout_s,
            "specs": [outcome.to_json() for outcome in self.outcomes],
        }


def _execute(spec):
    """Pool entry point (module level, so it pickles by name)."""
    return spec.execute()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _fail(outcome: SpecOutcome, status: str, source: str, started: float,
          error: str) -> None:
    """Mark ``outcome`` as failed with ``status``."""
    outcome.status, outcome.source = status, source
    outcome.duration_s = time.monotonic() - started
    outcome.error = error


def _abort(entries: Iterable[_InFlight], status: str, error: str) -> NoReturn:
    """Mark every entry failed and raise the batch's :class:`SpecFailedError`."""
    failed = []
    for _spec, outcome, started in entries:
        _fail(outcome, status, "pool", started, error)
        failed.append(outcome.to_json())
    raise SpecFailedError(failed)
