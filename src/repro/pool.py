"""The one worker pool, shared by :func:`repro.batch.vet_many` and the
vetting daemon. Workers run :func:`repro.batch._execute_task`, so
per-addon faults arrive as typed outcomes. The pool handles the two
faults a worker cannot report: its death (:class:`WorkerCrashError`)
and a job past the hard backstop (:class:`JobDeadlineError`). Both
retire the executor; the next submission builds a fresh one. Once no
awaited job runs on a retired executor (at once after a crash), its
processes are killed.

The callers differ only in how workers start: the batch engine takes
the platform default (fork on Linux, so workers inherit warmed
modules); the daemon passes ``"spawn"`` (see :func:`_worker_init`).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.batch import VetOutcome, VetTask
    from repro.signatures.spec import SecuritySpec


class WorkerCrashError(RuntimeError):
    """A pool worker died while (or before) running the job."""


class JobDeadlineError(RuntimeError):
    """The job outlived its hard pool-level deadline."""


def _hard_timeout(task: VetTask, timeout: float | None) -> float | None:
    """The pool-level backstop for one task: the cooperative per-run
    deadline normally fires first, so this only catches work wedged
    outside the fixpoint loop (parsing, PDG, inference, a stuck
    worker). Generous by design: runs x timeout plus grace."""
    if timeout is None:
        return None
    return timeout * max(1, task.runs) + 10.0


def _worker_init() -> None:
    """Detach a spawned daemon worker from the daemon's signal plumbing.

    The daemon spawns because forked workers would inherit its listening
    socket and keep the port bound after a daemon crash. Without this,
    the SIGTERM the executor sends surviving workers when one dies would
    reach the daemon's event loop as its own shutdown."""
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class SupervisedPool:
    """A self-healing process pool executing vet tasks."""

    def __init__(
        self,
        workers: int = 2,
        *,
        spec: SecuritySpec | None = None,
        timeout: float | None = None,
        start_method: str | None = None,
    ) -> None:
        self.workers = max(1, workers)
        self.spec = spec
        self.timeout = timeout
        self.start_method = start_method
        self.rebuilds = 0
        self._executor: ProcessPoolExecutor | None = None
        # Submitted jobs a caller has not settled yet, with their executor.
        self._owner: dict[Future, ProcessPoolExecutor] = {}

    # -- lifecycle -----------------------------------------------------

    def _retire(self, executor: ProcessPoolExecutor, *, kill: bool = False) -> None:
        """Stop submitting to ``executor``; with ``kill``, also kill its
        processes, which by then run only jobs nobody waits on."""
        if executor is self._executor:
            self._executor = None
            self.rebuilds += 1
        if kill:
            processes = list((getattr(executor, "_processes", None) or {}).values())
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.kill()

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor in self._owner.values():  # jobs still awaited
            self._retire(executor, kill=True)
        elif executor is not None:
            executor.shutdown(wait=True)

    def worker_pids(self) -> list[int]:
        """Live worker pids, the chaos harness's kill targets (none
        before the first job: workers start lazily)."""
        processes = getattr(self._executor, "_processes", None) or {}
        return sorted(p.pid for p in processes.values() if p.is_alive())

    # -- execution -----------------------------------------------------

    def _deadline(self, task: VetTask) -> float | None:
        """The per-job hard backstop; tests override this seam."""
        return _hard_timeout(task, self.timeout)

    def submit(self, task: VetTask) -> Future:
        """Start one task; collect it with :meth:`result`."""
        from repro.batch import _execute_task

        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_worker_init if self.start_method == "spawn" else None,
            )
        executor = self._executor
        try:
            future = executor.submit(_execute_task, task, self.spec, self.timeout)
        except BrokenProcessPool as exc:
            self._retire(executor, kill=True)
            raise WorkerCrashError(str(exc) or "worker process died") from exc
        self._owner[future] = executor
        return future

    def result(self, future: Future, task: VetTask) -> VetOutcome:
        """Block for a submitted task's outcome (the batch engine's
        side). Raises :class:`WorkerCrashError` or
        :class:`JobDeadlineError`; every other fault is in the outcome."""
        with self._settle(future, task) as deadline:
            return future.result(timeout=deadline)

    async def run(self, task: VetTask) -> VetOutcome:
        """Vet one task off the event loop (the daemon's side); raises
        as :meth:`result` does."""
        import asyncio  # lazily: it would add ~2.5 MB to every batch process

        future = self.submit(task)
        with self._settle(future, task) as deadline:
            try:
                return await asyncio.wait_for(asyncio.wrap_future(future), deadline)
            except asyncio.TimeoutError as exc:  # not TimeoutError before 3.11
                raise FutureTimeoutError from exc

    @contextlib.contextmanager
    def _settle(self, future: Future, task: VetTask):
        """Give the caller ``task``'s deadline, type the pool faults
        raised while it waits on ``future``, then kill a retired
        executor nobody waits on."""
        executor = self._owner[future]
        deadline = self._deadline(task)
        try:
            yield deadline
        except BrokenProcessPool as exc:  # every future on it is poisoned
            self._retire(executor, kill=True)
            raise WorkerCrashError(str(exc) or "worker process died") from exc
        except FutureTimeoutError as exc:
            future.cancel()
            self._retire(executor)
            raise JobDeadlineError(
                f"exceeded the {deadline:.1f}s hard deadline"
            ) from exc
        finally:
            del self._owner[future]
            if executor is not self._executor and executor not in self._owner.values():
                self._retire(executor, kill=True)

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "worker_pids": self.worker_pids(),
            "rebuilds": self.rebuilds,
            "timeout_s": self.timeout,
        }
