"""SupervisedPool: typed outcomes through, crashes and deadlines out."""

import asyncio
import os
import signal
import time

import pytest

from repro.batch import VetTask
from repro.pool import JobDeadlineError, SupervisedPool, WorkerCrashError

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def pool():
    pool = SupervisedPool(workers=1, start_method="spawn")
    yield pool
    pool.shutdown()


def test_run_returns_typed_outcome(pool):
    source = """
    var xhr = new XMLHttpRequest();
    xhr.open("GET", "https://feed.example/items", true);
    xhr.send(null);
    """
    outcome = asyncio.run(pool.run(VetTask(name="ok", source=source)))
    assert outcome.ok
    assert "feed.example" in outcome.signature_text


def test_per_addon_faults_stay_inside_the_outcome(pool):
    outcome = asyncio.run(
        pool.run(VetTask(name="broken", source="var broken = ;;;("))
    )
    assert not outcome.ok
    assert outcome.failure == "parse-error"


@pytest.mark.faults
def test_worker_sigkill_surfaces_as_crash_and_pool_heals(pool):
    async def crash_then_recover():
        # Warm the pool so there is a worker to kill.
        await pool.run(VetTask(name="warm", source="var w = 0;"))
        pids = pool.worker_pids()
        assert pids, "spawned worker should be visible"

        async def kill_soon():
            await asyncio.sleep(0.2)
            os.kill(pids[0], signal.SIGKILL)

        killer = asyncio.ensure_future(kill_soon())
        with pytest.raises(WorkerCrashError):
            # Big enough to still be running when the kill lands.
            big = "\n".join(
                f"var v{n} = document.cookie; send(v{n});"
                for n in range(2000)
            )
            await pool.run(VetTask(name="victim", source=big))
        await killer

        healed = await pool.run(VetTask(name="after", source="var a = 1;"))
        return healed

    healed = asyncio.run(crash_then_recover())
    assert healed.ok
    assert pool.rebuilds >= 1
    assert pool.worker_pids(), "pool rebuilt with fresh workers"


@pytest.mark.faults
def test_hard_deadline_fires_for_wedged_jobs():
    """A job that outlives the hard backstop fails as a deadline, and
    the wedged worker is reclaimed by a pool teardown. The production
    backstop is deliberately generous (10s+ grace), so the test narrows
    the seam instead of waiting it out."""
    pool = SupervisedPool(workers=1, timeout=30.0, start_method="spawn")
    pool._deadline = lambda task: 0.5

    big = "\n".join(
        f"var v{n} = document.cookie; send(v{n});" for n in range(5000)
    )
    with pytest.raises(JobDeadlineError):
        asyncio.run(pool.run(VetTask(name="wedged", source=big)))
    assert pool.rebuilds == 1
    assert pool.worker_pids() == [], "wedged worker torn down"

    del pool._deadline  # back to the generous production backstop
    healed = asyncio.run(pool.run(VetTask(name="after", source="var a = 1;")))
    assert healed.ok
    pool.shutdown()


def _wedging_source(statements: int) -> str:
    return "\n".join(
        f"var v{n} = document.cookie; send(v{n});" for n in range(statements)
    )


def _pid_gone(pid: int, within: float) -> bool:
    give_up = time.monotonic() + within
    while time.monotonic() < give_up:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.faults
def test_deadline_reclaims_the_wedged_worker():
    """The worker behind a :class:`JobDeadlineError` is killed, not left
    running its job to the end."""
    pool = SupervisedPool(workers=1, timeout=30.0, start_method="spawn")
    try:
        asyncio.run(pool.run(VetTask(name="warm", source="var w = 0;")))
        [wedged_pid] = pool.worker_pids()
        pool._deadline = lambda task: 0.5
        with pytest.raises(JobDeadlineError):
            asyncio.run(
                pool.run(VetTask(name="wedged", source=_wedging_source(5000)))
            )
        assert _pid_gone(wedged_pid, within=2.0), "wedged worker still alive"
    finally:
        pool.shutdown()


@pytest.mark.faults
def test_neighbour_deadline_spares_jobs_in_flight():
    """Reclaiming a timed-out worker waits for the other jobs on its
    executor: a job in flight when its neighbour's deadline fires still
    returns its own outcome."""
    pool = SupervisedPool(workers=2, timeout=30.0, start_method="spawn")

    async def neighbours():
        # Warm both workers so both jobs start at once.
        await asyncio.gather(
            pool.run(VetTask(name="warm-a", source="var a = 0;")),
            pool.run(VetTask(name="warm-b", source="var b = 0;")),
        )
        pool._deadline = lambda task: 0.5 if task.name == "wedged" else None
        return await asyncio.gather(
            pool.run(VetTask(name="wedged", source=_wedging_source(5000))),
            pool.run(VetTask(name="neighbour", source=_wedging_source(1500))),
            return_exceptions=True,
        )

    try:
        wedged, neighbour = asyncio.run(neighbours())
    finally:
        pool.shutdown()
    assert isinstance(wedged, JobDeadlineError)
    assert not isinstance(neighbour, BaseException), neighbour
    assert neighbour.ok and neighbour.name == "neighbour"
