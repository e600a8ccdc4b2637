import os
import threading
import time

import pytest

from mmi import _workers


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("cpus", [1, 5])
def test_every_job_runs_once_on_at_most_one_worker_per_cpu(monkeypatch, cpus):
    _on_cpus(monkeypatch, cpus)
    seen = []
    _workers.run(lambda i, worker: seen.append((i, worker)), 40)
    assert sorted(i for i, _ in seen) == list(range(40))
    assert {worker for _, worker in seen} <= set(range(cpus))


def test_cpu_count_reads_the_affinity_mask_or_counts_every_cpu(monkeypatch):
    _on_cpus(monkeypatch, 3)
    assert _workers.cpu_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _workers.cpu_count() == (os.cpu_count() or 1)


def test_the_lowest_failing_job_raises_as_in_a_serial_loop(monkeypatch):
    _on_cpus(monkeypatch, 5)

    def job(i, _):
        if i == 2:
            time.sleep(0.05)  # the failures of the later jobs come first
        if i >= 2:
            raise ValueError(i)

    with pytest.raises(ValueError) as err:
        _workers.run(job, 40)
    assert err.value.args == (2,)


@pytest.mark.parametrize("cpus", [1, 5])
def test_no_job_is_handed_out_after_a_failure(monkeypatch, cpus):
    _on_cpus(monkeypatch, cpus)
    ran = []

    def job(i, _):
        ran.append(i)
        if i == 3:
            raise ValueError(i)
        time.sleep(0.001)

    with pytest.raises(ValueError):
        _workers.run(job, 1000)
    assert max(ran) < 40
    if cpus == 1:
        assert ran == [0, 1, 2, 3]


def test_one_worker_runs_inline(monkeypatch):
    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    _on_cpus(monkeypatch, 1)
    seen = []
    _workers.run(lambda i, worker: seen.append((i, worker)), 5)
    _on_cpus(monkeypatch, 8)
    _workers.run(lambda i, worker: seen.append((i, worker)), 1)
    _workers.run(lambda i, worker: seen.append((i, worker)), 5, workers=1)
    assert seen == [(i, 0) for i in range(5)] + [(0, 0)] + [(i, 0) for i in range(5)]


def test_many_more_workers_than_cores_lose_no_job(monkeypatch):
    # a lost or doubled hand-out would show as a missing or repeated index
    import sys

    _on_cpus(monkeypatch, 16)
    seen = []
    runner = threading.Thread(target=_workers.run, args=(lambda i, worker: seen.append(i), 5000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(seen) == list(range(5000))



def test_jobs_run_on_kept_threads_and_never_on_the_calling_thread(monkeypatch):
    _on_cpus(monkeypatch, 3)
    monkeypatch.setattr(_workers, "_inboxes", [])  # an empty pool: three threads must start
    start = threading.Thread.start
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    ran_on = []
    _workers.run(lambda i, worker: ran_on.append(threading.current_thread()), 30)
    assert len(started) == 3 and set(ran_on) <= set(started)
    _workers.run(lambda i, worker: ran_on.append(threading.current_thread()), 30)
    assert len(started) == 3 and len(ran_on) == 60  # the second call reuses them


def test_a_job_that_calls_run_runs_it_inline(monkeypatch):
    _on_cpus(monkeypatch, 4)
    monkeypatch.setattr(_workers, "_inboxes", [])  # a pool of its own, should it deadlock
    inner = []

    def job(i, _):
        outer = threading.current_thread()
        _workers.run(lambda j, worker: inner.append((i, j, worker, threading.current_thread() is outer)), 3)

    runner = threading.Thread(target=_workers.run, args=(job, 8), daemon=True)
    runner.start()
    runner.join(timeout=60)  # a job waiting on its own thread would never return
    assert not runner.is_alive()
    assert sorted(inner) == [(i, j, 0, True) for i in range(8) for j in range(3)]


def test_an_interrupted_wait_hands_out_no_more_jobs(monkeypatch):
    # the workers finish the jobs they hold and go back to waiting
    _on_cpus(monkeypatch, 2)
    semaphores = []

    class Interrupted(threading.Semaphore):
        def __init__(self, value):
            super().__init__(value)
            semaphores.append(self)

        def acquire(self, *args, **kwargs):
            if len(semaphores) == 1:
                semaphores.append(None)
                raise KeyboardInterrupt
            return super().acquire(*args, **kwargs)

    monkeypatch.setattr(threading, "Semaphore", Interrupted)
    ran = []
    with pytest.raises(KeyboardInterrupt):
        _workers.run(lambda i, worker: ran.append(i) or time.sleep(0.001), 1000)
    for _ in range(2):
        assert semaphores[0].acquire(timeout=60)
    assert len(ran) < 40


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_starts_its_own_threads(monkeypatch):
    _on_cpus(monkeypatch, 2)
    _workers.run(lambda i, worker: None, 4)  # the parent's pool exists
    pid = os.fork()
    if pid == 0:  # the child: its pool is empty, and a call starts and uses new threads
        seen = []
        _workers.run(lambda i, worker: seen.append(i), 20)
        os._exit(0 if sorted(seen) == list(range(20)) and len(_workers._inboxes) == 2 else 1)
    deadline = time.monotonic() + 60
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)  # a child that hands its jobs to its parent's threads waits forever
    if waited[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert waited[0] == pid and os.WIFEXITED(waited[1]) and os.WEXITSTATUS(waited[1]) == 0
