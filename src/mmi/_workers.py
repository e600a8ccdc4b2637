"""Independent jobs on every CPU available to the process.

numpy releases the GIL inside its ufuncs, so the blocks of every walk over a
delay grid (:func:`mmi.intensity._walk`) and the Monte-Carlo draws run side
by side on plain threads, while the calling thread waits for them.  The
chunks of a quadrature grid do not: with the factored fringe kernel of
:mod:`mmi.quadrature` a chunk is a few dozen small numpy calls, and on two
threads they lost more to the GIL than they gained, so
:func:`mmi.quadrature.integrate_grid` runs them in one loop.

The threads are started on first use and kept, idle, for later calls, and
the calling thread runs no job.  glibc gives each thread a malloc arena of
its own and keeps there the memory its jobs freed.  Threads started afresh
per call, some before the last call's had handed back their arenas, and
jobs that land on the caller's thread or not, would make the memory a run
holds depend on how its threads interleave: the ``thermal`` benchmark's
peak RSS read 72 or 76 MB from run to run on one seed, on 2 vCPUs.
"""

from __future__ import annotations

import os
import queue
import threading

_inboxes: list[queue.SimpleQueue] = []  # one per kept thread, worker w reading the w-th
_pool_lock = threading.Lock()
_local = threading.local()


def _forget_pool():  # a forked child has none of its parent's threads
    global _pool_lock
    _inboxes.clear()
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def cpu_count() -> int:
    """CPUs available to the process: its affinity mask, or every CPU where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _serve(inbox):
    _local.kept = True
    while True:
        inbox.get()()


def _pool(workers: int) -> list[queue.SimpleQueue]:
    """The inboxes of the first ``workers`` kept threads, starting those missing."""
    with _pool_lock:
        while len(_inboxes) < workers:
            inbox = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(inbox,), daemon=True).start()
            _inboxes.append(inbox)
        return _inboxes[:workers]


def run(job, n: int, workers: int | None = None) -> None:
    """Call ``job(i, worker)`` for every i in range(n) on at most ``workers``
    kept threads (default: one per CPU), numbered from 0.

    Each free worker takes the next index in order, and none is handed out
    after a job fails; the exception of the lowest failing index is raised,
    the one a serial loop would raise.  One worker, or a call from a job,
    runs the loop inline on the calling thread.
    """
    workers = min(n, cpu_count() if workers is None else workers)
    if workers <= 1 or getattr(_local, "kept", False):
        for i in range(n):
            job(i, 0)
        return
    inboxes = _pool(workers)
    lock = threading.Lock()  # hands out the indices and records the failures
    handed_out = 0
    failed: dict[int, BaseException] = {}
    done = threading.Semaphore(0)

    def work(worker):
        nonlocal handed_out
        try:
            while True:
                with lock:
                    if failed or handed_out == n:
                        return
                    i, handed_out = handed_out, handed_out + 1
                try:
                    job(i, worker)
                except BaseException as exc:  # re-raised by the calling thread below
                    with lock:
                        failed[i] = exc
        finally:
            done.release()

    for worker, inbox in enumerate(inboxes):
        inbox.put(lambda worker=worker: work(worker))
    try:
        for _ in inboxes:
            done.acquire()
    except BaseException:  # interrupted while waiting: hand out no more
        with lock:
            handed_out = n
        raise
    if failed:
        raise failed[min(failed)]
