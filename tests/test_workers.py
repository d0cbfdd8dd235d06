"""The worker layer: how a forked worker starts, talks and ends."""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import time

import pytest

from gridhealth import workers
from gridhealth.errors import GridHealthError


def _echo(tag, link):
    link.send((tag, link.recv()))


def _report(link):
    calls = workers.blas_thread_calls()
    link.send({
        "capacity": workers.capacity(),
        "sigint": signal.getsignal(signal.SIGINT),
        "sigterm": signal.getsignal(signal.SIGTERM),
        "blocked": signal.pthread_sigmask(signal.SIG_BLOCK, set()) & {signal.SIGINT,
                                                                       signal.SIGTERM},
        "blas_threads": None if calls is None else calls[0](),
    })


def _stall(link):
    time.sleep(60)


def test_links_come_back_in_order_and_carry_both_ways():
    forked = workers.forked_count()
    with workers.forked(_echo, [("a",), ("b",), ("c",)]) as links:
        for n, link in enumerate(links):
            link.send(n)
        assert [link.recv() for link in links] == [("a", 0), ("b", 1), ("c", 2)]
    assert workers.forked_count() - forked == 3
    assert multiprocessing.active_children() == []


def test_worker_start_up(monkeypatch):
    # a caller with many CPUs and more than one BLAS thread
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    calls = workers.blas_thread_calls()
    before = None if calls is None else calls[0]()
    if calls is not None:
        calls[1](2)
    try:
        with workers.forked(_report, [()]) as (link,):
            seen = link.recv()
    finally:
        if calls is not None:
            calls[1](before)
    assert seen == {"capacity": 1, "sigint": signal.SIG_IGN, "sigterm": signal.SIG_DFL,
                    "blocked": set(), "blas_threads": None if calls is None else 1}
    assert workers.capacity() == (1 if calls is None else 8)


def test_error_in_block_ends_workers_and_closes_links():
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="^body$"):
        with workers.forked(_stall, [(), ()]) as links:
            raise RuntimeError("body")
    assert time.monotonic() - started < 10     # killed, not waited for
    assert multiprocessing.active_children() == []
    assert len(links) == 2 and all(link.closed for link in links)


def test_failed_start_ends_workers_and_closes_links(monkeypatch):
    real_start = multiprocessing.process.BaseProcess.start
    real_pipe = multiprocessing.connection.Pipe
    started, pipes = [], []

    def start_once(proc):
        started.append(proc)
        if len(started) == 2:
            raise OSError("no more processes")
        real_start(proc)

    def noted_pipe(duplex=True):
        pipes.append(real_pipe(duplex))
        return pipes[-1]

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start_once)
    monkeypatch.setattr(multiprocessing.connection, "Pipe", noted_pipe)
    with pytest.raises(OSError, match="^no more processes$"):
        with workers.forked(_stall, [(), (), ()]):
            pass
    assert len(started) == 2 and len(pipes) == 2
    assert multiprocessing.active_children() == []
    assert all(end.closed for pipe in pipes for end in pipe)


def test_fork_needed_only_to_start_workers(monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert workers.capacity() == 1
    with workers.forked(_stall, []) as links:
        assert links == []
    forked = workers.forked_count()
    with pytest.raises(GridHealthError, match="'fork' start method"):
        with workers.forked(_stall, [()]):
            pass
    assert workers.forked_count() == forked
