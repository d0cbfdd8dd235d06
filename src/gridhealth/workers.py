"""Worker processes: how each one starts, talks and ends.

`forked` forks `train`'s helpers and `beta_sweep`'s members, one duplex
link each, and ends them when its block exits. A worker dies with its
parent, ignores Ctrl-C, runs one BLAS thread and forks none of its own.
`capacity` is how many processes may share work: its CPUs, where numpy's
OpenBLAS can be pinned to one thread, so no result depends on the count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import signal

from .errors import GridHealthError

_BLAS_THREAD_CALLS = tuple((f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
                           for lib in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


@functools.cache
def blas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line})
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    calls = next(((getattr(lib, get), getattr(lib, set_)) for lib in libraries
                  for get, set_ in _BLAS_THREAD_CALLS if hasattr(lib, get) and hasattr(lib, set_)),
                 None)
    if calls is not None:
        calls[0].argtypes, calls[0].restype = (), ctypes.c_int
        calls[1].argtypes, calls[1].restype = (ctypes.c_int,), None
    return calls


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with one BLAS thread, then restore the caller's count."""
    get, set_ = blas_thread_calls() or (lambda: 1, lambda threads: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def retain_freed_heap() -> None:
    """Keep freed training buffers in the heap instead of returning them.

    Every batch frees and re-allocates the same few hundred activation
    buffers. By default glibc serves the large ones with fresh mmaps and
    trims the heap top, so each batch pages them in again. Raising the
    mmap and trim thresholds (32 MiB, 256 MiB) lets the next batch reuse
    the freed memory. Process-wide, and inherited by the workers forked
    after it; on any other libc it does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 256 << 20)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_in_worker = False      # set in every worker process forked here
_forked = 0             # worker processes this process has forked


def forked_count() -> int:
    """How many worker processes (sweep members, train helpers) this process has forked."""
    return _forked


def _can_fork() -> bool:
    import multiprocessing      # here, so that importing the package does not pay for it

    return "fork" in multiprocessing.get_all_start_methods()


def capacity() -> int:
    """How many processes may share this process's work.

    `usable_cpus()`, or 1 inside a worker, without `fork`, or without a way
    to pin the BLAS threads. Also fills the BLAS cache the workers read.
    """
    if _in_worker or blas_thread_calls() is None or not _can_fork():
        return 1
    return usable_cpus()


def _start(target, *args) -> None:
    """Start-up of every worker, then target(*args).

    The worker dies with its parent (Linux), leaves at once if the parent
    died before that took hold, ends on SIGTERM, ignores Ctrl-C (which
    reaches the whole process group; the parent ends its workers itself),
    unblocks both signals, runs one BLAS thread and has a `capacity` of 1.
    """
    import multiprocessing
    global _in_worker

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        pr_set_pdeathsig = 1
        prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM, signal.SIGINT})
    calls = blas_thread_calls()     # cached by the parent before it forked
    if calls is not None:
        calls[1](1)
    _in_worker = True
    target(*args)


@contextlib.contextmanager
def forked(target, arg_tuples: list):
    """Fork a worker running target(*args, link) for each of `arg_tuples`; yield the caller's links.

    Each worker gets one end of its own duplex pipe, and the caller's ends
    come in argument order. The worker's end is closed here, so a worker's
    death reads as EOF. SIGTERM and SIGINT are held while forking: one
    handled inside fork's at-fork callbacks would be reported there and
    lost. On any exit, every link is closed, then every worker killed and
    reaped. Only a call with workers to start needs `fork`; without it,
    that call raises GridHealthError before forking any.
    """
    global _forked

    links, procs = [], []
    try:
        if arg_tuples:
            if not _can_fork():
                raise GridHealthError("worker processes need the 'fork' start method,"
                                      " which this platform lacks")
            import multiprocessing

            context = multiprocessing.get_context("fork")
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
            try:
                for args in arg_tuples:
                    mine, theirs = context.Pipe()
                    links.append(mine)
                    with theirs:
                        proc = context.Process(target=_start, args=(target, *args, theirs))
                        proc.start()
                    procs.append(proc)
                    _forked += 1
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield links
    finally:
        for link in links:
            link.close()
        for proc in reversed(procs):
            proc.kill()     # a no-op for a worker already reaped
            proc.join()
            proc.close()
