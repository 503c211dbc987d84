"""Independent work shared between the CPUs this process may run on.

:func:`shared` computes ``work(i)`` for every index of a list of shares,
one share per process: this process runs share 0 and a child forked
through multiprocessing each other share. Each child sends the result of
each index over a one-way pipe as soon as it has it, and the caller reads
the results in ascending order of index. A share stops at its first error,
which is sent in place of its result, so the error raised is that of the
first failing index, as when the indices run one after another. A child
that ends before sending all it owes raises :class:`WorkerError`, and no
child outlives the call.

Nothing is forked where :func:`cpu_count` is 1: off Linux, with one CPU,
or from a process that runs other threads. Fork is unsafe on macOS and
absent on Windows, and unsafe beside threads, such as those of a
multithreaded BLAS, whose copies in each process would also contend for
the cores; ``OPENBLAS_NUM_THREADS=1`` lets the work spread.
"""
from __future__ import annotations

import contextlib
import os
import sys

from .errors import WorkerError


def cpu_count() -> int:
    """CPUs that independent work may run on, one process each.

    This process's CPUs on Linux when it runs a single thread; otherwise 1
    (see the module docstring). It is 1 too where /proc, which gives the
    thread count, cannot be read.
    """
    if sys.platform != "linux":
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _outcomes(work, indices):
    """(work(i), None) for each of ``indices`` in turn, until (None, error) for the first that fails."""
    for i in indices:
        try:
            result = work(i)
        except Exception as exc:  # the reader raises it where index i comes in order
            yield None, exc
            return
        yield result, None


def _serve(send, work, indices) -> None:
    with send:
        for outcome in _outcomes(work, indices):
            send.send(outcome)


def _received(child, receive):
    """The outcomes a child sends, in order; WorkerError where it has ended instead."""
    while True:
        try:
            outcome = receive.recv()
        except EOFError:
            child.join()
            raise WorkerError(
                f"a worker process ended with exit code {child.exitcode} before sending its results"
            ) from None
        yield outcome


def _in_order(streams, shares):
    owner = {i: k for k, share in enumerate(shares) for i in share}
    for i in sorted(owner):
        result, error = next(streams[owner[i]])
        if error is not None:
            raise error
        yield result


@contextlib.contextmanager
def shared(work, shares, *, ahead: bool = False):
    """Yield an iterator over ``work(i)`` for the indices of all ``shares``, in ascending order.

    ``shares`` holds the indices of each process, each share in ascending
    order. This process computes share 0 as its results are read or, with
    ``ahead``, all of it on entry, so that it never waits on a child while
    work of its own is left. Each other share runs in a child forked
    on entry, which runs ahead of the reader only as far as its pipe's
    buffer holds, so unread results take little memory. The children are
    forked through multiprocessing, which flushes the standard streams
    first, so no buffered output is written twice. On exit, live children
    are terminated and every child is joined. With one share nothing is
    forked and multiprocessing is not imported.
    """
    children = []
    try:
        if len(shares) > 1:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            for indices in shares[1:]:
                receive, send = context.Pipe(duplex=False)
                child = context.Process(target=_serve, args=(send, work, indices), daemon=True)
                child.start()
                children.append((child, receive))
                send.close()
        own = _outcomes(work, shares[0])
        if ahead:
            own = iter(list(own))
        yield _in_order([own, *(_received(child, receive) for child, receive in children)], shares)
    finally:
        for child, _ in children:
            if child.is_alive():
                child.terminate()
        for child, receive in children:
            child.join()
            receive.close()
