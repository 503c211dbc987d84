import multiprocessing
import os
import sys
import threading

import pytest

from wlckf.errors import DegenerateError
from wlckf.parallel import cpu_count, shared


def test_cpu_count_is_the_affinity_of_a_single_threaded_linux_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cpu_count() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(os, "listdir", lambda path: [str(os.getpid())])
    assert cpu_count() == 3

    def no_proc(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "listdir", no_proc)
    assert cpu_count() == 1
    monkeypatch.setattr(os, "listdir", lambda path: [str(os.getpid())])
    monkeypatch.setattr(sys, "platform", "darwin")
    assert cpu_count() == 1


def _squares(i):
    return i * i


@pytest.mark.parametrize("ahead", [False, True])
def test_shared_yields_every_result_in_index_order(ahead):
    shares = [[0, 4], [1, 2, 5], [3]]
    with shared(_squares, shares, ahead=ahead) as results:
        assert list(results) == [i * i for i in range(6)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("ahead", [False, True])
def test_shared_raises_the_error_of_the_first_failing_index(ahead):
    # Indices 2, 3 and 4 fail; index 2 is a child's, 3 another's, 4 this process's.
    def work(i):
        if i >= 2:
            raise DegenerateError(f"index {i} failed", index=(i,))
        return i

    with pytest.raises(DegenerateError, match="^index 2 failed$") as info:
        with shared(work, [[0, 4], [1, 2], [3]], ahead=ahead) as results:
            assert next(results) == 0
            assert next(results) == 1
            next(results)
    assert info.value.index == (2,)
    assert multiprocessing.active_children() == []


def test_shared_ends_every_child_when_the_caller_stops_early():
    # The children have results still unread when the block raises.
    with pytest.raises(KeyError):
        with shared(_squares, [range(0, 300, 3), range(1, 300, 3), range(2, 300, 3)]) as results:
            next(results)
            raise KeyError("stop")
    assert multiprocessing.active_children() == []

