"""LruMemo: bounded, one build per key at a time, no entry for a failure."""

import sys
import threading
import time

import pytest

from repro.utils.memo import LruMemo


def test_keeps_the_most_recently_used_keys():
    memo = LruMemo(2)
    assert memo.get("a", lambda: 1) == 1
    assert memo.get("b", lambda: 2) == 2
    assert memo.get("a", lambda: -1) == 1  # a hit, and now the latest
    assert memo.get("c", lambda: 3) == 3  # evicts b, the least recent
    assert "a" in memo and "c" in memo and "b" not in memo
    assert len(memo) == 2


def test_a_build_that_raises_leaves_no_entry():
    memo = LruMemo(4)

    def broken():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        memo.get("k", broken)
    assert "k" not in memo
    assert memo.get("k", lambda: 7) == 7


def test_concurrent_gets_of_one_key_build_once():
    memo = LruMemo(4)
    entered, release = threading.Event(), threading.Event()
    calls = []

    def build():
        calls.append(1)
        entered.set()
        release.wait(5)
        return object()

    results = []
    threads = [
        threading.Thread(target=lambda: results.append(memo.get("k", build)))
        for _ in range(3)
    ]
    threads[0].start()
    assert entered.wait(5)
    for thread in threads[1:]:
        thread.start()
    time.sleep(0.1)  # the others are now waiting on the build in flight
    release.set()
    for thread in threads:
        thread.join(5)
    assert len(calls) == 1
    assert len(results) == 3 and all(r is results[0] for r in results)


def test_a_waiter_builds_itself_when_the_build_it_waited_on_raises():
    memo = LruMemo(4)
    entered, release = threading.Event(), threading.Event()
    calls = []

    def first():
        calls.append("first")
        entered.set()
        release.wait(5)
        raise RuntimeError("first build failed")

    errors, results = [], []

    def run_first():
        try:
            memo.get("k", first)
        except RuntimeError as exc:
            errors.append(exc)

    t1 = threading.Thread(target=run_first)
    t1.start()
    assert entered.wait(5)
    t2 = threading.Thread(
        target=lambda: results.append(
            memo.get("k", lambda: calls.append("second") or "built")
        )
    )
    t2.start()
    time.sleep(0.1)
    release.set()
    t1.join(5)
    t2.join(5)
    assert len(errors) == 1
    assert results == ["built"]
    assert calls == ["first", "second"]


def test_different_keys_build_concurrently():
    memo = LruMemo(4)
    barrier = threading.Barrier(2, timeout=5)

    def build(value):
        barrier.wait()  # deadlocks (BrokenBarrierError) if builds serialize
        return value

    results = {}
    threads = [
        threading.Thread(
            target=lambda k=k: results.setdefault(k, memo.get(k, lambda: build(k)))
        )
        for k in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert results == {"a": "a", "b": "b"}


def test_many_threads_build_each_key_once():
    """More threads than cores, switching often: every key is built once
    and every caller of a key gets that one value."""
    memo = LruMemo(8)
    keys = ["a", "b", "c", "d"]
    builds = {key: 0 for key in keys}
    lock = threading.Lock()

    def build(key):
        with lock:
            builds[key] += 1
        time.sleep(0.001)
        return object()

    seen = {key: set() for key in keys}

    def hammer(offset):
        for i in range(200):
            key = keys[(i + offset) % len(keys)]
            value = memo.get(key, lambda: build(key))
            with lock:
                seen[key].add(id(value))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert builds == {key: 1 for key in keys}
    assert all(len(ids) == 1 for ids in seen.values())


def test_size_below_one_is_refused():
    with pytest.raises(ValueError):
        LruMemo(0)
