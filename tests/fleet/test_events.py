"""EventBus semantics: sequencing, ring buffer, blocking waits."""

import threading
import time

from repro.fleet import EventBus


class TestPublishRead:
    def test_sequence_numbers_are_per_topic_and_monotonic(self):
        bus = EventBus()
        assert bus.publish("a", {"n": 0}) == 0
        assert bus.publish("a", {"n": 1}) == 1
        assert bus.publish("b", {"n": 0}) == 0
        assert bus.last_seq("a") == 2
        assert bus.last_seq("missing") == 0

    def test_events_after_is_inclusive_and_filtered(self):
        bus = EventBus()
        for n in range(5):
            bus.publish("t", {"n": n})
        got = bus.events_after("t", 3)
        assert [(seq, e["n"]) for seq, e in got] == [(3, 3), (4, 4)]
        assert bus.events_after("t", 99) == []
        assert bus.events_after("other", 0) == []

    def test_ring_buffer_drops_oldest(self):
        bus = EventBus(history=3)
        for n in range(10):
            bus.publish("t", {"n": n})
        got = bus.events_after("t", 0)
        # Only the last 3 survive, with their original sequence numbers.
        assert [seq for seq, _ in got] == [7, 8, 9]

    def test_published_event_is_copied(self):
        bus = EventBus()
        event = {"n": 1}
        bus.publish("t", event)
        event["n"] = 999
        assert bus.events_after("t", 0)[0][1]["n"] == 1


class TestBlockingWait:
    def test_wait_returns_immediately_when_buffered(self):
        bus = EventBus()
        bus.publish("t", {"n": 0})
        start = time.monotonic()
        got = bus.wait("t", 0, timeout_s=5)
        assert time.monotonic() - start < 1
        assert len(got) == 1

    def test_wait_times_out_empty(self):
        bus = EventBus()
        assert bus.wait("t", 0, timeout_s=0.05) == []

    def test_wait_woken_by_cross_thread_publish(self):
        bus = EventBus()
        def publish_later():
            time.sleep(0.05)
            bus.publish("t", {"n": 1})
        threading.Thread(target=publish_later).start()
        got = bus.wait("t", 0, timeout_s=5)
        assert [e["n"] for _, e in got] == [1]

    def test_wait_not_cut_short_by_other_topic_publishes(self):
        """publish() notifies every waiter; a waiter on topic A must
        keep waiting through topic-B traffic instead of returning empty
        on the first wakeup."""
        bus = EventBus()
        stop = threading.Event()
        def noisy_neighbor():
            while not stop.is_set():
                bus.publish("other", {"n": 0})
                time.sleep(0.01)
        def publish_later():
            time.sleep(0.2)
            bus.publish("t", {"n": 1})
        noisy = threading.Thread(target=noisy_neighbor)
        noisy.start()
        threading.Thread(target=publish_later).start()
        try:
            got = bus.wait("t", 0, timeout_s=5)
        finally:
            stop.set()
            noisy.join()
        assert [e["n"] for _, e in got] == [1]

    def test_wait_timeout_honored_despite_other_topic_publishes(self):
        bus = EventBus()
        stop = threading.Event()
        def noisy_neighbor():
            while not stop.is_set():
                bus.publish("other", {"n": 0})
                time.sleep(0.01)
        noisy = threading.Thread(target=noisy_neighbor)
        noisy.start()
        try:
            start = time.monotonic()
            got = bus.wait("t", 0, timeout_s=0.3)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            noisy.join()
        assert got == []
        assert elapsed >= 0.25

