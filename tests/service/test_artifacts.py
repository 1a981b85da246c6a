"""Content-addressed artifact store: keying, atomicity, cache hits."""

import json
import threading

import pytest

from repro.service.artifacts import (
    KIND_BASELINE,
    KIND_PRECHARAC,
    ArtifactStore,
    ensure_precharac,
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestKeying:
    def test_key_is_deterministic(self, store):
        a = store.key(KIND_PRECHARAC, benchmark="write", variant="none")
        b = store.key(KIND_PRECHARAC, benchmark="write", variant="none")
        assert a == b and len(a) == 64

    def test_key_field_order_is_canonical(self, store):
        assert store.key("k", a=1, b=2) == store.key("k", b=2, a=1)

    def test_key_separates_kinds_and_fields(self, store):
        base = store.key(KIND_PRECHARAC, benchmark="write", variant="none")
        assert store.key(KIND_BASELINE, benchmark="write",
                         variant="none") != base
        assert store.key(KIND_PRECHARAC, benchmark="read",
                         variant="none") != base

    def test_path_layout(self, store):
        path = store.path_for(KIND_PRECHARAC, benchmark="write",
                              variant="none")
        assert path.parent == store.root / KIND_PRECHARAC
        assert path.suffix == ".json"


class TestEnsure:
    def test_builds_once_then_hits(self, store):
        calls = []

        def builder(path):
            calls.append(path)
            path.write_text(json.dumps({"n": 1}))

        first, hit1 = store.ensure("k", builder, design="d")
        second, hit2 = store.ensure("k", builder, design="d")
        assert first == second
        assert (hit1, hit2) == (False, True)
        assert len(calls) == 1
        assert json.loads(first.read_text()) == {"n": 1}

    def test_no_tmp_residue(self, store):
        def builder(path):
            path.write_text("{}")

        path, _ = store.ensure("k", builder, design="d")
        assert list(path.parent.glob("*.tmp")) == []

    def test_concurrent_misses_on_one_key_both_build(self, store):
        """Two builders in flight at once (``serve --jobs 2``, two points
        of one variant) must not share a temporary file."""
        both_inside = threading.Barrier(2)

        def builder(path):
            with open(path, "w") as fh:
                fh.write('{"n": ')
                fh.flush()
                both_inside.wait(timeout=10)
                fh.write("1}")

        results, errors = [], []

        def miss():
            try:
                results.append(store.ensure("k", builder, design="d"))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=miss) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        assert [hit for _, hit in results] == [False, False]
        (path, _), _ = results
        assert json.loads(path.read_text()) == {"n": 1}
        assert list(path.parent.glob("*.tmp")) == []


class TestPrecharacKeying:
    def test_variant_string_is_normalized(self, store):
        def builder(path):
            path.write_text("{}")

        a, _ = ensure_precharac(store, "write", "tmr+parity", builder=builder)
        b, hit = ensure_precharac(store, "write", "TMR+PARITY",
                                  builder=builder)
        assert a == b and hit
