"""Deterministic replay of logged campaign samples.

Every sample a campaign evaluates has a name in the seed tree:

    root seed ──spawn──> chunk c ──spawn──> sample i of chunk c

(:func:`~repro.campaign.scheduler.chunk_seed_sequence` composed with
:func:`~repro.utils.rng.sample_seed_sequence`).  Given a run directory,
replay locates sample ``n`` of the chunk log, rebuilds that exact RNG
stream, re-draws the attack sample, and re-executes the engine on it —
without running any other sample.  The replayed record must match the
logged one *bit-identically*; a divergence means either the code changed
behaviour since the run or the run's determinism contract is broken.
This gives every future bug report a one-command repro:
``repro replay <run_id> --sample <n>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.campaign.scheduler import chunk_seed_sequence
from repro.campaign.store import RunStore, record_to_dict
from repro.core.results import SampleRecord
from repro.errors import EvaluationError
from repro.utils.rng import as_generator, sample_seed_sequence


@dataclass(frozen=True)
class ReplayedSample:
    """Outcome of replaying one logged sample."""

    run_id: str
    sample_index: int            # global index across the chunk log
    chunk_index: int
    chunk_offset: int            # index within the chunk
    logged: dict                 # serialized record from the log
    replayed: dict               # serialized record from re-execution

    @property
    def bit_identical(self) -> bool:
        return self.logged == self.replayed

    def diff(self) -> List[str]:
        """Names of fields that diverge (empty when bit-identical)."""
        keys = sorted(set(self.logged) | set(self.replayed))
        return [
            k
            for k in keys
            if self.logged.get(k) != self.replayed.get(k)
        ]

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "sample_index": self.sample_index,
            "chunk_index": self.chunk_index,
            "chunk_offset": self.chunk_offset,
            "bit_identical": self.bit_identical,
            "diverging_fields": self.diff(),
            "logged": self.logged,
            "replayed": self.replayed,
        }


def locate_sample(
    store: RunStore, sample_index: int
) -> Tuple[int, int, SampleRecord]:
    """Map a global sample index to ``(chunk_index, offset, record)``.

    Walks the chunk log rather than the spec's chunk plan, so replay
    works on interrupted runs — whatever is in the log is addressable.
    """
    if sample_index < 0:
        raise EvaluationError("sample index must be non-negative")
    seen = 0
    for entry in store.replay_chunks():
        if sample_index < seen + len(entry.records):
            offset = sample_index - seen
            return entry.index, offset, entry.records[offset]
        seen += len(entry.records)
    raise EvaluationError(
        f"run {store.run_id!r}: sample {sample_index} out of range "
        f"(log holds {seen} samples)"
    )


def replay_sample(
    store: RunStore,
    sample_index: int,
    engine=None,
    sampler=None,
) -> ReplayedSample:
    """Re-execute one logged sample from its seed lineage.

    ``engine`` / ``sampler`` default to rebuilding the run's spec runtime
    (the CLI path); tests inject already-built ones to skip the context
    build.  The injected runtime must match the spec or the comparison is
    meaningless.
    """
    spec = store.load_spec()
    chunk_index, offset, logged = locate_sample(store, sample_index)
    if engine is None or sampler is None:
        engine, sampler = spec.build_runtime()
    rng = as_generator(
        sample_seed_sequence(chunk_seed_sequence(spec.seed, chunk_index), offset)
    )
    sample = sampler.sample(rng)
    record = engine.run_sample(sample, rng)
    return ReplayedSample(
        run_id=store.run_id,
        sample_index=sample_index,
        chunk_index=chunk_index,
        chunk_offset=offset,
        logged=record_to_dict(logged),
        replayed=record_to_dict(record),
    )


def count_samples(store: RunStore) -> int:
    """Total replayable samples in the chunk log."""
    return sum(len(entry.records) for entry in store.replay_chunks())
