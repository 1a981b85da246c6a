"""Tests for the countermeasure variants of the MPU.

Each variant must (a) stay bit-exact between the behavioural model and the
elaborated netlist, (b) behave identically to the baseline in fault-free
operation, and (c) show its documented security property under the
corresponding fault class.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gatesim.logic import LogicEvaluator
from repro.soc.memmap import DEFAULT_MEMORY_MAP
from repro.soc.mpu import (
    MpuBehavioral,
    MpuInputs,
    MpuSemantics,
    MpuVariant,
    build_mpu_netlist,
    combine_decision_rails,
    default_responding_signals,
    mpu_register_specs,
)
from repro.soc.programs import illegal_write_benchmark
from repro.soc.soc import Soc

VARIANTS = [
    MpuVariant(cfg_parity=True),
    MpuVariant(redundancy="dual"),
    MpuVariant(redundancy="tmr"),
    MpuVariant(redundancy="tmr", cfg_parity=True),
]

mpu_stimulus = st.builds(
    MpuInputs,
    in_addr=st.integers(0, 0xFFFF),
    in_write=st.integers(0, 1),
    in_priv=st.integers(0, 1),
    in_valid=st.integers(0, 1),
    cfg_we=st.integers(0, 1),
    cfg_index=st.integers(0, 7),
    cfg_field=st.integers(0, 2),
    cfg_wdata=st.integers(0, 0xFFFF),
    flag_clear=st.integers(0, 1),
)


class TestVariantDefinition:
    def test_rail_suffixes(self):
        assert MpuVariant().rails == ("",)
        assert MpuVariant(redundancy="dual").rails == ("", "_b")
        assert MpuVariant(redundancy="tmr").rails == ("", "_b", "_c")

    def test_unknown_redundancy_rejected(self):
        with pytest.raises(SimulationError):
            MpuVariant(redundancy="quad")

    def test_manifest_grows_with_variant(self):
        base = sum(s.width for s in mpu_register_specs().values())
        parity = sum(
            s.width
            for s in mpu_register_specs(
                variant=MpuVariant(cfg_parity=True)
            ).values()
        )
        tmr = sum(
            s.width
            for s in mpu_register_specs(
                variant=MpuVariant(redundancy="tmr")
            ).values()
        )
        assert parity == base + 3 * 8  # one parity bit per cfg field
        assert tmr == base + 4         # two extra rails x two bits

    def test_responding_signals_cover_all_rails(self):
        nl = build_mpu_netlist(variant=MpuVariant(redundancy="tmr"))
        names = {
            nl.node(nid).register for nid in default_responding_signals(nl)
        }
        assert names == {
            "viol_q", "viol_q_b", "viol_q_c",
            "grant_q", "grant_q_b", "grant_q_c",
        }


class TestRailCombination:
    def test_single_rail_passthrough(self):
        assert combine_decision_rails([1], [0]) == (1, 0)

    def test_dual_disagreement_fails_secure(self):
        # grant rails disagree -> treated as violation, no grant
        assert combine_decision_rails([0, 0], [1, 0]) == (1, 0)
        # both rails healthy grant
        assert combine_decision_rails([0, 0], [1, 1]) == (0, 1)
        # one rail violating
        assert combine_decision_rails([1, 0], [0, 0]) == (1, 0)

    def test_tmr_outvotes_single_rail(self):
        assert combine_decision_rails([1, 0, 0], [0, 1, 1]) == (0, 1)
        assert combine_decision_rails([1, 1, 0], [0, 0, 1]) == (1, 0)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
class TestCrossLevelEquivalence:
    @given(stimulus=st.lists(mpu_stimulus, min_size=1, max_size=15))
    @settings(max_examples=10, deadline=None)
    def test_bit_exact_next_state(self, variant, stimulus):
        nl = build_mpu_netlist(variant=variant)
        ev = LogicEvaluator(nl)
        beh = MpuBehavioral(variant=variant)
        for inp in stimulus:
            outs, nxt = ev.step(inp.as_port_dict(), beh.get_registers())
            prev = beh.outputs()
            assert outs["grant_q"] == prev.grant_q
            assert outs["viol_q"] == prev.viol_q
            beh.step(inp)
            assert beh.get_registers() == nxt


#: Every variant, the baseline included.
ALL_VARIANTS = [MpuVariant()] + VARIANTS

#: Requests that land inside the configured regions (and the DMA window),
#: so flipped configuration bits change decisions.
mapped_stimulus = st.builds(
    MpuInputs,
    in_addr=st.integers(0, 0x1810),
    in_write=st.integers(0, 1),
    in_priv=st.integers(0, 1),
    in_valid=st.integers(0, 1),
    cfg_we=st.sampled_from([0, 0, 0, 1]),
    cfg_index=st.integers(0, 7),
    cfg_field=st.integers(0, 2),
    cfg_wdata=st.integers(0, 0x1FFF),
    flag_clear=st.integers(0, 1),
)


@functools.lru_cache(maxsize=None)
def _evaluator(variant):
    return LogicEvaluator(build_mpu_netlist(variant=variant))


def _boot_config(variant):
    """The default memory map's region configuration, parity included."""
    values = {}
    for i, region in enumerate(DEFAULT_MEMORY_MAP.default_regions()):
        for prefix, value in (
            ("cfg_base", region.base),
            ("cfg_top", region.top),
            ("cfg_perm", region.perm_bits()),
        ):
            values[f"{prefix}{i}"] = value
            if variant.cfg_parity:
                values[f"{prefix}{i}_par"] = bin(value).count("1") & 1
    return values


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
class TestLongLivedCrossLevel:
    """One behavioural instance lives through the whole stimulus, with
    seeded single-bit ``set_registers`` writes between its steps, so any
    state the step keeps between cycles meets configuration, parity,
    decision-rail and request registers changed behind its back (and
    flipped back again)."""

    @given(
        stimulus=st.lists(mapped_stimulus, min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_bit_exact_with_writes_between_steps(self, variant, stimulus, seed):
        ev = _evaluator(variant)
        beh = MpuBehavioral(variant=variant)
        beh.set_registers(_boot_config(variant))
        specs = beh.register_specs()
        names = sorted(specs)
        rng = np.random.default_rng(seed)
        for inp in stimulus:
            for _ in range(int(rng.integers(0, 3))):
                name = names[int(rng.integers(len(names)))]
                bit = int(rng.integers(specs[name].width))
                beh.set_registers({name: beh.regs[name] ^ (1 << bit)})
            outs, nxt = ev.step(inp.as_port_dict(), beh.get_registers())
            prev = beh.outputs()
            assert outs["grant_q"] == prev.grant_q
            assert outs["viol_q"] == prev.viol_q
            assert outs["sticky_flag"] == prev.sticky_flag
            assert outs["viol_addr"] == prev.viol_addr
            assert outs["violation_comb"] == int(
                beh.check_violation() and beh.regs["req_valid"]
            )
            beh.step(inp)
            assert beh.get_registers() == nxt


class TestGoldenBehaviourUnchanged:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_benchmark_golden_run_identical(self, variant):
        """Fault-free, every variant must block and detect exactly like the
        baseline (countermeasures are transparent to correct operation)."""
        bench = illegal_write_benchmark()
        base = Soc()
        base.load_program(bench.program.words)
        base.reset()
        n = base.run_until_halt()
        hardened = Soc(mpu_variant=variant)
        hardened.load_program(bench.program.words)
        hardened.reset()
        assert hardened.run_until_halt() == n
        assert bench.detected(hardened)
        assert not bench.attack_succeeded(hardened)
        assert hardened.memory.snapshot() == base.memory.snapshot()


class TestParitySemantics:
    def setup_mpu(self):
        beh = MpuBehavioral(variant=MpuVariant(cfg_parity=True))
        beh.step(MpuInputs(cfg_we=1, cfg_index=0, cfg_field=1, cfg_wdata=0x0FFF))
        beh.step(MpuInputs(cfg_we=1, cfg_index=0, cfg_field=2, cfg_wdata=0b1011))
        return beh

    def test_written_config_has_consistent_parity(self):
        beh = self.setup_mpu()
        assert not beh.semantics.parity_error(beh.regs)

    def test_single_bit_upset_forces_violation(self):
        beh = self.setup_mpu()
        beh.set_registers({"cfg_top0": 0x1FFF})
        beh.step(MpuInputs(in_addr=0x10, in_write=0, in_priv=1, in_valid=1))
        assert beh.check_violation()  # even privileged access fails secure

    def test_matched_double_flip_evades_parity(self):
        """Flipping a value bit AND its parity bit defeats the scheme — the
        residual vulnerability the SSF evaluation should still find."""
        beh = self.setup_mpu()
        beh.set_registers(
            {"cfg_top0": 0x1FFF, "cfg_top0_par": beh.regs["cfg_top0_par"] ^ 1}
        )
        assert not beh.semantics.parity_error(beh.regs)

    def test_parity_only_flip_detected(self):
        beh = self.setup_mpu()
        beh.set_registers({"cfg_top0_par": beh.regs["cfg_top0_par"] ^ 1})
        assert beh.semantics.parity_error(beh.regs)


class TestVariantFaultResilience:
    def run_with_flips(self, variant, flips, at_cycle, bench, total):
        soc = Soc(mpu_variant=variant)
        soc.load_program(bench.program.words)
        soc.reset()
        for _ in range(at_cycle):
            soc.step()
        for reg, bit in flips:
            soc.flip_register_bit(reg, bit)
        for _ in range(total - at_cycle):
            soc.step()
        return soc

    @pytest.fixture(scope="class")
    def bench_setup(self):
        bench = illegal_write_benchmark()
        soc = Soc()
        soc.load_program(bench.program.words)
        soc.reset()
        soc.record_mpu_trace = True
        n = soc.run_until_halt()
        from repro.core.context import find_violation_cycles

        target = find_violation_cycles(soc.mpu_trace, 8)[0]
        return bench, target, n + 40

    def test_parity_blocks_single_cfg_upset(self, bench_setup):
        bench, target, total = bench_setup
        variant = MpuVariant(cfg_parity=True)
        soc = self.run_with_flips(variant, [("cfg_top0", 12)], 60, bench, total)
        assert not bench.attack_succeeded(soc)
        assert bench.detected(soc)  # fail-secure violations fire the handler

    def test_parity_evaded_by_matched_double_flip(self, bench_setup):
        bench, target, total = bench_setup
        variant = MpuVariant(cfg_parity=True)
        soc = self.run_with_flips(
            variant,
            [("cfg_top0", 12), ("cfg_top0_par", 0)],
            60,
            bench,
            total,
        )
        assert bench.attack_succeeded(soc)

    def test_dual_blocks_single_rail_pair_flip(self, bench_setup):
        """The baseline's viol+grant double flip only corrupts one rail of
        the dual variant — fail-secure combination blocks the access."""
        bench, target, total = bench_setup
        variant = MpuVariant(redundancy="dual")
        soc = self.run_with_flips(
            variant, [("viol_q", 0), ("grant_q", 0)], target + 1, bench, total
        )
        assert not bench.attack_succeeded(soc)

    def test_dual_defeated_by_both_rails(self, bench_setup):
        bench, target, total = bench_setup
        variant = MpuVariant(redundancy="dual")
        soc = self.run_with_flips(
            variant,
            [("viol_q", 0), ("grant_q", 0), ("viol_q_b", 0), ("grant_q_b", 0)],
            target + 1,
            bench,
            total,
        )
        assert bench.attack_succeeded(soc)

    def test_tmr_outvotes_full_rail_corruption(self, bench_setup):
        bench, target, total = bench_setup
        variant = MpuVariant(redundancy="tmr")
        soc = self.run_with_flips(
            variant,
            [("viol_q", 0), ("grant_q", 0)],
            target + 1,
            bench,
            total,
        )
        assert not bench.attack_succeeded(soc)
        # majority voting: the other two rails carry the correct decision,
        # so the system still detects the attempt
        assert bench.detected(soc)
