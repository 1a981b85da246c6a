"""Tests for the orchestrated pre-characterization (uses small_context)."""

import pytest

from repro.errors import CharacterizationError
from repro.precharac import characterization
from repro.precharac.characterization import (
    CharacterizationConfig,
    classify_registers,
    precharacterize,
)
from repro.precharac.lifetime import LifetimeCampaign, RegisterCharacter


class TestClassification:
    def make_campaign(self, entries):
        campaign = LifetimeCampaign(horizon=100)
        for (reg, bit), (life, cont) in entries.items():
            campaign.results[(reg, bit)] = RegisterCharacter(
                register=reg,
                bit=bit,
                lifetime=life,
                contamination=cont,
                ever_masked=life < 100,
            )
        return campaign

    def test_split_by_lifetime_and_contamination(self):
        campaign = self.make_campaign(
            {
                ("cfg", 0): (100.0, 0.0),   # memory-type
                ("cfg", 1): (100.0, 9.0),   # long-lived but contaminating
                ("pipe", 0): (3.0, 1.0),    # short-lived
            }
        )
        memory, computation = classify_registers(
            campaign, CharacterizationConfig(lifetime_horizon=100)
        )
        assert ("cfg", 0) in memory
        assert ("cfg", 1) in computation
        assert ("pipe", 0) in computation


class TestSystemCharacterization:
    def test_majority_of_bits_memory_type(self, small_context):
        """Paper Fig. 4: more than half the characterized registers are
        memory-type (long lifetime, ~zero contamination)."""
        ch = small_context.characterization
        n_mem, n_comp = len(ch.memory_type), len(ch.computation_type)
        assert n_mem + n_comp > 200
        assert n_mem > (n_mem + n_comp) / 2

    def test_decision_registers_are_computation_type(self, small_context):
        ch = small_context.characterization
        assert ch.is_memory_type("cfg_base5", 3)
        assert not ch.is_memory_type("viol_q", 0)
        assert not ch.is_memory_type("req_addr", 0)

    def test_omega_frames_match_window(self, small_context):
        ch = small_context.characterization
        assert ch.omega_nodes(0)
        assert ch.omega_nodes(ch.config.max_frame)
        assert ch.omega_nodes(ch.config.max_frame + 1) == set()

    def test_L_for_registers_is_their_lifetime(self, small_context):
        ch = small_context.characterization
        nid = ch.netlist.register_dff("cfg_base5", 3).nid
        assert ch.L(nid) == ch.lifetime.lifetime_of("cfg_base5", 3)

    def test_L_for_comb_gates_is_max_latching(self, small_context):
        """The gate feeding viol_q's D pin can only latch into viol_q, so
        its L equals viol_q's lifetime; gates feeding config bits inherit
        the long config lifetime."""
        ch = small_context.characterization
        nl = ch.netlist
        viol_q = nl.register_dff("viol_q", 0)
        viol_d = viol_q.fanins[0]
        assert ch.L(viol_d) >= ch.lifetime.lifetime_of("viol_q", 0)
        cfg = nl.register_dff("cfg_base5", 3)
        cfg_d = cfg.fanins[0]
        assert ch.L(cfg_d) == ch.lifetime.lifetime_of("cfg_base5", 3)

    def test_sample_space_profile_shrinks(self, small_context):
        """Fig. 8(b): cone registers are a strict subset of all registers,
        computation-type cone registers a further subset."""
        profile = small_context.characterization.sample_space_profile(8)
        for frame in range(1, 9):
            assert profile["cone_registers"][frame] < profile["total"][frame]
            assert (
                profile["cone_computation_registers"][frame]
                <= profile["cone_registers"][frame]
            )
        # deep frames: only long-lived (memory-type) registers remain
        assert profile["cone_computation_registers"][8] < 30

    def test_cone_register_bits_listing(self, small_context):
        bits = small_context.characterization.cone_register_bits()
        assert ("viol_q", 0) in bits
        assert ("cfg_top0", 12) in bits

    def test_memory_type_registers_whole(self, small_context):
        regs = small_context.characterization.memory_type_registers()
        assert "cfg_base5" in regs
        assert "viol_q" not in regs

    def test_requires_responding_signals(self, small_context):
        with pytest.raises(CharacterizationError):
            precharacterize(
                small_context.netlist, [], small_context.mpu_trace, None, 100
            )


class TestLifetimeToNodes:
    """Mapping lifetime-campaign results back onto netlist nodes."""

    def run(self, small_context, monkeypatch, bits):
        def fake_campaign(device, n_cycles, target_bits, horizon, **kwargs):
            campaign = LifetimeCampaign(horizon=horizon)
            for reg, bit in bits:
                campaign.results[(reg, bit)] = RegisterCharacter(
                    register=reg,
                    bit=bit,
                    lifetime=float(horizon),
                    contamination=0.0,
                    ever_masked=False,
                )
            return campaign

        monkeypatch.setattr(
            characterization, "run_lifetime_campaign", fake_campaign
        )
        return precharacterize(
            small_context.netlist,
            small_context.characterization.responding,
            small_context.mpu_trace,
            None,
            100,
            config=CharacterizationConfig(max_frame=2, lifetime_horizon=10),
        )

    def test_unknown_register_bit_is_skipped(self, small_context, monkeypatch):
        result = self.run(
            small_context, monkeypatch, [("no_such_reg", 0), ("viol_q", 0)]
        )
        viol_q = small_context.netlist.register_dff("viol_q", 0).nid
        assert result.node_lifetime[viol_q] == 10.0

    def test_other_lookup_errors_propagate(self, small_context, monkeypatch):
        netlist = small_context.netlist
        lookup = netlist.register_dff

        def broken(register, bit):
            if register == "viol_q":
                raise RuntimeError("corrupt register map")
            return lookup(register, bit)

        monkeypatch.setattr(netlist, "register_dff", broken)
        with pytest.raises(RuntimeError, match="corrupt register map"):
            self.run(small_context, monkeypatch, [("viol_q", 0)])
