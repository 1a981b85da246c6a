"""System-level tests of the Soc device: checkpoints, determinism, traces."""

import pytest

from repro.errors import SimulationError
from repro.rtl.checkpoint import Checkpoint
from repro.rtl.simulator import RtlSimulator
from repro.soc.programs import illegal_write_benchmark, synthetic_workload
from repro.soc.soc import Soc


@pytest.fixture()
def soc():
    device = Soc()
    device.load_program(illegal_write_benchmark().program.words)
    device.reset()
    return device


class TestDeviceProtocol:
    def test_register_manifest_covers_all_parts(self, soc):
        specs = soc.register_specs()
        prefixes = {name.split("_")[0] for name in specs}
        assert {"core", "bus", "dma"} <= prefixes
        assert "cfg_base0" in specs and "viol_q" in specs

    def test_no_register_name_collisions(self, soc):
        specs = soc.register_specs()
        assert len(specs) == sum(
            len(part.register_specs())
            for part in (soc.core, soc.mpu, soc.bus, soc.dma)
        )

    def test_get_set_registers_roundtrip(self, soc):
        soc.run_until_halt()
        snapshot = soc.get_registers()
        soc.reset()
        soc.set_registers(snapshot)
        assert soc.get_registers() == snapshot

    def test_arrays_roundtrip(self, soc):
        soc.run_until_halt()
        arrays = soc.get_arrays()
        soc.reset()
        soc.set_arrays(arrays)
        assert soc.memory.snapshot() == arrays["ram"]

    def test_program_survives_reset(self, soc):
        word0 = soc.memory.read(0)
        soc.run_until_halt()
        soc.reset()
        assert soc.memory.read(0) == word0
        assert not soc.halted

    def test_run_until_halt_bound(self):
        device = Soc()
        # empty program: NOPs forever, never halts
        device.load_program([0])
        device.reset()
        with pytest.raises(SimulationError):
            device.run_until_halt(max_cycles=50)


class TestCheckpointFidelity:
    def test_restart_reproduces_full_state(self, soc):
        sim = RtlSimulator(soc)
        golden = sim.golden_run(200, checkpoint_interval=30)
        sim.restart_from(golden, 145)
        mid = Checkpoint.capture(soc, 145)
        sim.run_to(200)
        end_a = soc.get_registers()
        ram_a = soc.memory.snapshot()
        # do it again from the captured mid-state
        mid.restore(soc)
        sim.cycle = 145
        sim.run_to(200)
        assert soc.get_registers() == end_a
        assert soc.memory.snapshot() == ram_a

    def test_fault_then_restart_is_clean(self, soc):
        sim = RtlSimulator(soc)
        golden = sim.golden_run(200, checkpoint_interval=25)
        sim.restart_from(golden, 100)
        soc.flip_register_bit("cfg_top0", 12)
        sim.run_to(200)
        corrupted = soc.get_registers()
        sim.restart_from(golden, 200)
        assert soc.get_registers() == golden.final.registers
        assert soc.get_registers() != corrupted


class TestMpuTraceRecording:
    def test_trace_disabled_by_default(self, soc):
        soc.run_until_halt()
        assert soc.mpu_trace == []

    def test_trace_entries_are_snapshots(self, soc):
        soc.record_mpu_trace = True
        for _ in range(30):
            soc.step()
        trace = soc.mpu_trace
        assert len(trace) == 30
        # mutating the device afterwards must not alter recorded entries
        before = dict(trace[10].state)
        soc.flip_register_bit("req_addr", 0)
        assert trace[10].state == before

    def test_trace_cycle_counts_from_the_restored_checkpoint(self, soc):
        """An entry's cycle is the cycle it simulates, whatever ran before:
        a restore rewinds the count along with the state."""
        sim = RtlSimulator(soc)
        golden = sim.golden_run(120, checkpoint_interval=25)
        for cycle in (70, 30, 30, 99, 0):
            sim.restart_from(golden, cycle)
            soc.record_mpu_trace = True
            soc.mpu_trace = []
            sim.run_to(cycle + 3)
            soc.record_mpu_trace = False
            assert [e.cycle for e in soc.mpu_trace] == [cycle, cycle + 1, cycle + 2]
        checkpoint = golden.checkpoints.at(50)
        checkpoint.restore(soc)
        soc.record_mpu_trace = True
        soc.step()
        assert soc.mpu_trace[-1].cycle == 50

    def test_trace_inputs_have_all_ports(self, soc):
        soc.record_mpu_trace = True
        soc.step()
        entry = soc.mpu_trace[0]
        assert {
            "in_addr", "in_valid", "cfg_we", "cfg_wdata", "flag_clear"
        } <= set(entry.inputs)


class TestSyntheticDeterminism:
    def test_synthetic_runs_are_reproducible(self):
        results = []
        for _ in range(2):
            device = Soc()
            device.load_program(synthetic_workload(5).program.words)
            device.reset()
            device.run_until_halt()
            results.append((device.get_registers(), device.memory.snapshot()))
        assert results[0] == results[1]
