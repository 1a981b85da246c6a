"""``MpuLockstep`` against a faulty MPU stepped on every cycle.

``MpuLockstep.steps`` skips the rest of a stable run (golden's input
one object, golden's registers unchanged) once a step leaves the faulty
registers unchanged too.  Here random stimuli drive a golden MPU: long
idle stretches, repeated requests, configuration writes of the value a
register already holds and flag clears with the flag already clear, so
golden's registers also stay put under inputs that change.  A faulty
copy with random flips then runs through ``steps`` and through a plain
loop that checks the outputs and steps on every cycle.  They must agree
on where the run ends (the escape cycle, or the stop) and on the
registers at every cycle ``steps`` yields; on every skipped cycle the
plain loop's registers, and golden's, must equal those at the skip's
end, so a death check or a register diff reads the same there.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.mpu import (
    BASELINE_VARIANT,
    MpuBehavioral,
    MpuInputs,
    MpuLockstep,
    MpuVariant,
    mpu_register_specs,
)
from repro.soc.soc import MpuTraceEntry

VARIANTS = ("none", "parity", "dual", "tmr", "dual+parity", "tmr+parity")

segments = st.one_of(
    st.just(MpuInputs()),
    st.builds(
        MpuInputs,
        in_addr=st.sampled_from((0x0010, 0x1050, 0x0300)),
        in_write=st.integers(0, 1),
        in_priv=st.integers(0, 1),
        in_valid=st.just(1),
    ),
    st.builds(
        MpuInputs,
        cfg_we=st.just(1),
        cfg_index=st.integers(0, 1),
        cfg_field=st.integers(0, 2),
        cfg_wdata=st.sampled_from((0, 0x8, 0x0fff)),
    ),
    st.builds(MpuInputs, flag_clear=st.just(1)),
)


@st.composite
def cases(draw):
    variant = MpuVariant.parse(draw(st.sampled_from(VARIANTS)))
    stimulus = []
    for inputs in draw(st.lists(segments, min_size=1, max_size=12)):
        stimulus += [inputs] * draw(st.integers(1, 20))
    n_cycles = len(stimulus)
    start = draw(st.integers(0, n_cycles))
    stop = draw(st.integers(start, n_cycles))
    widths = {
        name: spec.width
        for name, spec in mpu_register_specs(variant=variant).items()
    }
    names = sorted(widths)
    flips = draw(
        st.lists(
            st.sampled_from(names).flatmap(
                lambda name: st.tuples(
                    st.just(name), st.integers(0, widths[name] - 1)
                )
            ),
            max_size=3,
        )
    )
    return variant, stimulus, start, stop, flips


def golden_run(variant, stimulus):
    """(trace, final registers, outputs per cycle) of a golden MPU."""
    mpu = MpuBehavioral(variant=variant)
    trace, outputs = [], []
    for cycle, inputs in enumerate(stimulus):
        trace.append(
            MpuTraceEntry(cycle, inputs.as_port_dict(), dict(mpu.regs))
        )
        outputs.append(mpu.outputs())
        mpu.step(inputs)
    return trace, dict(mpu.regs), outputs


def faulty_mpu(variant, registers, flips):
    mpu = MpuBehavioral(variant=variant)
    mpu.regs = dict(registers)
    for name, bit in flips:
        mpu.regs[name] ^= 1 << bit
    return mpu


class TestFastForward:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_steps_match_stepping_every_cycle(self, case):
        variant, stimulus, start, stop, flips = case
        trace, final, golden_outputs = golden_run(variant, stimulus)
        golden = [entry.state for entry in trace] + [final]
        lockstep = MpuLockstep.from_trace(trace, final, variant=variant)
        state_of = operator.itemgetter(*lockstep.names)

        plain = faulty_mpu(variant, golden[start], flips)
        plain_states = {start: state_of(plain.regs)}
        end = start
        while end < stop and plain.outputs() == golden_outputs[end]:
            plain.step(stimulus[end])
            end += 1
            plain_states[end] = state_of(plain.regs)

        fast = faulty_mpu(variant, golden[start], flips)
        reached = start
        for cycle, values in lockstep.steps(fast, start, stop):
            assert reached < cycle <= stop
            assert values == plain_states[cycle]
            assert values == state_of(fast.regs)
            for skipped in range(reached + 1, cycle):
                assert plain_states[skipped] == values
                assert golden[skipped] == golden[cycle]
            reached = cycle
        assert reached == end
        assert fast.regs == plain.regs
        assert lockstep.run(faulty_mpu(variant, golden[start], flips),
                            start, stop) == end

    def test_a_write_of_golden_value_ends_a_stable_run(self):
        """Golden's registers do not change across the write, but its
        input does: the faulty copy of the register is overwritten."""
        idle = MpuInputs()
        write = MpuInputs(cfg_we=1, cfg_index=0, cfg_field=0, cfg_wdata=0)
        stimulus = [idle] * 5 + [write] + [idle] * 5
        trace, final, _outputs = golden_run(BASELINE_VARIANT, stimulus)
        assert trace[5].state == trace[6].state
        lockstep = MpuLockstep.from_trace(trace, final)
        assert lockstep.run_ends[:6] == (5, 5, 5, 5, 5, 6)
        faulty = faulty_mpu(BASELINE_VARIANT, trace[0].state, [("cfg_base0", 0)])
        assert lockstep.run(faulty, 0, len(stimulus)) == len(stimulus)
        assert faulty.regs == final
