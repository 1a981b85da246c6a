"""Shared Hypothesis strategies for the whole test suite.

One home for the generative machinery (random netlists, attack samples,
sample records, campaign specs) so the gate-level property tests and the
conformance invariant suite draw from the same distributions.  Keep
strategies here pure — no fixtures, no I/O — so any test module can
import them under any Hypothesis profile (see ``tests/conftest.py`` for
the derandomized ``ci`` profile).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.attack.spec import AttackSample
from repro.campaign.spec import CampaignSpec, StoppingConfig
from repro.core.results import OutcomeCategory, SampleRecord
from repro.netlist.cells import GateKind
from repro.netlist.graph import Netlist

COMB_KINDS = [
    GateKind.AND,
    GateKind.OR,
    GateKind.NAND,
    GateKind.NOR,
    GateKind.XOR,
    GateKind.XNOR,
    GateKind.NOT,
    GateKind.BUF,
    GateKind.MUX,
]

#: Register-bit identities drawn from plausible SoC register names.
register_bits = st.tuples(
    st.sampled_from(
        ("cfg_top0", "cfg_base1", "cfg_perm2", "viol_addr", "acc", "pc")
    ),
    st.integers(0, 15),
)

#: Finite floats that survive a JSON round-trip exactly (json uses
#: shortest-repr float serialization, so any finite double is safe).
finite_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def random_netlists(draw):
    """A random sequential netlist with 2-5 inputs, 1-3 DFFs, <=25 gates."""
    nl = Netlist("random")
    n_inputs = draw(st.integers(2, 5))
    n_dffs = draw(st.integers(1, 3))
    sources = [nl.add_input(f"in{i}") for i in range(n_inputs)]
    dffs = [
        nl.add_dff(name=f"r{i}[0]", register=f"r{i}", bit=0)
        for i in range(n_dffs)
    ]
    pool = sources + dffs + [nl.add_const(0), nl.add_const(1)]
    n_gates = draw(st.integers(1, 25))
    for _ in range(n_gates):
        kind = draw(st.sampled_from(COMB_KINDS))
        arity = {GateKind.NOT: 1, GateKind.BUF: 1, GateKind.MUX: 3}.get(kind, 2)
        fanins = [draw(st.sampled_from(pool)) for _ in range(arity)]
        pool.append(nl.add_gate(kind, *fanins))
    for dff in dffs:
        nl.connect_dff(dff, draw(st.sampled_from(pool)))
    nl.mark_output("out", pool[-1])
    nl.validate()
    return nl


@st.composite
def random_word_netlists(draw):
    """A random netlist over multi-bit input ports and registers.

    The first input port and the first register are 65-72 bits wide, so a
    word packing that shifts through ``int64`` would drop their top bits;
    output ``q`` exposes that register's Q side word for word.
    """
    nl = Netlist("random-words")
    pool = []
    in_widths = [draw(st.integers(65, 72))]
    in_widths += draw(st.lists(st.integers(1, 8), max_size=3))
    for p, width in enumerate(in_widths):
        pool += [nl.add_input(f"in{p}[{i}]") for i in range(width)]
    reg_widths = [draw(st.integers(65, 72))]
    reg_widths += draw(st.lists(st.integers(1, 8), max_size=3))
    dffs = []
    for r, width in enumerate(reg_widths):
        dffs += [
            nl.add_dff(name=f"r{r}[{i}]", register=f"r{r}", bit=i)
            for i in range(width)
        ]
    pool += dffs + [nl.add_const(0), nl.add_const(1)]
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(COMB_KINDS))
        arity = {GateKind.NOT: 1, GateKind.BUF: 1, GateKind.MUX: 3}.get(kind, 2)
        fanins = [draw(st.sampled_from(pool)) for _ in range(arity)]
        pool.append(nl.add_gate(kind, *fanins))
    for dff in dffs:
        nl.connect_dff(dff, draw(st.sampled_from(pool)))
    for i, nid in enumerate(nl.registers["r0"]):
        nl.mark_output(f"q[{i}]", nid)
    for i in range(draw(st.integers(1, 70))):
        nl.mark_output(f"out[{i}]", draw(st.sampled_from(pool)))
    nl.validate()
    return nl


def with_masked_dff(nl: Netlist, register: str, mask_name: str = "mask") -> Netlist:
    """Clone ``nl`` with an AND masking gate on one register's D pin.

    The clone preserves every original node id (new nodes append at the
    end), so evaluations are comparable nid-by-nid.  With the mask input
    at 1 the clone behaves identically to ``nl``; at 0 the register's D
    pin is forced to 0, absorbing any fault arriving through it.
    """
    clone = Netlist(nl.name + "+mask")
    d_pins = {}
    for node in nl.nodes:
        if node.kind is GateKind.INPUT:
            clone.add_input(node.name)
        elif node.kind is GateKind.CONST0:
            clone.add_const(0)
        elif node.kind is GateKind.CONST1:
            clone.add_const(1)
        elif node.is_dff:
            clone.add_dff(
                name=node.name,
                register=node.register,
                bit=node.bit,
                init=node.init,
            )
            d_pins[node.nid] = node.fanins[0]
        else:
            clone.add_gate(node.kind, *node.fanins, name=node.name)
    mask = clone.add_input(mask_name)
    target = nl.register_dff(register, 0).nid
    for dff_id, d_pin in d_pins.items():
        if dff_id == target:
            d_pin = clone.add_gate(GateKind.AND, d_pin, mask)
        clone.connect_dff(dff_id, d_pin)
    for name, nid in nl.outputs.items():
        clone.mark_output(name, nid)
    clone.validate()
    return clone


@st.composite
def attack_samples(draw):
    """An arbitrary (t, p) attack sample with a positive importance weight."""
    return AttackSample(
        t=draw(st.integers(-5, 60)),
        centre=draw(st.integers(0, 500)),
        radius_um=draw(st.sampled_from((1.0, 3.0, 5.0, 7.0, 9.0))),
        weight=draw(finite_floats),
    )


@st.composite
def sample_records(draw):
    """A structurally consistent engine outcome record."""
    e = draw(st.integers(0, 1))
    flipped = frozenset(
        draw(st.lists(register_bits, max_size=4, unique=True))
    )
    if e and not flipped:  # a success always latched at least one bit
        flipped = frozenset({("viol_addr", 0)})
    return SampleRecord(
        sample=draw(attack_samples()),
        e=e,
        category=draw(st.sampled_from(list(OutcomeCategory))),
        flipped_bits=flipped,
        injection_cycle=draw(st.integers(0, 200)),
        n_pulses_injected=draw(st.integers(0, 8)),
        n_pulses_latched=draw(st.integers(0, 8)),
        analytical=draw(st.booleans()),
    )


@st.composite
def stopping_configs(draw):
    return StoppingConfig(
        mode=draw(st.sampled_from(("fixed", "risk", "ci"))),
        n_samples=draw(st.integers(1, 5000)),
        epsilon=draw(st.floats(0.005, 0.2)),
        delta=draw(st.floats(0.01, 0.3)),
        ci_width=draw(st.floats(0.01, 0.3)),
        z=draw(st.sampled_from((1.64, 1.96, 2.58))),
        min_samples=draw(st.integers(1, 500)),
        max_samples=draw(st.integers(1, 20_000)),
    )


@st.composite
def campaign_specs(draw):
    # The surrogate backend only models single-cycle injections, so the
    # engine draw constrains impact_cycles (mirroring spec validation).
    engine = draw(st.sampled_from(("exact", "surrogate")))
    fidelity = (
        draw(st.sampled_from(("single", "two_stage")))
        if engine == "surrogate"
        else "single"
    )
    impact_cycles = 1 if engine == "surrogate" else draw(st.integers(1, 3))
    return CampaignSpec(
        benchmark=draw(st.sampled_from(("write", "read", "dma"))),
        variant=draw(st.sampled_from(("none", "parity", "dual", "tmr"))),
        sampler=draw(st.sampled_from(("random", "cone", "importance"))),
        window=draw(st.integers(1, 100)),
        subblock_fraction=draw(st.floats(0.01, 1.0)),
        impact_cycles=impact_cycles,
        seed=draw(st.integers(0, 2**31 - 1)),
        chunk_size=draw(st.integers(1, 500)),
        engine=engine,
        fidelity=fidelity,
        calibration=draw(
            st.sampled_from((None, "cal.json", "/tmp/artifacts/cal.json"))
        ),
        trace=draw(st.booleans()),
        batch=draw(st.booleans()),
        stopping=draw(stopping_configs()),
    )


#: Axis-value pools for sweep strategies.  Values are JSON-stable
#: (ints, strings) and always produce valid campaigns against the
#: conservative base drawn in :func:`sweep_specs` (engine stays exact,
#: so impact_cycles/fidelity constraints never bite).
SWEEP_AXIS_POOLS = {
    "variant": ("none", "parity", "dual", "dual+parity", "tmr+parity"),
    "window": tuple(range(10, 61, 10)),
    "seed": tuple(range(1, 9)),
    "chunk_size": (10, 25, 50),
    "sampler": ("random", "cone", "importance"),
    "subblock_fraction": (0.125, 0.25, 0.5),
    "stopping.n_samples": (20, 40, 60, 80),
}


@st.composite
def sweep_axes(draw):
    """1-3 distinct sweep axes, each with 1-3 values from its pool.

    Values may repeat inside an axis (``unique=False``), exercising the
    expansion's duplicate-collapse path.
    """
    names = draw(
        st.lists(
            st.sampled_from(sorted(SWEEP_AXIS_POOLS)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return {
        name: tuple(
            draw(
                st.lists(
                    st.sampled_from(SWEEP_AXIS_POOLS[name]),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        for name in names
    }


@st.composite
def sweep_specs(draw):
    """A valid hardening sweep over a cheap fixed-budget base campaign."""
    from repro.sweep import SweepSpec

    return SweepSpec(
        name="prop-sweep",
        base={
            "benchmark": draw(st.sampled_from(("write", "read"))),
            "sampler": "random",
            "chunk_size": 20,
            "stopping": {"mode": "fixed", "n_samples": 40},
        },
        axes=draw(sweep_axes()),
    )


@st.composite
def seu_patterns(draw):
    """A canonical latched-SEU pattern: a sorted, unique bit set."""
    from repro.surrogate.model import canonical_pattern

    bits = draw(st.lists(register_bits, min_size=1, max_size=5, unique=True))
    return canonical_pattern(bits)


@st.composite
def pattern_cells(draw):
    """A fitted per-(cone, cycle-class) SEU-pattern distribution."""
    from repro.surrogate.model import PatternCell

    cell = PatternCell()
    n_masked = draw(st.integers(0, 20))
    for _ in range(n_masked):
        cell.observe(None)
    for pattern in draw(
        st.lists(seu_patterns(), min_size=0, max_size=6)
    ):
        for _ in range(draw(st.integers(1, 5))):
            cell.observe(pattern)
    return cell


@st.composite
def surrogate_models(draw):
    """A surrogate model over a handful of cone/cycle-class cells."""
    from repro.surrogate.model import SurrogateModel

    model = SurrogateModel(
        cycle_class_width=draw(st.integers(1, 16)),
        min_observations=draw(st.integers(1, 8)),
        fnr=draw(st.floats(0.0, 0.8)),
        n_calibration_samples=draw(st.integers(0, 2000)),
    )
    cones = draw(
        st.lists(
            st.lists(
                st.sampled_from(
                    ("cfg_top0", "cfg_base1", "viol_addr", "acc", "pc")
                ),
                min_size=1,
                max_size=3,
                unique=True,
            ).map(lambda regs: tuple(sorted(regs))),
            min_size=0,
            max_size=4,
            unique=True,
        )
    )
    for cone in cones:
        cycle = draw(st.integers(0, 200))
        cell = draw(pattern_cells())
        if cell.n_observations:
            model.cells[model.cell_key(cone, cycle)] = cell
    return model


@st.composite
def reweighting_problems(draw):
    """A finite discrete support with nominal pmf ``f``, sampling pmf
    ``g`` (positive wherever ``f`` is), and a 0/1 outcome per point."""
    k = draw(st.integers(2, 8))
    f_raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    g_raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    e = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    f = [x / sum(f_raw) for x in f_raw]
    g = [x / sum(g_raw) for x in g_raw]
    return f, g, e
