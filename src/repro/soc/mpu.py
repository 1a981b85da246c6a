"""The memory protection unit — behavioural and gate-level, bit-exact.

This is the security-critical module of the paper's case study (Fig. 1).
Every data-side bus transaction (core or DMA) is checked against up to
``n_regions`` address regions, each with base/top bounds and a 4-bit
permission field ``[3]=EN [2]=PRIV-only [1]=W [0]=R``.  The lowest-numbered
matching enabled region decides; with no match, only privileged accesses
pass (the "background region" is privileged-only, as on ARM MPUs).

Pipeline (both models, identical):

* cycle *c*: a request appears on the inputs and is captured into the
  ``req_*`` registers at the clock edge;
* cycle *c+1*: the check logic evaluates the captured request; the decision
  is captured into the decision registers (``viol_q`` / ``grant_q``, or
  their redundant rails), the sticky flag and the violation address;
* cycle *c+2*: the bus commits or aborts based on the (combined) decision.

The **responding signals** of the pre-characterization are the decision
registers — they are what the rest of the system acts on.

Countermeasure variants (:class:`MpuVariant`) are supported in both models:

* ``cfg_parity`` — every configuration register carries a parity bit
  checked combinationally during the decision; a mismatch forces a
  violation (fail-secure), so single-bit configuration upsets are caught;
* ``redundancy`` — the decision registers are duplicated (``dual``) or
  triplicated (``tmr``); rails are combined fail-secure (any violating
  rail, or disagreeing grant rails, blocks the access).

Base register manifest (the cross-level contract)::

    cfg_base{i}[16], cfg_top{i}[16], cfg_perm{i}[4]    i in 0..n_regions-1
    req_addr[16], req_write[1], req_priv[1], req_valid[1]
    viol_q[1], grant_q[1], sticky_flag[1], viol_addr[16]

plus, per variant, ``cfg_*{i}_par[1]`` parity bits and ``viol_q_b`` /
``grant_q_b`` (and ``_c``) redundant rails.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import SimulationError
from repro.hdl import Module, Wire
from repro.netlist.graph import Netlist
from repro.rtl.device import RegisterSpec
from repro.soc.memmap import MemoryMap, DEFAULT_MEMORY_MAP, MpuRegionInit

# cfg write port field selectors
CFG_FIELD_BASE = 0
CFG_FIELD_TOP = 1
CFG_FIELD_PERM = 2

_CFG_FIELDS = (
    (CFG_FIELD_BASE, "cfg_base", "addr"),
    (CFG_FIELD_TOP, "cfg_top", "addr"),
    (CFG_FIELD_PERM, "cfg_perm", "perm"),
)


@dataclass(frozen=True)
class MpuVariant:
    """Structural countermeasure configuration of the MPU."""

    redundancy: str = "none"  # "none" | "dual" | "tmr"
    cfg_parity: bool = False

    def __post_init__(self) -> None:
        if self.redundancy not in ("none", "dual", "tmr"):
            raise SimulationError(f"unknown redundancy {self.redundancy!r}")

    @property
    def rails(self) -> Tuple[str, ...]:
        """Suffixes of the decision-register rails."""
        if self.redundancy == "dual":
            return ("", "_b")
        if self.redundancy == "tmr":
            return ("", "_b", "_c")
        return ("",)

    @property
    def name(self) -> str:
        parts = [self.redundancy]
        if self.cfg_parity:
            parts.append("parity")
        return "+".join(parts)

    @classmethod
    def parse(cls, text: str) -> "MpuVariant":
        """Parse 'none', 'parity', 'dual', 'dual+parity', 'tmr', 'tmr+parity'."""
        parts = set(text.lower().split("+"))
        parity = "parity" in parts
        parts.discard("parity")
        parts.discard("none")
        if len(parts) > 1:
            # A set has no order: ``pop`` would pick by string hash,
            # so "tmr+dual" would name a different design per process.
            raise SimulationError(
                f"variant {text!r} names more than one redundancy scheme"
            )
        redundancy = parts.pop() if parts else "none"
        return cls(redundancy=redundancy, cfg_parity=parity)


BASELINE_VARIANT = MpuVariant()


@dataclass(frozen=True)
class MpuConfigView:
    """A pure-data snapshot of the MPU region configuration.

    Used by the behavioural model, the gate-level elaboration's reference
    semantics, and the analytical evaluator (Section 5.2 of the paper: the
    outcome for memory-type registers is derived from "the system
    configuration, faulty registers, and benchmarks" without simulation).
    """

    bases: Tuple[int, ...]
    tops: Tuple[int, ...]
    perms: Tuple[int, ...]

    @property
    def n_regions(self) -> int:
        return len(self.bases)

    @classmethod
    def from_registers(cls, registers: Mapping[str, int], n_regions: int) -> "MpuConfigView":
        return cls(
            bases=tuple(registers[f"cfg_base{i}"] for i in range(n_regions)),
            tops=tuple(registers[f"cfg_top{i}"] for i in range(n_regions)),
            perms=tuple(registers[f"cfg_perm{i}"] for i in range(n_regions)),
        )

    @classmethod
    def from_regions(cls, regions: List[MpuRegionInit]) -> "MpuConfigView":
        return cls(
            bases=tuple(r.base for r in regions),
            tops=tuple(r.top for r in regions),
            perms=tuple(r.perm_bits() for r in regions),
        )


def mpu_decision(config: MpuConfigView, addr: int, write: bool, priv: bool) -> bool:
    """The base MPU check function: ``True`` iff the access violates.

    This single pure function defines the region semantics; the behavioural
    model calls it directly and the gate-level netlist is structurally
    equivalent (verified by the equivalence tests).
    """
    for i in range(config.n_regions):
        perm = config.perms[i]
        enabled = (perm >> 3) & 1
        if not enabled:
            continue
        if not config.bases[i] <= addr <= config.tops[i]:
            continue
        # First (lowest-index) matching enabled region decides.
        priv_only = (perm >> 2) & 1
        allowed = ((perm >> 1) & 1) if write else (perm & 1)
        if priv_only and not priv:
            allowed = 0
        return not bool(allowed)
    # Background: only privileged accesses allowed.
    return not priv


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


#: Bound of the memos below.  Each is keyed on the register values its
#: result is a function of, so no entry can go stale after a write,
#: ``set_registers`` or checkpoint restore; the bound only caps memory.
_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _decode_config(values: tuple, n_regions: int) -> Optional[MpuConfigView]:
    """The configuration held in configuration register ``values``.

    ``values`` lists every base, then every top, then every perm, and
    with parity protection one parity bit per value in the same order.
    None when a parity bit disagrees: every access then violates.
    """
    n = 3 * n_regions
    for value, parity in zip(values[:n], values[n:]):
        if _parity(value) != (parity & 1):
            return None
    return MpuConfigView(
        bases=values[:n_regions],
        tops=values[n_regions:2 * n_regions],
        perms=values[2 * n_regions:n],
    )


class MpuSemantics:
    """Variant-aware check semantics over a register-state dictionary.

    The one place that knows how configuration state (including parity
    bits) maps to an access decision.  Used by the behavioural model and
    the analytical evaluator so both always agree.

    The configuration changes far more rarely than it is checked, so its
    decode is memoized on the values of the configuration registers.
    """

    def __init__(self, memmap: MemoryMap = DEFAULT_MEMORY_MAP,
                 variant: MpuVariant = BASELINE_VARIANT):
        self.memmap = memmap
        self.variant = variant
        names = tuple(
            f"{prefix}{i}"
            for _sel, prefix, _kind in _CFG_FIELDS
            for i in range(memmap.n_mpu_regions)
        )
        if variant.cfg_parity:
            names += tuple(f"{name}_par" for name in names)
        self._config_values = operator.itemgetter(*names)

    def _decode(self, registers: Mapping[str, int]) -> Optional[MpuConfigView]:
        return _decode_config(
            self._config_values(registers), self.memmap.n_mpu_regions
        )

    def parity_error(self, registers: Mapping[str, int]) -> bool:
        return self.variant.cfg_parity and self._decode(registers) is None

    def violates(
        self, registers: Mapping[str, int], addr: int, write: bool, priv: bool
    ) -> bool:
        """Full decision, including the fail-secure parity check."""
        config = self._decode(registers)
        if config is None:
            return True
        return mpu_decision(config, addr, write, priv)


@dataclass
class MpuInputs:
    """One cycle of stimulus to the MPU block."""

    in_addr: int = 0
    in_write: int = 0
    in_priv: int = 0
    in_valid: int = 0
    cfg_we: int = 0
    cfg_index: int = 0
    cfg_field: int = 0
    cfg_wdata: int = 0
    flag_clear: int = 0

    def as_port_dict(self) -> Dict[str, int]:
        return {
            "in_addr": self.in_addr,
            "in_write": self.in_write,
            "in_priv": self.in_priv,
            "in_valid": self.in_valid,
            "cfg_we": self.cfg_we,
            "cfg_index": self.cfg_index,
            "cfg_field": self.cfg_field,
            "cfg_wdata": self.cfg_wdata,
            "flag_clear": self.flag_clear,
        }


@dataclass(frozen=True)
class MpuOutputs:
    """Registered (Moore) outputs visible to the bus and core.

    For redundant variants these are the *combined* rails: any violating
    rail (or disagreeing grant rails) reads as a violation, and a grant
    needs every rail to agree.
    """

    grant_q: int
    viol_q: int
    sticky_flag: int
    viol_addr: int


def combine_decision_rails(
    viols: List[int], grants: List[int]
) -> Tuple[int, int]:
    """(viol, grant) from redundant decision rails, fail-secure."""
    n = len(viols)
    if n == 1:
        viol = viols[0]
        grant = grants[0]
    elif n == 2:
        viol = viols[0] | viols[1] | (grants[0] ^ grants[1])
        grant = grants[0] & grants[1] & ~(viols[0] | viols[1]) & 1
    else:  # TMR majority
        viol = _majority(viols)
        grant = _majority(grants) & ~_majority(viols) & 1
    return viol & 1, grant & 1


def _majority(bits: List[int]) -> int:
    a, b, c = bits
    return (a & b) | (b & c) | (a & c)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _mpu_outputs(values: tuple) -> MpuOutputs:
    """Outputs from (viol rails..., grant rails..., sticky_flag, viol_addr)."""
    n = (len(values) - 2) // 2
    viol, grant = combine_decision_rails(list(values[:n]), list(values[n:2 * n]))
    return MpuOutputs(
        grant_q=grant, viol_q=viol, sticky_flag=values[-2], viol_addr=values[-1]
    )


def mpu_register_specs(
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
    variant: MpuVariant = BASELINE_VARIANT,
) -> Dict[str, RegisterSpec]:
    """The shared register manifest."""
    specs: Dict[str, RegisterSpec] = {}
    for i in range(memmap.n_mpu_regions):
        specs[f"cfg_base{i}"] = RegisterSpec(memmap.addr_bits)
        specs[f"cfg_top{i}"] = RegisterSpec(memmap.addr_bits)
        specs[f"cfg_perm{i}"] = RegisterSpec(4)
        if variant.cfg_parity:
            specs[f"cfg_base{i}_par"] = RegisterSpec(1)
            specs[f"cfg_top{i}_par"] = RegisterSpec(1)
            specs[f"cfg_perm{i}_par"] = RegisterSpec(1)
    specs["req_addr"] = RegisterSpec(memmap.addr_bits)
    specs["req_write"] = RegisterSpec(1)
    specs["req_priv"] = RegisterSpec(1)
    specs["req_valid"] = RegisterSpec(1)
    for rail in variant.rails:
        specs[f"viol_q{rail}"] = RegisterSpec(1)
        specs[f"grant_q{rail}"] = RegisterSpec(1)
    specs["sticky_flag"] = RegisterSpec(1)
    specs["viol_addr"] = RegisterSpec(memmap.addr_bits)
    return specs


class MpuBehavioral:
    """Fast word-level model of the MPU block.

    Bit-exact with the elaborated netlist of :func:`build_mpu_netlist` for
    every variant — the equivalence tests drive both with identical
    stimulus and compare every register every cycle.

    The register names, widths and write-port targets are tabulated once
    per instance, and the Moore outputs are memoized on the register
    values they are a function of.  The access check runs only when a
    captured request is valid (its result is discarded otherwise), and
    its configuration decode is memoized by :class:`MpuSemantics`.
    """

    def __init__(
        self,
        memmap: MemoryMap = DEFAULT_MEMORY_MAP,
        variant: MpuVariant = BASELINE_VARIANT,
    ):
        self.memmap = memmap
        self.variant = variant
        self.semantics = MpuSemantics(memmap, variant)
        self._specs = mpu_register_specs(memmap, variant)
        rails = variant.rails
        self._rails = tuple((f"viol_q{r}", f"grant_q{r}") for r in rails)
        self._output_values = operator.itemgetter(
            *(f"viol_q{r}" for r in rails),
            *(f"grant_q{r}" for r in rails),
            "sticky_flag",
            "viol_addr",
        )
        # The configuration write port in next-state build order (each
        # value register followed by its parity bit), and its targets.
        cfg_names: List[str] = []
        self._cfg_targets: Dict[Tuple[int, int], Tuple[str, Optional[str], int]] = {}
        for i in range(memmap.n_mpu_regions):
            for field_sel, prefix, kind in _CFG_FIELDS:
                name = f"{prefix}{i}"
                parity_name = f"{name}_par" if variant.cfg_parity else None
                width = memmap.addr_bits if kind == "addr" else 4
                cfg_names.append(name)
                if parity_name is not None:
                    cfg_names.append(parity_name)
                self._cfg_targets[(i, field_sel)] = (
                    name, parity_name, (1 << width) - 1
                )
        self._cfg_names = tuple(cfg_names)
        self._cfg_values = operator.itemgetter(*self._cfg_names)
        self.regs: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.regs = {name: spec.init for name, spec in self._specs.items()}

    def register_specs(self) -> Dict[str, RegisterSpec]:
        return dict(self._specs)

    def config_view(self) -> MpuConfigView:
        return MpuConfigView.from_registers(self.regs, self.memmap.n_mpu_regions)

    def outputs(self) -> MpuOutputs:
        """Moore outputs: functions of the current registers only."""
        return _mpu_outputs(self._output_values(self.regs))

    def check_violation(self) -> bool:
        """Combinational check of the *captured* request (cycle c+1 logic)."""
        return self.semantics.violates(
            self.regs,
            self.regs["req_addr"],
            bool(self.regs["req_write"]),
            bool(self.regs["req_priv"]),
        )

    def step(self, inputs: MpuInputs) -> None:
        """One clock edge: compute all next-state values, then commit."""
        regs = self.regs
        violation = bool(regs["req_valid"]) and self.check_violation()

        # Request capture: hold address/attributes when no new request so
        # the check logic sees a stable operand (matches the netlist muxes).
        if inputs.in_valid:
            nxt: Dict[str, int] = {
                "req_addr": inputs.in_addr & self.memmap.addr_mask,
                "req_write": inputs.in_write & 1,
                "req_priv": inputs.in_priv & 1,
            }
        else:
            nxt = {
                "req_addr": regs["req_addr"],
                "req_write": regs["req_write"],
                "req_priv": regs["req_priv"],
            }
        nxt["req_valid"] = inputs.in_valid & 1

        viol = 1 if violation else 0
        grant = 1 if (regs["req_valid"] and not violation) else 0
        for viol_name, grant_name in self._rails:
            nxt[viol_name] = viol
            nxt[grant_name] = grant
        # The sticky status flag follows the *registered* decision: it is a
        # read-back of what the system acted on, one cycle later.
        sticky = regs["sticky_flag"] | self.outputs().viol_q
        nxt["sticky_flag"] = 0 if inputs.flag_clear else sticky
        nxt["viol_addr"] = regs["req_addr"] if violation else regs["viol_addr"]

        # Configuration write port.
        nxt.update(zip(self._cfg_names, self._cfg_values(regs)))
        if inputs.cfg_we:
            target = self._cfg_targets.get((inputs.cfg_index, inputs.cfg_field))
            if target is not None:
                name, parity_name, mask = target
                value = inputs.cfg_wdata & mask
                nxt[name] = value
                if parity_name is not None:
                    nxt[parity_name] = _parity(value)

        self.regs = nxt

    # ------------------------------------------------------------------
    # state exchange (cross-level contract)
    # ------------------------------------------------------------------
    def get_registers(self) -> Dict[str, int]:
        return dict(self.regs)

    def set_registers(self, values: Mapping[str, int]) -> None:
        for name, value in values.items():
            if name not in self._specs:
                raise SimulationError(f"unknown MPU register {name!r}")
            self.regs[name] = value & self._specs[name].mask


@dataclass(frozen=True)
class MpuLockstep:
    """Golden MPU tables for stepping a faulty MPU beside the golden run.

    The MPU reaches the core, bus and DMA only through its outputs.  So
    while a faulty MPU's outputs equal golden's, every other register
    and the RAM stay golden, and so do the MPU's inputs: the faulty MPU
    can step alone on golden's inputs.  :meth:`steps` does that until
    the first cycle whose outputs differ, the *escape* cycle, from which
    the caller runs the whole SoC.

    Fast-forward: a *stable run* is a maximal stretch of cycles over
    which golden's input is one object and golden's MPU registers do
    not change.  When a step inside one leaves the faulty registers
    unchanged too, every later step of the run repeats it: the same
    registers on the same input, against the same golden outputs and
    registers.  :meth:`steps` then jumps to the run's end.  It reads no
    MPU semantics, only object identity and equal register tuples.

    The tables are tuples, so one instance serves any number of callers
    and threads; each caller steps its own :class:`MpuBehavioral`.
    """

    #: Register names: the order of every register tuple.
    names: Tuple[str, ...]
    #: Golden inputs of each cycle; equal inputs are one object.
    inputs: Tuple[MpuInputs, ...]
    #: Golden registers at the start of each cycle, and after the last;
    #: equal ones are one object.
    states: Tuple[tuple, ...]
    #: Golden outputs at the start of each cycle, and after the last.
    outputs: Tuple[MpuOutputs, ...]
    #: Per cycle: the end of its stable run, or the next cycle.
    run_ends: Tuple[int, ...]

    @classmethod
    def from_trace(
        cls,
        trace: Sequence,
        final_registers: Mapping[str, int],
        memmap: MemoryMap = DEFAULT_MEMORY_MAP,
        variant: MpuVariant = BASELINE_VARIANT,
    ) -> "MpuLockstep":
        """Tables of a golden run.

        ``trace`` holds one entry per cycle from cycle 0, each with the
        MPU's port values (``inputs``) and registers (``state``) of that
        cycle, as :class:`~repro.soc.soc.MpuTraceEntry` does;
        ``final_registers`` holds the registers after the last cycle.
        """
        model = MpuBehavioral(memmap, variant)
        names = tuple(model.register_specs())
        state_of = operator.itemgetter(*names)
        interned_inputs: Dict[tuple, MpuInputs] = {}
        inputs = tuple(
            interned_inputs.setdefault(
                tuple(entry.inputs.values()), MpuInputs(**entry.inputs)
            )
            for entry in trace
        )
        interned_states: Dict[tuple, tuple] = {}
        registers = [entry.state for entry in trace] + [final_registers]
        states = tuple(
            interned_states.setdefault(state, state)
            for state in map(state_of, registers)
        )
        outputs = []
        for state in states:
            model.regs = dict(zip(names, state))
            outputs.append(model.outputs())
        n = len(inputs)
        # A cycle is fixed when golden's step leaves its registers as is.
        fixed = [states[cycle + 1] == states[cycle] for cycle in range(n)]
        run_ends = list(range(1, n + 1))
        for cycle in reversed(range(n - 1)):
            if (
                fixed[cycle]
                and fixed[cycle + 1]
                and inputs[cycle + 1] is inputs[cycle]
            ):
                run_ends[cycle] = run_ends[cycle + 1]
        return cls(names, inputs, states, tuple(outputs), tuple(run_ends))

    def steps(
        self, mpu: MpuBehavioral, cycle: int, stop: int
    ) -> Iterator[Tuple[int, tuple]]:
        """Step ``mpu`` on golden's inputs from ``cycle`` toward ``stop``.

        Before each step, ``mpu``'s outputs are compared with golden's.
        The first cycle where they differ ends the iteration without a
        step: it is the escape cycle, and ``mpu`` holds its registers
        there.  After each step this yields the cycle reached and
        ``mpu``'s registers there as a tuple in :attr:`names` order; a
        fast-forward yields once, at the run's end (at most ``stop``).
        """
        inputs, outputs, run_ends = self.inputs, self.outputs, self.run_ends
        state_of = operator.itemgetter(*self.names)
        values = state_of(mpu.regs)
        while cycle < stop:
            # Outputs are memoized, so equal ones are usually one object.
            faulty = mpu.outputs()
            if faulty is not outputs[cycle] and faulty != outputs[cycle]:
                return
            mpu.step(inputs[cycle])
            stepped = state_of(mpu.regs)
            if stepped == values:
                cycle = min(run_ends[cycle], stop)
            else:
                cycle += 1
                values = stepped
            yield cycle, values

    def run(self, mpu: MpuBehavioral, cycle: int, stop: int) -> int:
        """:meth:`steps` to the end: the escape cycle, or ``stop``."""
        for cycle, _values in self.steps(mpu, cycle, stop):
            pass
        return cycle


def build_mpu_netlist(
    memmap: MemoryMap = DEFAULT_MEMORY_MAP,
    variant: MpuVariant = BASELINE_VARIANT,
) -> Netlist:
    """Elaborate the MPU block into a gate-level netlist.

    Structure mirrors :class:`MpuBehavioral` exactly: same registers, same
    capture/check pipeline, same configuration write port, same
    countermeasure structures.
    """
    m = Module(f"mpu_{variant.name}")
    abits = memmap.addr_bits
    n = memmap.n_mpu_regions

    in_addr = m.input("in_addr", abits)
    in_write = m.input("in_write", 1)
    in_priv = m.input("in_priv", 1)
    in_valid = m.input("in_valid", 1)
    cfg_we = m.input("cfg_we", 1)
    cfg_index = m.input("cfg_index", 3)
    cfg_field = m.input("cfg_field", 2)
    cfg_wdata = m.input("cfg_wdata", abits)
    flag_clear = m.input("flag_clear", 1)

    cfg_base = [m.register(f"cfg_base{i}", abits) for i in range(n)]
    cfg_top = [m.register(f"cfg_top{i}", abits) for i in range(n)]
    cfg_perm = [m.register(f"cfg_perm{i}", 4) for i in range(n)]
    parity_regs: Dict[str, Wire] = {}
    if variant.cfg_parity:
        for i in range(n):
            for _sel, prefix, _kind in _CFG_FIELDS:
                name = f"{prefix}{i}_par"
                parity_regs[name] = m.register(name, 1)
    req_addr = m.register("req_addr", abits)
    req_write = m.register("req_write", 1)
    req_priv = m.register("req_priv", 1)
    req_valid = m.register("req_valid", 1)
    viol_rails = [m.register(f"viol_q{r}", 1) for r in variant.rails]
    grant_rails = [m.register(f"grant_q{r}", 1) for r in variant.rails]
    sticky_flag = m.register("sticky_flag", 1)
    viol_addr = m.register("viol_addr", abits)

    # ------------------------------------------------------------------
    # check logic on the captured request
    # ------------------------------------------------------------------
    matches: List[Wire] = []
    allowed_terms: List[Wire] = []
    for i in range(n):
        enabled = cfg_perm[i][3]
        ge_base = req_addr.ge(cfg_base[i])
        le_top = req_addr.le(cfg_top[i])
        match = enabled & ge_base & le_top
        matches.append(match)
        read_ok = cfg_perm[i][0]
        write_ok = cfg_perm[i][1]
        priv_only = cfg_perm[i][2]
        rw_ok = req_write.mux(write_ok, read_ok)
        priv_ok = ~priv_only | req_priv
        allowed_terms.append(rw_ok & priv_ok)

    grants = m.priority_encode(matches)  # one-hot: first matching region
    selected_allowed = m.one_hot_select(grants, allowed_terms)
    any_match = matches[0]
    for match in matches[1:]:
        any_match = any_match | match
    background_ok = req_priv  # no region matched: privileged-only
    access_ok = any_match.mux(selected_allowed, background_ok)

    base_violation = ~access_ok
    if variant.cfg_parity:
        parity_err: Optional[Wire] = None
        for i in range(n):
            for _sel, prefix, kind in _CFG_FIELDS:
                value = {"cfg_base": cfg_base, "cfg_top": cfg_top,
                         "cfg_perm": cfg_perm}[prefix][i]
                err = _xor_reduce(value) ^ parity_regs[f"{prefix}{i}_par"]
                parity_err = err if parity_err is None else (parity_err | err)
        base_violation = base_violation | parity_err
    violation = base_violation & req_valid

    # ------------------------------------------------------------------
    # next-state
    # ------------------------------------------------------------------
    m.connect(req_addr, in_valid.mux(in_addr, req_addr))
    m.connect(req_write, in_valid.mux(in_write, req_write))
    m.connect(req_priv, in_valid.mux(in_priv, req_priv))
    m.connect(req_valid, in_valid)
    for rail_viol, rail_grant in zip(viol_rails, grant_rails):
        m.connect(rail_viol, violation)
        m.connect(rail_grant, req_valid & ~violation)

    viol_eff, grant_eff = _combine_rails_hw(m, viol_rails, grant_rails)
    m.connect(sticky_flag, flag_clear.mux(m.const(0, 1), sticky_flag | viol_eff))
    m.connect(viol_addr, violation.mux(req_addr, viol_addr))

    for i in range(n):
        index_hit = cfg_index.eq(i)
        we = cfg_we & index_hit
        base_we = we & cfg_field.eq(CFG_FIELD_BASE)
        top_we = we & cfg_field.eq(CFG_FIELD_TOP)
        perm_we = we & cfg_field.eq(CFG_FIELD_PERM)
        m.connect(cfg_base[i], base_we.mux(cfg_wdata, cfg_base[i]))
        m.connect(cfg_top[i], top_we.mux(cfg_wdata, cfg_top[i]))
        m.connect(cfg_perm[i], perm_we.mux(cfg_wdata.trunc(4), cfg_perm[i]))
        if variant.cfg_parity:
            for we_wire, prefix, data in (
                (base_we, "cfg_base", cfg_wdata),
                (top_we, "cfg_top", cfg_wdata),
                (perm_we, "cfg_perm", cfg_wdata.trunc(4)),
            ):
                par_reg = parity_regs[f"{prefix}{i}_par"]
                m.connect(par_reg, we_wire.mux(_xor_reduce(data), par_reg))

    m.output("grant_q", grant_eff)
    m.output("viol_q", viol_eff)
    m.output("sticky_flag", sticky_flag)
    m.output("viol_addr", viol_addr)
    # Expose the combinational decision nets as named outputs so the
    # pre-characterization can address them as responding signals.
    m.output("violation_comb", violation)
    m.output("access_ok_comb", access_ok)

    return m.finalize()


def _xor_reduce(wire: Wire) -> Wire:
    out = wire[0]
    for i in range(1, wire.width):
        out = out ^ wire[i]
    return out


def _combine_rails_hw(
    m: Module, viols: List[Wire], grants: List[Wire]
) -> Tuple[Wire, Wire]:
    """Hardware mirror of :func:`combine_decision_rails`."""
    if len(viols) == 1:
        return viols[0], grants[0]
    if len(viols) == 2:
        viol = viols[0] | viols[1] | (grants[0] ^ grants[1])
        grant = grants[0] & grants[1] & ~(viols[0] | viols[1])
        return viol, grant
    viol = _maj_hw(viols)
    grant = _maj_hw(grants) & ~viol
    return viol, grant


def _maj_hw(bits: List[Wire]) -> Wire:
    a, b, c = bits
    return (a & b) | (b & c) | (a & c)


def default_responding_signals(netlist: Netlist) -> List[int]:
    """Node ids of the responding signals in the elaborated MPU.

    Per the paper: the signals that notify the rest of the system of a
    security violation — the registered decision bits (all rails, for
    redundant variants).
    """
    out = []
    for name in netlist.registers:
        if name.startswith("viol_q") or name.startswith("grant_q"):
            out.append(netlist.register_dff(name, 0).nid)
    return sorted(out)
