"""Save/load of pre-characterization results.

The paper stresses the pre-characterization "only needs to be conducted
once"; this module makes that concrete by serializing a
:class:`~repro.precharac.characterization.SystemCharacterization` to JSON
so later sessions (or other machines) skip the campaign.

The switching-signature *bodies* are not stored — only the derived
correlations, which is all the samplers consume.  A fingerprint of the
netlist (node count, register manifest, responding signals) guards against
loading a characterization into a different design.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Optional, Union

from repro.errors import CharacterizationError
from repro.netlist.cones import UnrolledCones
from repro.netlist.graph import Netlist
from repro.precharac.characterization import (
    CharacterizationConfig,
    SystemCharacterization,
)
from repro.precharac.lifetime import LifetimeCampaign, RegisterCharacter
from repro.precharac.signatures import SignatureAnalysis
from repro.utils.durable import atomic_write

FORMAT_VERSION = 1


def _fingerprint(netlist: Netlist, responding) -> Dict[str, object]:
    return {
        "n_nodes": len(netlist),
        "registers": netlist.register_widths(),
        "responding": sorted(int(r) for r in responding),
    }


def save_characterization(
    characterization: SystemCharacterization,
    path: Union[str, pathlib.Path],
) -> None:
    """Serialize to a JSON file (atomically replaced)."""
    cones = characterization.cones
    payload = {
        "version": FORMAT_VERSION,
        "fingerprint": _fingerprint(
            characterization.netlist, characterization.responding
        ),
        "config": {
            "max_frame": characterization.config.max_frame,
            "max_fanout_frame": characterization.config.max_fanout_frame,
            "lifetime_horizon": characterization.config.lifetime_horizon,
            "lifetime_trials": characterization.config.lifetime_trials,
            "memory_lifetime_frac": characterization.config.memory_lifetime_frac,
            "memory_contamination_max": characterization.config.memory_contamination_max,
            "seed": characterization.config.seed,
        },
        "cones": {
            "responding": cones.responding,
            "fanin": {str(d): sorted(nodes) for d, nodes in cones.fanin.items()},
            "fanout": {str(d): sorted(nodes) for d, nodes in cones.fanout.items()},
        },
        "correlations": [
            [nid, frame, value]
            for (nid, frame), value in
            characterization.signatures.correlations.items()
        ],
        "n_cycles": characterization.signatures.n_cycles,
        "lifetime": {
            "horizon": characterization.lifetime.horizon,
            "results": [
                {
                    "register": char.register,
                    "bit": char.bit,
                    "lifetime": char.lifetime,
                    "contamination": char.contamination,
                    "ever_masked": char.ever_masked,
                    "trials": char.trials,
                }
                for char in characterization.lifetime.results.values()
            ],
        },
        "node_lifetime": {
            str(nid): value
            for nid, value in characterization.node_lifetime.items()
            if value > 0.0
        },
        "memory_type": sorted(list(b) for b in characterization.memory_type),
        "computation_type": sorted(
            list(b) for b in characterization.computation_type
        ),
    }
    atomic_write(path, json.dumps(payload))


def load_characterization(
    path: Union[str, pathlib.Path],
    netlist: Netlist,
    data: Optional[bytes] = None,
) -> SystemCharacterization:
    """Deserialize; ``netlist`` must match the stored fingerprint.

    ``data`` is the file's content when the caller has read it already
    (the design memo parses the bytes it keyed on).
    """
    try:
        payload = json.loads(
            data if data is not None else pathlib.Path(path).read_text()
        )
    except (OSError, json.JSONDecodeError) as exc:
        raise CharacterizationError(f"cannot load characterization: {exc}") from exc
    if payload.get("version") != FORMAT_VERSION:
        raise CharacterizationError(
            f"unsupported characterization format {payload.get('version')!r}"
        )

    responding = tuple(payload["fingerprint"]["responding"])
    expected = _fingerprint(netlist, responding)
    stored = payload["fingerprint"]
    if (
        stored["n_nodes"] != expected["n_nodes"]
        or stored["registers"] != expected["registers"]
    ):
        raise CharacterizationError(
            "characterization was produced for a different netlist"
        )

    config = CharacterizationConfig(**payload["config"])
    cones = UnrolledCones(responding=payload["cones"]["responding"])
    for d, nodes in payload["cones"]["fanin"].items():
        cones.fanin[int(d)] = set(nodes)
    for d, nodes in payload["cones"]["fanout"].items():
        cones.fanout[int(d)] = set(nodes)

    signatures = SignatureAnalysis(
        n_cycles=payload["n_cycles"],
        signatures={},
        correlations={
            (int(nid), int(frame)): float(value)
            for nid, frame, value in payload["correlations"]
        },
    )

    campaign = LifetimeCampaign(horizon=payload["lifetime"]["horizon"])
    for item in payload["lifetime"]["results"]:
        char = RegisterCharacter(**item)
        campaign.results[(char.register, char.bit)] = char

    node_lifetime = {n.nid: 0.0 for n in netlist.nodes}
    for nid, value in payload["node_lifetime"].items():
        node_lifetime[int(nid)] = float(value)

    return SystemCharacterization(
        netlist=netlist,
        responding=responding,
        cones=cones,
        signatures=signatures,
        lifetime=campaign,
        node_lifetime=node_lifetime,
        memory_type={(reg, bit) for reg, bit in payload["memory_type"]},
        computation_type={
            (reg, bit) for reg, bit in payload["computation_type"]
        },
        config=config,
    )
