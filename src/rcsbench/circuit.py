"""Random circuits: cycles of single-qubit gates plus patterned two-qubit
layers, and the patch/elided verification variants.

A circuit is an immutable value.  `standard_circuit` is the one
constructor, a pure function of (topology, cycle count, sequence kind, seed,
gate parameters): per cycle, each active qubit draws uniformly from
{sqrt_x, sqrt_y, sqrt_w}, by default excluding the gate it received in the
previous cycle; the two-qubit layer applies the iSWAP-like gate on every
enabled coupler of the cycle's pattern, with one shared parameter set per
coupler.  The patch and elided variants drop the two-qubit gates that cross
a bipartition (`grid_bipartition`) from every cycle or from all but the last
few, through one filter.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import rng
from .errors import InputError
from .gates import GATE_KINDS, DEFAULT_FSIM, FsimParams, SingleQubitGate
from .topology import (
    GridTopology,
    pattern_sequence,
    restrict,
    topology_from_dict,
    topology_to_dict,
)

CIRCUIT_FORMAT = "rcsbench.circuit.v1"

ParamMap = dict[tuple[int, int], FsimParams]


@dataclass(frozen=True)
class Cycle:
    """One circuit cycle: a full single-qubit layer, then one two-qubit layer.

    ``single`` is aligned with ``Circuit.qubits``; ``two_qubit`` holds
    (a, b, params) with a < b linear indices.
    """

    pattern: str
    single: tuple[SingleQubitGate, ...]
    two_qubit: tuple[tuple[int, int, FsimParams], ...]


@dataclass(frozen=True)
class Circuit:
    topology: GridTopology
    qubits: tuple[int, ...]
    cycles: tuple[Cycle, ...]
    seed: int
    kind: str
    variant: str = "full"
    bipartition: tuple[int, ...] | None = None
    keep_last: int | None = None

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def n_single_gates(self) -> int:
        return sum(len(c.single) for c in self.cycles)

    @property
    def n_two_qubit_gates(self) -> int:
        return sum(len(c.two_qubit) for c in self.cycles)

    def coupler_params(self) -> ParamMap:
        """Current parameters per coupler (first occurrence wins)."""
        out: ParamMap = {}
        for cyc in self.cycles:
            for a, b, p in cyc.two_qubit:
                out.setdefault((a, b), p)
        return out


def standard_circuit(
    topology: GridTopology,
    n_cycles: int,
    seed: int,
    params: ParamMap | FsimParams | None = None,
    kind: str = "standard",
    no_repeat: bool = True,
) -> Circuit:
    """Deterministic random circuit of ``n_cycles`` cycles on the ``kind``
    pattern sequence (see `pattern_sequence`) for (topology, seed).

    ``params`` maps each enabled-coupler key (a, b) to its gate parameters;
    a single FsimParams applies to every coupler; None uses the default.
    With ``no_repeat`` a qubit never draws the same gate in two consecutive
    cycles (draws are then uniform over the two remaining kinds).
    """
    seq = pattern_sequence(n_cycles, kind)
    qubits = topology.qubits_sorted
    if not qubits:
        raise InputError("topology has no active qubits")

    enabled = {c.key: c for c in topology.enabled_couplers}
    if params is None:
        params = DEFAULT_FSIM
    if isinstance(params, FsimParams):
        params = {key: params for key in enabled}
    missing = sorted(set(enabled) - set(params))
    if missing:
        raise InputError(f"missing gate parameters for couplers: {missing[:8]}")

    by_pattern: dict[str, list[tuple[int, int, FsimParams]]] = {}
    for key, c in sorted(enabled.items()):
        if c.pattern is None:
            raise InputError(f"coupler {key} has no pattern label")
        by_pattern.setdefault(c.pattern, []).append((key[0], key[1], params[key]))

    gen = rng.stream(seed, rng.Stream.CIRCUIT)
    prev: dict[int, SingleQubitGate] = {}
    cycles = []
    for label in seq:
        single = []
        for q in qubits:
            choices = [g for g in GATE_KINDS if not (no_repeat and prev.get(q) == g)]
            gate = choices[int(gen.integers(0, len(choices)))]
            prev[q] = gate
            single.append(gate)
        cycles.append(Cycle(
            pattern=label,
            single=tuple(single),
            two_qubit=tuple(by_pattern.get(label, ())),
        ))
    return Circuit(
        topology=topology,
        qubits=qubits,
        cycles=tuple(cycles),
        seed=seed,
        kind=kind,
    )


def _normalize_bipartition(circuit: Circuit, bipartition) -> frozenset[int]:
    """Validate an (A, B) qubit-set pair; return the side holding the lowest
    active qubit (the canonical side stored on the circuit)."""
    side_a, side_b = (frozenset(int(q) for q in s) for s in bipartition)
    active = set(circuit.qubits)
    if side_a & side_b:
        raise InputError("bipartition sides overlap")
    if side_a | side_b != active:
        raise InputError("bipartition does not cover the active qubits")
    if not side_a or not side_b:
        raise InputError("bipartition has an empty side")
    return side_a if min(active) in side_a else side_b


def _drop_cross_gates(circuit: Circuit, bipartition, n_cut: int,
                      variant: str, keep_last: int | None) -> Circuit:
    """The circuit with every two-qubit gate that crosses the bipartition
    removed from its first ``n_cut`` cycles."""
    side = _normalize_bipartition(circuit, bipartition)
    cycles = tuple(
        c if i >= n_cut else replace(c, two_qubit=tuple(
            g for g in c.two_qubit if (g[0] in side) == (g[1] in side)
        ))
        for i, c in enumerate(circuit.cycles)
    )
    return replace(circuit, cycles=cycles, variant=variant,
                   bipartition=tuple(sorted(side)), keep_last=keep_last)


def make_patch(circuit: Circuit, bipartition) -> Circuit:
    """Remove every two-qubit gate crossing the bipartition; single-qubit
    layers are unchanged."""
    return _drop_cross_gates(circuit, bipartition, circuit.n_cycles, "patch", None)


def make_elided(circuit: Circuit, bipartition, keep_last: int) -> Circuit:
    """Remove cross-partition two-qubit gates in all but the final
    ``keep_last`` cycles."""
    if not 0 <= keep_last <= circuit.n_cycles:
        raise InputError(
            f"keep_last must be in [0, {circuit.n_cycles}], got {keep_last}")
    return _drop_cross_gates(circuit, bipartition, circuit.n_cycles - keep_last,
                             "elided", keep_last)


def default_elide_keep_last(n_cycles: int) -> int:
    """Shipped default: keep cross gates in the last 6 cycles of circuits
    with at least 12 cycles, else in the last half (rounded up)."""
    return 6 if n_cycles >= 12 else (n_cycles + 1) // 2


def grid_bipartition(circuit: Circuit, split: str, at: int | None = None):
    """Split the active qubits by column (``col``) or by row (``row``): side
    A holds the qubits before line ``at`` (default: the middle line)."""
    cols = circuit.topology.cols
    if split == "col":
        name, size, line = "column", cols, (lambda q: q % cols)
    elif split == "row":
        name, size, line = "row", circuit.topology.rows, (lambda q: q // cols)
    else:
        raise InputError(f"unknown split {split!r}; want col or row")
    boundary = size // 2 if at is None else at
    if not 0 < boundary < size:
        raise InputError(f"{name} boundary {boundary} outside 1..{size - 1}")
    side_a = frozenset(q for q in circuit.qubits if line(q) < boundary)
    return side_a, frozenset(circuit.qubits) - side_a


def column_bipartition(circuit: Circuit, at: int | None = None):
    """Split active qubits by column: side A has col < at (default middle)."""
    return grid_bipartition(circuit, "col", at)


def with_coupler_params(circuit: Circuit, params: ParamMap) -> Circuit:
    """Replace gate parameters on the given couplers in every cycle."""
    cycles = tuple(
        replace(c, two_qubit=tuple(
            (a, b, params.get((a, b), p)) for a, b, p in c.two_qubit
        ))
        for c in circuit.cycles
    )
    return replace(circuit, cycles=cycles)


def extract_subcircuit(circuit: Circuit, keep) -> Circuit:
    """Standalone circuit on a qubit subset: internal two-qubit gates only,
    single-qubit gates restricted to the kept qubits."""
    keep_set = frozenset(int(q) for q in keep)
    if not keep_set <= set(circuit.qubits):
        raise InputError("subset contains inactive qubits")
    sub_topo = restrict(circuit.topology, keep_set)
    qubits = tuple(sorted(keep_set))
    pos = {q: i for i, q in enumerate(circuit.qubits)}
    cycles = tuple(
        Cycle(
            pattern=c.pattern,
            single=tuple(c.single[pos[q]] for q in qubits),
            two_qubit=tuple(
                g for g in c.two_qubit if g[0] in keep_set and g[1] in keep_set
            ),
        )
        for c in circuit.cycles
    )
    return Circuit(
        topology=sub_topo,
        qubits=qubits,
        cycles=cycles,
        seed=circuit.seed,
        kind=circuit.kind,
        variant=circuit.variant,
    )


def circuit_to_dict(circuit: Circuit) -> dict:
    return {
        "format": CIRCUIT_FORMAT,
        "rng": rng.RNG_ALGORITHM,
        "n_qubits": circuit.n_qubits,
        "cycles": circuit.n_cycles,
        "seed": circuit.seed,
        "kind": circuit.kind,
        "variant": circuit.variant,
        "bipartition": list(circuit.bipartition) if circuit.bipartition else None,
        "keep_last": circuit.keep_last,
        "topology": topology_to_dict(circuit.topology),
        "layers": [
            {
                "pattern": c.pattern,
                "single": {str(q): g.value for q, g in zip(circuit.qubits, c.single)},
                "two_qubit": [
                    {"a": a, "b": b, "params": list(p.as_tuple())}
                    for a, b, p in c.two_qubit
                ],
            }
            for c in circuit.cycles
        ],
    }


def circuit_from_dict(doc: dict) -> Circuit:
    if doc.get("format") != CIRCUIT_FORMAT:
        raise InputError(f"not a circuit document: format={doc.get('format')!r}")
    topo = topology_from_dict(doc["topology"])
    qubits = topo.qubits_sorted
    cycles = []
    for layer in doc["layers"]:
        single = tuple(SingleQubitGate(layer["single"][str(q)]) for q in qubits)
        two_qubit = tuple(
            (int(e["a"]), int(e["b"]), FsimParams.from_tuple(e["params"]))
            for e in layer["two_qubit"]
        )
        cycles.append(Cycle(layer["pattern"], single, two_qubit))
    bip = doc.get("bipartition")
    return Circuit(
        topology=topo,
        qubits=qubits,
        cycles=tuple(cycles),
        seed=int(doc["seed"]),
        kind=doc["kind"],
        variant=doc.get("variant", "full"),
        bipartition=tuple(bip) if bip else None,
        keep_last=doc.get("keep_last"),
    )


def save_circuit(path: str, circuit: Circuit) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_circuit(path: str) -> Circuit:
    with open(path) as fh:
        return circuit_from_dict(json.load(fh))
