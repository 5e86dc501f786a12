"""Random circuits: cycles of single-qubit gates plus patterned two-qubit
layers, and the patch/elided verification variants.

A circuit is an immutable value.  `standard_circuit` is the one
constructor, a pure function of (topology, cycle count, sequence kind, seed,
gate parameters): per cycle, each active qubit draws uniformly from
{sqrt_x, sqrt_y, sqrt_w}, by default excluding the gate it received in the
previous cycle; the two-qubit layer applies the iSWAP-like gate on every
enabled coupler of the cycle's pattern, with one shared parameter set per
coupler.  A layer's two-qubit gates form a matching, checked when its
`Cycle` is made.  The patch and elided variants drop the two-qubit gates that
join two parts of a partition (`grid_parts`) from every cycle or from all
but the last few, through one filter, and store the parts (format v2 of the
circuit document).  A patch's state is a product over its parts, and a patch
of a patch stores the common refinement of the old and the new parts.
`Circuit.gates` is the one gate order: gate k is the simulator's site k,
the tensor network's ``g{k}``, and the cut census and calibration read it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import rng
from .errors import InputError, json_object, reading
from .gates import GATE_KINDS, DEFAULT_FSIM, FsimParams, SingleQubitGate
from .topology import (
    GridTopology,
    pattern_sequence,
    restrict,
    topology_from_dict,
    topology_to_dict,
)

CIRCUIT_FORMAT = "rcsbench.circuit.v2"

ParamMap = dict[tuple[int, int], FsimParams]


@dataclass(frozen=True)
class Cycle:
    """One circuit cycle: a full single-qubit layer, then one two-qubit layer.

    ``single`` is aligned with ``Circuit.qubits``; ``two_qubit`` holds
    (a, b, params) with a < b linear indices and forms a matching, checked
    here: two gates that share a qubit raise `InputError`.
    """

    pattern: str
    single: tuple[SingleQubitGate, ...]
    two_qubit: tuple[tuple[int, int, FsimParams], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for q in (q for a, b, _ in self.two_qubit for q in (a, b)):
            if q in seen:
                raise InputError(f"qubit {q} is in two two-qubit gates of one layer")
            seen.add(q)


@dataclass(frozen=True)
class Circuit:
    topology: GridTopology
    qubits: tuple[int, ...]
    cycles: tuple[Cycle, ...]
    seed: int
    kind: str
    variant: str = "full"
    parts: tuple[tuple[int, ...], ...] | None = None
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

    def gates(self) -> list[tuple[int, tuple[int, ...], SingleQubitGate | FsimParams]]:
        """Every gate as (cycle, qubits, gate), in site order: per cycle the
        single-qubit gates in qubit order, then the two-qubit gates, whose
        ``qubits`` (circuit qubit ids) are their coupler key."""
        out = []
        for c, cyc in enumerate(self.cycles):
            out.extend((c, (q,), g) for q, g in zip(self.qubits, cyc.single))
            out.extend((c, (a, b), p) for a, b, p in cyc.two_qubit)
        return out

    def coupler_params(self) -> ParamMap:
        """Current parameters per coupler (first occurrence wins)."""
        out: ParamMap = {}
        for _, qubits, gate in self.gates():
            if len(qubits) == 2:
                out.setdefault(qubits, gate)
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


def check_parts(qubits, parts) -> tuple[tuple[int, ...], ...]:
    """``parts`` as sorted qubit tuples ordered by their lowest qubit, after
    checking that they cover ``qubits`` exactly once in two or more
    non-empty parts."""
    parts = tuple(sorted(tuple(sorted(int(q) for q in part)) for part in parts))
    if len(parts) < 2 or not all(parts):
        raise InputError("a partition needs two or more non-empty parts")
    if sorted(q for part in parts for q in part) != sorted(qubits):
        raise InputError("parts must cover the active qubits exactly once")
    return parts


def part_of(parts) -> dict[int, int]:
    """The index of each qubit's part."""
    return {q: i for i, part in enumerate(parts) for q in part}


def _drop_cross_gates(circuit: Circuit, parts, n_cut: int,
                      variant: str, keep_last: int | None) -> Circuit:
    """The circuit with every two-qubit gate that joins two parts removed
    from its first ``n_cut`` cycles."""
    parts = check_parts(circuit.qubits, parts)
    label = part_of(parts)
    cycles = tuple(
        c if i >= n_cut else replace(c, two_qubit=tuple(
            g for g in c.two_qubit if label[g[0]] == label[g[1]]
        ))
        for i, c in enumerate(circuit.cycles)
    )
    if variant == "patch" and circuit.variant == "patch" and circuit.parts:
        cells = (set(a) & set(b) for a in circuit.parts for b in parts)
        parts = check_parts(circuit.qubits, [cell for cell in cells if cell])
    return replace(circuit, cycles=cycles, variant=variant, parts=parts,
                   keep_last=keep_last)


def make_patch(circuit: Circuit, parts) -> Circuit:
    """Remove every two-qubit gate joining two parts; single-qubit layers
    are unchanged.  A patch of a patch stores the common refinement of the
    old and new parts."""
    return _drop_cross_gates(circuit, parts, circuit.n_cycles, "patch", None)


def make_elided(circuit: Circuit, parts, keep_last: int) -> Circuit:
    """Remove the two-qubit gates joining two parts in all but the final
    ``keep_last`` cycles."""
    if not 0 <= keep_last <= circuit.n_cycles:
        raise InputError(
            f"keep_last must be in [0, {circuit.n_cycles}], got {keep_last}")
    return _drop_cross_gates(circuit, parts, circuit.n_cycles - keep_last,
                             "elided", keep_last)


def default_elide_keep_last(n_cycles: int) -> int:
    """Shipped default: keep cross gates in the last 6 cycles of circuits
    with at least 12 cycles, else in the last half (rounded up)."""
    return 6 if n_cycles >= 12 else (n_cycles + 1) // 2


def grid_parts(circuit: Circuit, row_cuts=(), col_cuts=()) -> tuple[tuple[int, ...], ...]:
    """The active qubits grouped into row-band by column-band parts, in
    row-major order; a cut at ``k`` starts a new band at row or column
    ``k``.  Every part must hold an active qubit."""
    topo = circuit.topology
    for name, cuts, size in (("row", row_cuts, topo.rows), ("column", col_cuts, topo.cols)):
        bounds = [0, *cuts, size]
        if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
            raise InputError(f"{name} cuts {list(cuts)} not increasing inside 1..{size - 1}")
    members: dict[tuple[int, int], list[int]] = {}
    for q in circuit.qubits:
        r, c = divmod(q, topo.cols)
        band = (sum(r >= k for k in row_cuts), sum(c >= k for k in col_cuts))
        members.setdefault(band, []).append(q)
    if len(members) != (len(row_cuts) + 1) * (len(col_cuts) + 1):
        raise InputError("a grid part holds no active qubit")
    return tuple(tuple(members[band]) for band in sorted(members))


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
        "parts": [list(p) for p in circuit.parts] if circuit.parts else None,
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
    if json_object(doc, "a circuit document").get("format") != CIRCUIT_FORMAT:
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
    variant = doc.get("variant", "full")
    parts = check_parts(qubits, doc["parts"]) if doc.get("parts") else None
    label = part_of(parts or (qubits,))
    if variant == "patch" and any(label[a] != label[b] for c in cycles
                                  for a, b, _ in c.two_qubit):
        raise InputError("a patch has a two-qubit gate that joins two parts")
    return Circuit(
        topology=topo,
        qubits=qubits,
        cycles=tuple(cycles),
        seed=int(doc["seed"]),
        kind=doc["kind"],
        variant=variant,
        parts=parts,
        keep_last=doc.get("keep_last"),
    )


def save_circuit(path: str, circuit: Circuit) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_circuit(path: str) -> Circuit:
    with open(path) as fh:
        doc = json.load(fh)
    with reading(f"circuit file {path}"):
        return circuit_from_dict(doc)
