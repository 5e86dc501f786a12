"""Rectangular qubit lattice, nearest-neighbor couplers, and activation patterns.

Qubits sit on a ``rows x cols`` grid and are addressed by the linear index
``row * cols + col``.  Enabled couplers are exactly the nearest-neighbor pairs
of active qubits minus any broken pairs.  Every enabled coupler carries one of
four pattern labels A-D; a pattern is the set of couplers activated together
in one two-qubit layer, so each label must form a matching (no qubit touched
twice).

Label rule (diagonal striping, valid on any grid size): a vertical coupler
with upper endpoint ``(r, c)`` gets A when ``r + c`` is even, else B; a
horizontal coupler with left endpoint ``(r, c)`` gets C when ``r + c`` is
even, else D.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

from .errors import InputError, json_object, reading

PATTERN_LABELS = ("A", "B", "C", "D")

# One period of the standard two-qubit layer schedule, and the fixed
# 22-cycle schedule used by the deep variant.
STANDARD_PERIOD = ("A", "B", "C", "D", "C", "D", "A", "B")
DEEP22_SEQUENCE = STANDARD_PERIOD * 2 + ("A", "B", "C", "D") + ("C", "B")

TOPOLOGY_FORMAT = "rcsbench.topology.v1"


@dataclass(frozen=True)
class Coupler:
    """A nearest-neighbor pair of linear qubit indices, ``a < b``, and its
    pattern label.  Only `build_grid` makes couplers, from checked pairs."""

    a: int
    b: int
    pattern: str | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class GridTopology:
    """Active qubits (linear indices) and enabled couplers, sorted by key, of
    a rectangular lattice.

    Immutable after construction; safe to share across threads.
    """

    rows: int
    cols: int
    active: frozenset[int]
    enabled_couplers: tuple[Coupler, ...]
    broken: frozenset[tuple[int, int]]

    @property
    def excluded(self) -> frozenset[int]:
        """The lattice sites that are not active."""
        return frozenset(range(self.rows * self.cols)) - self.active

    @property
    def qubits_sorted(self) -> tuple[int, ...]:
        """Active qubit linear indices in ascending order."""
        return tuple(sorted(self.active))

    def pattern_couplers(self, label: str) -> tuple[Coupler, ...]:
        return tuple(c for c in self.enabled_couplers if c.pattern == label)


def build_grid(
    rows: int,
    cols: int,
    excluded: tuple[int, ...] | frozenset[int] = (),
    broken: tuple[tuple[int, int], ...] | frozenset[tuple[int, int]] = (),
) -> GridTopology:
    """Build the topology whose enabled couplers are the nearest-neighbor
    pairs of active qubits minus the broken pairs.  Patterns are unassigned.

    ``excluded`` holds linear indices; ``broken`` holds (a, b) linear pairs.
    """
    if rows < 1 or cols < 1:
        raise InputError(f"grid must be at least 1x1, got {rows}x{cols}")
    n_sites = rows * cols

    excluded_set = frozenset(int(q) for q in excluded)
    for q in excluded_set:
        if not 0 <= q < n_sites:
            raise InputError(f"excluded qubit {q} outside {rows}x{cols} lattice")

    broken_set = set()
    for pair in broken:
        a, b = sorted(int(q) for q in pair)
        for q in (a, b):
            if not 0 <= q < n_sites:
                raise InputError(f"broken-coupler qubit {q} outside lattice")
        (ra, ca), (rb, cb) = divmod(a, cols), divmod(b, cols)
        if abs(ra - rb) + abs(ca - cb) != 1:
            raise InputError(f"broken pair ({a}, {b}) is not nearest-neighbor")
        broken_set.add((a, b))

    active = frozenset(range(n_sites)) - excluded_set
    # per qubit, its right then its lower neighbour: sorted by key
    couplers = tuple(
        Coupler(q, nb) for q in sorted(active)
        for nb, on_grid in ((q + 1, (q + 1) % cols != 0), (q + cols, q + cols < n_sites))
        if on_grid and nb in active and (q, nb) not in broken_set)
    return GridTopology(rows, cols, active, couplers, frozenset(broken_set))


def assign_patterns(topology: GridTopology) -> GridTopology:
    """Label every enabled coupler with A/B/C/D via the diagonal parity rule.

    Vertical couplers split between A and B by the parity of row + col of the
    upper endpoint; horizontal couplers split between C and D by the parity of
    row + col of the left endpoint.  Each label forms a matching because two
    same-orientation couplers sharing a qubit always differ in that parity.
    """
    if any(c.pattern is not None for c in topology.enabled_couplers):
        raise InputError("patterns already assigned")

    def label(c: Coupler) -> str:
        parity = sum(divmod(c.a, topology.cols)) % 2
        return ("AB" if c.b - c.a == topology.cols else "CD")[parity]

    out = replace(topology, enabled_couplers=tuple(
        replace(c, pattern=label(c)) for c in topology.enabled_couplers))
    _check_matchings(out)
    return out


def _check_matchings(topology: GridTopology) -> None:
    for label in PATTERN_LABELS:
        seen: set[int] = set()
        for c in topology.pattern_couplers(label):
            for q in (c.a, c.b):
                if q in seen:
                    raise InputError(f"pattern {label} is not a matching at qubit {q}")
                seen.add(q)


def pattern_sequence(n_cycles: int, kind: str = "standard") -> tuple[str, ...]:
    """Pattern labels for each cycle.

    ``standard`` repeats the 8-cycle period; ``deep22`` is the fixed 22-cycle
    schedule and rejects any other cycle count.
    """
    if kind == "standard":
        if n_cycles < 1:
            raise InputError(f"need at least one cycle, got {n_cycles}")
        return tuple(itertools.islice(itertools.cycle(STANDARD_PERIOD), n_cycles))
    if kind == "deep22":
        if n_cycles != 22:
            raise InputError(f"deep22 requires exactly 22 cycles, got {n_cycles}")
        return DEEP22_SEQUENCE
    raise InputError(f"unknown sequence kind: {kind!r}")


def restrict(topology: GridTopology, keep: frozenset[int] | tuple[int, ...]) -> GridTopology:
    """Sub-topology on ``keep``: internal couplers only, labels preserved.

    Qubits outside ``keep`` become excluded.
    """
    keep_set = {int(q) for q in keep}
    active = topology.active & keep_set
    if not active:
        raise InputError("restriction removes every active qubit")
    couplers = tuple(c for c in topology.enabled_couplers
                     if c.a in active and c.b in active)
    broken = frozenset(p for p in topology.broken if p[0] in keep_set and p[1] in keep_set)
    return GridTopology(topology.rows, topology.cols, active, couplers, broken)


def sixty_qubit_grid() -> GridTopology:
    """The shipped 60-of-66 selection: 11x6 lattice, six excluded qubits and
    one disabled coupler, leaving 60 active qubits and 99 enabled couplers."""
    topo = build_grid(11, 6, excluded=(0, 2, 5, 30, 60, 63), broken=((15, 21),))
    return assign_patterns(topo)


def topology_to_dict(topology: GridTopology) -> dict:
    """Canonical JSON document; couplers sorted by (a, b)."""
    return {
        "format": TOPOLOGY_FORMAT,
        "rows": topology.rows,
        "cols": topology.cols,
        "excluded": sorted(topology.excluded),
        "broken": sorted(list(p) for p in topology.broken),
        "couplers": [
            {"a": c.a, "b": c.b, "pattern": c.pattern}
            for c in sorted(topology.enabled_couplers, key=lambda c: c.key)
        ],
    }


def topology_from_dict(doc: dict) -> GridTopology:
    if json_object(doc, "a topology document").get("format") != TOPOLOGY_FORMAT:
        raise InputError(f"not a topology document: format={doc.get('format')!r}")
    topo = build_grid(
        doc["rows"],
        doc["cols"],
        excluded=tuple(doc.get("excluded", ())),
        broken=tuple(tuple(p) for p in doc.get("broken", ())),
    )
    labels = {(e["a"], e["b"]): e["pattern"] for e in doc.get("couplers", ())}
    if not labels or all(v is None for v in labels.values()):
        return topo
    expected = {c.key for c in topo.enabled_couplers}
    if set(labels) != expected:
        raise InputError("coupler list does not match lattice/excluded/broken fields")
    out = replace(topo, enabled_couplers=tuple(
        replace(c, pattern=labels[c.key]) for c in topo.enabled_couplers))
    _check_matchings(out)
    return out


def load_topology(path: str) -> GridTopology:
    with open(path) as fh:
        doc = json.load(fh)
    with reading(f"topology file {path}"):
        return topology_from_dict(doc)
