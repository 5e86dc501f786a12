"""Measured-bitstring sets and their on-disk format.

Bit order: qubit 0 is the most significant bit of the bitstring text, so the
stored word equals the state-vector index of the outcome.  On disk a sample
set is a flat array of fixed-width 64-bit little-endian words (one word per
sample, valid for up to 64 qubits) plus a JSON sidecar at ``<path>.json``
holding n_qubits, sample count, seed and producer metadata.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import InputError, json_object, reading

SAMPLES_FORMAT = "rcsbench.samples.v1"


@dataclass
class SampleSet:
    n_qubits: int
    words: np.ndarray  # uint64, one word per sample
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.words = np.asarray(self.words, dtype=np.uint64)
        if self.n_qubits < 1 or self.n_qubits > 64:
            raise InputError(f"unsupported qubit count: {self.n_qubits}")
        if self.words.size and int(self.words.max()) >> self.n_qubits:
            raise InputError("sample word exceeds the bitstring width")

    @property
    def n_samples(self) -> int:
        return int(self.words.size)

    def bits(self) -> np.ndarray:
        """(n_samples, n_qubits) 0/1 array, qubit 0 in column 0 (MSB first)."""
        shifts = np.arange(self.n_qubits - 1, -1, -1, dtype=np.uint64)
        return ((self.words[:, None] >> shifts[None, :]) & 1).astype(np.uint8)

    def bitstrings(self) -> list[str]:
        return [format(int(w), f"0{self.n_qubits}b") for w in self.words]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of SampleSet.bits()."""
    n = bits.shape[1]
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    return (bits.astype(np.uint64) << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def select_bits(samples: SampleSet, positions) -> SampleSet:
    """Narrower sample set holding only the given bit positions (in order)."""
    positions = list(positions)
    if any(p < 0 or p >= samples.n_qubits for p in positions):
        raise InputError(f"bit positions outside 0..{samples.n_qubits - 1}")
    bits = samples.bits()[:, positions]
    return SampleSet(len(positions), pack_bits(bits), meta=dict(samples.meta))


def sidecar_path(path: str) -> str:
    return path + ".json"


def save_samples(path: str, samples: SampleSet, meta: dict | None = None) -> None:
    samples.words.astype("<u8").tofile(path)
    doc = {
        "format": SAMPLES_FORMAT,
        "rng": rng.RNG_ALGORITHM,
        "bit_order": "q0-most-significant",
        "n_qubits": samples.n_qubits,
        "n_samples": samples.n_samples,
    }
    doc.update(samples.meta)
    if meta:
        doc.update(meta)
    with open(sidecar_path(path), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_samples(path: str) -> SampleSet:
    with open(sidecar_path(path)) as fh:
        doc = json_object(json.load(fh), "a samples sidecar")
    if doc.get("format") != SAMPLES_FORMAT:
        raise InputError(f"not a samples sidecar: format={doc.get('format')!r}")
    words = np.fromfile(path, dtype="<u8")
    with reading(f"samples sidecar {sidecar_path(path)}"):
        if words.size != doc["n_samples"]:
            raise InputError(
                f"sample file holds {words.size} words, sidecar says {doc['n_samples']}")
        meta = {k: v for k, v in doc.items()
                if k not in ("format", "n_qubits", "n_samples")}
        return SampleSet(n_qubits=doc["n_qubits"], words=words, meta=meta)
