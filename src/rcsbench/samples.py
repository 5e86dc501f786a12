"""Measured-bitstring sets and their on-disk format.

Bit order: qubit 0 is the most significant bit of the bitstring text, so the
stored word equals the state-vector index of the outcome.  On disk a sample
set is a flat array of fixed-width 64-bit little-endian words (one word per
sample, valid for up to 64 qubits) plus a JSON sidecar at ``<path>.json``
holding n_qubits, sample count, seed and producer metadata.

A sample file is read ``_CHUNK_WORDS`` words at a time.  `read_sidecar`, the
one sidecar parser, checks the format, the bit width and the file's size
against the sample count before any word is read; `word_chunks` then checks
every chunk against the width (`check_words`, the one width check, which
`SampleSet` applies too).  `load_samples` keeps every word.  Calibration
keeps only a training file's histogram, which it counts while reading
(`calibration.load_histogram`), so a training set of any size costs one
chunk beyond its 2^n counts.  `select_bits` gathers bits by shifts and
masks on the words, a chunk at a time.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import InputError, json_object, reading

SAMPLES_FORMAT = "rcsbench.samples.v1"

# Words read, or gathered, per pass of the chunked word paths: their
# temporaries are a few arrays of this many words, whatever the sample count.
_CHUNK_WORDS = 1 << 16


def _check_width(n_qubits) -> int:
    """``n_qubits`` as an int, if it is a width of 1 to 64 bits."""
    if not (isinstance(n_qubits, (int, np.integer)) and 1 <= n_qubits <= 64):
        raise InputError(f"unsupported qubit count: {n_qubits!r}")
    return int(n_qubits)


def check_words(words: np.ndarray, n_qubits: int, first: int = 0) -> None:
    """Raise `InputError` unless ``n_qubits`` is a width of 1 to 64 bits that
    every word fits; a word that does not is named by its index, counted
    from ``first``."""
    n_qubits = _check_width(n_qubits)
    if n_qubits < 64 and words.size and int(words.max()) >> n_qubits:
        k = int(np.argmax(words >> np.uint64(n_qubits)))
        raise InputError(f"sample word {first + k} exceeds the {n_qubits}-bit width")


@dataclass
class SampleSet:
    n_qubits: int
    words: np.ndarray  # uint64, one word per sample
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.words = np.asarray(self.words, dtype=np.uint64)
        check_words(self.words, self.n_qubits)

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
    """Inverse of SampleSet.bits(): the word of each row of an (n, k) array
    of 0/1 or bools, k <= 64, column 0 most significant."""
    n, k = bits.shape
    width = (k + 7) // 8
    packed = np.zeros((n, 8), dtype=np.uint8)
    packed[:, 8 - width:] = np.packbits(bits, axis=1)
    return packed.view(">u8")[:, 0] >> np.uint64(8 * width - k)


def select_bits(samples: SampleSet, positions) -> SampleSet:
    """Narrower sample set holding only the given bit positions (in order).

    Each run of consecutive positions is one shift, mask and shift of the
    words, applied ``_CHUNK_WORDS`` words at a time."""
    positions = list(positions)
    n, m = samples.n_qubits, len(positions)
    if any(p < 0 or p >= n for p in positions):
        raise InputError(f"bit positions outside 0..{n - 1}")
    runs = []  # (right shift of the input, mask, left shift into the output)
    end = 0
    for i in range(1, m + 1):
        if i == m or positions[i] != positions[i - 1] + 1:
            runs.append((np.uint64(n - 1 - positions[i - 1]),
                         np.uint64((1 << (i - end)) - 1), np.uint64(m - i)))
            end = i
    words = np.zeros(samples.n_samples, dtype=np.uint64)
    part = np.empty(min(_CHUNK_WORDS, samples.n_samples), dtype=np.uint64)
    for start in range(0, samples.n_samples, _CHUNK_WORDS):
        src = samples.words[start:start + _CHUNK_WORDS]
        dst, tmp = words[start:start + _CHUNK_WORDS], part[:src.size]
        for right, mask, left in runs:
            np.right_shift(src, right, out=tmp)
            np.bitwise_and(tmp, mask, out=tmp)
            np.left_shift(tmp, left, out=tmp)
            np.bitwise_or(dst, tmp, out=dst)
    return SampleSet(m, words, meta=dict(samples.meta))


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


def read_sidecar(path: str, n_qubits: int | None = None) -> dict:
    """The sidecar of the sample file ``path``, checked before any word is
    read: its format, its bit width (which must be ``n_qubits`` if given),
    and its sample count against the size of ``path``."""
    where = f"samples sidecar {sidecar_path(path)}"
    with open(sidecar_path(path)) as fh:
        doc = json_object(json.load(fh), where)
    with reading(where):
        if doc.get("format") != SAMPLES_FORMAT:
            raise InputError(f"not a samples sidecar: format={doc.get('format')!r}")
        width, count = _check_width(doc["n_qubits"]), doc["n_samples"]
        if not (isinstance(count, int) and count >= 0):
            raise InputError(f"bad sample count {count!r}")
    if n_qubits is not None and width != n_qubits:
        raise InputError(f"sample file {path} holds {width}-bit samples, "
                         f"not {n_qubits}-bit ones")
    size = os.stat(path).st_size
    if size != 8 * count:
        raise InputError(f"sample file {path} holds {size} bytes, but its sidecar "
                         f"says {count} words ({8 * count} bytes)")
    return doc


def word_chunks(path: str, doc: dict):
    """The words of the sample file ``path``, whose sidecar ``doc`` came
    from `read_sidecar`, in chunks of at most ``_CHUNK_WORDS`` words, each
    checked against the bit width.  Every chunk is read into one buffer, so
    it lasts until the next is read."""
    n_qubits, count = doc["n_qubits"], doc["n_samples"]
    buf = np.empty(min(_CHUNK_WORDS, count), dtype="<u8")
    with open(path, "rb") as fh:
        for start in range(0, count, _CHUNK_WORDS):
            chunk = buf[:min(_CHUNK_WORDS, count - start)]
            if fh.readinto(chunk) != chunk.nbytes:
                raise InputError(f"sample file {path} ends before word {start + chunk.size}")
            with reading(f"sample file {path}"):
                check_words(chunk, n_qubits, start)
            yield chunk


def load_samples(path: str) -> SampleSet:
    doc = read_sidecar(path)
    words = np.empty(doc["n_samples"], dtype=np.uint64)
    start = 0
    for chunk in word_chunks(path, doc):
        words[start:start + chunk.size] = chunk
        start += chunk.size
    meta = {k: v for k, v in doc.items() if k not in ("format", "n_qubits", "n_samples")}
    return SampleSet(n_qubits=doc["n_qubits"], words=words, meta=meta)
