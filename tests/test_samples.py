import numpy as np
import pytest

import rcsbench as rb
from rcsbench import samples
from rcsbench.calibration import histogram, load_histogram
from rcsbench.errors import InputError
from rcsbench.samples import SampleSet, pack_bits, select_bits

from oracles import select_bits_by_columns


def random_words(n_qubits: int, n_words: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << n_qubits, n_words, dtype=np.uint64)


class TestSampleSet:
    def test_bit_order_q0_most_significant(self):
        ss = SampleSet(2, np.array([2], dtype=np.uint64))
        assert ss.bitstrings() == ["10"]
        assert ss.bits().tolist() == [[1, 0]]

    def test_pack_unpack_round_trip(self):
        gen = np.random.default_rng(3)
        words = gen.integers(0, 1 << 9, 100, dtype=np.uint64)
        ss = SampleSet(9, words)
        assert np.array_equal(pack_bits(ss.bits()), words)

    def test_select_bits(self):
        ss = SampleSet(4, np.array([0b1010, 0b0110], dtype=np.uint64))
        sub = select_bits(ss, [0, 3])
        assert sub.bitstrings() == ["10", "00"]

    def test_rejects_wide_words(self):
        with pytest.raises(InputError):
            SampleSet(2, np.array([4], dtype=np.uint64))


class TestSelectBits:
    @pytest.mark.parametrize("n_qubits", [1, 20, 60, 64])
    def test_matches_the_columns_of_the_bits_matrix(self, n_qubits):
        # one chunk and three words more; runs, single bits, a reversed
        # stretch and a repeat
        gen = np.random.default_rng(n_qubits)
        ss = SampleSet(n_qubits, random_words(n_qubits, samples._CHUNK_WORDS + 3, 1))
        head = list(range(n_qubits // 2, n_qubits))
        positions = (head + [0] + gen.permutation(n_qubits)[:n_qubits // 4].tolist()
                     + head[::-1][:4])[:64]
        sub = select_bits(ss, positions)
        assert sub.n_qubits == len(positions)
        assert np.array_equal(sub.words, select_bits_by_columns(ss, positions))

    def test_rejects_positions_outside_the_width(self):
        ss = SampleSet(4, np.array([1], dtype=np.uint64))
        for bad in ([4], [-1], [0, 4]):
            with pytest.raises(InputError):
                select_bits(ss, bad)


class TestHistogram:
    def test_file_and_in_memory_histograms_are_exact_counts(self, tmp_path):
        # two chunks and a part
        words = random_words(9, 2 * samples._CHUNK_WORDS + 11, 5)
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, SampleSet(9, words))
        counts = load_histogram(path, 9)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(words.astype(np.int64), minlength=512))
        assert np.array_equal(histogram(rb.load_samples(path)), counts)

    def test_empty_file_counts_nothing(self, tmp_path):
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, SampleSet(3, np.zeros(0, dtype=np.uint64)))
        assert not load_histogram(path, 3).any()
        assert rb.load_samples(path).n_samples == 0


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(4)
        ss = SampleSet(12, gen.integers(0, 1 << 12, 500, dtype=np.uint64),
                       meta={"model": "ideal", "seed": 5})
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, ss)
        back = rb.load_samples(path)
        assert back.n_qubits == 12
        assert np.array_equal(back.words, ss.words)
        assert back.meta["model"] == "ideal"

    def test_binary_is_little_endian_words(self, tmp_path):
        ss = SampleSet(12, np.array([1, 258], dtype=np.uint64))
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, ss)
        raw = (tmp_path / "s.bin").read_bytes()
        assert len(raw) == 16
        assert raw[:8] == (1).to_bytes(8, "little")
        assert raw[8:16] == (258).to_bytes(8, "little")

    def test_round_trip_across_chunks(self, tmp_path):
        words = random_words(64, samples._CHUNK_WORDS + 5, 6)
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, SampleSet(64, words))
        assert np.array_equal(rb.load_samples(path).words, words)

    def test_wide_word_in_a_later_chunk_named(self, tmp_path):
        words = random_words(7, 2 * samples._CHUNK_WORDS, 7)
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, SampleSet(7, words))
        words[samples._CHUNK_WORDS + 1] = 1 << 7
        words.astype("<u8").tofile(path)
        for read in (rb.load_samples, lambda p: load_histogram(p, 7)):
            with pytest.raises(InputError, match=f"word {samples._CHUNK_WORDS + 1} "):
                read(path)

    def test_size_mismatch_detected(self, tmp_path):
        ss = SampleSet(4, np.array([1, 2, 3], dtype=np.uint64))
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, ss)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(InputError):
            rb.load_samples(path)
