import numpy as np
import pytest

import rcsbench as rb
from rcsbench.errors import InputError
from rcsbench.samples import SampleSet, pack_bits, select_bits


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

    def test_size_mismatch_detected(self, tmp_path):
        ss = SampleSet(4, np.array([1, 2, 3], dtype=np.uint64))
        path = str(tmp_path / "s.bin")
        rb.save_samples(path, ss)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(InputError):
            rb.load_samples(path)
