import pytest

from rcsbench import rng
from rcsbench.errors import InputError

WIDE_SEEDS = (0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)


def first_draw(seed: int) -> float:
    return rng.stream(seed, rng.Stream.CIRCUIT).random()


def test_seeds_across_64_bits_draw_distinct_streams():
    assert len({first_draw(seed) for seed in WIDE_SEEDS}) == len(WIDE_SEEDS)


@pytest.mark.parametrize("seed, draw", [(0, 0.033359525848671634),
                                        (1, 0.7721752418663869),
                                        (2**63 - 1, 0.38318297343682195)])
def test_seeds_below_2_63_keep_their_streams(seed, draw):
    assert first_draw(seed) == draw


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(InputError):
        rng.stream(seed, rng.Stream.CIRCUIT)
