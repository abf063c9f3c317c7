import pytest

from helpers import ReferenceRng
from threadsplit import rng

# Bounds whose rejection limits differ: 1 accepts every output, 2**63 + 1
# rejects nearly half of them, 2**64 takes the raw output.
BOUNDS = (1, 3, 2**63 + 1, 2**64)


def test_splitmix64_reference_vector():
    r = rng.Rng(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


def _draws(r, ops):
    out = []
    for op in ops:
        if op < len(BOUNDS):
            out.append(r.below(BOUNDS[op]))
        elif op == len(BOUNDS):
            out.append(r.chance(0.3))
        else:
            out.append(r.next_u64())
    return out


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -987654321, 1234567])
def test_stream_matches_one_output_at_a_time(seed):
    # Thousands of interleaved calls, in an order drawn from another
    # stream, cross many chunk boundaries at every chunk size: first with
    # every chunk computed, then with every chunk taken from the cache.
    chooser = ReferenceRng(seed ^ 0x5DEECE66D)
    ops = [chooser.below(len(BOUNDS) + 2) for _ in range(6000)]
    expected = _draws(ReferenceRng(seed), ops)
    rng._chunk.cache_clear()
    assert _draws(rng.Rng(seed), ops) == expected
    assert _draws(rng.Rng(seed), ops) == expected


def test_interleaved_generators_of_one_seed_draw_equal_streams():
    # Both copy the same cached chunks; neither may draw from the other's.
    a, b = rng.Rng(0), rng.Rng(0)
    drawn_a, drawn_b = [], []
    for _ in range(100):
        drawn_a += [a.next_u64() for _ in range(7)]
        drawn_b += [b.next_u64() for _ in range(5)]
    ref = ReferenceRng(0)
    assert drawn_a == [ref.next_u64() for _ in range(700)]
    assert drawn_b == drawn_a[:500]


def test_draws_never_change_a_cached_chunk():
    state = 987654321
    before = rng._chunk(state).tolist()
    r = rng.Rng(state)
    drawn = [r.next_u64() for _ in range(3 * len(before))]
    assert drawn[:len(before)] == before[::-1]
    assert rng._chunk(state).tolist() == before


def test_below_two_to_the_64_is_the_raw_output():
    r, ref = rng.Rng(42), ReferenceRng(42)
    assert [r.below(2**64) for _ in range(300)] == [ref.next_u64() for _ in range(300)]


@pytest.mark.parametrize("bound", [0, -3, 2**64 + 1, 2**65])
def test_below_refuses_a_bound_outside_1_to_2_to_the_64(bound):
    # Above 2**64 the rejection limit is 0, so no output would ever be accepted.
    with pytest.raises(ValueError, match="bound must be in"):
        rng.Rng(0).below(bound)
