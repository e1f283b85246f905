"""Bridges: exact persistence, Monte Carlo, return counts, joint local limit."""

import math
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest

from graphseq import engine, oracle
from graphseq.walklab import (
    _mc_shard,
    _walk_grid,
    EXACT_LIMIT,
    End,
    bridge_return_counts,
    end_weight,
    joint_dist,
    llt_density,
    llt_error,
    mc_shard_layout,
    persistence_exact,
    persistence_mc,
    returns_tail,
)


def enumerate_lazy_paths(n):
    """All 3**n lazy step patterns as position sequences, steps ordered -1, 0, +1."""
    for steps in product((-1, 0, 1), repeat=n):
        yield tuple(accumulate(steps))


def flip_last_excursion(positions) -> tuple:
    """Negate the walk after its last visit to zero (before the final step).

    Applied to a walk ending at -1 with non-negative running integrals this
    produces one ending at +1 with non-negative integrals, preserving the
    number of flat steps; the map is injective.
    """
    positions = tuple(positions)
    tau = 0
    for i, y in enumerate(positions[:-1], start=1):
        if y == 0:
            tau = i
    return positions[:tau] + tuple(-y for y in positions[tau:])


# ---------------------------------------------------------------------------
# exact persistence


def test_persistence_two_steps_end_zero():
    # passing paths: flat-flat (weight 4) and up-down (weight 1) of total 6
    assert persistence_exact(2, End.ZERO) == Fraction(5, 6)


def test_persistence_single_step():
    assert persistence_exact(1, End.ZERO) == 1


def test_persistence_end_weights_match_binomials():
    # the DP denominator equals the coupled simple-walk path counts
    for n in range(1, 13):
        flat = {(0, 0): 1}
        for _ in range(n):
            nxt = {}
            for (y, a), w in flat.items():
                for step, mult in ((1, 1), (-1, 1), (0, 2)):
                    y2 = y + step
                    key = (y2, a + y2)
                    nxt[key] = nxt.get(key, 0) + w * mult
            flat = nxt
        end_zero = sum(w for (y, _), w in flat.items() if y == 0)
        end_either = sum(w for (y, _), w in flat.items() if y in (0, -1))
        assert end_zero == end_weight(n, End.ZERO) == math.comb(2 * n, n)
        assert end_either == end_weight(n, End.ZERO_OR_MINUS_ONE) == math.comb(2 * n + 1, n)


def test_unknown_end_is_refused():
    with pytest.raises(ValueError):
        end_weight(3, "bogus")
    with pytest.raises(ValueError):
        _mc_shard(3, 10, "bogus", np.random.SeedSequence(0))


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("end", [End.ZERO, End.ZERO_OR_MINUS_ONE])
def test_persistence_exact_matches_brute_force(n, end):
    # every lazy path weighs 2**(flat steps); the ratio keeps the end condition
    ends = (0,) if end == End.ZERO else (0, -1)
    kept = total = 0
    for pos in enumerate_lazy_paths(n):
        if pos[-1] not in ends:
            continue
        weight = 2 ** sum(1 for a, b in zip((0,) + pos, pos) if a == b)
        total += weight
        area = 0
        for y in pos:
            area += y
            if area < 0:
                break
        else:
            kept += weight
    assert persistence_exact(n, end) == Fraction(kept, total)


@pytest.mark.parametrize("n", range(20, 33))
def test_walk_grid_float_agrees_with_exact(n):
    exact = _walk_grid(n)
    approx = _walk_grid(n, float)
    assert approx.shape == exact.shape
    for (yi, ai), w in np.ndenumerate(exact):
        # the float weights are integers too, so the comparison is exact
        assert abs(int(approx[yi, ai]) - w) * 2**52 <= w


@pytest.mark.parametrize("n", range(1, 15))
def test_end_condition_ratio_bounds(n):
    ratio = persistence_exact(n, End.ZERO_OR_MINUS_ONE) / persistence_exact(n, End.ZERO)
    assert Fraction(1, 2) <= ratio <= 1


@pytest.mark.parametrize("n", range(1, 21))
def test_persistence_exact_equals_engine_counts(n):
    # the cap-free reference F(n, 0, 0) of both parities: (G(n+1) + H(n+1)) / C(2n+1, n)
    kept = sum(oracle.reference_count(n, 0, 0, parity) for parity in (0, 1))
    assert persistence_exact(n, End.ZERO_OR_MINUS_ONE) == Fraction(kept, math.comb(2 * n + 1, n))


def test_persistence_rejects_large_n():
    with pytest.raises(ValueError):
        persistence_exact(EXACT_LIMIT + 1)


@pytest.mark.parametrize("call,message", [
    (lambda: engine.count_graphic(0), "n must be >= 1"),
    (lambda: list(oracle.enumerate_sequences(0)), "n must be >= 1"),
    (lambda: persistence_exact(0), "n must be >= 1"),
    (lambda: persistence_mc(5, 0), "samples must be >= 1"),
    (lambda: joint_dist(0), "n must be >= 1"),
    (lambda: joint_dist(221), "joint law limited to n <= 220"),
], ids=["count_graphic", "enumerate_sequences", "persistence_exact", "persistence_mc",
        "joint_dist-0", "joint_dist-221"])
def test_size_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# Monte Carlo


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 14])
@pytest.mark.parametrize("end", [End.ZERO, End.ZERO_OR_MINUS_ONE])
def test_mc_agrees_with_exact(n, end):
    exact = float(persistence_exact(n, end))
    estimate, stderr = persistence_mc(n, 120_000, end=end, seed=1000 + n)
    assert abs(estimate - exact) <= 3 * stderr + 1e-12


@pytest.mark.parametrize("end, pinned", [(End.ZERO, 0.223613), (End.ZERO_OR_MINUS_ONE, 0.206555)],
                         ids=["zero", "either"])
def test_mc_agrees_with_exact_at_n100(end, pinned):
    # at n = 100 most bridges leave their batch within the first steps
    exact = float(persistence_exact(100, end))
    assert abs(exact - pinned) < 1e-6
    estimate, stderr = persistence_mc(100, 400_000, end=end, seed=100)
    assert abs(estimate - exact) <= 4 * stderr


def test_mc_shard_in_which_every_bridge_dies():
    hits = [_mc_shard(200, 1, End.ZERO, np.random.SeedSequence(s)) for s in range(20)]
    assert set(hits) <= {0, 1}
    assert 0 in hits


# hit counts of the sampler before its state went to two int32 arrays; n = 23170
# is the largest n whose draws and state are int32, 23171 the smallest in int64
@pytest.mark.parametrize("n, samples, end, seed, hits", [
    (2000, 20_000, End.ZERO, 0, 2079), (2000, 20_000, End.ZERO_OR_MINUS_ONE, 1, 2087),
    (23170, 64, End.ZERO, 2, 3), (23170, 64, End.ZERO_OR_MINUS_ONE, 3, 7),
    (23171, 64, End.ZERO, 4, 3), (23171, 64, End.ZERO_OR_MINUS_ONE, 5, 3),
])
def test_mc_shard_pinned_hits(n, samples, end, seed, hits):
    assert _mc_shard(n, samples, end, np.random.SeedSequence(seed)) == hits


def test_mc_reproducible_and_worker_independent():
    a = persistence_mc(50, 90_000, seed=5, batch=20_000, workers=1)
    b = persistence_mc(50, 90_000, seed=5, batch=20_000, workers=2)
    c = persistence_mc(50, 90_000, seed=5, batch=20_000, workers=1)
    assert a == b == c


def test_mc_shard_layout():
    assert mc_shard_layout(10, 4) == [4, 4, 2]
    assert mc_shard_layout(3, 10) == [3]


# ---------------------------------------------------------------------------
# returns to zero


def test_returns_tail_small_values():
    assert returns_tail(2, 2) == Fraction(4, 6)
    for n in (1, 3, 6):
        assert returns_tail(n, 0) == 1
        assert returns_tail(n, 1) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_returns_tail_matches_exhaustive(n):
    counts = bridge_return_counts(n)
    total = math.comb(2 * n, n)
    for k in range(n + 1):
        assert returns_tail(n, k) == Fraction(counts[k], total)
        assert counts[k] == 2**k * math.comb(2 * n - k, n)


def test_returns_tail_monotone_and_lower_bound():
    for n in (3, 7, 12, 30):
        prev = Fraction(1)
        for k in range(n + 1):
            value = returns_tail(n, k)
            assert value <= prev
            assert value >= 1 - Fraction(k * k, 2 * n)
            prev = value


def test_returns_tail_domain():
    with pytest.raises(ValueError):
        returns_tail(4, 5)


# ---------------------------------------------------------------------------
# joint law and local limit


def test_joint_one_step_exact():
    w = _walk_grid(1)  # w[y + 1, a + 1]

    def prob(y, a):
        return Fraction(w[y + 1, a + 1], 4)

    assert prob(0, 0) == Fraction(1, 2)
    assert prob(1, 1) == Fraction(1, 4)
    assert prob(-1, -1) == Fraction(1, 4)
    assert prob(1, 0) == 0


@pytest.mark.parametrize("n", [1, 2, 9, 26])
def test_joint_grid_is_the_exact_law(n):
    # below 2**53 every weight, and so every probability, is a float exactly
    assert np.array_equal(joint_dist(n), _walk_grid(n) / 4**n)


@pytest.mark.parametrize("n", [2, 9, 25, 40, 70])
def test_joint_normalization_and_symmetry(n):
    law = joint_dist(n)
    assert abs(law.sum() - 1.0) <= 1e-12
    assert np.array_equal(law, law[::-1, ::-1])  # exact mirror, bit for bit
    if n <= 32:  # the exact weights, cheap at these lengths
        w = _walk_grid(n)
        assert np.array_equal(w, w[::-1, ::-1])  # (y, a) -> (-y, -a)


def test_llt_density_at_origin():
    assert abs(llt_density(0, 0) - 2 * math.sqrt(3) / math.pi) < 1e-15
    assert abs(llt_density(0, 0) - 1.1027) < 1e-3


def test_llt_error_decreases():
    e25 = llt_error(25)
    e100 = llt_error(100)
    assert e100 < e25
    assert e100 < 0.15


# ---------------------------------------------------------------------------
# flipping the final excursion


def lazy_paths_with_nonneg_areas(n, final):
    for pos in enumerate_lazy_paths(n):
        if pos[-1] != final:
            continue
        area = 0
        good = True
        for y in pos:
            area += y
            if area < 0:
                good = False
                break
        if good:
            yield pos


@pytest.mark.parametrize("n", [3, 5, 7, 10])
def test_flip_map_injective_into_plus_one(n):
    images = set()
    for pos in lazy_paths_with_nonneg_areas(n, -1):
        out = flip_last_excursion(pos)
        assert out[-1] == 1
        area = 0
        for y in out:
            area += y
            assert area >= 0
        # weight preserved: flat steps map to flat steps
        flats = sum(
            1 for a, b in zip((0,) + pos, pos) if a == b
        )
        flats_out = sum(1 for a, b in zip((0,) + out, out) if a == b)
        assert flats == flats_out
        assert out not in images
        images.add(out)
    plus_side = set(lazy_paths_with_nonneg_areas(n, 1))
    assert images <= plus_side


def test_flip_on_sampled_paths():
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(4000):
        steps = rng.choice((-1, 0, 0, 1), size=15)
        pos = tuple(int(v) for v in np.cumsum(steps))
        if pos[-1] != -1:
            continue
        area, ok = 0, True
        for y in pos:
            area += y
            if area < 0:
                ok = False
                break
        if not ok:
            continue
        hits += 1
        out = flip_last_excursion(pos)
        assert out[-1] == 1
        area = 0
        for y in out:
            area += y
            assert area >= 0
        assert flip_last_excursion(out) == pos  # self-inverse on its image
    assert hits > 10
