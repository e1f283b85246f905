"""Ground-truth oracles: enumeration, graphicality, walk mapping, ballots."""

import math
from fractions import Fraction
from itertools import accumulate, permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphseq import oracle
from graphseq.oracle import (
    ballot_count,
    brute_counts,
    brute_counts_naive,
    double_factorial_odd,
    enumerate_sequences,
    havel_hakimi,
    is_graphic,
    is_sum_distinct,
    random_sum_distinct_vector,
    to_walk,
)


def degree_sequences(max_n=9):
    """Hypothesis strategy for valid non-increasing bounded sequences."""
    def build(draw):
        n = draw(st.integers(1, max_n))
        seq = []
        bound = n - 1
        for _ in range(n):
            v = draw(st.integers(0, bound))
            seq.append(v)
            bound = v
        return tuple(seq)

    return st.composite(build)()


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 10), (6, math.comb(11, 5))])
def test_enumeration_count(n, count):
    seqs = list(enumerate_sequences(n))
    assert len(seqs) == count
    assert len(set(seqs)) == count


def test_enumeration_small_listing():
    assert list(enumerate_sequences(2)) == [(1, 1), (1, 0), (0, 0)]


def test_enumeration_validity():
    for d in enumerate_sequences(5):
        oracle.check_degree_sequence(d)


# ---------------------------------------------------------------------------
# graphicality


def test_is_graphic_hand_cases():
    assert is_graphic((2, 1, 1)) == (True, True)
    assert is_graphic((2, 2, 0)) == (False, True)
    assert is_graphic((1, 1, 1)) == (True, False)


def test_havel_hakimi_hand_cases():
    assert havel_hakimi((1, 1)) is True
    assert havel_hakimi((2, 2, 0)) is False


@pytest.mark.parametrize("n", range(1, 11))
def test_tests_agree_exhaustively(n):
    for d in enumerate_sequences(n):
        dominates, even = is_graphic(d)
        assert (dominates and even) == havel_hakimi(d), d


@given(degree_sequences())
def test_tests_agree_random(d):
    dominates, even = is_graphic(d)
    assert (dominates and even) == havel_hakimi(d)


def test_rejects_invalid_sequences():
    for bad in [(), (3, 1), (0, 1), (2, -1)]:
        with pytest.raises(ValueError):
            is_graphic(bad)


@pytest.mark.parametrize("bad, message", [
    ((), "empty degree sequence"),
    ((3, 1), "entries must lie in [0, 1]: (3, 1)"),
    ((2, -1), "entries must lie in [0, 1]: (2, -1)"),
    ((0, 1), "sequence must be non-increasing: (0, 1)"),
    ([2, 1, 2, 0], "sequence must be non-increasing: [2, 1, 2, 0]"),
])
def test_sequence_check_refusals_and_messages(bad, message):
    with pytest.raises(ValueError) as refused:
        oracle.check_degree_sequence(bad)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# walk mapping


def test_zero_sequence_maps_to_flat_walk():
    for n in (1, 4, 7):
        w = to_walk((0,) * n)
        assert w.steps == (0,) * (n - 1)
        assert w.end_value == 0
        assert w.lazy_steps == n - 1
        assert all(a >= 0 for a in w.areas())


@pytest.mark.parametrize("n", range(1, 12))
def test_walk_equivalence_exhaustive(n):
    # graphic <=> prefix integrals >= 0 and even total; weights cover sequences
    total = 0
    walks = {}
    for d in enumerate_sequences(n):
        dominates, even = is_graphic(d)
        w = to_walk(d)
        areas = w.areas()
        assert dominates == all(a >= 0 for a in areas), d
        final = areas[-1] if areas else 0
        assert sum(d) % 2 == final % 2, d
        assert w.end_value in (0, -1)
        walks[w.steps] = w.lazy_steps
        total += 1
    assert total == sum(2**z for z in walks.values())


def test_walk_equivalence_n12():
    mismatches = 0
    for d in enumerate_sequences(12):
        dominates, even = is_graphic(d)
        w = to_walk(d)
        areas = w.areas()
        ok = all(a >= 0 for a in areas) and areas[-1] % 2 == 0
        if (dominates and even) != ok:
            mismatches += 1
    assert mismatches == 0


@given(degree_sequences())
def test_walk_parity_relation_random(d):
    w = to_walk(d)
    areas = w.areas()
    assert sum(d) % 2 == (areas[-1] if areas else 0) % 2


# ---------------------------------------------------------------------------
# counts


@pytest.mark.parametrize(
    "n,expected", [(1, (1, 0, 1)), (2, (2, 0, 2)), (3, (4, 1, 5))]
)
def test_brute_counts_hand_values(n, expected):
    assert brute_counts(n) == expected


@pytest.mark.parametrize("n", range(1, 10))
def test_brute_counts_fast_equals_naive(n):
    assert brute_counts(n) == brute_counts_naive(n)


def test_brute_counts_refuses_sizes_outside_its_limit():
    for n in (0, -3, oracle.BRUTE_LIMIT + 1):
        with pytest.raises(ValueError, match="limited"):
            brute_counts(n)


def test_dominating_matches_walk_positivity():
    for n in range(1, 9):
        _, _, d_count = brute_counts(n)
        by_walk = sum(
            1
            for d in enumerate_sequences(n)
            if all(a >= 0 for a in to_walk(d).areas())
        )
        assert d_count == by_walk


# ---------------------------------------------------------------------------
# ballots


def test_ballot_two_elements():
    assert ballot_count((Fraction(1), Fraction(3, 5))) == 3  # (2*2-1)!!


def test_ballot_sum_distinct_n3_is_fifteen():
    assert ballot_count((Fraction(7, 3), Fraction(1, 2), Fraction(9, 5))) == 15


def test_ballot_tied_at_least_double_factorial():
    for n in (2, 3, 4, 5):
        tied = ballot_count(tuple([Fraction(1)] * n))
        assert tied >= double_factorial_odd(n)


def _ballot_by_listing(x):
    """Every (permutation, signs) pair, each checked on all its prefix sums."""
    n = len(x)
    return sum(all(s >= 0 for s in accumulate(x[i] * sign for i, sign in zip(perm, signs)))
               for perm in permutations(range(n))
               for signs in product((1, -1), repeat=n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ballot_count_equals_the_listing_of_every_arrangement(n):
    rng = np.random.default_rng(n)
    vectors = [tuple([Fraction(1)] * n)]  # all equal
    for _ in range(3):
        vectors.append(random_sum_distinct_vector(n, rng))
        base = random_sum_distinct_vector(max(2, n - 1), rng)
        vectors.append((base + base)[:n])  # tied, as `oracle --ballot` builds them
    for x in vectors:
        assert ballot_count(x) == _ballot_by_listing(x)


def test_sum_distinct_draw_past_eight_is_integers():
    rng = np.random.default_rng(9)
    # n <= 8 draws from [1, 512), whose ties `oracle --ballot` reports
    x = random_sum_distinct_vector(8, rng)
    assert all(type(v) is int and 1 <= v < 512 for v in x) and is_sum_distinct(x)
    assert ballot_count(x) == double_factorial_odd(8)
    for n in (9, 10):
        x = random_sum_distinct_vector(n, rng)
        assert all(type(v) is int and 1 <= v < 1 << 40 for v in x) and is_sum_distinct(x)
        assert ballot_count(x) == double_factorial_odd(n)


def test_ballot_refuses_more_than_its_limit():
    assert oracle.BALLOT_LIMIT == 12
    with pytest.raises(ValueError, match="limited"):
        ballot_count(tuple(range(1, 14)))


def test_ballot_rejects_nonpositive():
    with pytest.raises(ValueError):
        ballot_count((Fraction(1), Fraction(0)))


def test_double_factorial():
    assert [double_factorial_odd(n) for n in range(1, 6)] == [1, 3, 15, 105, 945]


def test_sum_distinct_detection():
    assert is_sum_distinct([Fraction(1), Fraction(2)]) is True
    assert is_sum_distinct([Fraction(1), Fraction(1)]) is False
    assert is_sum_distinct([Fraction(1), Fraction(2), Fraction(3)]) is False


def test_random_sum_distinct_vectors_hit_double_factorial():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(10):
            x = random_sum_distinct_vector(n, rng)
            assert ballot_count(x) == double_factorial_odd(n)
