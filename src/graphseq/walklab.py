"""Lazy and simple random-walk bridges: persistence, returns, joint laws.

The lazy walk steps +1 or -1 with probability 1/4 each and stays put with
probability 1/2; its bridge couples to a simple +/-1 bridge of twice the
length through Y_i = U_{2i} / 2.  The quantities here are the ones the
counting recursion's asymptotics hinge on: the probability that the running
integral of a bridge stays non-negative (persistence), the law of the number
of returns to zero, and the joint local limit of (position, integral).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import engine

EXACT_LIMIT = 300         # persistence_exact(300) takes 2.0-2.4 s on 2 vCPUs, 400 8.5-9.0 s
MC_BATCH = 200_000        # samples per Monte Carlo shard; fixes the shard layout


class End:
    """End conditioning for the lazy walk: at 0, or in {0, -1}."""

    ZERO = "zero"
    ZERO_OR_MINUS_ONE = "either"
    STATES = {ZERO: (0,), ZERO_OR_MINUS_ONE: (0, -1)}  # the end heights each allows


def _end_states(end: str) -> tuple:
    if end not in End.STATES:
        raise ValueError(f"unknown end condition {end!r}")
    return End.STATES[end]


def _sub_steps(n: int, end: str) -> int:
    """Simple-walk sub-steps coupled to n lazy steps: 2n, plus one per extra end state."""
    return 2 * n + len(_end_states(end)) - 1


# ---------------------------------------------------------------------------
# exact persistence, from the engine's counts


def persistence_exact(n: int, end: str = End.ZERO) -> Fraction:
    """P(all running integrals >= 0 | walk of n lazy steps ends as required).

    Exact, from the engine: F(n, 0, 0) of :mod:`graphseq.engine`, summed over
    both starting parities, is the weight of the n-step lazy paths from 0
    that end in {0, -1} with every running integral >= 0.  For the {0} end
    the depth-0 layer keeps only its band at height 0.  The engine's caps
    and floors were derived for walks ending in {0, -1}; they stay valid for
    the subset that ends at 0, since no such walk can lose more area, or
    need less, than the larger set allows.  Each advance frees the layer it
    reads, the trimmed start layer included, so the run holds about one layer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_LIMIT:
        raise ValueError(f"exact mode supports n <= {EXACT_LIMIT}")
    ends = _end_states(end)
    layer = engine.initial_layer(*engine.Parity)
    start = engine.Layer(0, layer.parities,
                         {y: band for y, band in layer.bands.items() if y in ends})
    for _, counts, _ in engine.extend_counts(start, n + 1):
        pass
    return Fraction(sum(counts), end_weight(n, end))


def end_weight(n: int, end: str) -> int:
    """Total path weight with the end condition: C(2n, n) or C(2n+1, n).

    These are the simple-walk paths of length 2n or 2n+1 that the coupling
    maps onto the lazy paths; persistence_exact divides by this weight.
    """
    return math.comb(_sub_steps(n, end), n)


# ---------------------------------------------------------------------------
# Monte Carlo persistence


def _mc_shard(n: int, shard_samples: int, end: str, seed_seq) -> int:
    """Count persisting bridges among shard_samples exact bridge samples.

    The lazy bridge is sampled through its simple-walk coupling: the 2n (or
    2n+1 for the {0,-1} end) +/-1 sub-steps form a fixed multiset drawn
    sequentially two at a time with exact urn probabilities.  Within a pair
    the order never affects even-time positions, so one integer draw decides
    each lazy step: up-up, one-of-each, or down-down.  A bridge leaves the
    batch at the step its integral goes negative, so each later step draws
    only for the survivors; the count is the number left after n steps.

    A bridge's state is two integers: r, its remaining up sub-steps (n at the
    start), and its integral.  After lazy step k + 1 the height is
    n - (k + 1) - r; with `left` sub-steps still to draw, a draw below
    r(r - 1) is up-up and one below r(2 left - 1 - r) is not down-down.  No
    value exceeds T(T - 1) for T sub-steps in all, so state and draws are
    int32 when that is below 2**31 (n <= 23170) and int64 above; the draws
    are the same in both types.
    """
    rng = np.random.default_rng(seed_seq)
    total = _sub_steps(n, end)
    dtype = np.int32 if total * (total - 1) < 2**31 else np.int64
    r = np.full(shard_samples, n, dtype=dtype)
    integral = np.zeros(shard_samples, dtype=dtype)
    for k in range(n):
        left = total - 2 * k
        draw = rng.integers(0, left * (left - 1), size=r.size, dtype=dtype)
        is_up = draw < r * (r - 1)
        not_down = draw < r * (2 * left - 1 - r)
        r -= is_up
        r -= not_down
        integral += (n - k - 1) - r
        alive = integral >= 0
        if not alive.all():
            r = r[alive]
            integral = integral[alive]
            if not integral.size:
                break
    return integral.size


def mc_shard_layout(samples: int, batch: int) -> list:
    full, rest = divmod(samples, batch)
    return [batch] * full + ([rest] if rest else [])


def persistence_mc(
    n: int,
    samples: int,
    end: str = End.ZERO,
    seed: int = 0,
    workers: int = 1,
    batch: int = MC_BATCH,
) -> tuple:
    """(estimate, standard error) for the same conditional probability.

    Bridges are sampled directly under the end conditioning (no rejection),
    one shard per batch with an RNG stream spawned from (seed, shard index);
    a bridge leaves its batch at the step its integral goes negative.  A
    shard's draws depend only on its own stream, so results are bit-identical
    for any worker count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _end_states(end)
    sizes = mc_shard_layout(samples, batch)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    with ThreadPoolExecutor(max_workers=max(1, min(workers, len(sizes)))) as pool:
        hits = sum(pool.map(lambda sz, ss: _mc_shard(n, sz, end, ss), sizes, seeds))
    p = hits / samples
    stderr = math.sqrt(p * (1 - p) / samples)
    return p, stderr


# ---------------------------------------------------------------------------
# returns to zero


def returns_tail(n: int, k: int) -> Fraction:
    """P(the n-step lazy bridge returns to 0 at least k times).

    Equals 2**k * C(2n-k, n) / C(2n, n): unfolding the last k excursions of
    the coupled simple bridge and deleting their final down-steps is a
    2**k-to-one correspondence with paths of length 2n-k ending at level k.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return Fraction(2**k * math.comb(2 * n - k, n), math.comb(2 * n, n))


def bridge_return_counts(n: int) -> list:
    """count[k] = number of 2n-step simple bridges with >= k returns to zero.

    Exhaustive over all C(2n, n) bridges; the oracle for returns_tail.
    """
    counts = [0] * (n + 1)
    for up_positions in combinations(range(2 * n), n):
        ups = set(up_positions)
        pos = 0
        zeros = 0
        for t in range(2 * n):
            pos += 1 if t in ups else -1
            if pos == 0:
                zeros += 1
        for k in range(0, min(zeros, n) + 1):
            counts[k] += 1
    return counts


# ---------------------------------------------------------------------------
# joint law of (position, integral) and the local limit


def _walk_grid(n: int, dtype=object) -> np.ndarray:
    """w[y + n, a + n(n+1)/2] = weight of the n-step lazy paths ending at (y, a).

    A path weighs 2**(number of flat steps) out of a total 4**n.  The weights
    are Python ints in an object array, or float64.  Each row is summed as
    below + above + 2 * itself, so the float grid times 4.0**-n is the
    per-step-scaled recursion bit for bit (every intermediate differs from it
    by a power of two) and mirrors exactly under (y, a) -> (-y, -a).
    """
    amax = n * (n + 1) // 2
    # one zero row pads each end, so the rows next to |y| = n read no wrap
    w = np.zeros((2 * n + 3, 2 * amax + 1), dtype=dtype)
    w[n + 1, amax] = 1
    for k in range(1, n + 1):
        nxt = np.zeros_like(w)
        for y in range(-k, k + 1):  # step k reaches heights |y| <= k only
            i = y + n + 1
            row = w[i - 1] + w[i + 1] + 2 * w[i]
            # a step that ends at height y adds y to the integral
            if y >= 0:
                nxt[i, y:] = row[:row.size - y]
            else:
                nxt[i, :y] = row[-y:]
        w = nxt
    return w[1:-1]


def joint_dist(n: int) -> np.ndarray:
    """Joint law of (Y_n, A_n) for the unconditioned lazy walk, as float64.

    law[a + n, b + n(n+1)/2] = P(Y_n = a, A_n = b): the float64 `_walk_grid`
    weights times 4.0**-n, exactly symmetric under (a, b) -> (-a, -b).  For
    n <= 31 every weight is below 2**53, so the array is the exact law;
    `_walk_grid(n)` in Python ints is the exact reference.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 220:
        raise ValueError("joint law limited to n <= 220")
    return _walk_grid(n, float) * 4.0**-n


def llt_density(x, y):
    """Limiting density of (Y_n / sqrt(n), A_n / n^{3/2}), scaled by n^2.

    Takes floats or broadcasting numpy arrays.
    """
    return (2 * math.sqrt(3) / math.pi) * np.exp(-4 * x * x + 12 * x * y - 12 * y * y)


def llt_error(n: int) -> float:
    """sup over integer (a, b) of |n^2 P(Y_n=a, A_n=b) - density(a/sqrt(n), b/n^1.5)|.

    The supremum is attained inside the reachable rectangle: outside it the
    density at n >= 2 is smaller than the in-rectangle error by many orders.
    """
    amax = n * (n + 1) // 2
    a = np.arange(-n, n + 1, dtype=float).reshape(-1, 1)
    b = np.arange(-amax, amax + 1, dtype=float).reshape(1, -1)
    density = llt_density(a / math.sqrt(n), b / n**1.5)
    return float(np.max(np.abs(n * n * joint_dist(n) - density)))
