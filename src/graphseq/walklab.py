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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

EXACT_LIMIT = 20          # persistence_exact beyond this is pointless
RATIONAL_JOINT_LIMIT = 32  # joint law switches to float64 above this length


class End:
    """End conditioning for the lazy walk: at 0, or in {0, -1}."""

    ZERO = "zero"
    ZERO_OR_MINUS_ONE = "either"


def _end_states(end: str) -> tuple:
    if end == End.ZERO:
        return (0,)
    if end == End.ZERO_OR_MINUS_ONE:
        return (0, -1)
    raise ValueError(f"unknown end condition {end!r}")


# ---------------------------------------------------------------------------
# exact persistence


def _path_weights(n: int, nonnegative: bool = False) -> dict:
    """(height, integral) -> total weight of the n-step lazy paths ending there.

    A path weighs 2**(number of flat steps) out of a total 4**n; with
    `nonnegative` only paths whose running integrals all stay >= 0 count.
    """
    states = {(0, 0): 1}
    for _ in range(n):
        nxt: dict = {}
        for (y, a), w in states.items():
            for step, mult in ((1, 1), (-1, 1), (0, 2)):
                y2 = y + step
                a2 = a + y2
                if nonnegative and a2 < 0:
                    continue
                nxt[(y2, a2)] = nxt.get((y2, a2), 0) + w * mult
        states = nxt
    return states


def persistence_exact(n: int, end: str = End.ZERO) -> Fraction:
    """P(all running integrals >= 0 | walk of n lazy steps ends as required).

    Exact, by integer-weighted dynamic programming over (height, integral):
    the conditional probability is a ratio of two weighted path counts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_LIMIT:
        raise ValueError(f"exact mode supports n <= {EXACT_LIMIT}")
    ends = _end_states(end)

    def weighted(nonnegative: bool) -> int:
        return sum(w for (y, _), w in _path_weights(n, nonnegative).items() if y in ends)

    return Fraction(weighted(True), weighted(False))


def end_weight(n: int, end: str) -> int:
    """Total path weight with the end condition: C(2n, n) or C(2n+1, n).

    This is the coupling identity used by the samplers; tests compare it with
    the DP denominator inside persistence_exact.
    """
    if end == End.ZERO:
        return math.comb(2 * n, n)
    return math.comb(2 * n + 1, n)


# ---------------------------------------------------------------------------
# Monte Carlo persistence


def _mc_shard(n: int, shard_samples: int, end: str, seed_seq) -> int:
    """Count persisting bridges among shard_samples exact bridge samples.

    The lazy bridge is sampled through its simple-walk coupling: the 2n (or
    2n+1 for the {0,-1} end) +/-1 sub-steps form a fixed multiset drawn
    sequentially two at a time with exact urn probabilities.  Within a pair
    the order never affects even-time positions, so one integer draw decides
    each lazy step: up-up, one-of-each, or down-down.
    """
    rng = np.random.default_rng(seed_seq)
    if end == End.ZERO:
        total, ups = 2 * n, n
    else:
        total, ups = 2 * n + 1, n
    remaining_up = np.full(shard_samples, ups, dtype=np.int64)
    height = np.zeros(shard_samples, dtype=np.int32)
    integral = np.zeros(shard_samples, dtype=np.int64)
    ok = np.ones(shard_samples, dtype=bool)
    rem_tot = total
    for _ in range(n):
        bound = rem_tot * (rem_tot - 1)
        draw = rng.integers(0, bound, size=shard_samples, dtype=np.int64)
        rem_down = rem_tot - remaining_up
        both_up = remaining_up * (remaining_up - 1)
        not_both_down = both_up + 2 * remaining_up * rem_down
        is_up = draw < both_up
        not_down = draw < not_both_down
        height += is_up
        height -= ~not_down
        remaining_up -= is_up
        remaining_up -= not_down
        integral += height
        ok &= integral >= 0
        rem_tot -= 2
    return int(np.count_nonzero(ok))


def mc_shard_layout(samples: int, batch: int) -> list:
    sizes = []
    left = samples
    while left > 0:
        take = min(batch, left)
        sizes.append(take)
        left -= take
    return sizes


def persistence_mc(
    n: int,
    samples: int,
    end: str = End.ZERO,
    seed: int = 0,
    workers: int = 1,
    batch: int = 200_000,
) -> tuple:
    """(estimate, standard error) for the same conditional probability.

    Bridges are sampled directly under the end conditioning (no rejection),
    one shard per batch with an RNG stream spawned from (seed, shard index);
    results are bit-identical for any worker count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _end_states(end)
    sizes = mc_shard_layout(samples, batch)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    if workers <= 1 or len(sizes) == 1:
        hits = sum(_mc_shard(n, sz, end, ss) for sz, ss in zip(sizes, seeds))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(lambda t: _mc_shard(n, t[0], end, t[1]),
                                zip(sizes, seeds)))
    p = hits / samples
    stderr = math.sqrt(p * (1 - p) / samples)
    return p, stderr


@dataclass
class BridgeSampler:
    """Uniform bridge sampler; `sample()` returns the position sequence.

    kind "lazy": n lazy steps conditioned to end at 0, realized as half the
    even-time positions of a shuffled 2n-step simple bridge.  kind "simple":
    the 2n-step simple bridge itself.
    """

    n: int
    kind: str = "lazy"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("lazy", "simple"):
            raise ValueError(f"unknown walk kind {self.kind!r}")
        self._rng = np.random.default_rng(self.seed)

    def sample(self) -> np.ndarray:
        steps = np.concatenate([
            np.ones(self.n, dtype=np.int64),
            -np.ones(self.n, dtype=np.int64),
        ])
        self._rng.shuffle(steps)
        positions = np.cumsum(steps)
        if self.kind == "simple":
            return positions
        return positions[1::2] // 2


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
    from itertools import combinations

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


class JointTable:
    """Joint law of (Y_n, A_n) for the unconditioned lazy walk.

    Exact rationals up to length RATIONAL_JOINT_LIMIT, float64 beyond; both
    representations are exactly symmetric under (a, b) -> (-a, -b).
    """

    def __init__(self, n: int, grid: np.ndarray, exact: dict | None):
        self.n = n
        self._grid = grid  # float64, shape (2n+1, n(n+1)+1); [y+n, b+amax]
        self._exact = exact  # dict (a, b) -> Fraction, or None
        self.amax = n * (n + 1) // 2

    @property
    def exact(self) -> bool:
        return self._exact is not None

    def prob(self, a: int, b: int) -> float:
        if abs(a) > self.n or abs(b) > self.amax:
            return 0.0
        return float(self._grid[a + self.n, b + self.amax])

    def prob_exact(self, a: int, b: int) -> Fraction:
        if self._exact is None:
            raise ValueError("table was built in float mode")
        return self._exact.get((a, b), Fraction(0))

    def items(self) -> Iterator[tuple]:
        ys, bs = np.nonzero(self._grid)
        for yi, bi in zip(ys, bs):
            yield (int(yi) - self.n, int(bi) - self.amax), float(self._grid[yi, bi])

    def total(self) -> float:
        return float(self._grid.sum())


def _joint_grid_float(n: int) -> np.ndarray:
    amax = n * (n + 1) // 2
    width, area_len = 2 * n + 1, 2 * amax + 1
    cur = np.zeros((width, area_len))
    cur[n, amax] = 1.0
    zero_row = np.zeros(area_len)
    for k in range(1, n + 1):
        nxt = np.zeros_like(cur)
        for yi in range(n - k, n + k + 1):
            y = yi - n
            below = cur[yi - 1] if yi - 1 >= 0 else zero_row
            above = cur[yi + 1] if yi + 1 < width else zero_row
            mixed = 0.25 * below + 0.25 * above + 0.5 * cur[yi]
            if y > 0:
                nxt[yi, y:] = mixed[:-y]
            elif y < 0:
                nxt[yi, :y] = mixed[-y:]
            else:
                nxt[yi] = mixed
        cur = nxt
    return cur


def joint_dist(n: int) -> JointTable:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 220:
        raise ValueError("joint law limited to n <= 220")
    if n <= RATIONAL_JOINT_LIMIT:
        exact = {k: Fraction(w, 4**n) for k, w in _path_weights(n).items()}
        amax = n * (n + 1) // 2
        grid = np.zeros((2 * n + 1, 2 * amax + 1))
        for (a, b), w in exact.items():
            grid[a + n, b + amax] = float(w)
        return JointTable(n, grid, exact)
    return JointTable(n, _joint_grid_float(n), None)


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
    table = joint_dist(n)
    amax = table.amax
    a = np.arange(-n, n + 1, dtype=float).reshape(-1, 1)
    b = np.arange(-amax, amax + 1, dtype=float).reshape(1, -1)
    density = llt_density(a / math.sqrt(n), b / n**1.5)
    return float(np.max(np.abs(n * n * table._grid - density)))


# ---------------------------------------------------------------------------
# the sign flip of the final excursion


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


def enumerate_lazy_paths(n: int) -> Iterator[tuple]:
    """All 3**n lazy step patterns as position sequences."""
    y = [0] * n

    def rec(i: int, cur: int) -> Iterator[tuple]:
        if i == n:
            yield tuple(y)
            return
        for step in (-1, 0, 1):
            y[i] = cur + step
            yield from rec(i + 1, cur + step)

    yield from rec(0, 0)
