"""Brute-force ground truth for graphic-sequence counting.

Everything here works directly on degree sequences n-1 >= d_1 >= ... >= d_n
>= 0: exhaustive enumeration, two independent graphicality tests, the
deterministic sequence-to-walk mapping, and an exhaustive count of
sign/permutation ballot arrangements.  These are the oracles the fast layer
recursion is checked against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations_with_replacement
from typing import Iterable, Iterator, Sequence

#: ballot_count's recursion takes 0.41 s at n = 11 and 1.3 s at n = 12 on
#: 2 vCPUs (Intel Xeon), about 3x more for each further n
BALLOT_LIMIT = 12
# brute_counts grows about 3.5x per n: 7.9 s at n = 14, 27 s at n = 15 (2 vCPUs)
BRUTE_LIMIT = 16


def check_degree_sequence(d: Sequence[int]) -> None:
    n = len(d)
    if n < 1:
        raise ValueError("empty degree sequence")
    if d[0] > n - 1 or d[-1] < 0:
        raise ValueError(f"entries must lie in [0, {n - 1}]: {d}")
    if any(map(operator.lt, d, d[1:])):
        raise ValueError(f"sequence must be non-increasing: {d}")


def is_graphic(d: Sequence[int]) -> tuple:
    """(dominates, even): the sequence is graphic iff both are true.

    `dominates` is the conjugate test: with d'_k = #{j : d_j >= k}, the slack
    sum_{i<=k} (d'_i - 1 - d_i) is non-negative for every k with d_k >= k.
    """
    check_degree_sequence(d)
    slack, above = 0, len(d)  # above: d'_k, which only falls as k grows
    for k, x in enumerate(d, 1):
        if x < k or slack < 0:  # past the last condition, or one failed
            break
        while d[above - 1] < k:
            above -= 1
        slack += above - 1 - x
    return slack >= 0, sum(d) % 2 == 0


def havel_hakimi(d: Sequence[int]) -> bool:
    """Graphicality by repeated reduction: independent of the conjugate test."""
    check_degree_sequence(d)
    seq = sorted(d, reverse=True)
    while seq and seq[0] > 0:
        first = seq.pop(0)
        if first > len(seq):
            return False
        for i in range(first):
            seq[i] -= 1
            if seq[i] < 0:
                return False
        seq.sort(reverse=True)
    return True


def enumerate_sequences(n: int) -> Iterator[tuple]:
    """Every sequence n-1 >= d_1 >= ... >= d_n >= 0, exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    yield from combinations_with_replacement(range(n - 1, -1, -1), n)


# ---------------------------------------------------------------------------
# sequence -> walk


@dataclass(frozen=True)
class MappedWalk:
    """Walk image of a degree sequence.

    steps lie in {-1, 0, +1}; areas() are the running integrals whose
    non-negativity is the dominating condition.  One walk stands for
    2**lazy_steps sequences.
    """

    steps: tuple
    end_value: int
    lazy_steps: int

    def areas(self) -> list:
        return list(accumulate(accumulate(self.steps)))


def to_walk(d: Sequence[int]) -> MappedWalk:
    """Deterministic mapping of a degree sequence to its certifying walk.

    The sequence is drawn as a staircase lattice path from (0, n-1) to (n, 0);
    the path's first half and its reflected reversal walk in lockstep, and the
    half-sum of their +/-1 step codes is a walk with steps in {-1, 0, +1} and
    n-1 steps ending in {0, -1}.  The sequence dominates iff the walk's
    running integral stays non-negative, and the degree sum has the parity of
    the final integral.
    """
    check_degree_sequence(d)
    n = len(d)
    # the staircase as step codes, +1 down and -1 right: right step i follows
    # n-1-d_i down steps.  Walk step k is the half-sum of path steps k and -1-k
    # (the reflected reversal's step k, negated)
    path = [1] * (2 * n - 1)
    for i, x in enumerate(d):
        path[n - 1 - x + i] = -1
    steps = tuple((path[k] + path[-1 - k]) // 2 for k in range(n - 1))
    end = sum(steps)
    assert end in (0, -1)
    return MappedWalk(steps, end, steps.count(0))


# ---------------------------------------------------------------------------
# exhaustive counts

# tail_table(n)[r][v][p] = number of non-increasing sequences of length r with
# entries in [0, v] and sum parity p


def tail_table(n: int) -> list:
    table = [[[0, 0] for _ in range(n)] for _ in range(n + 1)]
    for v in range(n):
        table[0][v][0] = 1
    for r in range(1, n + 1):
        for v in range(n):
            pv = v & 1
            eq = table[r - 1][v]
            cur = table[r][v]
            cur[0] = eq[pv]
            cur[1] = eq[1 - pv]
            if v >= 1:
                below = table[r][v - 1]
                cur[0] += below[0]
                cur[1] += below[1]
    return table


def brute_counts(n: int) -> tuple:
    """(G, H, D): graphic, dominating-but-odd, and dominating counts.

    Recursive descent over non-increasing sequences keeping, per prefix, the
    still-undecided dominating conditions with their slack
    (k(k-1) + sum_{j>k} min(k, d_j) - sum_{j<=k} d_j so far).  A condition
    whose slack is non-negative can never fail later and is dropped; a
    condition that cannot recover even if every later entry contributes its
    maximum kills the subtree.  Once no condition is undecided and no new one
    can arise, the whole subtree is counted from the tail table in O(1).
    """
    if not 1 <= n <= BRUTE_LIMIT:
        raise ValueError(f"brute force is limited to 1 <= n <= {BRUTE_LIMIT}, got {n}")
    table = tail_table(n)
    counts = [0, 0]  # indexed by total parity

    def rec(m: int, prev: int, total: int, active: list) -> None:
        if not active and prev <= m:
            tails = table[n - m][prev]
            counts[total & 1] += tails[0]
            counts[1 - (total & 1)] += tails[1]
            return
        rem_after = n - m - 1
        for v in range(prev, -1, -1):
            survived = []
            dead = False
            for k, slack in active:
                gain = k if v >= k else v
                slack += gain
                if slack + rem_after * gain < 0:
                    dead = True
                    break
                if slack < 0:
                    survived.append((k, slack))
            if dead:
                break  # the slack bound is monotone in v: smaller v also dies
            k_new = m + 1
            # every entry is at most n-1, so a new condition's slack plus its
            # best recovery, k_new*(n-1) - (total+v), is never negative.  At the
            # last entry (rem_after = 0) an old condition with negative slack
            # dies and a new one has none, so `active` is empty at m = n
            if v >= k_new:
                slack = k_new * (k_new - 1) - (total + v)
                if slack < 0:
                    survived.append((k_new, slack))
            rec(m + 1, v, total + v, survived)

    rec(0, n - 1, 0, [])
    return counts[0], counts[1], counts[0] + counts[1]


def brute_counts_naive(n: int) -> tuple:
    """Same counts by checking every sequence; for cross-validating the fast path."""
    g = h = 0
    for d in enumerate_sequences(n):
        dominates, even = is_graphic(d)
        if dominates:
            if even:
                g += 1
            else:
                h += 1
    return g, h, g + h


# ---------------------------------------------------------------------------
# the layer recursion from its definition


def reference_count(depth: int, y: int, a: int, parity: int) -> int:
    """F(depth, y, a) of the engine's recursion, cap-free, memoized per call.

    Straight from the definition in :mod:`graphseq.engine`: no caps, no
    limbs, no bands, so it checks the engine's reads at and above a cap.
    """
    memo: dict = {}

    def rec(k: int, yy: int, aa: int) -> int:
        if aa < 0 or yy > k or yy < -k - 1:
            return 0
        if k == 0:
            return 1 if yy in (0, -1) and (aa & 1) == parity else 0
        key = (k, yy, aa)
        if key not in memo:
            memo[key] = (
                rec(k - 1, yy + 1, aa + yy + 1)
                + rec(k - 1, yy - 1, aa + yy - 1)
                + 2 * rec(k - 1, yy, aa + yy)
            )
        return memo[key]

    return rec(depth, y, a)


# ---------------------------------------------------------------------------
# ballot arrangements


def ballot_count(x: Sequence) -> int:
    """Number of (permutation, sign) pairs keeping all prefix sums >= 0.

    One memoized recursion over (unplaced weights, prefix sum): the ways to
    place the rest depend on that state alone, so the positive weights x
    need at most 3**n states where there are n! * 2**n arrangements.  For
    sum-distinct x the count is (2n-1)!!, and it can only be larger when
    subset-sum ties create extra prefix equalities.
    """
    x = tuple(x)
    n = len(x)
    if n > BALLOT_LIMIT:
        raise ValueError(f"ballot count is limited to n <= {BALLOT_LIMIT}")
    if any(v <= 0 for v in x):
        raise ValueError("weights must be strictly positive")

    @cache
    def rest(unplaced: int, acc) -> int:  # bit i of unplaced: x[i] is still to place
        if not unplaced:
            return 1
        return sum(rest(unplaced & ~(1 << i), s)
                   for i in range(n) if unplaced >> i & 1
                   for s in (acc + x[i], acc - x[i]) if s >= 0)

    return rest((1 << n) - 1, 0)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1 * 3 * ... * (2n-1)."""
    return math.prod(range(1, 2 * n, 2))


def is_sum_distinct(x: Iterable) -> bool:
    sums = {0}
    for v in x:
        new = set()
        for s in sums:
            t = s + v
            if t in sums or t in new:
                return False
            new.add(t)
        sums |= new
    return True


def random_sum_distinct_vector(n: int, rng) -> tuple:
    """Strictly positive integer weights with pairwise-distinct subset sums.

    One draw of n integers, repeated until it is sum-distinct: from [1, 512)
    up to n = 8, a range small enough that the tied vectors `oracle --ballot`
    builds from these meet extra subset-sum coincidences, and from [1, 2**40)
    above, sum-distinct on the first draw almost surely.  Ballot counts are
    scale-invariant, so integers serve every n.
    """
    high = 512 if n <= 8 else 1 << 40
    while True:
        x = tuple(int(v) for v in rng.integers(1, high, size=n))
        if is_sum_distinct(x):
            return x
