"""Reference values the benchmark checks the program's outputs against.

Nothing here imports graphseq.  The graphic-sequence counts come from a
forward recursion over (height, area) states modulo two primes: no limbs, no
stabilization cap, no checkpoints.  A walk of n - 1 steps in {-1, 0, +1}
(a flat step weighted 2) starts at height 0 with area 0, adds its new height
to the area after every step, must keep the area non-negative, and ends at
height 0 or -1; G(n) sums those ending on an even area and H(n) those ending
on an odd one.  Residues are stored in ``reference_counts.json``, which

    python3 perfbench/reference.py

writes anew for n = 1..MAX_N (about 10 s per prime).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

PRIMES = (2**61 - 1, 2**61 - 31)
COUNTS_FILE = Path(__file__).with_name("reference_counts.json")
MAX_N = 200

# G(1..16) as published in the project README, the anchor for the recursion.
README_G = (1, 2, 4, 11, 31, 102, 342, 1213, 4361, 16016, 59348, 222117,
            836315, 3166852, 12042620, 45967479)

# Literature values of the constants (rho: lazy walk, rho_hat: simple walk).
RHO = 0.5158026380891
RHO_HAT = 0.0773408571485

# Gamma(3/4) / (4 pi sqrt(2 (1 - rho))) at the literature rho
C = math.gamma(0.75) / (4 * math.pi * math.sqrt(2 * (1 - RHO)))


def counts_mod(max_n: int, p: int) -> tuple:
    """(G mod p, H mod p) as lists indexed by n - 1, for n = 1..max_n."""
    import numpy as np  # only regenerating the file needs numpy

    if not 0 < p < 2**61:
        raise ValueError("need p < 2**61 so that up + down + 2 flat fits in int64")
    amax = max_n * (max_n - 1) // 2
    off = max_n + 1                      # row of height 0; rows 0 and -1 stay zero
    w = np.zeros((2 * max_n + 3, amax + 1), dtype=np.int64)
    w[off, 0] = 1
    g, h = [], []
    for k in range(max_n):               # w holds the walks of k steps
        ends = w[off] + w[off - 1]
        g.append(int(ends[0::2].sum(dtype=object)) % p)
        h.append(int(ends[1::2].sum(dtype=object)) % p)
        if k == max_n - 1:
            break
        top = (k + 1) * (k + 2) // 2 + 1  # areas reachable after k + 1 steps
        rows = slice(off - k - 1, off + k + 2)
        mixed = (w[off - k - 2 : off + k + 1, :top] + w[off - k : off + k + 3, :top]
                 + 2 * w[rows, :top]) % p
        nxt = np.zeros_like(mixed)
        for i, y in enumerate(range(-k - 1, k + 2)):
            if y >= 0:
                nxt[i, y:] = mixed[i, : top - y]
            else:
                nxt[i, : top + y] = mixed[i, -y:]
        w[rows, :top] = nxt
    return g, h


def write_counts(max_n: int) -> None:
    residues = {}
    for p in PRIMES:
        g, h = counts_mod(max_n, p)
        residues[str(p)] = {"G": g, "H": h}
    first = residues[str(PRIMES[0])]["G"][: len(README_G)]
    if tuple(first) != README_G[: len(first)]:
        raise SystemExit(f"recursion disagrees with the README's G(1..16): {first}")
    COUNTS_FILE.write_text(json.dumps({"max_n": max_n, "residues": residues}) + "\n")


class CountReference:
    """G(n) and H(n) residues read from ``reference_counts.json``."""

    def __init__(self, path: Path = COUNTS_FILE):
        data = json.loads(path.read_text())
        self.max_n = data["max_n"]
        self._res = {int(p): r for p, r in data["residues"].items()}

    def matches(self, which: str, n: int, value: int) -> bool:
        """True if ``value`` agrees with G(n) (which="G") or H(n) mod every prime."""
        if not 1 <= n <= self.max_n:
            raise ValueError(f"no reference for n = {n}; raise MAX_N and rerun reference.py")
        return all(value % p == r[which][n - 1] for p, r in self._res.items())


def bridge_persistence(n: int) -> Fraction:
    """P(every running area >= 0 | n-step lazy bridge ending at 0), exactly.

    Lazy steps +1, -1 and 0 carry weights 1, 1 and 2 out of 4, so the
    probability is a ratio of weighted path counts.
    """
    states = {(0, 0): 1}                 # (height, area) -> weight, area >= 0
    for _ in range(n):
        nxt: dict = {}
        for (y, a), wt in states.items():
            for y2, mult in ((y + 1, 1), (y - 1, 1), (y, 2)):
                if a + y2 >= 0:
                    key = (y2, a + y2)
                    nxt[key] = nxt.get(key, 0) + wt * mult
        states = nxt
    kept = sum(wt for (y, _), wt in states.items() if y == 0)
    return Fraction(kept, math.comb(2 * n, n))


def main() -> int:
    write_counts(MAX_N)
    print(f"wrote {COUNTS_FILE.name} for n = 1..{MAX_N}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
