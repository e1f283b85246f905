"""The four workloads: the argv a user would type, and the checks of its output.

Each workload builds one round's command lines from the benchmark seed and
the round number, and checks the captured output of those calls against
``reference``.  One checked value is one operation: a value the program did
not deliver (its call failed, or the line is missing) counts as failed, and a
delivered value that is wrong makes the run incorrect.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import reference

# Sizes are scaled down from the ROADMAP's (n = 300, grids up to 4096,
# n = 10^4 walks) so that a round takes 6-11 s on 2 vCPUs and a run of
# BENCHMARK.json's run_seconds holds several rounds.
COUNT_MAX_N = 150
RESUME_DEPTH = 120          # checkpointed layer; count runs to n = depth + 1
RESUME_TARGET_N = 161
CONSTANT_GRIDS = "256,512,1024"
WALK_N, WALK_SAMPLES = 2000, 300_000   # the default --batch cuts 200k + 100k shards
SHORT_N, SHORT_SAMPLES = 20, 200_000

RICHARDSON_TOL = 5e-6       # acceptance criteria 06 and 07
C_TOL = 1e-8
SCALED_RANGE = (0.63, 0.77)  # n^(1/4) * persistence is about 0.70 at n = 2000 and 10^4
SHORT_SIGMAS = 4


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)

    def value(self, what: str, got, ok) -> None:
        """Count one operation; ``got`` None means not delivered."""
        self.attempted += 1
        if got is None:
            self.failed += 1
        elif not ok(got):
            self.wrong.append(f"{what}: {got}")


def _stdout(call) -> str:
    return call["stdout"] if call["status"] == 0 and call["error"] is None else ""


def _bfile(text: str) -> dict:
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            rows[int(parts[0])] = int(parts[1])
    return rows


def _float(pattern: str, text: str):
    m = re.search(pattern, text, re.MULTILINE)
    return float(m.group(1)) if m else None


class Count:
    name = "count"

    def __init__(self, counts: reference.CountReference):
        self.ref = counts

    def commands(self, seed: int, round_no: int, workdir: str) -> list:
        return [["count", "--max-n", str(COUNT_MAX_N), "--format", "csv"]]

    def check(self, calls: list, tally: Tally) -> None:
        rows = {}
        for line in _stdout(calls[0]).splitlines()[1:]:
            parts = line.split(",")
            if len(parts) == 4 and all(p.isdigit() for p in parts[:3]):
                rows[int(parts[0])] = (int(parts[1]), int(parts[2]))
        for n in range(1, COUNT_MAX_N + 1):
            g, h = rows.get(n, (None, None))
            tally.value(f"G({n})", g, lambda v: self.ref.matches("G", n, v))
            tally.value(f"H({n})", h, lambda v: self.ref.matches("H", n, v))


class Resume:
    name = "resume"

    def __init__(self, counts: reference.CountReference):
        self.ref = counts

    def commands(self, seed: int, round_no: int, workdir: str) -> list:
        return [
            ["count", "--max-n", str(RESUME_DEPTH + 1),
             "--checkpoint-every", str(RESUME_DEPTH), "--checkpoint-dir", workdir],
            ["count-ondemand", "--checkpoint",
             f"{workdir}/graphseq-even-depth{RESUME_DEPTH:05d}.ckpt", "--target-n", str(RESUME_TARGET_N)],
        ]

    def check(self, calls: list, tally: Tally) -> None:
        streamed = _bfile(_stdout(calls[0]))
        extended = _bfile(_stdout(calls[1]))
        for n in range(1, RESUME_TARGET_N + 1):
            got = (streamed if n <= RESUME_DEPTH + 1 else extended).get(n)
            tally.value(f"G({n})", got, lambda v: self.ref.matches("G", n, v))


class Constants:
    name = "constants"

    def commands(self, seed: int, round_no: int, workdir: str) -> list:
        return [["constants", "--grids", CONSTANT_GRIDS]]

    def check(self, calls: list, tally: Tally) -> None:
        text = _stdout(calls[0])
        number = r"([-+0-9.eE]+)"
        brackets = re.findall(rf"rigorous bracket at n=\d+: \[{number}, {number}\]", text)
        for i, (label, lit) in enumerate((("rho", reference.RHO),
                                          ("rho_hat", reference.RHO_HAT))):
            est = _float(rf"^{label} = {number}", text)
            tally.value(f"{label} (richardson)", est,
                        lambda v: abs(v - lit) <= RICHARDSON_TOL)
            got = tuple(map(float, brackets[i])) if i < len(brackets) else None
            tally.value(f"{label} bracket", got, lambda b: b[0] <= lit <= b[1])
        tally.value("c", _float(rf"^c = {number}", text),
                    lambda v: abs(v - reference.C) <= C_TOL)


class Walk:
    name = "walk"

    def __init__(self):
        self.exact = float(reference.bridge_persistence(SHORT_N))

    def commands(self, seed: int, round_no: int, workdir: str) -> list:
        walk_seed = seed * 1000 + 2 * round_no
        return [
            ["walk", "--n", str(WALK_N), "--samples", str(WALK_SAMPLES),
             "--seed", str(walk_seed)],
            ["walk", "--n", str(SHORT_N), "--samples", str(SHORT_SAMPLES),
             "--seed", str(walk_seed + 1)],
        ]

    def check(self, calls: list, tally: Tally) -> None:
        lo, hi = SCALED_RANGE
        est = _float(rf"^{WALK_N},([0-9.eE+-]+),", _stdout(calls[0]))
        tally.value(f"q({WALK_N}) * n^(1/4)", est,
                    lambda v: lo <= v * WALK_N**0.25 <= hi)
        se = math.sqrt(self.exact * (1 - self.exact) / SHORT_SAMPLES)
        est = _float(rf"^{SHORT_N},([0-9.eE+-]+),", _stdout(calls[1]))
        tally.value(f"q({SHORT_N}) vs exact {self.exact:.9f}", est,
                    lambda v: abs(v - self.exact) <= SHORT_SIGMAS * se)


def all_workloads() -> dict:
    counts = reference.CountReference()
    return {w.name: w for w in (Count(counts), Resume(counts), Constants(), Walk())}
