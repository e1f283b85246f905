"""Benchmark runner for graphseq: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every round is a fresh interpreter
(``child.py``) that imports graphseq from ``src/`` and calls
``graphseq.cli.run`` with the argv a user would type.  Rounds repeat while
another one fits into ``--seconds``; the run reports medians over rounds.
The runner checks every value the program prints against ``reference.py``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (time in
the program's calls), ``setup_s`` (spawn to first call, imports included; the
median over extra set-up-only interpreters and the rounds), ``cpu_s`` (user +
system time of the calls, all threads) and ``peak_rss_mib``.  With
``--trace 1`` rounds come in pairs, one untraced and one traced, and the
metrics are the per-layer ones; ``trace.overhead_s``
is the traced minus the untraced median ``wall_s``.

The last line of standard output is the result; a copy and each traced
round's spans go to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = HERE / ".out"
# BENCHMARK.json names the metrics and their units; one the runner does not
# compute raises KeyError rather than going missing from the result
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 8
RUN_LIMIT_S = 170  # the whole run, however slow the machine

KIND_REFERENCES = {"lazy": reference.RHO, "simple": reference.RHO_HAT}


class RoundFailed(Exception):
    """The child interpreter did not finish or printed no result."""


class Runner:
    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.tally = workloads.Tally()
        self.rounds = 0

    def _child(self, calls: list, spans_path: str | None = None) -> tuple:
        """Run child.py once; (spawn time, its result)."""
        job = {"root": str(ROOT), "calls": calls, "spans": spans_path}
        timeout = self.started + RUN_LIMIT_S - time.monotonic()
        if timeout <= 0:
            raise RoundFailed("run time limit reached")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise RoundFailed(f"round exceeded {timeout:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RoundFailed(f"child exited {proc.returncode}: {proc.stderr.strip()}")
        return spawned, json.loads(lines[-1])

    def setup_probe(self) -> float:
        spawned, res = self._child([])
        return res["ready"] - spawned

    def round(self, traced: bool) -> dict:
        """One round: run, check, and return its end-to-end figures."""
        tag = f"{self.workload.name}-seed{self.seed}-round{self.rounds}"
        workdir = OUT / f"work-{os.getpid()}-{self.rounds}"
        workdir.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{tag}.jsonl" if traced else None
        try:
            calls = self.workload.commands(self.seed, self.rounds,
                                           str(workdir.relative_to(ROOT)))
            spawned, res = self._child(calls, spans_path and str(spans_path))
            ckpt_bytes = sum(p.stat().st_size for p in workdir.iterdir())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.rounds += 1
        self.workload.check(res["calls"], self.tally)
        for call in res["calls"]:
            if call["error"]:
                print(f"{' '.join(call['argv'])} failed:\n{call['error']}", file=sys.stderr)
        figures = {
            "wall_s": res["done"] - res["ready"],
            "setup_s": res["ready"] - spawned,
            "cpu_s": res["cpu_s"],
            "peak_rss_mib": res["peak_rss_mib"],
        }
        if traced:
            figures["layers"] = spans.layer_metrics(
                spans.read_spans(spans_path), figures["wall_s"], ckpt_bytes,
                KIND_REFERENCES)
        print(f"round {self.rounds} {'traced' if traced else 'untraced'}: "
              f"wall {figures['wall_s']:.3f} s", file=sys.stderr)
        return figures

    def repeat(self, step) -> list:
        """Call ``step`` at least once and again while another call fits."""
        results, longest = [], 0.0
        while not results or time.monotonic() + longest <= self.deadline:
            began = time.monotonic()
            results.append(step())
            longest = max(longest, time.monotonic() - began)
        return results


def _metrics(kind: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def end_to_end(runner: Runner) -> dict:
    probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    rounds = runner.repeat(lambda: runner.round(traced=False))
    med = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    med["setup_s"] = statistics.median(probes + [r["setup_s"] for r in rounds])
    return _metrics("end_to_end", med)


def per_layer(runner: Runner) -> dict:
    pairs = runner.repeat(lambda: (runner.round(traced=False), runner.round(traced=True)))
    layers = [traced["layers"] for _, traced in pairs]
    med = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    med["trace.overhead_s"] = (statistics.median(t["wall_s"] for _, t in pairs)
                               - statistics.median(u["wall_s"] for u, _ in pairs))
    return _metrics("per_layer", med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.all_workloads()[args.workload]
    OUT.mkdir(exist_ok=True)
    runner = Runner(workload, args.seed, args.seconds)
    try:
        runner.setup_probe()  # compiles bytecode and warms the file cache
        metrics = per_layer(runner) if args.trace else end_to_end(runner)
    except RoundFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    for line in runner.tally.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    result = {
        "correct": not runner.tally.wrong,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
