"""Command-line front end wiring the engine, oracle, walk lab and constants.

Subcommands: count, count-ondemand, oracle, walk, rho, constants, verify.
Exit codes: 0 success, 1 verification failure, 2 bad arguments, an
unreadable checkpoint or an unusable --run-dir or --checkpoint-dir, 3 memory
budget reached (``count`` saves a checkpoint of the last layer reached first).
A checkpoint, results file or manifest that cannot be written ends the run
with one ``graphseq <command>: cannot write ...`` line and exit 2, after any
rows already printed.
An argument that does not parse gets argparse's usage and error lines; every
other refusal is one stderr line ``graphseq <command>: <message>``, with
nothing on stdout and no manifest entry: a command raises `Refused` and
`run` prints it.  ``count``'s budget exit is no refusal: it prints the rows
it reached and the checkpoint it saved, and records the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import numpy as np

from . import engine, oracle, walklab, constants

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_MEMORY_CHECKPOINT = 3

DEFAULT_EXTRAPOLATION_GRIDS = (1024, 2048, 4096)
RHO_LABELS = {"lazy": "rho", "simple": "rho_hat"}  # the constant each walk kind gives


class Refused(Exception):
    """A run the CLI declines; `run` prints the message and exits with `code`."""

    def __init__(self, message: str, code: int = EXIT_BAD_ARGS):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# output formats and the results store


def count_lines(parities, rows) -> Iterator[str]:
    """What `count` prints for rows (n, counts) of a layer of `parities`, increasing n.

    For one parity an OEIS b-file, one ascii 'n value' pair per line; for both
    a csv with header n,G,H,ratio, where ratio is G(n)/G(n-1), blank at n = 1.
    """
    if len(parities) == 1:
        for n, (value,) in rows:
            yield f"{n} {value}"
        return
    yield "n,G,H,ratio"
    prev_g = None
    for n, (g, h) in rows:
        ratio = "" if not prev_g else f"{g / prev_g:.6f}"
        yield f"{n},{g},{h},{ratio}"
        prev_g = g


def parse_bfile(text: str) -> list:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, value = line.split()
        rows.append((int(n), int(value)))
    return rows


def parse_csv_counts(text: str) -> list:
    rows = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        n, g, h, _ = line.split(",")
        rows.append((int(n), int(g), int(h)))
    return rows


class RunStore:
    """Plain-file results store: appended output files plus a manifest."""

    def __init__(self, root):
        self.started = time.monotonic()
        self.root = Path(root)
        self.manifest_path = self.root / "manifest.json"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            if self.manifest_path.exists():
                self.manifest = json.loads(self.manifest_path.read_text())
                if not isinstance(self.manifest, dict) or not isinstance(
                        self.manifest.get("runs"), list):
                    raise ValueError("manifest.json holds no list of runs")
            else:
                self.manifest = {"runs": []}
        except (OSError, ValueError) as exc:
            raise Refused(f"cannot use --run-dir {root}: {exc}") from exc

    def record(self, command: str, config: dict, outputs: list, **fields) -> None:
        """Add a run: elapsed time since the store was opened, peak RSS, versions.

        ``fields`` are further per-run measurements, stored as given.
        """
        import resource  # here rather than at import time, which every command pays

        from . import __version__

        self.manifest["runs"].append(
            {
                "command": command,
                "config": config,
                "outputs": outputs,
                "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "elapsed_s": round(time.monotonic() - self.started, 3),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                "versions": {
                    "graphseq": __version__,
                    "python": ".".join(map(str, sys.version_info[:3])),
                    "numpy": np.__version__,
                },
            }
            | fields
        )
        with engine.atomic_open(self.manifest_path) as fh:
            fh.write((json.dumps(self.manifest, indent=2) + "\n").encode())

    def save(self, name: str, lines, command: str, config: dict, outputs=(), **fields) -> None:
        """Append `lines` to the file `name` and record the run, with that file after `outputs`.

        If the append or the record fails, the file is cut back to its old
        size, or removed if the append made it: it keeps only recorded rows.
        """
        path = self.root / name
        size = path.stat().st_size if path.is_file() else None
        try:
            with open(path, "a") as fh:
                for line in lines:
                    fh.write(line + "\n")
            self.record(command, config, [*map(str, outputs), str(path)], **fields)
        except OSError as exc:  # the message names the file: results or manifest
            with contextlib.suppress(OSError):  # the refusal wins over a failed clean-up
                if size is None:
                    path.unlink()
                else:
                    os.truncate(path, size)
            raise Refused(f"cannot write to --run-dir {self.root}: {exc}") from exc


def _chain_record(solved, printed) -> dict:
    """Manifest fields: Toeplitz products per solve, and per kind the last printed bracket's width."""
    solves = [{"kind": e.kind, "n": e.n, "mode": e.mode, "products": e.sweeps} for e in solved]
    widths = {e.kind: float(e.upper - e.lower) for e in printed}
    return {"solves": solves, "bracket_width": widths}


def _emit(lines, store: RunStore | None, name: str, command: str, config: dict, **fields):
    for line in lines:
        print(line)
    if store is not None:
        store.save(name, lines, command, config, **fields)


# ---------------------------------------------------------------------------
# subcommands


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _checkpoint_dir(args) -> Path:
    raw = args.checkpoint_dir or os.environ.get("GRAPHSEQ_CHECKPOINT_DIR") or "."
    path = Path(raw)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Refused(f"cannot use --checkpoint-dir {raw}: {exc}") from exc
    return path


def _save_checkpoint(layer, directory: Path) -> Path:
    parities = "-".join(parity.name.lower() for parity in layer.parities)
    path = directory / f"graphseq-{parities}-depth{layer.depth:05d}.ckpt"
    try:
        engine.Checkpoint(layer).save(path)
    except OSError as exc:
        raise Refused(f"cannot write checkpoint {path}: {exc}") from exc
    return path


def _count_columns(max_n: int) -> tuple:
    """The G and H columns for n = 1..max_n, from one pass over both parities."""
    stream = engine.extend_counts(engine.initial_layer(*engine.Parity), max_n)
    return tuple(zip(*(counts for _, counts, _ in stream)))


def cmd_count(args, store: RunStore | None) -> int:
    # resolved before any layer is advanced, so an unusable one costs no work
    can_save = args.checkpoint_every is not None or args.memory_limit is not None
    ckpt_dir = _checkpoint_dir(args) if can_save else None
    parities = tuple(engine.Parity) if args.format == "csv" else (engine.Parity.EVEN,)
    # a periodic checkpoint is there to be extended past --max-n, so it needs
    # complete layers; every other run advances over the cone of --max-n
    complete = args.checkpoint_every is not None
    stream = engine.extend_counts(engine.initial_layer(*parities), args.max_n,
                                  args.memory_limit, complete)
    # the advanced layers' cells (per parity) and largest size, measured only
    # for the manifest
    cost = {"cells_advanced": 0, "peak_layer_mib": 0.0} if store is not None else None

    def rows():
        for n, counts, layer in stream:
            yield n, counts
            # runs once the row's line is printed, as the consumer asks for the
            # next, and before the stream's next advance frees `layer`
            if args.checkpoint_every and layer.depth and layer.depth % args.checkpoint_every == 0:
                _save_checkpoint(layer, ckpt_dir)
            if cost is not None and layer.depth:  # the depth-0 start is not advanced
                cost["cells_advanced"] += len(parities) * layer.cells
                mib = layer.nbytes / 2**20
                cost["peak_layer_mib"] = max(cost["peak_layer_mib"], round(mib, 3))

    lines_out, saved = [], []  # saved: the checkpoint of a run the budget stops
    try:
        for line in count_lines(parities, rows()):
            lines_out.append(line)
            print(line, flush=True)
    except engine.MemoryBudgetExceeded as exc:
        saved.append(_save_checkpoint(exc.layer, ckpt_dir))
        print(
            f"memory budget reached at depth {exc.depth}: "
            f"checkpointed depth {exc.layer.depth} to {saved[0]}",
            file=sys.stderr,
        )
    if store is not None:
        config = _config(args) | ({"interrupted": True} if saved else {})
        store.save("results." + args.format, lines_out, "count", config, saved, **cost)
    return EXIT_MEMORY_CHECKPOINT if saved else EXIT_OK


def cmd_count_ondemand(args, store: RunStore | None) -> int:
    try:
        ckpt = engine.Checkpoint.load(args.checkpoint)
    except (OSError, engine.CheckpointFormatError) as exc:
        raise Refused(f"cannot read {args.checkpoint}: {exc}") from exc
    if args.target_n <= ckpt.depth + 1:
        raise Refused(f"--target-n {args.target_n} must exceed the checkpoint's "
                      f"n = {ckpt.depth + 1}")
    horizon = ckpt.layer.horizon
    if horizon is not None and args.target_n > horizon + 1:
        raise Refused(f"--target-n {args.target_n} lies beyond the checkpoint's cone, "
                      f"which serves n <= {horizon + 1}")
    try:
        rows = [(n, counts) for n, counts, _ in
                engine.extend_counts(ckpt.layer, args.target_n, args.memory_limit)]
    except engine.MemoryBudgetExceeded as exc:
        raise Refused(f"memory budget reached: {exc}", EXIT_MEMORY_CHECKPOINT) from exc
    lines = list(count_lines(ckpt.layer.parities, rows))
    # the checkpoint's own row was printed by the count that saved it; in csv
    # it still gives the first new row its ratio
    del lines[len(lines) - len(rows)]
    name = "results.bfile" if len(ckpt.layer.parities) == 1 else "results.csv"
    _emit(lines, store, name, "count-ondemand",
          {"checkpoint": str(args.checkpoint), "target_n": args.target_n})
    return EXIT_OK


def cmd_oracle(args, store: RunStore | None) -> int:
    lines = ["n,G,H,D"]
    failures = 0
    if args.cross_check:
        engine_g, engine_h = _count_columns(args.max_n)
    for n in range(1, args.max_n + 1):
        g, h, d = oracle.brute_counts(n)
        lines.append(f"{n},{g},{h},{d}")
        if args.cross_check:
            eg, eh = engine_g[n - 1], engine_h[n - 1]
            if (eg, eh) != (g, h):
                failures += 1
                lines.append(f"# MISMATCH at n={n}: engine ({eg}, {eh})")
    if args.cross_check:
        lines.append(f"# engine cross-check: {'ok' if not failures else 'FAILED'}")
    if args.ballot:
        rng = np.random.default_rng(args.seed)
        for n in range(2, args.ballot + 1):
            target = oracle.double_factorial_odd(n)
            for _ in range(args.ballot_vectors):
                x = oracle.random_sum_distinct_vector(n, rng)
                if oracle.ballot_count(x) != target:
                    failures += 1
                    lines.append(f"# BALLOT MISMATCH n={n} at {x}")
            # exploratory: counts can only grow under ties; report, assert nothing
            max_tied = 0
            for _ in range(args.ballot_vectors):
                base = oracle.random_sum_distinct_vector(max(2, n - 1), rng)
                x = (base + base)[:n]
                max_tied = max(max_tied, oracle.ballot_count(x))
            all_equal = oracle.ballot_count((1,) * n)
            lines.append(
                f"# ballot n={n}: sum-distinct={target}, "
                f"max over random ties={max_tied}, all-equal={all_equal}"
            )
    _emit(lines, store, "oracle.csv", "oracle", {"max_n": args.max_n})
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def cmd_walk(args, store: RunStore | None) -> int:
    shards = len(walklab.mc_shard_layout(args.samples, args.batch))
    estimate, stderr = walklab.persistence_mc(
        args.n, args.samples, end=args.end, seed=args.seed,
        workers=args.workers, batch=args.batch,
    )
    scaled = estimate * args.n**0.25
    lines = [
        f"# seed={args.seed} samples={args.samples} shards={shards} "
        f"batch={args.batch} end={args.end}",
        "n,estimate,stderr,scaled",
        f"{args.n},{estimate:.9f},{stderr:.3e},{scaled:.6f}",
    ]
    if args.exact:
        if args.n <= walklab.EXACT_LIMIT:
            exact = walklab.persistence_exact(args.n, args.end)
            lines.append(f"# exact={exact} ({float(exact):.9f})")
        else:
            print(f"# exact mode needs n <= {walklab.EXACT_LIMIT}; skipped",
                  file=sys.stderr)
    _emit(lines, store, "walk.csv", "walk",
          {"n": args.n, "samples": args.samples, "seed": args.seed, "shards": shards})
    return EXIT_OK


def _extrapolated(kind: str, points):
    """Richardson over (n, estimate) points, refused outside [0, 1).

    There it is no probability, and for rho gives no constant c.
    """
    value = constants.richardson(points)
    if not 0 <= value < 1:
        raise Refused(f"{RHO_LABELS[kind]} extrapolates to {float(value):.4f}, "
                      "outside [0, 1); use larger grids")
    return value


def cmd_rho(args, store: RunStore | None) -> int:
    grids = args.grid or [2]
    extrapolate = args.extrapolate or []
    order = max(grids + extrapolate)  # the chain on grid n reads p[1..n-1]
    pmf = constants.area_pmf(order, args.kind, exact=args.exact)
    lines = ["n,K,lower,upper,amalgamated,extrapolated"]
    human = []
    # one solve per grid, also for a grid that is only extrapolated over
    solved = {n: constants.rho_bounds(n, pmf) for n in dict.fromkeys(grids + extrapolate)}
    for n in solved:
        if args.exact and n > constants.EXACT_CHAIN_LIMIT:
            print(f"# exact solve needs n <= {constants.EXACT_CHAIN_LIMIT}; "
                  f"n={n} uses the iterative solve", file=sys.stderr)
    for n in grids:
        est = solved[n]
        if est.mode == "exact-rational":
            human.append(f"{est.lower} ≤ rho ≤ {est.upper}")
            human.append(f"amalgamated estimate {est.estimate} (non-rigorous)")
            lines.append(f"{n},{order},{est.lower},{est.upper},{est.estimate},")
        else:
            human.append(
                f"n={n}: {est.lower:.10f} ≤ rho ≤ {est.upper:.10f} "
                f"(amalgamated {est.estimate:.10f}, non-rigorous)"
            )
            lines.append(f"{n},{order},{est.lower:.12f},{est.upper:.12f},{est.estimate:.12f},")
    if extrapolate:
        pts = [(n, solved[n].estimate) for n in extrapolate]
        extrapolated = float(_extrapolated(args.kind, pts))  # a Fraction when every grid is exact
        human.append(f"richardson over {extrapolate}: {extrapolated:.12f} (non-rigorous)")
        lines.append(f"{extrapolate[-1]},{order},,,,{extrapolated:.12f}")
    for line in human:
        print(line)
    if store is not None:
        config = {"grids": list(grids), "K": order, "kind": args.kind,
                  "extrapolate": list(extrapolate), "exact": args.exact}
        printed = [solved[n] for n in grids]
        store.save("rho.csv", lines, "rho", config, **_chain_record(solved.values(), printed))
    return EXIT_OK


def cmd_constants(args, store: RunStore | None) -> int:
    grids = args.grids
    order = max(grids)
    t0 = time.monotonic()
    lines, results, solved = [], {}, []
    for kind, label in RHO_LABELS.items():
        pmf = constants.area_pmf(order, kind)
        estimates = [constants.rho_bounds(n, pmf) for n in grids]
        extrapolated = _extrapolated(kind, [(e.n, e.estimate) for e in estimates])
        bracket = estimates[-1]
        solved += estimates
        results[label] = extrapolated
        lines.append(
            f"{label} = {extrapolated:.12f}  [richardson over amalgamated chain, "
            f"grids {grids}, K={order}; non-rigorous]"
        )
        lines.append(
            f"  rigorous bracket at n={grids[-1]}: "
            f"[{bracket.lower:.10f}, {bracket.upper:.10f}]"
        )
    c = constants.c_from_rho(results["rho"])
    lines.append(f"c = {c:.12f}  [Gamma(3/4) / (4 pi sqrt(2 (1 - rho))); from rho above]")
    lines.append(f"# elapsed {time.monotonic() - t0:.1f}s")
    _emit(lines, store, "constants.txt", "constants", {"grids": grids, "K": order},
          **_chain_record(solved, solved))  # each kind's last grid is its printed bracket
    return EXIT_OK


def cmd_verify(args, store: RunStore | None) -> int:
    lines, failed = [], []

    def report(line):
        lines.append(line)
        print(line, flush=True)

    def check(name, fn):
        try:
            fn()
            report(f"ok - {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failed.append(name)
            report(f"FAIL - {name}: {exc}")

    def eq(a, b, what=""):
        if a != b:
            raise AssertionError(f"{what}: {a} != {b}")

    max_n = args.max_n

    def engine_vs_oracle():
        even, odd = _count_columns(max_n)
        for n in range(1, max_n + 1):
            g, h, d = oracle.brute_counts(n)
            eq(even[n - 1], g, f"G({n})")
            eq(odd[n - 1], h, f"H({n})")
            eq(g + h, d, f"D({n})")

    def growth():
        vals, odd = _count_columns(24)
        for i in range(1, len(vals)):
            assert vals[i] >= vals[i - 1], f"G not monotone at {i + 1}"
            assert 2 * vals[i] >= vals[i - 1] + odd[i - 1], f"growth bound at {i + 1}"

    def caps():
        layer = engine.initial_layer(engine.Parity.EVEN)
        for _ in range(8):
            layer = engine.advance(layer)
        for y in layer.heights():
            band = layer.bands[y]
            for a in range(band.cap, band.cap + 5):
                (got,) = layer.value(y, a)
                want = oracle.reference_count(8, y, a, engine.Parity.EVEN)
                eq(got, want, f"cap read ({y}, {a})")

    def mc_determinism():
        runs = [walklab.persistence_mc(12, 3000, seed=5, batch=700, workers=w)
                for w in (1, 2)]
        eq(runs[0], runs[1], "worker count changes the estimate")

    def checkpoint_layer(*parities):
        layer = engine.initial_layer(*parities)
        for _ in range(6):
            layer = engine.advance(layer)
        return layer

    def checkpoints():
        for parities in ((engine.Parity.ODD,), tuple(engine.Parity)):
            layer = checkpoint_layer(*parities)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp, "layer.ckpt")
                engine.Checkpoint(layer).save(path)
                back = engine.Checkpoint.load(path)
            eq(back.layer, layer, "checkpoint roundtrip")
            *_, (n, counts, _) = engine.extend_counts(back.layer, 10)
            want = tuple(engine.count_graphic(10, parity) for parity in parities)
            eq((n, counts), (10, want), "on-demand extension")

    def checkpoint_damage():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "layer.ckpt")
            engine.Checkpoint(checkpoint_layer(engine.Parity.ODD)).save(path)
            good = path.read_bytes()
            damaged = [good[:cut] for cut in (20, len(good) // 2, len(good) - 2)]
            damaged += [good[:i] + bytes([good[i] ^ 0x40]) + good[i + 1:]
                        for i in (9, len(good) // 2, len(good) - 1)]
            for data in damaged:
                path.write_bytes(data)
                try:
                    engine.Checkpoint.load(path)
                except engine.CheckpointFormatError:
                    continue
                raise AssertionError(f"a damaged checkpoint of {len(data)} bytes loaded")

    def graphicality_tests_agree():
        for n in range(1, 8):
            for d in oracle.enumerate_sequences(n):
                dom, even = oracle.is_graphic(d)
                eq(dom and even, oracle.havel_hakimi(d), f"tests disagree on {d}")

    def walk_mapping():
        for n in range(1, 9):
            total = 0
            walks = {}
            for d in oracle.enumerate_sequences(n):
                dom, _ = oracle.is_graphic(d)
                w = oracle.to_walk(d)
                eq(dom, all(a >= 0 for a in w.areas()), f"walk area mismatch {d}")
                eq(sum(d) % 2, (w.areas()[-1] if w.steps else 0) % 2, f"parity {d}")
                walks[w.steps] = w.lazy_steps
                total += 1
            eq(total, sum(2**z for z in walks.values()), f"walk weights n={n}")

    def series():
        weights = constants.series_g(9).area_weights()
        eq(weights[1:4], [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)], "g(x,1)")
        for kind in ("lazy", "simple"):
            gf = constants.series_g(30, kind).area_weights()
            dp = constants.area_pmf(30, kind, exact=True).p
            eq(list(dp), gf, f"{kind} gf vs dp")

    def chain():
        pmf = constants.area_pmf(2, exact=True)
        h = constants.chain_hitting_iterative(2, pmf)
        eq(h["zero"][0], Fraction(1, 8), "h10")
        eq(h["minus"][0], Fraction(3, 8), "h1-")
        eq(h["star"][0], Fraction(1, 2), "h1*")
        est = constants.rho_bounds(2, pmf)
        eq((est.lower, est.upper), (Fraction(65, 128), Fraction(93, 128)), "n=2 bounds")
        pmf16 = constants.area_pmf(16)
        exact8 = constants.rho_bounds(8, constants.area_pmf(16, exact=True))
        b8 = constants.rho_bounds(8, pmf16)
        assert b8.lower <= exact8.lower <= exact8.upper <= b8.upper, "n=8 bracket"
        b16 = constants.rho_bounds(16, pmf16)
        assert b16.lower <= b16.estimate <= b16.upper, "amalgamated outside bracket"

    def persistence():
        eq(walklab.persistence_exact(2), Fraction(5, 6), "q(2)")
        est, se = walklab.persistence_mc(5, 100_000, seed=13)
        exact = float(walklab.persistence_exact(5))
        assert abs(est - exact) <= 3 * se, f"mc off: {est} vs {exact}"
        for n in range(1, 6):
            counts = walklab.bridge_return_counts(n)
            for k in range(n + 1):
                eq(walklab.returns_tail(n, k),
                   Fraction(counts[k], math.comb(2 * n, n)), f"returns({n},{k})")

    def llt():
        e16, e64 = walklab.llt_error(16), walklab.llt_error(64)
        assert e64 < e16 < 1, f"llt errors not shrinking: {e16}, {e64}"

    def ballot():
        eq(oracle.ballot_count((5, 3)), 3, "ballot n=2")
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            x = oracle.random_sum_distinct_vector(n, rng)
            eq(oracle.ballot_count(x), oracle.double_factorial_odd(n), f"ballot n={n}")
            tied = oracle.ballot_count((1,) * n)
            assert tied >= oracle.double_factorial_odd(n), "tied ballot below floor"
        # weights from [1, 2**40) past n = 8, as many vectors as fit in 2 s for each n
        for n, vectors in ((9, 3), (10, 3), (11, 3), (12, 1)):
            for _ in range(vectors):
                x = oracle.random_sum_distinct_vector(n, rng)
                eq(oracle.ballot_count(x), oracle.double_factorial_odd(n), f"ballot n={n}")

    def extrapolation():
        eq(constants.richardson([(8, Fraction(3) + Fraction(5, 8)),
                                 (16, Fraction(3) + Fraction(5, 16))]),
           Fraction(3), "linear model")

    def roundtrip_formats():
        rows = [(n, counts) for n, counts, _ in
                engine.extend_counts(engine.initial_layer(*engine.Parity), 6)]
        even = [(n, counts[:1]) for n, counts in rows]
        eq(parse_bfile("\n".join(count_lines((engine.Parity.EVEN,), even))),
           [(n, g) for n, (g,) in even], "bfile roundtrip")
        eq(parse_csv_counts("\n".join(count_lines(tuple(engine.Parity), rows))),
           [(n, g, h) for n, (g, h) in rows], "csv roundtrip")

    check("engine counts match the brute-force oracle", engine_vs_oracle)
    check("monotone growth and the (G+H)/2 bound", growth)
    check("cap reads agree with the cap-free reference", caps)
    check("Monte Carlo is worker-count independent", mc_determinism)
    check("checkpoint save/load/extend", checkpoints)
    check("checkpoint rejects truncation and corruption", checkpoint_damage)
    check("conjugate test agrees with havel-hakimi", graphicality_tests_agree)
    check("sequence-to-walk mapping", walk_mapping)
    check("generating function vs first-passage dp", series)
    check("absorbing chain exact values", chain)
    check("persistence and return laws", persistence)
    check("local limit error shrinks", llt)
    check("ballot arrangement counts", ballot)
    check("richardson recovers linear models", extrapolation)
    check("output formats round-trip", roundtrip_formats)

    report(f"{len(lines) - len(failed)}/{len(lines)} checks passed")
    if store is not None:
        store.save("verify.txt", lines, "verify", {"max_n": max_n})
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _int_in(lo: int, hi: int | None = None):
    """An argparse type for the integers lo..hi, or >= lo with no hi."""

    def parse(text: str) -> int:
        value = int(text)
        if hi is None and value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie in {lo}..{hi}, got {value}")
        return value

    parse.__name__ = "int"  # names the type in argparse's "invalid int value"
    return parse


def _grid_list(text: str) -> list:
    try:
        grids = [_int_in(2)(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if len(grids) < 2 or len(set(grids)) != len(grids):
        raise argparse.ArgumentTypeError(f"need at least two distinct grids, got {text!r}")
    return grids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphseq",
        description="Exact graphic-sequence counts and their growth constants.",
    )
    parser.add_argument("--run-dir", help="directory for the plain-file results store")
    parser.add_argument("--workers", type=_int_in(1), default=os.cpu_count() or 1,
                        help="worker threads for the Monte Carlo shards of walk")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="stream exact counts while advancing layers")
    p.add_argument("--max-n", type=_int_in(1), required=True)
    p.add_argument("--format", choices=("bfile", "csv"), default="bfile")
    p.add_argument("--memory-limit", type=_int_in(1), default=None,
                   help="byte ceiling; on breach checkpoint and exit 3")
    p.add_argument("--checkpoint-every", type=_int_in(1), default=None, metavar="DEPTH")
    p.add_argument("--checkpoint-dir", default=None,
                   help="where checkpoints go; default $GRAPHSEQ_CHECKPOINT_DIR, "
                        "else the current directory")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("count-ondemand", help="extend counts from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target-n", type=int, required=True)
    p.add_argument("--memory-limit", type=_int_in(1), default=None,
                   help="byte ceiling, the loaded checkpoint included; on breach exit 3")
    p.set_defaults(func=cmd_count_ondemand)

    p = sub.add_parser("oracle", help="brute-force tables and cross-checks")
    p.add_argument("--max-n", type=_int_in(1, oracle.BRUTE_LIMIT), default=10)
    p.add_argument("--cross-check", action="store_true", default=True,
                   help="check each row against the engine's counts; on by default")
    p.add_argument("--no-cross-check", dest="cross_check", action="store_false",
                   help="skip the cross-check, which is on by default")
    p.add_argument("--ballot", type=_int_in(0, oracle.BALLOT_LIMIT), default=0, metavar="N",
                   help="also report ballot counts up to this n")
    p.add_argument("--ballot-vectors", type=_int_in(1), default=20)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("walk", help="bridge persistence estimates")
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--samples", type=_int_in(1), default=1_000_000)
    p.add_argument("--end", choices=tuple(walklab.End.STATES), default=walklab.End.ZERO)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--batch", type=_int_in(1), default=walklab.MC_BATCH,
                   help="samples per shard; fixes the shard layout, and with it "
                        "the estimate, whatever --workers is")
    p.add_argument("--exact", action="store_true",
                   help=f"also print the exact value (n <= {walklab.EXACT_LIMIT})")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("rho", help="absorbing-chain bounds and extrapolation")
    p.add_argument("--grid", type=_int_in(2), action="append", metavar="N")
    p.add_argument("--kind", choices=tuple(constants.STEP_LAW), default="lazy")
    p.add_argument("--exact", action="store_true",
                   help="exact rational solve (small grids)")
    p.add_argument("--extrapolate", type=_grid_list, default=None, metavar="N1,N2,...")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("constants", help="report rho, c and the simple-walk variant")
    p.add_argument("--grids", type=_grid_list,
                   default=",".join(str(g) for g in DEFAULT_EXTRAPOLATION_GRIDS))
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run the cross-module property suite")
    p.add_argument("--max-n", type=_int_in(1, oracle.BRUTE_LIMIT), default=10,
                   help="exhaustive oracle range for the engine comparison")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        store = RunStore(args.run_dir) if args.run_dir else None
        return args.func(args, store)
    except Refused as exc:
        print(f"graphseq {args.command}: {exc}", file=sys.stderr)
        return exc.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
