"""Command-line front end wiring the engine, oracle, walk lab and constants.

Subcommands: count, count-ondemand, oracle, walk, rho, constants, verify.
Exit codes: 0 success, 1 verification failure, 2 bad arguments, an
unreadable checkpoint or an unusable --run-dir or --checkpoint-dir, 3 memory
budget reached (``count`` saves a checkpoint of the last layer reached first).
"""

from __future__ import annotations

import argparse
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


# ---------------------------------------------------------------------------
# output formats and the results store


def bfile_lines(rows) -> Iterator[str]:
    """OEIS b-file: one ascii 'n value' pair per line, increasing n."""
    for n, value in rows:
        yield f"{n} {value}"


def parse_bfile(text: str) -> list:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, value = line.split()
        rows.append((int(n), int(value)))
    return rows


def csv_lines(rows) -> Iterator[str]:
    """CSV with header n,G,H,ratio; ratio is G(n)/G(n-1), blank at n = 1."""
    yield "n,G,H,ratio"
    prev_g = None
    for n, g, h in rows:
        ratio = "" if not prev_g else f"{g / prev_g:.6f}"
        yield f"{n},{g},{h},{ratio}"
        prev_g = g


def parse_csv_counts(text: str) -> list:
    rows = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        n, g, h, _ = line.split(",")
        rows.append((int(n), int(g), int(h)))
    return rows


class UnusableDirectory(Exception):
    """A --run-dir or --checkpoint-dir that cannot be created or read."""


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
            raise UnusableDirectory(f"cannot use --run-dir {root}: {exc}") from exc

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
        self.manifest_path.write_text(json.dumps(self.manifest, indent=2) + "\n")

    def append(self, name: str, lines) -> str:
        path = self.root / name
        with open(path, "a") as fh:
            for line in lines:
                fh.write(line + "\n")
        return str(path)


def _emit(lines, store: RunStore | None, name: str, command: str, config: dict):
    for line in lines:
        print(line)
    if store is not None:
        path = store.append(name, lines)
        store.record(command, config, [path])


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
        raise UnusableDirectory(f"cannot use --checkpoint-dir {raw}: {exc}") from exc
    return path


def _save_checkpoint(layer, directory: Path) -> Path:
    name = f"graphseq-{layer.parity.name.lower()}-depth{layer.depth:05d}.ckpt"
    path = directory / name
    engine.Checkpoint.of(layer).save(path)
    return path


def _counts(max_n: int, parity, memory_limit: int | None = None, complete: bool = False):
    """(n, count, layer) rows for n = 1..max_n, from the depth-0 layer."""
    return engine.extend_counts(engine.initial_layer(parity), max_n, memory_limit, complete)


def cmd_count(args) -> int:
    store = RunStore(args.run_dir) if args.run_dir else None
    # resolved before any layer is advanced, so an unusable one costs no work
    can_save = args.checkpoint_every is not None or args.memory_limit is not None
    ckpt_dir = _checkpoint_dir(args) if can_save else None
    want_h = args.format == "csv"
    limit = args.memory_limit
    if want_h and limit is not None:
        limit //= 2  # the even and odd streams hold their layers side by side
    # a periodic checkpoint is there to be extended past --max-n, so it needs
    # complete layers; every other run advances over the cone of --max-n
    complete = args.checkpoint_every is not None
    even = _counts(args.max_n, engine.Parity.EVEN, limit, complete)
    odd = _counts(args.max_n, engine.Parity.ODD, limit, complete) if want_h else None
    # the advanced layers' cells and largest size, measured only for the manifest
    cost = {"cells_advanced": 0, "peak_layer_mib": 0.0} if store is not None else None

    def rows():
        for n, g, layer in even:
            layers = [layer]
            if want_h:
                _, h, odd_layer = next(odd)
                layers.append(odd_layer)
            yield (n, g, h) if want_h else (n, g)
            # runs once the row's line is printed, as the consumer asks for the next
            if args.checkpoint_every and layer.depth and layer.depth % args.checkpoint_every == 0:
                _save_checkpoint(layer, ckpt_dir)
            if cost is not None and layer.depth:  # the depth-0 start is not advanced
                cost["cells_advanced"] += sum(
                    len(band.limbs) for each in layers for band in each.bands.values())
                mib = sum(each.nbytes for each in layers) / 2**20
                cost["peak_layer_mib"] = max(cost["peak_layer_mib"], round(mib, 3))

    lines_out = []
    try:
        for line in (csv_lines if want_h else bfile_lines)(rows()):
            lines_out.append(line)
            print(line, flush=True)
    except engine.MemoryBudgetExceeded as exc:
        path = _save_checkpoint(exc.layer, ckpt_dir)
        print(
            f"memory budget reached at depth {exc.depth}: "
            f"checkpointed depth {exc.layer.depth} to {path}",
            file=sys.stderr,
        )
        if store is not None:
            store.append("results." + args.format, lines_out)
            store.record("count", _config(args) | {"interrupted": True}, [str(path)], **cost)
        return EXIT_MEMORY_CHECKPOINT
    if store is not None:
        path = store.append("results." + args.format, lines_out)
        store.record("count", _config(args), [path], **cost)
    return EXIT_OK


def _fail(command: str, message: str, code: int) -> int:
    print(f"graphseq {command}: {message}", file=sys.stderr)
    return code


def cmd_count_ondemand(args) -> int:
    store = RunStore(args.run_dir) if args.run_dir else None
    try:
        ckpt = engine.Checkpoint.load(args.checkpoint)
    except (OSError, engine.CheckpointFormatError) as exc:
        return _fail("count-ondemand", f"cannot read {args.checkpoint}: {exc}", EXIT_BAD_ARGS)
    if args.target_n <= ckpt.depth + 1:
        return _fail("count-ondemand", f"--target-n {args.target_n} must exceed the "
                     f"checkpoint's n = {ckpt.depth + 1}", EXIT_BAD_ARGS)
    horizon = ckpt.layer.horizon
    if horizon is not None and args.target_n > horizon + 1:
        return _fail("count-ondemand", f"--target-n {args.target_n} lies beyond the "
                     f"checkpoint's cone, which serves n <= {horizon + 1}", EXIT_BAD_ARGS)
    try:
        rows = [(n, v) for n, v, _ in
                engine.extend_counts(ckpt.layer, args.target_n, args.memory_limit)][1:]
    except engine.MemoryBudgetExceeded as exc:
        return _fail("count-ondemand", f"memory budget reached: {exc}", EXIT_MEMORY_CHECKPOINT)
    lines = list(bfile_lines(rows))
    _emit(lines, store, "results.bfile", "count-ondemand",
          {"checkpoint": str(args.checkpoint), "target_n": args.target_n})
    return EXIT_OK


def cmd_oracle(args) -> int:
    store = RunStore(args.run_dir) if args.run_dir else None
    lines = ["n,G,H,D"]
    failures = 0
    if args.cross_check:
        engine_g = [v for _, v, _ in _counts(args.max_n, engine.Parity.EVEN)]
        engine_h = [v for _, v, _ in _counts(args.max_n, engine.Parity.ODD)]
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
            all_equal = oracle.ballot_count(tuple([Fraction(1)] * n))
            lines.append(
                f"# ballot n={n}: sum-distinct={target}, "
                f"max over random ties={max_tied}, all-equal={all_equal}"
            )
    _emit(lines, store, "oracle.csv", "oracle", {"max_n": args.max_n})
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def cmd_walk(args) -> int:
    store = RunStore(args.run_dir) if args.run_dir else None
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


def _pmf_for(kind: str, order: int, exact: bool) -> constants.AreaPmf:
    if exact:
        return constants.area_pmf(order, kind, "gf")
    return constants.area_pmf(order, kind, "dp", exact=False)


def cmd_rho(args) -> int:
    store = RunStore(args.run_dir) if args.run_dir else None
    grids = args.grid or [2]
    extrapolate = args.extrapolate or []
    order = max(grids + extrapolate)  # the chain on grid n reads p[1..n-1]
    pmf = _pmf_for(args.kind, order, args.exact)
    lines = ["n,K,lower,upper,amalgamated,extrapolated"]
    human = []
    # one amalgamated solve per grid, also for a grid that is extrapolated over
    amalgamated = {n: constants.rho_amalgamated(n, pmf)
                   for n in dict.fromkeys(grids + extrapolate)}
    for n in grids:
        if args.exact and n > constants.EXACT_CHAIN_LIMIT:
            print(f"# exact solve needs n <= {constants.EXACT_CHAIN_LIMIT}; "
                  f"n={n} uses the iterative solve", file=sys.stderr)
        est = constants.rho_bounds(n, pmf)
        am = amalgamated[n]
        if args.exact and est.mode == "exact-rational":
            human.append(f"{est.lower} ≤ rho ≤ {est.upper}")
            human.append(f"amalgamated estimate {am.lower} (non-rigorous)")
            lines.append(f"{n},{order},{est.lower},{est.upper},{am.lower},")
        else:
            human.append(
                f"n={n}: {est.lower:.10f} ≤ rho ≤ {est.upper:.10f} "
                f"(amalgamated {am.lower:.10f}, non-rigorous)"
            )
            lines.append(f"{n},{order},{est.lower:.12f},{est.upper:.12f},{am.lower:.12f},")
    extrapolated = None
    if extrapolate:
        pts = [(n, amalgamated[n].lower) for n in extrapolate]
        extrapolated = constants.richardson(pts)
        human.append(f"richardson over {extrapolate}: {extrapolated:.12f} (non-rigorous)")
        lines.append(f"{extrapolate[-1]},{order},,,,{extrapolated:.12f}")
    for line in human:
        print(line)
    if store is not None:
        path = store.append("rho.csv", lines)
        store.record("rho", {"grids": list(grids), "K": order, "kind": args.kind}, [path])
    return EXIT_OK


def cmd_constants(args) -> int:
    store = RunStore(args.run_dir) if args.run_dir else None
    grids = args.grids
    order = max(grids)
    t0 = time.monotonic()
    lines = []
    results = {}
    for kind, label in (("lazy", "rho"), ("simple", "rho_hat")):
        pmf = _pmf_for(kind, order, exact=False)
        pts = [(n, constants.rho_amalgamated(n, pmf).lower) for n in grids]
        extrapolated = constants.richardson(pts)
        bracket = constants.rho_bounds(grids[-1], pmf)
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
    _emit(lines, store, "constants.txt", "constants", {"grids": grids, "K": order})
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, None))
            print(f"ok - {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            checks.append((name, exc))
            print(f"FAIL - {name}: {exc}")

    def eq(a, b, what=""):
        if a != b:
            raise AssertionError(f"{what}: {a} != {b}")

    max_n = args.max_n

    def engine_vs_oracle():
        even = [v for _, v, _ in _counts(max_n, engine.Parity.EVEN)]
        odd = [v for _, v, _ in _counts(max_n, engine.Parity.ODD)]
        for n in range(1, max_n + 1):
            g, h, d = oracle.brute_counts(n)
            eq(even[n - 1], g, f"G({n})")
            eq(odd[n - 1], h, f"H({n})")
            eq(g + h, d, f"D({n})")

    def growth():
        vals = [v for _, v, _ in _counts(24, engine.Parity.EVEN)]
        odd = [v for _, v, _ in _counts(24, engine.Parity.ODD)]
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
                got = layer.value(y, a)
                want = oracle.reference_count(8, y, a, engine.Parity.EVEN)
                eq(got, want, f"cap read ({y}, {a})")

    def mc_determinism():
        runs = [walklab.persistence_mc(12, 3000, seed=5, batch=700, workers=w)
                for w in (1, 2)]
        eq(runs[0], runs[1], "worker count changes the estimate")

    def checkpoint_layer():
        layer = engine.initial_layer(engine.Parity.ODD)
        for _ in range(6):
            layer = engine.advance(layer)
        return layer

    def checkpoints():
        layer = checkpoint_layer()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "layer.ckpt")
            engine.Checkpoint.of(layer).save(path)
            back = engine.Checkpoint.load(path)
        eq(back.layer, layer, "checkpoint roundtrip")
        *_, (n, value, _) = engine.extend_counts(back.layer, 10)
        eq((n, value), (10, engine.count_graphic(10, engine.Parity.ODD)), "on-demand extension")

    def checkpoint_damage():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "layer.ckpt")
            engine.Checkpoint.of(checkpoint_layer()).save(path)
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
        pmf = constants.area_pmf(9, "lazy", "gf")
        eq(pmf.p[1:4], [Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)], "g(x,1)")
        dp = constants.area_pmf(30, "lazy", "dp")
        gf = constants.area_pmf(30, "lazy", "gf")
        eq(dp.p[1:], gf.p[1:], "lazy gf vs dp")
        dps = constants.area_pmf(30, "simple", "dp")
        gfs = constants.area_pmf(30, "simple", "gf")
        eq(dps.p[1:], gfs.p[1:], "simple gf vs dp")

    def chain():
        pmf = constants.area_pmf(2, "lazy", "gf")
        h = constants.chain_hitting_exact(2, pmf)
        eq(h["zero"][0], Fraction(1, 8), "h10")
        eq(h["star"][0], Fraction(1, 2), "h1*")
        eq(h["zero"][0] + h["minus"][0] + h["star"][0], 1, "hitting row sum")
        est = constants.rho_bounds(2, pmf)
        eq((est.lower, est.upper), (Fraction(65, 128), Fraction(93, 128)), "n=2 bounds")
        pmf16 = constants.area_pmf(16, "lazy", "dp", exact=False)
        exact8 = constants.rho_bounds(8, constants.area_pmf(16, "lazy", "gf"))
        b8 = constants.rho_bounds(8, pmf16)
        assert b8.lower <= exact8.lower <= exact8.upper <= b8.upper, "n=8 bracket"
        b16 = constants.rho_bounds(16, pmf16)
        a16 = constants.rho_amalgamated(16, pmf16)
        assert b16.lower <= a16.lower <= b16.upper, "amalgamated outside bracket"

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
        eq(oracle.ballot_count((Fraction(1), Fraction(3, 5))), 3, "ballot n=2")
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            x = oracle.random_sum_distinct_vector(n, rng)
            eq(oracle.ballot_count(x), oracle.double_factorial_odd(n), f"ballot n={n}")
            tied = oracle.ballot_count(tuple([Fraction(1)] * n))
            assert tied >= oracle.double_factorial_odd(n), "tied ballot below floor"

    def extrapolation():
        eq(constants.richardson([(8, Fraction(3) + Fraction(5, 8)),
                                 (16, Fraction(3) + Fraction(5, 16))]),
           Fraction(3), "linear model")

    def roundtrip_formats():
        rows = [(n, v) for n, v, _ in _counts(6, engine.Parity.EVEN)]
        parsed = parse_bfile("\n".join(bfile_lines(rows)))
        eq(parsed, rows, "bfile roundtrip")
        triples = [(n, g, g - 1) for n, g in rows]
        eq(parse_csv_counts("\n".join(csv_lines(triples))), triples, "csv roundtrip")

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

    failed = [name for name, exc in checks if exc is not None]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
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
    p.add_argument("--checkpoint-dir", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("count-ondemand", help="extend counts from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target-n", type=int, required=True)
    p.add_argument("--memory-limit", type=_int_in(1), default=None,
                   help="byte ceiling, the loaded checkpoint included; on breach exit 3")
    p.set_defaults(func=cmd_count_ondemand)

    p = sub.add_parser("oracle", help="brute-force tables and cross-checks")
    p.add_argument("--max-n", type=_int_in(1, oracle.BRUTE_LIMIT), default=10)
    p.add_argument("--cross-check", action="store_true", default=True)
    p.add_argument("--no-cross-check", dest="cross_check", action="store_false")
    p.add_argument("--ballot", type=_int_in(0, oracle.BALLOT_LIMIT), default=0, metavar="N",
                   help="also report ballot counts up to this n")
    p.add_argument("--ballot-vectors", type=_int_in(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("walk", help="bridge persistence estimates")
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--samples", type=_int_in(1), default=1_000_000)
    p.add_argument("--end", choices=("zero", "either"), default="zero")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=_int_in(1), default=200_000,
                   help="samples per shard; fixes the shard layout, and with it "
                        "the estimate, whatever --workers is")
    p.add_argument("--exact", action="store_true",
                   help=f"also print the exact value (n <= {walklab.EXACT_LIMIT})")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("rho", help="absorbing-chain bounds and extrapolation")
    p.add_argument("--grid", type=_int_in(2), action="append", metavar="N")
    p.add_argument("--kind", choices=("lazy", "simple"), default="lazy")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnusableDirectory as exc:
        return _fail(args.command, str(exc), EXIT_BAD_ARGS)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
