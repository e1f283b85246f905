"""CLI surface: commands, exit codes, formats, the results store."""

import contextlib
import hashlib
import io
import json
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import graphseq
from graphseq import cli, constants, engine, oracle
from graphseq.cli import (
    EXIT_BAD_ARGS,
    EXIT_MEMORY_CHECKPOINT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    count_lines,
    parse_bfile,
    parse_csv_counts,
    run,
)


def layer_at(depth):
    layer = engine.initial_layer(engine.Parity.EVEN)
    for _ in range(depth):
        layer = engine.advance(layer)
    return layer


def count_rows(max_n, parity=engine.Parity.EVEN, **kwargs):
    start = engine.initial_layer(parity)
    return [(n, v) for n, (v,), _ in engine.extend_counts(start, max_n, **kwargs)]


# every option of the top-level parser and of each subcommand, with its
# default; --workers is left out, since it defaults to the CPU count
CLI_OPTIONS = {
    "graphseq": {"--run-dir": None},
    "count": {"--max-n": None, "--format": "bfile", "--memory-limit": None,
              "--checkpoint-every": None, "--checkpoint-dir": None},
    "count-ondemand": {"--checkpoint": None, "--target-n": None, "--memory-limit": None},
    "oracle": {"--max-n": 10, "--cross-check": True, "--no-cross-check": True,
               "--ballot": 0, "--ballot-vectors": 20, "--seed": 0},
    "walk": {"--n": None, "--samples": 1_000_000, "--end": "zero", "--seed": 0,
             "--batch": 200_000, "--exact": False},
    "rho": {"--grid": None, "--kind": "lazy", "--exact": False, "--extrapolate": None},
    "constants": {"--grids": "1024,2048,4096"},
    "verify": {"--max-n": 10},
}
# the choices of every option that has them, in the order --help lists them
CLI_CHOICES = {
    ("count", "--format"): ("bfile", "csv"),
    ("walk", "--end"): ("zero", "either"),
    ("rho", "--kind"): ("lazy", "simple"),
}


def test_cli_options_and_defaults_are_pinned():
    def options(parser):
        return {", ".join(a.option_strings): a.default for a in parser._actions
                if a.option_strings and a.dest not in ("help", "workers")}

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    found = {"graphseq": options(parser)}
    found |= {name: options(p) for name, p in sub.choices.items()}
    assert found == CLI_OPTIONS
    choices = {(name, ", ".join(a.option_strings)): tuple(a.choices)
               for name, p in sub.choices.items() for a in p._actions if a.choices}
    assert choices == CLI_CHOICES


def test_bad_arguments_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        run(["count"])  # --max-n missing
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        run(["no-such-command"])


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--max-n", "0"],
        ["rho", "--grid", "1"],
        ["constants", "--grids", "8"],
        ["walk", "--n", "0"],
        ["walk", "--n", "5", "--samples", "0"],
        ["oracle", "--ballot", "13"],
        ["count", "--max-n", "5", "--checkpoint-every", "-1"],
        ["count", "--max-n", "5", "--memory-limit", "0"],
        ["count-ondemand", "--checkpoint", "missing.ckpt", "--target-n", "9",
         "--memory-limit", "-5"],
        ["oracle", "--max-n", "-3"],
        ["oracle", "--max-n", "30"],
        ["oracle", "--ballot", "3", "--ballot-vectors", "-1"],
        ["verify", "--max-n", "0"],
    ],
)
def test_out_of_range_arguments_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == EXIT_BAD_ARGS
    assert capsys.readouterr().out == ""


def test_grid_list_names_its_own_error(capsys):
    for argv in (["constants", "--grids", "8,x"], ["rho", "--extrapolate", "16,3.5"]):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "expected comma-separated integers" in err
        assert "_grid_list" not in err


@pytest.mark.parametrize("argv", [["count", "--max-n", "abc"], ["rho", "--grid", "x"],
                                  ["oracle", "--max-n", "x"]])
def test_non_numeric_argument_names_int(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == EXIT_BAD_ARGS
    assert "invalid int value" in capsys.readouterr().err


def test_count_bfile_output(capsys):
    assert run(["count", "--max-n", "20"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 20
    assert out[2] == "3 4"
    parsed = parse_bfile("\n".join(out))
    assert parsed[0] == (1, 1) and parsed[3] == (4, 11)
    assert [n for n, _ in parsed] == list(range(1, 21))


def test_count_csv_output(capsys):
    assert run(["count", "--max-n", "6", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,G,H,ratio"
    rows = parse_csv_counts("\n".join(out))
    assert rows[2] == (3, 4, 1)
    assert out[3].startswith("3,4,1,2.0")


def test_bfile_roundtrips_through_csv_exporter():
    rows = count_rows(9)
    bfile = "\n".join(count_lines((engine.Parity.EVEN,), [(n, (g,)) for n, g in rows]))
    parsed = parse_bfile("# G(n)\n\n" + bfile)  # comment and blank lines are skipped
    assert parsed == rows
    h = dict(count_rows(9, engine.Parity.ODD))
    triples = [(n, g, h[n]) for n, g in parsed]
    csv = count_lines(tuple(engine.Parity), [(n, (g, h)) for n, g, h in triples])
    again = parse_csv_counts("\n".join(csv) + "\n\n")
    assert again == triples


def test_rho_exact_prints_worked_bounds(capsys):
    assert run(["rho", "--grid", "2", "--exact"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "65/128 ≤ rho ≤ 93/128" in out
    assert "9/16" in out and "non-rigorous" in out


def test_rho_exact_notes_iterative_fallback(capsys):
    assert run(["rho", "--grid", "4", "--grid", "40", "--exact"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "# exact solve needs n <= 8; n=40 uses the iterative solve\n"
    assert "n=40: " in captured.out


def test_rho_exact_builds_its_pmf_without_the_generating_function(monkeypatch, capsys):
    # the exact pmf comes from the first-passage dp, so a large grid stays cheap
    def refuse(*args, **kwargs):
        raise AssertionError("series_g is only the oracle")

    monkeypatch.setattr(constants, "series_g", refuse)
    assert run(["rho", "--grid", "4", "--grid", "200", "--exact"]) == EXIT_OK
    captured = capsys.readouterr()
    est = constants.rho_bounds(4, constants.area_pmf(4, exact=True))
    assert captured.out.splitlines()[0] == f"{est.lower} ≤ rho ≤ {est.upper}"
    assert captured.err == "# exact solve needs n <= 8; n=200 uses the iterative solve\n"


def test_rho_exact_extrapolation_over_exact_grids(tmp_path, capsys):
    # every extrapolation grid is exact, so richardson returns a Fraction
    assert run(["--run-dir", str(tmp_path), "rho", "--grid", "4",
                "--extrapolate", "2,4", "--exact"]) == EXIT_OK
    pmf = constants.area_pmf(4, exact=True)
    value = constants.richardson([(n, constants.rho_bounds(n, pmf).estimate) for n in (2, 4)])
    assert isinstance(value, Fraction)
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"richardson over [2, 4]: {float(value):.12f} (non-rigorous)"
    rows = (tmp_path / "rho.csv").read_text().splitlines()
    assert rows[-1] == f"4,4,,,,{float(value):.12f}"


def test_rho_iterative_with_extrapolation(capsys):
    code = run([
        "rho", "--grid", "16", "--grid", "32", "--extrapolate", "16,32,64",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "rho" in out and "richardson" in out


def test_rho_solves_each_amalgamated_grid_once(monkeypatch, capsys):
    calls = []
    solve = constants.chain_hitting_iterative

    def spy(n, pmf):
        calls.append(n)
        return solve(n, pmf)

    monkeypatch.setattr(constants, "chain_hitting_iterative", spy)
    assert run(["rho", "--grid", "64", "--extrapolate", "16,32,64"]) == EXIT_OK
    assert sorted(calls) == [16, 32, 64]
    monkeypatch.undo()
    pmf = constants.area_pmf(64, "lazy")
    pts = [(n, constants.rho_bounds(n, pmf).estimate) for n in (16, 32, 64)]
    lines = capsys.readouterr().out.splitlines()
    assert f"(amalgamated {pts[2][1]:.10f}, non-rigorous)" in lines[0]
    assert lines[1] == (f"richardson over [16, 32, 64]: "
                        f"{constants.richardson(pts):.12f} (non-rigorous)")


def test_memory_limit_checkpoints_and_exit_three(tmp_path, capsys):
    code = run([
        "count", "--max-n", "40", "--memory-limit", "3000",
        "--checkpoint-dir", str(tmp_path),
    ])
    assert code == EXIT_MEMORY_CHECKPOINT
    saved = list(tmp_path.glob("*.ckpt"))
    assert len(saved) == 1
    ckpt = engine.Checkpoint.load(saved[0])
    assert ckpt.layer.value(0, 0) == (engine.count_graphic(ckpt.depth + 1),)


def test_csv_memory_limit_covers_both_parities(tmp_path, capsys):
    # one two-parity stream holds the whole budget, and both parities are saved
    limit = 6000
    code = run([
        "count", "--max-n", "40", "--format", "csv", "--memory-limit", str(limit),
        "--checkpoint-dir", str(tmp_path),
    ])
    assert code == EXIT_MEMORY_CHECKPOINT
    both = engine.initial_layer(engine.Parity.EVEN, engine.Parity.ODD)
    with pytest.raises(engine.MemoryBudgetExceeded) as info:
        list(engine.extend_counts(both, 40, memory_limit=limit))
    (saved,) = tmp_path.glob("*.ckpt")
    assert saved.name == f"graphseq-even-odd-depth{info.value.layer.depth:05d}.ckpt"
    assert engine.Checkpoint.load(saved).layer == info.value.layer


@pytest.mark.parametrize("fmt", ["bfile", "csv"])
def test_interrupted_count_resumes_losslessly(fmt, tmp_path, capsys):
    # the rows before the budget stop, then count-ondemand's rows past the
    # checkpoint (csv: its header dropped), are the uninterrupted output
    assert run(["count", "--max-n", "40", "--format", fmt]) == EXIT_OK
    whole = capsys.readouterr().out
    code = run(["count", "--max-n", "40", "--format", fmt, "--memory-limit", "6000",
                "--checkpoint-dir", str(tmp_path)])
    assert code == EXIT_MEMORY_CHECKPOINT
    head = capsys.readouterr().out
    (saved,) = tmp_path.glob("*.ckpt")
    assert saved.name.startswith("graphseq-even-odd-" if fmt == "csv" else "graphseq-even-depth")
    assert run(["count-ondemand", "--checkpoint", str(saved), "--target-n", "40"]) == EXIT_OK
    tail = capsys.readouterr().out.splitlines(keepends=True)
    if fmt == "csv":
        assert tail.pop(0) == "n,G,H,ratio\n"
    assert 1 < len(head.splitlines()) < len(whole.splitlines())
    assert head + "".join(tail) == whole


def test_memory_limit_interrupted_run_recorded(tmp_path, capsys):
    run_dir = tmp_path / "store"
    code = run([
        "--run-dir", str(run_dir),
        "count", "--max-n", "40", "--memory-limit", "3000",
        "--checkpoint-dir", str(tmp_path),
    ])
    assert code == EXIT_MEMORY_CHECKPOINT
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["runs"][0]["config"]["interrupted"] is True
    assert manifest["runs"][0]["outputs"][0].endswith(".ckpt")
    # the rows printed before the budget stop are its results file
    _, results = manifest["runs"][0]["outputs"]
    assert results == str(run_dir / "results.bfile")
    assert (run_dir / "results.bfile").read_text() == capsys.readouterr().out


def test_checkpoint_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHSEQ_CHECKPOINT_DIR", str(tmp_path))
    code = run(["count", "--max-n", "40", "--memory-limit", "3000"])
    assert code == EXIT_MEMORY_CHECKPOINT
    assert list(tmp_path.glob("*.ckpt"))


def test_budget_checkpoint_of_a_cone_count_serves_its_horizon(tmp_path, capsys):
    code = run([
        "count", "--max-n", "40", "--memory-limit", "3000",
        "--checkpoint-dir", str(tmp_path),
    ])
    assert code == EXIT_MEMORY_CHECKPOINT
    (saved,) = tmp_path.glob("*.ckpt")
    ckpt = engine.Checkpoint.load(saved)
    assert ckpt.layer.horizon == 39
    capsys.readouterr()
    code = run(["count-ondemand", "--checkpoint", str(saved), "--target-n", "40"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [f"{n} {v}" for n, v in count_rows(40)[ckpt.depth + 1:]]
    argv = ["--checkpoint", str(saved), "--target-n", "41"]
    assert ondemand_failure(capsys, argv) == EXIT_BAD_ARGS


def test_periodic_checkpoints_are_complete_layers(tmp_path, capsys):
    code = run([
        "count", "--max-n", "9", "--checkpoint-every", "8",
        "--checkpoint-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    (saved,) = tmp_path.glob("*.ckpt")
    assert engine.Checkpoint.load(saved).layer.horizon is None
    capsys.readouterr()
    code = run(["count-ondemand", "--checkpoint", str(saved), "--target-n", "30"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [f"{n} {v}" for n, v in count_rows(30)[9:]]


def test_count_ondemand_continues_from_checkpoint(tmp_path, capsys):
    layer = layer_at(9)
    path = tmp_path / "even.ckpt"
    engine.Checkpoint(layer).save(path)
    code = run(["count-ondemand", "--checkpoint", str(path), "--target-n", "14"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [f"{n} {engine.count_graphic(n)}" for n in range(11, 15)]


def ondemand_failure(capsys, argv):
    code = run(["count-ondemand", *argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return code


def test_count_ondemand_memory_budget_exits_three(tmp_path, capsys):
    path = tmp_path / "even.ckpt"
    engine.Checkpoint(layer_at(3)).save(path)
    argv = ["--checkpoint", str(path), "--target-n", "60", "--memory-limit", "2000"]
    assert ondemand_failure(capsys, argv) == EXIT_MEMORY_CHECKPOINT


def test_count_ondemand_budget_message_is_consistent(tmp_path):
    with pytest.raises(engine.MemoryBudgetExceeded) as info:
        list(engine.extend_counts(layer_at(3), 60, memory_limit=2000))
    assert info.value.needed > info.value.budget == 2000


def test_count_ondemand_bad_checkpoint_exits_two(tmp_path, capsys):
    path = tmp_path / "even.ckpt"
    engine.Checkpoint(layer_at(5)).save(path)
    good = path.read_bytes()
    missing = ["--checkpoint", str(tmp_path / "missing.ckpt"), "--target-n", "9"]
    assert ondemand_failure(capsys, missing) == EXIT_BAD_ARGS
    for target in ("6", "3"):  # the checkpoint's n is 6
        argv = ["--checkpoint", str(path), "--target-n", target]
        assert ondemand_failure(capsys, argv) == EXIT_BAD_ARGS
    argv = ["--checkpoint", str(path), "--target-n", "9"]
    for bad in (good[: len(good) // 2], good + b"\x00"):  # truncated, trailing byte
        path.write_bytes(bad)
        assert ondemand_failure(capsys, argv) == EXIT_BAD_ARGS


def test_count_ondemand_refuses_a_band_larger_than_the_file(tmp_path, capsys):
    # a 69-byte file whose header names an 828 GiB first band
    depth, horizon = 10**8, 10**8 + 10**5
    y, lo, cap, *_ = engine._band_layout(depth, horizon)[0]
    path = tmp_path / "crafted.ckpt"
    path.write_bytes(engine.CHECKPOINT_MAGIC + engine._CKPT_HEADER.pack(
        engine.CHECKPOINT_VERSION, 1, depth, 1, engine._nlimbs(depth), horizon)
        + engine._CKPT_BAND.pack(y, lo, cap))
    argv = ["--checkpoint", str(path), "--target-n", str(horizon + 1)]
    assert ondemand_failure(capsys, argv) == EXIT_BAD_ARGS


def test_count_ondemand_refuses_a_version_4_checkpoint(tmp_path, capsys):
    path = tmp_path / "even.ckpt"
    engine.Checkpoint(layer_at(5)).save(path)
    good = path.read_bytes()
    for version in (4, 5, 6):  # 5 kept a spare limb per cell, 6 one parity only
        body = good[:8] + version.to_bytes(4, "little") + good[12:-4]
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        code = run(["count-ondemand", "--checkpoint", str(path), "--target-n", "9"])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_ARGS and captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert f"version {version}" in line


def test_periodic_checkpoints(tmp_path, capsys):
    code = run([
        "count", "--max-n", "9", "--checkpoint-every", "4",
        "--checkpoint-dir", str(tmp_path),
    ])
    assert code == EXIT_OK
    names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert names == [
        "graphseq-even-depth00004.ckpt",
        "graphseq-even-depth00008.ckpt",
    ]


def unusable_dir_failure(capsys, argv):
    """Exit code and the one stderr line of a run refused before any output."""
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    return code, line


def test_manifest_write_is_atomic(tmp_path, monkeypatch):
    store = cli.RunStore(tmp_path)
    store.record("count", {"max_n": 3}, [])
    good = (tmp_path / "manifest.json").read_text()

    def fail(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        store.record("count", {"max_n": 4}, [])
    assert (tmp_path / "manifest.json").read_text() == good
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert len(cli.RunStore(tmp_path).manifest["runs"]) == 1
    # written through a temp file, it still gets the mode of a plain new file
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    assert (tmp_path / "manifest.json").stat().st_mode == plain.stat().st_mode


def test_run_dir_naming_a_file_exits_two(tmp_path, capsys):
    path = tmp_path / "results"
    path.write_text("")
    code, line = unusable_dir_failure(capsys, ["--run-dir", str(path), "count", "--max-n", "5"])
    assert code == EXIT_BAD_ARGS
    assert line.startswith(f"graphseq count: cannot use --run-dir {path}: ")


@pytest.mark.parametrize("manifest", ["{not json", "[]"])
def test_run_dir_with_a_damaged_manifest_exits_two(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    argv = ["--run-dir", str(tmp_path), "walk", "--n", "5", "--samples", "100"]
    code, line = unusable_dir_failure(capsys, argv)
    assert code == EXIT_BAD_ARGS
    assert line.startswith(f"graphseq walk: cannot use --run-dir {tmp_path}: ")


def test_checkpoint_dir_naming_a_file_exits_two_before_any_row(tmp_path, capsys):
    path = tmp_path / "ckpts"
    path.write_text("")
    argv = ["count", "--max-n", "12", "--checkpoint-every", "5", "--checkpoint-dir", str(path)]
    code, line = unusable_dir_failure(capsys, argv)
    assert code == EXIT_BAD_ARGS
    assert line.startswith(f"graphseq count: cannot use --checkpoint-dir {path}: ")


@pytest.mark.parametrize("argv, blocked", [
    (["count", "--max-n", "12", "--checkpoint-every", "10", "--checkpoint-dir", "{d}"],
     "graphseq-even-depth00010.ckpt"),
    (["--run-dir", "{d}", "count", "--max-n", "12"], "results.bfile"),
])
def test_failed_write_exits_two_after_the_printed_rows(tmp_path, capsys, argv, blocked):
    (tmp_path / blocked).mkdir()  # a directory where the file should go
    code = run([a.format(d=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_ARGS
    assert captured.out.splitlines()[0] == "1 1"
    (line,) = captured.err.splitlines()
    assert line.startswith("graphseq count: cannot write")
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_manifest_write_exits_two(tmp_path, monkeypatch, capsys):
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    assert run(["--run-dir", str(kept), "count", "--max-n", "2"]) == EXIT_OK
    capsys.readouterr()

    def fail(src, dst):
        raise OSError("simulated failure to rename")

    monkeypatch.setattr(cli.os, "replace", fail)
    for root in (fresh, kept):
        code = run(["--run-dir", str(root), "count", "--max-n", "3"])
        (line,) = capsys.readouterr().err.splitlines()
        assert code == EXIT_BAD_ARGS
        assert line.startswith(f"graphseq count: cannot write to --run-dir {root}: ")
        assert not list(root.rglob("*.tmp"))
    # the results file keeps only the rows of recorded runs
    assert not (fresh / "results.bfile").exists()
    assert (kept / "results.bfile").read_text() == "1 1\n2 2\n"
    assert len(json.loads((kept / "manifest.json").read_text())["runs"]) == 1


def test_committed_bfile_is_the_engine_count():
    data = (Path(__file__).resolve().parents[1] / "data" / "G_1-1000.bfile").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "c040e15cf594670014446a6b466838c1a994f5f37325945ee0cd045f46b80900")
    rows = parse_bfile(data.decode())
    assert [n for n, _ in rows] == list(range(1, 1001))
    assert rows[:150] == count_rows(150)


def test_walk_reproducible_output(capsys):
    args = ["walk", "--n", "30", "--samples", "40000", "--seed", "17", "--exact"]
    assert run(args) == EXIT_OK
    first = capsys.readouterr().out
    assert run(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "seed=17" in first and "samples=40000" in first and "shards=1" in first


def test_walk_exact_reads_the_engine_up_to_its_limit(capsys):
    assert run(["walk", "--n", "100", "--samples", "1000", "--exact"]) == EXIT_OK
    exact = capsys.readouterr().out.splitlines()[-1]
    assert exact.startswith("# exact=") and exact.endswith("(0.223613196)")
    assert run(["walk", "--n", "301", "--samples", "1000", "--exact"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "# exact=" not in captured.out
    assert captured.err == "# exact mode needs n <= 300; skipped\n"


def test_walk_records_store(tmp_path, capsys):
    code = run([
        "--run-dir", str(tmp_path), "walk",
        "--n", "10", "--samples", "5000", "--seed", "3",
    ])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["runs"][0]["command"] == "walk"
    assert manifest["runs"][0]["config"]["seed"] == 3
    stored = (tmp_path / "walk.csv").read_text()
    assert "n,estimate,stderr,scaled" in stored


def test_count_manifest_records_cost_and_versions(tmp_path, capsys):
    assert run(["--run-dir", str(tmp_path), "count", "--max-n", "30"]) == EXIT_OK
    (entry,) = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    assert 0 <= entry["elapsed_s"] < 60
    assert 10 < entry["peak_rss_mib"] < 8192
    assert entry["versions"] == {
        "graphseq": graphseq.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }


def test_count_manifest_records_the_cells_advanced(tmp_path, capsys):
    cells = [sum(hi + 1 - lo for _, lo, _, hi, _ in engine._band_layout(d, 39))
             for d in range(1, 40)]
    # a layer's buffers hold its cells and the continuation of its full bands
    limbs = max(sum(rows for *_, rows in engine._band_layout(d, 39)) * engine._nlimbs(d)
                for d in range(1, 40))
    # cells x parities: a csv run advances G and H over the same cells
    for fmt, parities in (("bfile", 1), ("csv", 2)):
        run_dir = tmp_path / fmt
        argv = ["--run-dir", str(run_dir), "count", "--max-n", "40", "--format", fmt]
        assert run(argv) == EXIT_OK
        (entry,) = json.loads((run_dir / "manifest.json").read_text())["runs"]
        assert entry["cells_advanced"] == parities * sum(cells)
        assert entry["peak_layer_mib"] == round(parities * limbs * 8 / 2**20, 3)


def test_count_store_appends(tmp_path, capsys):
    run(["--run-dir", str(tmp_path), "count", "--max-n", "3"])
    run(["--run-dir", str(tmp_path), "count", "--max-n", "2"])
    lines = (tmp_path / "results.bfile").read_text().strip().splitlines()
    assert lines == ["1 1", "2 2", "3 4", "1 1", "2 2"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["runs"]) == 2


def test_oracle_command_cross_checks(capsys):
    assert run(["oracle", "--max-n", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n,G,H,D" in out
    assert "7,342,264,606" in out
    assert "cross-check: ok" in out


def test_oracle_mismatch_with_the_engine_exits_one(capsys, monkeypatch):
    brute_counts = oracle.brute_counts

    def off_by_one(n):
        g, h, d = brute_counts(n)
        return g + 1, h, d + 1

    monkeypatch.setattr(oracle, "brute_counts", off_by_one)
    assert run(["oracle", "--max-n", "3"]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out.splitlines()
    assert out == ["n,G,H,D", "1,2,0,2", "# MISMATCH at n=1: engine (1, 0)",
                   "2,3,0,3", "# MISMATCH at n=2: engine (2, 0)",
                   "3,5,1,6", "# MISMATCH at n=3: engine (4, 1)",
                   "# engine cross-check: FAILED"]


def test_oracle_ballot_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "ballot_count", lambda x: 0)
    argv = ["oracle", "--max-n", "1", "--ballot", "3", "--ballot-vectors", "1"]
    assert run(argv) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert out.count("# BALLOT MISMATCH") == 2  # one vector for each of n = 2, 3
    assert "# BALLOT MISMATCH n=2 at (" in out and "# BALLOT MISMATCH n=3 at (" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    # a wrong ballot count fails that check on its first line, before n = 9..12
    monkeypatch.setattr(oracle, "ballot_count", lambda x: 0)
    assert run(["verify", "--max-n", "1"]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out.splitlines()
    assert "FAIL - ballot arrangement counts: ballot n=2: 0 != 3" in out
    assert sum(line.startswith("FAIL - ") for line in out) == 1
    assert out[-1] == "14/15 checks passed"


def test_oracle_ballot_lines_keep_their_values(capsys):
    # the tie maxima depend on the draw's range, call style and order
    argv = ["oracle", "--max-n", "1", "--ballot", "9", "--ballot-vectors", "3", "--seed", "5"]
    assert run(argv) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("# ballot")]
    assert lines == [
        f"# ballot n={n}: sum-distinct={target}, "
        f"max over random ties={tied}, all-equal={equal}"
        for n, target, tied, equal in (
            (2, 3, 3, 4),
            (3, 15, 16, 18),
            (4, 105, 108, 144),
            (5, 945, 960, 1200),
            (6, 10395, 10500, 14400),
            (7, 135135, 136080, 176400),
            (8, 2027025, 2037780, 2822400),
            (9, 34459425, 34604640, 45722880),
        )
    ]


def test_constants_command_small_grids(capsys):
    code = run(["constants", "--grids", "32,64,128"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "rho = " in out and "rho_hat = " in out and "c = " in out
    assert "non-rigorous" in out and "rigorous bracket" in out


def test_constants_output_keeps_its_bytes(capsys):
    # every line but the elapsed time is pinned; the brackets are rounded outward
    # to 10 digits, far above the FFT check's rounding margin
    assert run(["constants", "--grids", "256,512,1024"]) == EXIT_OK
    *lines, elapsed = capsys.readouterr().out.splitlines()
    grids = "grids [256, 512, 1024], K=1024; non-rigorous]"
    assert lines == [
        f"rho = 0.515802638331  [richardson over amalgamated chain, {grids}",
        "  rigorous bracket at n=1024: [0.5157894996, 0.5904646091]",
        f"rho_hat = 0.077340857768  [richardson over amalgamated chain, {grids}",
        "  rigorous bracket at n=1024: [0.0773158176, 0.2071948395]",
        "c = 0.099094083262  [Gamma(3/4) / (4 pi sqrt(2 (1 - rho))); from rho above]",
    ]
    assert elapsed.startswith("# elapsed ")


def test_constants_solves_each_grid_once(monkeypatch, capsys):
    calls = []
    solve = constants.chain_hitting_iterative

    def spy(n, pmf):
        calls.append((pmf.kind, n))
        return solve(n, pmf)

    monkeypatch.setattr(constants, "chain_hitting_iterative", spy)
    assert run(["constants", "--grids", "32,64,128"]) == EXIT_OK
    for kind in ("lazy", "simple"):
        assert [n for k, n in calls if k == kind] == [32, 64, 128]


def test_constants_refuses_rho_extrapolated_outside_the_unit_interval(tmp_path, capsys):
    # Richardson over tiny grids overshoots to rho = -0.3945, which has no constant c
    code = run(["--run-dir", str(tmp_path), "constants", "--grids", "2,3,4,5,6,7,8"])
    assert code == EXIT_BAD_ARGS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("graphseq constants: rho extrapolates to -0.3945, "
                            "outside [0, 1); use larger grids\n")
    assert not (tmp_path / "manifest.json").exists()


def test_constants_refuses_rho_hat_extrapolated_outside_the_unit_interval(tmp_path, capsys):
    # over grids 2 and 3 rho extrapolates to 0.5156 but rho_hat to -0.125
    code = run(["--run-dir", str(tmp_path), "constants", "--grids", "2,3"])
    assert code == EXIT_BAD_ARGS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("graphseq constants: rho_hat extrapolates to -0.1250, "
                            "outside [0, 1); use larger grids\n")
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("kind, grids, label, value", [
    ("simple", "2,3", "rho_hat", "-0.1250"),
    ("lazy", "2,3,4,5,6,7,8", "rho", "-0.3945"),
])
def test_rho_refuses_an_extrapolation_outside_the_unit_interval(
        kind, grids, label, value, tmp_path, capsys):
    code = run(["--run-dir", str(tmp_path), "rho", "--kind", kind, "--grid", "3",
                "--extrapolate", grids])
    assert code == EXIT_BAD_ARGS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"graphseq rho: {label} extrapolates to {value}, "
                            "outside [0, 1); use larger grids\n")
    assert not (tmp_path / "manifest.json").exists()


def test_chain_manifests_record_products_and_bracket_widths(tmp_path, capsys):
    assert run(["--run-dir", str(tmp_path), "constants", "--grids", "32,64"]) == EXIT_OK
    assert run(["--run-dir", str(tmp_path), "rho", "--grid", "4", "--grid", "48",
                "--extrapolate", "16,48", "--exact"]) == EXIT_OK
    first, second = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    want = []
    for kind in ("lazy", "simple"):
        pmf = constants.area_pmf(64, kind)
        solves = [(n, "iterative") for n in (32, 64)]
        want += [{"kind": kind, "n": n, "mode": mode,
                  "products": constants.chain_hitting_iterative(n, pmf)["sweeps"]}
                 for n, mode in solves]
        bracket = constants.rho_bounds(64, pmf)
        assert first["bracket_width"][kind] == bracket.upper - bracket.lower > 0
    assert first["command"] == "constants" and first["solves"] == want
    assert all(s["products"] > 0 for s in want)
    # the exact solves on grid 4 take no Toeplitz product
    assert second["command"] == "rho"
    assert [(s["n"], s["mode"], s["products"] > 0) for s in second["solves"]] == [
        (4, "exact-rational", False), (48, "iterative", True), (16, "iterative", True)]
    bracket = constants.rho_bounds(48, constants.area_pmf(48, exact=True))
    assert second["bracket_width"] == {"lazy": float(bracket.upper - bracket.lower)}


def test_rho_manifest_records_extrapolation_and_exact(tmp_path, capsys):
    assert run(["--run-dir", str(tmp_path), "rho", "--grid", "64",
                "--extrapolate", "16,32,64", "--exact"]) == EXIT_OK
    (entry,) = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    assert entry["config"] == {"grids": [64], "K": 64, "kind": "lazy",
                               "extrapolate": [16, 32, 64], "exact": True}
    assert run(["--run-dir", str(tmp_path), "rho", "--grid", "8"]) == EXIT_OK
    second = json.loads((tmp_path / "manifest.json").read_text())["runs"][1]
    assert second["config"]["extrapolate"] == [] and second["config"]["exact"] is False


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    # one whole verify run, shared by the tests of its verdict and of its run dir
    run_dir = tmp_path_factory.mktemp("verify")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--run-dir", str(run_dir), "verify", "--max-n", "7"])
    return code, out.getvalue(), run_dir


def test_verify_fresh_build_passes(verify_run):
    code, out, _ = verify_run
    assert code == EXIT_OK
    assert "15/15 checks passed" in out


def test_verify_records_its_lines_in_the_run_dir(verify_run):
    code, out, run_dir = verify_run
    assert code == EXIT_OK
    assert (run_dir / "verify.txt").read_text() == out
    assert out.splitlines()[-1] == "15/15 checks passed"
    (entry,) = json.loads((run_dir / "manifest.json").read_text())["runs"]
    assert entry["command"] == "verify" and entry["config"] == {"max_n": 7}
    assert entry["outputs"] == [str(run_dir / "verify.txt")]
