"""CLI surface: commands, exit codes, formats, the results store."""

import json
import sys
import zlib

import numpy as np
import pytest

import graphseq
from graphseq import cli, constants, engine
from graphseq.cli import (
    EXIT_BAD_ARGS,
    EXIT_MEMORY_CHECKPOINT,
    EXIT_OK,
    bfile_lines,
    csv_lines,
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
    return [(n, v) for n, v, _ in engine.extend_counts(start, max_n, **kwargs)]


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
        ["oracle", "--ballot", "9"],
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
    bfile = "\n".join(bfile_lines(rows))
    parsed = parse_bfile(bfile)
    assert parsed == rows
    h = dict(count_rows(9, engine.Parity.ODD))
    triples = [(n, g, h[n]) for n, g in parsed]
    again = parse_csv_counts("\n".join(csv_lines(triples)))
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

    def spy(n, pmf, amalgamate=False, **kwargs):
        calls.append((n, amalgamate))
        return solve(n, pmf, amalgamate, **kwargs)

    monkeypatch.setattr(constants, "chain_hitting_iterative", spy)
    assert run(["rho", "--grid", "64", "--extrapolate", "16,32,64"]) == EXIT_OK
    assert sorted(calls) == [(16, True), (32, True), (64, False), (64, True)]
    monkeypatch.undo()
    pmf = constants.area_pmf(64, "lazy", "dp", exact=False)
    pts = [(n, constants.rho_amalgamated(n, pmf).lower) for n in (16, 32, 64)]
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
    assert ckpt.layer.value(0, 0) == engine.count_graphic(ckpt.depth + 1)


def test_csv_splits_memory_limit_between_streams(tmp_path, capsys):
    limit = 6000
    code = run([
        "count", "--max-n", "40", "--format", "csv", "--memory-limit", str(limit),
        "--checkpoint-dir", str(tmp_path),
    ])
    assert code == EXIT_MEMORY_CHECKPOINT
    with pytest.raises(engine.MemoryBudgetExceeded) as info:
        count_rows(40, memory_limit=limit // 2)
    (saved,) = tmp_path.glob("*.ckpt")
    assert engine.Checkpoint.load(saved).depth == info.value.layer.depth


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
    engine.Checkpoint.of(layer).save(path)
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
    engine.Checkpoint.of(layer_at(3)).save(path)
    argv = ["--checkpoint", str(path), "--target-n", "60", "--memory-limit", "2000"]
    assert ondemand_failure(capsys, argv) == EXIT_MEMORY_CHECKPOINT


def test_count_ondemand_budget_message_is_consistent(tmp_path):
    with pytest.raises(engine.MemoryBudgetExceeded) as info:
        list(engine.extend_counts(layer_at(3), 60, memory_limit=2000))
    assert info.value.needed > info.value.budget == 2000


def test_count_ondemand_bad_checkpoint_exits_two(tmp_path, capsys):
    path = tmp_path / "even.ckpt"
    engine.Checkpoint.of(layer_at(5)).save(path)
    good = path.read_bytes()
    missing = ["--checkpoint", str(tmp_path / "missing.ckpt"), "--target-n", "9"]
    assert ondemand_failure(capsys, missing) == EXIT_BAD_ARGS
    for target in ("6", "3"):  # the checkpoint's n is 6
        argv = ["--checkpoint", str(path), "--target-n", target]
        assert ondemand_failure(capsys, argv) == EXIT_BAD_ARGS
    path.write_bytes(good[: len(good) // 2])
    argv = ["--checkpoint", str(path), "--target-n", "9"]
    assert ondemand_failure(capsys, argv) == EXIT_BAD_ARGS


def test_count_ondemand_refuses_a_version_4_checkpoint(tmp_path, capsys):
    path = tmp_path / "even.ckpt"
    engine.Checkpoint.of(layer_at(5)).save(path)
    good = path.read_bytes()
    body = good[:8] + (4).to_bytes(4, "little") + good[12:-4]
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    code = run(["count-ondemand", "--checkpoint", str(path), "--target-n", "9"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_ARGS and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert "version 4" in line


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
    assert run(["--run-dir", str(tmp_path), "count", "--max-n", "40"]) == EXIT_OK
    (entry,) = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    geometry = engine._band_geometry
    cells = [sum(hi + 1 - lo for _, lo, _, hi in geometry(d, 39)) for d in range(1, 40)]
    assert entry["cells_advanced"] == sum(cells)
    limbs = max(c * engine._nlimbs(d) for d, c in enumerate(cells, 1))
    assert entry["peak_layer_mib"] == round(limbs * 8 / 2**20, 3)


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


def test_constants_command_small_grids(capsys):
    code = run(["constants", "--grids", "32,64,128"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "rho = " in out and "rho_hat = " in out and "c = " in out
    assert "non-rigorous" in out and "rigorous bracket" in out


def test_verify_fresh_build_passes(capsys):
    assert run(["verify", "--max-n", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "15/15 checks passed" in out
