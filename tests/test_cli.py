"""Command-line interface tests: parsing, file artifacts, exit codes.

Experiments here run at reduced resolution so the suite stays quick; the
full-resolution anchors live in the acceptance tests.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvgme.cli as cli
from cvgme.witnesses import GUARD


# ---------------------------------------------------------------------------
# slice-volume quadrature


@pytest.mark.parametrize("family,delta,radius", [
    ("cat:M=3,gamma=0.83,eta=0.1", 0.01, 2.75),
    ("cat:M=2,gamma=0.5+0.4j", 0.02, None),
    ("w:M=4,eta=0.1", 0.01, None),
    ("psi1", 0.02, 1.5),
])
def test_v2d_quadrature_is_the_midpoint_sum_over_the_disc(family, delta, radius):
    spec = cli.families.parse_family(family)
    if radius is None:
        radius = cli.numerics.tail_radius(cli.families.slice_abs_envelope(spec))
    grid = cli.numerics.disc_grid(delta, radius)
    vals = np.abs(cli.families.family_wigner_slice(spec, grid.centers()))
    want = (2 / math.pi) * (math.pi / 2) ** spec.modes * cli.numerics.midpoint_integral(
        vals, delta)
    assert cli.v2d_quadrature(spec, delta, radius) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# range parsing and number formatting


def test_parse_range_float_inclusive():
    vals = cli.parse_range("0.1:0.5:0.1")
    np.testing.assert_allclose(vals, [0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)
    # endpoint that lands within float fuzz is still included
    vals = cli.parse_range("0:2:0.05")
    assert len(vals) == 41
    assert vals[-1] == pytest.approx(2.0)


def test_parse_range_single_value():
    assert cli.parse_range("0.7") == [0.7]


def test_parse_int_range_inclusive():
    assert cli.parse_int_range("3..6") == [3, 4, 5, 6]
    assert cli.parse_int_range("5..5") == [5]


@pytest.mark.parametrize("text", ["", "1:2", "1:2:0", "a..b", "3..", "2..1",
                                  "0.2:inf:0.1", "0.2:nan:0.1", "-inf:1:0.1", "0:1:inf"])
def test_parse_range_rejects_malformed(text):
    with pytest.raises((cli.CliError, ValueError)):
        cli.parse_int_range(text) if ".." in text else cli.parse_range(text)


def test_fmt_number_contract():
    assert cli._fmt_number(True) == "true"
    assert cli._fmt_number(False) == "false"
    assert cli._fmt_number(3) == "3"
    assert cli._fmt_number(0.0) == "0"
    assert cli._fmt_number(float("nan")) == "nan"
    small = cli._fmt_number(3.5e-7)
    assert "e" in small and small == "%.12e" % 3.5e-7
    assert cli._fmt_number(0.25) == repr(0.25)
    assert "." in cli._fmt_number(1.0)


# ---------------------------------------------------------------------------
# experiment registry


def test_list_is_stable_and_complete(capsys):
    assert cli.main(["list"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    names = list(cli.EXPERIMENTS)
    assert len(names) >= 11
    assert "wstate-violation" in names
    assert "mc-witness4" in names
    for name in names:
        assert name in first


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # main() reuses one parser: no call may see an earlier call's options
    runs = [
        ["cat-loss", "--m", "4", "--gamma-range", "0.9", "--delta", "0.05",
         "--tol", "0.05", "--format", "json", "--gnuplot", "--out", "out0"],
        ["list"],
        ["cat-loss", "--gamma-range", "0.8", "--delta", "0.05", "--tol", "0.02",
         "--out", "out2"],
        ["--help"],
        ["wstate-violation", "--m-range", "3..4", "--out", "out4"],
        ["cat-loss", "--help"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))}
    for side in ("one", "fresh"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "one")
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        fresh = subprocess.run([sys.executable, "-m", "cvgme.cli", *argv],
                               capture_output=True, text=True, env=env,
                               cwd=tmp_path / "fresh")
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
    for fresh_out in sorted((tmp_path / "fresh").iterdir()):
        one_out = tmp_path / "one" / fresh_out.name
        files = sorted(f.name for f in fresh_out.iterdir())
        assert files == sorted(f.name for f in one_out.iterdir())
        for name in files:
            assert (fresh_out / name).read_bytes() == (one_out / name).read_bytes(), name


def test_list_flags_are_the_subparser_options(capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = {name.split()[0]: flags.split("flags:")[1].split()
              for name, flags in zip(lines[::2], lines[1::2])}
    (action,) = [action for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    subparsers = {name: p for name, p in action.choices.items() if name != "list"}
    assert list(listed) == list(subparsers) == list(cli.EXPERIMENTS)
    common = {"-h", "--help", "--seed", "--out", "--threads", "--format", "--gnuplot"}
    for name, flags in listed.items():
        own = {opt for opt in subparsers[name]._option_string_actions if opt not in common}
        want = own | ({"--seed"} if cli.EXPERIMENTS[name].stochastic else set())
        assert len(flags) == len(set(flags)) and set(flags) == want, name
    assert listed["rmin-scan"] == ["--m", "--eta-range", "--delta", "--tol",
                                   "--r-lo", "--r-hi"]


# ---------------------------------------------------------------------------
# artifacts and exit codes


#: Reduced flags for every experiment: coarse grids, one or two sweep points
#: and a few optimizer restarts.
_SMOKE_FLAGS = {
    "wstate-violation": ["--m-range", "3..4"],
    "cat-violation": ["--gamma-range", "0.8:1.0:0.2", "--delta", "0.05"],
    "dicke-violation": ["--m-range", "3..4"],
    "asym-volumes": ["--delta", "0.05"],
    "wstate-loss": ["--m-range", "3..3", "--delta", "0.05", "--tol", "0.02"],
    "cat-loss": ["--gamma-range", "0.8", "--delta", "0.05", "--tol", "0.02"],
    "rmin-scan": ["--eta-range", "0:0.1:0.1", "--delta", "0.05", "--tol", "0.1"],
    "numint": ["--family", "cat:M=3,gamma=0.8", "--delta", "0.05", "--r", "2"],
    "settings-w": ["--restarts", "2", "--max-evals", "200", "--seed", "0"],
    "settings-cat": ["--restarts", "2", "--max-evals", "200", "--seed", "0"],
    "zeta-scan": ["--zeta-range", "0.3", "--restarts", "2", "--max-evals", "200",
                  "--seed", "0"],
    "kernel-scan": ["--s-range", "0.5:0.7:0.1"],
    "mc-witness4": ["--shots", "2000", "--seed", "0"],
}


@pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
def test_every_experiment_writes_its_csv_and_json(tmp_path, name):
    code = cli.main([name, *_SMOKE_FLAGS[name], "--out", str(tmp_path)])
    assert code in (0, 2)
    lines = (tmp_path / (name + ".csv")).read_text(encoding="ascii").splitlines()
    payload = json.loads((tmp_path / (name + ".json")).read_text())
    assert payload["experiment"] == name
    assert len(lines) == len(payload["rows"]) + 1 >= 2
    assert payload["certified_any"] == (code == 0)


def test_wstate_violation_writes_artifacts(tmp_path):
    out = str(tmp_path)
    code = cli.main(["wstate-violation", "--out", out])
    assert code == 0  # every M in the default range certifies
    csv_file = tmp_path / "wstate-violation.csv"
    json_file = tmp_path / "wstate-violation.json"
    assert csv_file.exists() and json_file.exists()

    header, *rows = csv_file.read_text(encoding="ascii").splitlines()
    cols = header.split(",")
    assert "m" in cols and "certified" in cols and "violation" in cols
    assert len(rows) == 6  # M = 3..8
    payload = json.loads(json_file.read_text())
    assert payload["experiment"] == "wstate-violation"
    assert payload["certified_any"] is True
    assert len(payload["rows"]) == 6
    # the equal-displacement violation dies between six and seven modes
    by_m = {row["m"]: row["certified"] for row in payload["rows"]}
    assert by_m[3] and by_m[6]
    assert not by_m[7] and not by_m[8]


def test_csv_reruns_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = ["mc-witness4", "--seed", "7", "--shots", "5000"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    bytes_a = (out_a / "mc-witness4.csv").read_bytes()
    bytes_b = (out_b / "mc-witness4.csv").read_bytes()
    assert bytes_a == bytes_b
    # a different seed changes the data
    out_c = tmp_path / "c"
    assert cli.main(["mc-witness4", "--seed", "8", "--shots", "5000",
                     "--out", str(out_c)]) == 0
    assert (out_c / "mc-witness4.csv").read_bytes() != bytes_a


def test_settings_w_reports_optimizer_work_in_json_only(tmp_path):
    argv = ["settings-w", "--m", "3", "--eta", "0.03", "--n-points", "4",
            "--restarts", "3", "--max-evals", "100", "--seed", "1", "--out", str(tmp_path)]
    cli.main(argv)
    header = (tmp_path / "settings-w.csv").read_text(encoding="ascii").splitlines()[0]
    assert header.split(",") == ["n_points", "value", "threshold", "violation",
                                 "n_settings", "certified"]
    (report,) = json.loads((tmp_path / "settings-w.json").read_text())["reports"]
    assert report["params"]["objective_evals"] > 3
    assert 1 <= report["params"]["improving_restarts"] <= 3


def test_settings_w_one_point_exits_one(tmp_path, capsys):
    code = cli.main(["settings-w", "--n-points", "1", "--seed", "0",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "at least 2 points" in capsys.readouterr().err


def test_certified_column_matches_violation_sign(tmp_path):
    out = str(tmp_path)
    cli.main(["wstate-loss", "--m-range", "3..4", "--delta", "0.02",
              "--tol", "1e-2", "--out", out])
    payload = json.loads((tmp_path / "wstate-loss.json").read_text())
    for row in payload["rows"]:
        if "violation" in row and "certified" in row:
            assert row["certified"] == (row["violation"] > GUARD)


def test_exit_code_two_when_nothing_certifies(tmp_path):
    # coarse grid: the rigorous error swamps the margin
    code = cli.main(["numint", "--delta", "0.02", "--energy", "1.0",
                     "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("name", ["settings-w", "settings-cat", "zeta-scan",
                                  "mc-witness4"])
def test_stochastic_experiments_require_seed(tmp_path, capsys, monkeypatch, name):
    assert cli.EXPERIMENTS[name].stochastic
    ran = []
    monkeypatch.setitem(cli._RUNNERS, name, ran.append)
    code = cli.main([name, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "seed" in capsys.readouterr().err
    # rejected before the runner starts or any output is written
    assert ran == [] and not (tmp_path / "out").exists()


def test_unknown_experiment_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-experiment"])
    assert exc.value.code == 1


def test_bad_range_text_exits_one(tmp_path, capsys):
    code = cli.main(["wstate-violation", "--m-range", "x..y",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_gnuplot_script_references_csv(tmp_path):
    cli.main(["dicke-violation", "--out", str(tmp_path), "--gnuplot"])
    script = (tmp_path / "dicke-violation.gp").read_text()
    assert "dicke-violation.csv" in script
    assert "set datafile separator" in script


def test_json_format_only(tmp_path):
    cli.main(["dicke-violation", "--out", str(tmp_path), "--format", "json"])
    assert (tmp_path / "dicke-violation.json").exists()
    assert not (tmp_path / "dicke-violation.csv").exists()


def test_csv_format_only(tmp_path):
    cli.main(["dicke-violation", "--out", str(tmp_path), "--format", "csv"])
    assert (tmp_path / "dicke-violation.csv").exists()
    assert not (tmp_path / "dicke-violation.json").exists()


def test_threads_flag_accepted(tmp_path):
    code = cli.main(["dicke-violation", "--out", str(tmp_path),
                     "--threads", "1"])
    assert code == 0


def test_numint_violation_column_is_certifying_margin(tmp_path):
    cli.main(["numint", "--delta", "0.01", "--energy", "1.0",
              "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "numint.json").read_text())
    (row,) = payload["rows"]
    assert row["violation"] == pytest.approx(
        row["value"] - row["error"] - row["threshold"], rel=1e-12)


@pytest.mark.parametrize("argv,message", [
    (["numint", "--family", "cat:M=3,gamma=nan"], "finite"),
    (["numint", "--family", "w:M=3.5"], "cannot parse family"),
    (["settings-cat", "--gamma", "nan", "--restarts", "2", "--seed", "0"], "finite"),
    (["numint", "--r", "nan"], "radius=nan"),
    (["wstate-loss", "--m-range", "3..3", "--delta", "0.05", "--tol", "0"], "tolerance"),
    (["rmin-scan", "--eta-range", "0", "--tol", "0"], "tolerance"),
    (["mc-witness4", "--family", "cat:M=3,gamma=1", "--shots", "2000", "--seed", "1"],
     "com_wigner"),
    (["wstate-violation", "--m-range", "1..2"], "at least 2 modes, got M = 1"),
    (["cat-violation", "--m-range", "1..1", "--gamma-range", "0.5"], "got M = 1"),
    (["settings-w", "--m", "1", "--restarts", "2", "--max-evals", "50", "--seed", "0"],
     "got M = 1"),
    (["kernel-scan", "--s-range", "nan"], "finite and positive"),
    (["mc-witness4", "--cov-scale", "nan", "--shots", "2000", "--seed", "1"],
     "covariance must be finite"),
    (["numint", "--energy", "nan"], "energy bound must be finite and nonnegative"),
    (["numint", "--energy", "inf"], "energy bound must be finite and nonnegative"),
    (["mc-witness4", "--alpha", "nan", "--shots", "2000", "--seed", "1"],
     "alpha must be finite"),
    (["mc-witness4", "--alpha", "infj", "--shots", "2000", "--seed", "1"],
     "alpha must be finite"),
    (["kernel-scan", "--s-range", "0.2:inf:0.1"], "range bounds and step must be finite"),
    (["rmin-scan", "--m", "3", "--eta-range", "0.45", "--r-lo", "3", "--r-hi", "0.2"],
     "need lo < hi"),
    (["rmin-scan", "--m", "3", "--eta-range", "0.1", "--r-lo", "3", "--r-hi", "0.2"],
     "need lo < hi"),
])
def test_bad_numeric_inputs_exit_one(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


_SRC = Path(cli.__file__).resolve().parents[1]


def _fresh_python(code, *paths):
    """stdout of `code` in a new interpreter with `paths` and src on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (*map(str, paths), str(_SRC), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return run.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = ("import sys, cvgme, cvgme.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def test_package_import_exports_and_loads_nothing():
    # every public name lives in its module; `import cvgme` is only the docstring
    code = ("import sys, cvgme; "
            "print([n for n in vars(cvgme) if not n.startswith('_')], "
            "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('cvgme.')))")
    assert _fresh_python(code) == "[] []"


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracing.py wraps cvgme functions by attribute name; a name
    # that leaves src must fail here, not only in a traced benchmark run
    modules = ("cli", "families", "gaussian_ops", "numerics", "phase_space", "witnesses")
    code = ("import importlib, tracing; tracing.Tracer().install("
            "{m: importlib.import_module('cvgme.' + m) for m in %r}); print('ok')"
            % (modules,))
    assert _fresh_python(code, _SRC.parent / "perfbench") == "ok"
