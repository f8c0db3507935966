"""Config parsing, kernel self-checks, CLI exit codes, end-to-end runs."""

import csv
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from landau_spectral.cli import ConfigError, RunConfig, kernel_check, main
from landau_spectral.spectral import (
    _LSFD_HEADER,
    PhysicalField,
    velocity_axis,
    write_snapshot,
)


def _write_cfg(tmp_path, name="run.cfg", **over):
    # cutoff_shape=none keeps the tiny-grid smoke runs conservative: with the
    # cutoff on, its ramp reshapes the badly-resolved P=8 tails every step
    base = dict(
        L=8.0, P=8, gamma=0.0, init="bkw", dt=1e-3, t_end=3e-3,
        sample_every=1, cutoff_shape="none", output_dir=str(tmp_path / "out"),
    )
    base.update(over)
    text = "\n".join(f"{k}={v}" for k, v in base.items()) + "\n"
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_config_round_trip():
    cfg = RunConfig(L=2.5, P=16, gamma=-1.0, dt=0.01, t_end=0.1, init="shell",
                    snapshot_every=5)
    again = RunConfig.parse(cfg.serialize())
    assert again == cfg
    assert again.R == 2.5  # unset R resolves to L


def test_config_parse_comments_and_whitespace():
    cfg = RunConfig.parse(
        """
        # a comment line
        L = 4.0

        P=16
        init = bkw
        """
    )
    assert cfg.L == 4.0 and cfg.P == 16 and cfg.init == "bkw"


def test_config_parse_error_positions():
    with pytest.raises(ConfigError, match="line 2"):
        RunConfig.parse("L=1.0\nwat=7\n")
    with pytest.raises(ConfigError, match="line 3"):
        RunConfig.parse("L=1.0\nP=8\ndt=fast\n")
    with pytest.raises(ConfigError, match="line 1"):
        RunConfig.parse("just some words\n")
    with pytest.raises(ConfigError, match="line 3: key 'dt' already set on line 1"):
        RunConfig.parse("dt = 0.05\nt_end = 1\ndt = 0.01\n")
    with pytest.raises(ConfigError, match="line 1: key 'R' expects a number"):
        RunConfig.parse("R = abc\n")
    with pytest.raises(ConfigError, match="line 1: key 'snapshot_every' expects an integer"):
        RunConfig.parse("snapshot_every = 2.5\n")
    # the convolutions always follow the 3/2 rule, every process builds its
    # own kernel tables, and the collocation refinement and the quadrature
    # tolerance are constants: no such option exists, so old configs fail here
    for key, val in (("padding", "exact"), ("kernel_cache", "tables"),
                     ("oversample", "2"), ("quad_tol", "1e-10")):
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            RunConfig.parse(f"{key}={val}\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(init="plasma")
    with pytest.raises(ConfigError):
        RunConfig(snapshot_every=-1)
    for threads in (-2, 0, 2):  # FFTs run on one thread
        with pytest.raises(ConfigError, match="set threads = 1 or drop the key"):
            RunConfig(threads=threads)
    with pytest.raises(ConfigError):
        RunConfig(P=7).grid()
    with pytest.raises(ConfigError):
        RunConfig(dt=0.3, t_end=1.0).time_config()
    # file: prefix is accepted at construction; the path is resolved later
    RunConfig(init="file:whatever.lsfd")


def test_readme_config_table_lists_every_key():
    # the keys in the first column of README's "Config file" table
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Config file", 1)[1].split("\n\n|", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # after the header and the |---| line
    keys = [k for row in rows for k in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize("key,val", [("t_end", "inf"), ("dt", "nan"), ("dt", "inf"),
                                     ("L", "nan")])
def test_non_finite_config_values_fail_at_parse_time(tmp_path, capsys, key, val):
    # each used to fail late or with a crash: an OverflowError traceback
    # (t_end = inf), a bare float-conversion message (dt = nan), no error at
    # all (dt = inf), or an error blaming R (L = nan)
    with pytest.raises(ConfigError, match=f"line 1: key '{key}' expects a finite number"):
        RunConfig.parse(f"{key}={val}\n")
    assert main(["run", str(_write_cfg(tmp_path, **{key: val}))]) == 1
    err = capsys.readouterr().err
    assert f"key '{key}' expects a finite number, got '{val}'" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# kernel self-check suite
# ---------------------------------------------------------------------------

def test_kernel_check_passes_coulomb():
    results = kernel_check(points=6, gamma=-3.0)
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert any("closed form" in n for n in names)
    assert any("mass identity" in n for n in names)
    assert any("real-field FFT evaluation" in n for n in names)
    assert any("aliasing seen at Q = 3N - 1" in n for n in names)


def _corrupt_tables(monkeypatch):
    # negative control: damage one table entry of every build the checks make
    from landau_spectral import cli

    build = cli.build_kernel_tables

    def damaged(grid, **kw):
        tables = build(grid, **kw)
        tables.A[1, 0, 0] += 1e-3
        return tables

    monkeypatch.setattr(cli, "build_kernel_tables", damaged)


def test_kernel_check_negative_control(monkeypatch):
    _corrupt_tables(monkeypatch)
    results = kernel_check(points=6, gamma=-3.0)
    assert not all(ok for _, ok, _ in results)


def test_kernel_check_general_gamma():
    results = kernel_check(points=6, gamma=-1.0)
    assert all(ok for _, ok, _ in results)


@pytest.mark.parametrize("gamma", [0.0, -2.5])
def test_kernel_check_closed_form_and_cumulative_gammas(gamma):
    results = kernel_check(points=6, gamma=gamma)
    assert all(ok for _, ok, _ in results)
    assert "radial profiles vs from-zero quadrature" in [name for name, _, _ in results]


def test_kernel_check_negative_control_gamma0(monkeypatch):
    _corrupt_tables(monkeypatch)
    results = {name: ok for name, ok, _ in kernel_check(points=6, gamma=0.0)}
    assert not results["table reconstruction vs quadrature"]
    assert results["radial profiles vs from-zero quadrature"]  # profiles are rebuilt


_SELF_CONSISTENCY = "quadrature self-consistency (tol 1e-8 vs 1e-10)"


@pytest.mark.parametrize("points,gamma", [(6, 0.5), (6, -0.5), (8, -0.5)])
def test_kernel_check_self_consistency_is_relative(points, gamma):
    # coefficients reach 1e4-1e5 at L = 8, so only a relative defect is meaningful
    results = {name: (ok, detail) for name, ok, detail in kernel_check(points, gamma)}
    assert results[_SELF_CONSISTENCY][0], results[_SELF_CONSISTENCY][1]


def test_kernel_check_self_consistency_sees_a_damaged_value(monkeypatch):
    from landau_spectral import kernel

    damaged = []

    def quadrature(l, m, params, tol=1e-10, limit=200):
        value = kernel.beta_quadrature(l, m, params, tol, limit)
        if tol == 1e-8 and not damaged:  # the row's first coarse value
            damaged.append(value)
            return value * (1.0 + 1e-6)
        return value

    monkeypatch.setattr("landau_spectral.cli.beta_quadrature", quadrature)
    results = {name: ok for name, ok, _ in kernel_check(points=6, gamma=0.5)}
    assert damaged and damaged[0] != 0.0
    assert not results[_SELF_CONSISTENCY]
    assert results["radial profiles vs from-zero quadrature"]


def test_kernel_check_refuses_large_grids():
    with pytest.raises(ConfigError):
        kernel_check(points=18)


# ---------------------------------------------------------------------------
# main(): run command
# ---------------------------------------------------------------------------

def test_run_end_to_end(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out
    outdir = tmp_path / "out"
    rows = list(csv.reader((outdir / "diagnostics.csv").open()))
    assert len(rows) == 5  # header + steps 0..3
    assert rows[0][0] == "t"
    # mass stays put to high precision over three tiny steps
    masses = [float(r[1]) for r in rows[1:]]
    assert abs(masses[-1] - masses[0]) < 1e-9
    # BKW at gamma=0 fills the error columns
    assert rows[1][-1] != ""
    # config echo parses back to an equivalent config
    echoed = RunConfig.parse((outdir / "config.txt").read_text())
    assert echoed.P == 8 and echoed.t_end == 3e-3


def test_run_outputs_are_deterministic(tmp_path):
    cfg_a = _write_cfg(tmp_path, name="a.cfg", output_dir=str(tmp_path / "a"))
    cfg_b = _write_cfg(tmp_path, name="b.cfg", output_dir=str(tmp_path / "b"))
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    da = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    db = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert da == db


def test_run_zero_horizon(tmp_path):
    cfg = _write_cfg(tmp_path, t_end=0.0)
    assert main(["run", str(cfg)]) == 0
    rows = list(csv.reader((tmp_path / "out" / "diagnostics.csv").open()))
    assert len(rows) == 2


def test_run_writes_and_restarts_from_snapshots(tmp_path):
    cfg = _write_cfg(tmp_path, snapshot_every=2)
    assert main(["run", str(cfg)]) == 0
    outdir = tmp_path / "out"
    snaps = sorted(p.name for p in outdir.glob("snapshot_*.lsfd"))
    assert snaps == ["snapshot_000000.lsfd", "snapshot_000002.lsfd"]
    # restart from the mid-run state
    cfg2 = _write_cfg(
        tmp_path, name="restart.cfg", t_end=1e-3,
        init=f"file:{outdir / 'snapshot_000002.lsfd'}",
        output_dir=str(tmp_path / "out2"),
    )
    assert main(["run", str(cfg2)]) == 0
    rows = list(csv.reader((tmp_path / "out2" / "diagnostics.csv").open()))
    assert len(rows) == 3
    # restart refuses a mismatched grid
    cfg3 = _write_cfg(
        tmp_path, name="bad_restart.cfg", P=16,
        init=f"file:{outdir / 'snapshot_000002.lsfd'}",
        output_dir=str(tmp_path / "out3"),
    )
    assert main(["run", str(cfg3)]) == 1


def test_run_summary_names_the_march(tmp_path, capsys):
    # the radial shell datum marches on the octant; a restart from a field
    # with no axis symmetry on the (P, P, P) coefficients
    shell = _write_cfg(tmp_path, name="shell.cfg", L=1.8, P=16, gamma=-3.0, init="shell",
                       cutoff_shape="paper", dt=0.05, t_end=0.05)
    assert main(["run", str(shell)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("march = octant")
    grid = RunConfig.parse(_write_cfg(tmp_path).read_text()).grid()
    v = velocity_axis(grid)
    r2 = v[:, None, None] ** 2 + v[None, :, None] ** 2 + v[None, None, :] ** 2
    rng = np.random.default_rng(7)
    vals = np.exp(-r2 / 8.0) * (1.0 + 0.01 * rng.random(r2.shape))
    write_snapshot(tmp_path / "odd.lsfd", PhysicalField(vals, grid), 0.0)
    odd = _write_cfg(tmp_path, name="odd.cfg", init=f"file:{tmp_path / 'odd.lsfd'}",
                     t_end=1e-3)
    assert main(["run", str(odd)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("march = half")


def test_restart_refuses_snapshot_of_another_gamma(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, snapshot_every=2)  # gamma = 0
    assert main(["run", str(cfg)]) == 0
    cfg2 = _write_cfg(
        tmp_path, name="other_gamma.cfg", gamma=-1.0,
        init=f"file:{tmp_path / 'out' / 'snapshot_000002.lsfd'}",
        output_dir=str(tmp_path / "out2"),
    )
    assert main(["run", str(cfg2)]) == 1
    assert "gamma=0.0" in capsys.readouterr().err
    assert not (tmp_path / "out2" / "diagnostics.csv").exists()  # no step was taken


def test_commands_build_tables_through_the_benchmark_probe(tmp_path, monkeypatch, capsys):
    # perfbench/launch.py times kernel.build_s by wrapping this module-level
    # name; a command that bypassed it would leave the span reading 0
    from landau_spectral import cli

    calls = []

    def counting(grid):
        calls.append(grid.P)
        return cli.build_kernel_tables(grid)

    monkeypatch.setattr(cli, "build_or_load_tables", counting)
    cfg = _write_cfg(tmp_path, t_end=1e-3)
    assert main(["run", str(cfg)]) == 0
    assert calls == [8]
    assert main(["convergence", str(cfg), "--grids", "8,16"]) == 0
    assert calls == [8, 8, 16]
    capsys.readouterr()


def _count_table_builds(monkeypatch):
    from landau_spectral import cli

    builds = []
    monkeypatch.setattr(cli, "build_or_load_tables", lambda grid: builds.append(grid))
    return builds


def test_missing_snapshot_fails_before_tables_are_built(tmp_path, monkeypatch, capsys):
    builds = _count_table_builds(monkeypatch)
    cfg = _write_cfg(tmp_path, gamma=-1.0, init=f"file:{tmp_path / 'missing.lsfd'}")
    assert main(["run", str(cfg)]) == 3
    assert "missing.lsfd" in capsys.readouterr().err
    assert builds == []
    assert not (tmp_path / "out").exists()  # no output directory is left behind


def test_run_exit_codes(tmp_path, capsys):
    # missing config file -> i/o error
    assert main(["run", str(tmp_path / "nope.cfg")]) == 3
    # a snapshot whose header claims far more values than the file holds
    snap = tmp_path / "huge.lsfd"
    snap.write_bytes(_LSFD_HEADER.pack(b"LSFD", 1, 2**20, 8.0, 0.0, 0.0) + bytes(64))
    assert main(["run", str(_write_cfg(tmp_path, init=f"file:{snap}"))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "P=1048576" in err and "Traceback" not in err
    # malformed config -> validation error
    bad = tmp_path / "bad.cfg"
    bad.write_text("P=eight\n")
    assert main(["run", str(bad)]) == 1
    # t_end / dt overflows a float: a validation error, not an OverflowError
    steps = _write_cfg(tmp_path, name="steps.cfg", dt=1e-300, t_end=1e10)
    capsys.readouterr()
    assert main(["run", str(steps)]) == 1
    err = capsys.readouterr().err
    assert "t_end / dt must be finite" in err and "Traceback" not in err
    # finite, but 1e100 steps: refused before any work instead of marching forever
    endless = _write_cfg(tmp_path, name="endless.cfg", dt=1e-300, t_end=1e-200)
    assert main(["run", str(endless)]) == 1
    err = capsys.readouterr().err
    assert "1e+100 steps" in err and "larger dt" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # an initial state with no matching Maxwellian -> numerical error
    # (the default shell datum is unresolvable at P=8 on the small box)
    degen = _write_cfg(tmp_path, name="degen.cfg", L=1.8, gamma=-3.0,
                       init="shell", dt=0.05, t_end=0.05)
    assert main(["run", str(degen)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# main(): other commands
# ---------------------------------------------------------------------------

def test_convergence_command(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, t_end=2e-3)
    assert main(["convergence", str(cfg), "--grids", "8,12"]) == 0
    rows = (tmp_path / "out" / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "P,L_over_N,max_e1,max_e2"
    assert len(rows) == 3
    p8 = rows[1].split(",")
    p12 = rows[2].split(",")
    assert int(p8[0]) == 8 and int(p12[0]) == 12
    assert float(p8[1]) == pytest.approx(2.0) and float(p12[1]) == pytest.approx(8 / 6)
    # tiny grids are pre-asymptotic, so only sanity is asserted here; the
    # quantitative refinement behavior is pinned at P >= 16 elsewhere
    for row in (p8, p12):
        assert float(row[2]) > 0 and np.isfinite(float(row[2]))
        assert float(row[3]) > 0 and np.isfinite(float(row[3]))
    capsys.readouterr()


def test_convergence_rejects_bad_setups(tmp_path, monkeypatch, capsys):
    builds = _count_table_builds(monkeypatch)
    cfg = _write_cfg(tmp_path, t_end=2e-3)
    for grids, msg in (("7,8", "even and >= 4, got 7"), (",", "lists no grid size"),
                       ("8,8", "P = 8 more than once"),
                       ("8,x", "--grids takes comma-separated even integers, got '8,x'")):
        assert main(["convergence", str(cfg), "--grids", grids]) == 1
        assert msg in capsys.readouterr().err
    shell = _write_cfg(tmp_path, name="s.cfg", init="shell")
    assert main(["convergence", str(shell), "--grids", "8"]) == 1
    coul = _write_cfg(tmp_path, name="c.cfg", gamma=-3.0)
    assert main(["convergence", str(coul), "--grids", "8"]) == 1
    snap = _write_cfg(tmp_path, name="snap.cfg", snapshot_every=1)
    assert main(["convergence", str(snap), "--grids", "8"]) == 1
    assert "snapshot_every" in capsys.readouterr().err
    steps = _write_cfg(tmp_path, name="steps.cfg", dt=0.003, t_end=0.01)
    assert main(["convergence", str(steps), "--grids", "16"]) == 1
    assert "not an integer multiple of dt" in capsys.readouterr().err
    assert builds == []


def test_kernel_check_command(capsys, monkeypatch):
    assert main(["kernel-check", "--points", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["kernel-check", "--points", "6", "--corrupt"]) == 1  # no such option
    _corrupt_tables(monkeypatch)
    assert main(["kernel-check", "--points", "6"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_oracle_compare_command(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, name="oc.cfg", P=6, gamma=-3.0, init="shell")
    assert main(["oracle-compare", str(cfg)]) == 0
    assert "worst deviation" in capsys.readouterr().out
    big = _write_cfg(tmp_path, name="big.cfg", P=32)
    assert main(["oracle-compare", str(big)]) == 1


def test_usage_errors_are_validation_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["convergence"]) == 1
    capsys.readouterr()
