"""Positive and negative controls for the benchmark's correctness checks.

Run from the root of the repository:  python3 -m pytest perfbench

Each check must pass on genuine output and fail on a deliberately damaged
copy of it: a perturbed mass, entropy, momentum or time row, a perturbed
max_e2 row, a snapshot with one flipped value.
"""

from __future__ import annotations

import math
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

DT, L, STEPS = 0.05, 1.8, 4


@pytest.fixture(scope="module")
def shell_run(tmp_path_factory):
    """A genuine P = 16 shell run of the CLI, sampled every step."""
    d = tmp_path_factory.mktemp("shell")
    cfg = d / "run.cfg"
    cfg.write_text(
        f"L = {L}\nP = 16\ngamma = -3\ninit = shell\ndt = {DT}\n"
        f"t_end = {STEPS * DT}\nsnapshot_every = {STEPS}\noutput_dir = {d}\n"
    )
    subprocess.run(
        [sys.executable, "-m", "landau_spectral.cli", "run", str(cfg)],
        check=True, cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
    )
    return d


@pytest.fixture
def cols(shell_run):
    return checks.read_diagnostics(shell_run / "diagnostics.csv")


def _fails(cols):
    return checks.check_diagnostics(cols, DT, L, STEPS)


def test_genuine_run_passes(cols):
    assert _fails(cols) == []
    assert 0 < checks.mass_drift(cols) < checks.MASS_DRIFT_RATE * STEPS * DT


def test_perturbed_mass_fails(cols):
    cols["mass"][2] *= 1.0 + 1e-3
    assert any("mass drift" in m for m in _fails(cols))


def test_entropy_increase_fails(cols):
    cols["rel_entropy"][-1] = cols["rel_entropy"][0] * (1.0 + 1e-9)
    assert any("relative entropy" in m for m in _fails(cols))


def test_asymmetric_momentum_fails(cols):
    cols["mom_y"][1] *= 1.0 + 1e-6
    assert any("permutation-symmetric" in m for m in _fails(cols))


def test_time_column_fails(cols):
    cols["t"][3] = math.nextafter(cols["t"][3], 1.0)
    assert any("t column" in m for m in _fails(cols))


def test_missing_row_fails(cols):
    for v in cols.values():
        del v[-1]
    assert _fails(cols) != []


def test_non_finite_fails(cols):
    cols["mass"][1] = math.nan
    assert any("non-finite" in m for m in _fails(cols))


# reference rows of the BKW study (gamma = 0, L = 8, dt = 1e-3, 20 steps)
BKW_ROWS = [
    {"P": 16.0, "L_over_N": 1.0, "max_e1": 0.33429357594614395, "max_e2": 0.025691314903804399},
    {"P": 32.0, "L_over_N": 0.5, "max_e1": 0.0020815901780001328, "max_e2": 4.7126057494347197e-05},
]


def _bkw(**e2_at_32):
    rows = [dict(r) for r in BKW_ROWS]
    rows[1].update(e2_at_32)
    return rows


def test_convergence_passes():
    assert checks.check_convergence(_bkw(), [16, 32]) == []


@pytest.mark.parametrize("e2", [0.2 * 0.025691314903804399, 0.0, -1e-5, math.nan, math.inf])
def test_perturbed_e2_row_fails(e2):
    assert checks.check_convergence(_bkw(max_e2=e2), [16, 32]) != []


def test_convergence_wrong_grids_fails():
    assert checks.check_convergence(_bkw(), [16, 24]) != []


def test_convergence_csv_roundtrip(tmp_path):
    path = tmp_path / "convergence.csv"
    path.write_text("P,L_over_N,max_e1,max_e2\n" + "".join(
        f"{int(r['P'])},{r['L_over_N']!r},{r['max_e1']!r},{r['max_e2']!r}\n" for r in BKW_ROWS))
    assert checks.read_convergence(path) == BKW_ROWS


def test_snapshot_reader_matches_program(shell_run):
    sys.path.insert(0, str(ROOT / "src"))
    from landau_spectral import read_snapshot

    path = shell_run / f"snapshot_{STEPS:06d}.lsfd"
    header, vals = checks.read_snapshot(path)
    ref, ref_header = read_snapshot(path)
    assert {k: header[k] for k in ref_header} == ref_header
    assert np.array_equal(vals, ref.reshape(-1))


def _flip_one_value(src: Path, dst: Path) -> None:
    """Flip one mantissa bit of the largest-magnitude value."""
    raw = bytearray(src.read_bytes())
    off = struct.calcsize("<4sIIddd")
    vals = np.frombuffer(bytes(raw), dtype="<f8", offset=off)
    byte = off + 8 * int(np.argmax(np.abs(vals))) + 4  # bits 32..39
    raw[byte] ^= 0x01
    dst.write_bytes(bytes(raw))


def test_restart_check_passes_and_flipped_value_fails(shell_run, tmp_path):
    path = shell_run / f"snapshot_{STEPS:06d}.lsfd"
    same = tmp_path / "same.lsfd"
    shutil.copy(path, same)
    assert checks.check_restart(checks.read_snapshot(path), checks.read_snapshot(same)) == []
    flipped = tmp_path / "flipped.lsfd"
    _flip_one_value(path, flipped)
    fails = checks.check_restart(checks.read_snapshot(path), checks.read_snapshot(flipped))
    assert fails and "differs" in fails[0]


def test_restart_grid_mismatch_fails(shell_run):
    header, vals = checks.read_snapshot(shell_run / f"snapshot_{STEPS:06d}.lsfd")
    other = ({**header, "L": header["L"] * 2}, vals)
    assert checks.check_restart((header, vals), other) != []


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shell-p32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert "{" not in res.stdout
