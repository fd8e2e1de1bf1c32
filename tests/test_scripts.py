"""Smoke tests: the two experiment scripts the README advertises run end to end."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, args: list[str], cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_margin_sweep(tmp_path):
    out = run_script("margin_sweep.py", ["--steps", "10", "--out", "sweep.csv"], tmp_path)
    rows = csv_rows(tmp_path / "sweep.csv")
    # 4 extremal speeds, 3 minimizer targets and 3 log examples, 10 radii each
    assert rows[0] == ["family", "parameter", "rho", "margin"]
    assert len(rows) == 1 + 10 * 10
    assert "wrote 100 rows" in out
    assert "first negative margin: family=log_example" in out  # default R = 20


def test_export_surface(tmp_path):
    out = run_script("export_surface.py", [
        "--speeds", "0", "0.5", "--n-rho", "9", "--n-theta", "16",
        "--prefix", "surf"], tmp_path)
    lines = out.splitlines()
    assert len(lines) == 2
    for v, line in zip(("0", "0.5"), lines):
        assert line.startswith(f"v={v}:") and "(OK," in line
        rows = csv_rows(tmp_path / f"surf_v{v}.csv")
        assert rows[0] == ["x", "y", "z"] and len(rows) == 1 + 9 * 16
