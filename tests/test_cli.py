"""End-to-end command-line behaviour: outputs, determinism, and exit codes."""

import math
import warnings

import numpy as np
import pytest

from nitsche_lab import AnnulusMap, cli, means_closed_form, random_annulus_map, write_ahm
from nitsche_lab import checks
from nitsche_lab.cli import main


def write_map(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        write_ahm(m, fh)


@pytest.fixture
def critical_path(tmp_path, critical):
    p = tmp_path / "critical.ahm"
    write_map(p, critical)
    return str(p)


def test_means_margin_is_zero_on_critical_map(critical_path, capsys):
    assert main(["means", "--map", critical_path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "rho", "U", "U_dot", "U_ddot", "mean_radius",
        "L1", "L3", "nitsche_floor", "margin",
    ]
    margins = [float(row.split(",")[-1]) for row in lines[1:]]
    assert len(margins) == 50
    assert max(abs(x) for x in margins) <= 1e-12


def test_means_writes_atomic_csv(critical_path, tmp_path, capsys):
    out_file = tmp_path / "means.csv"
    assert main(["means", "--map", critical_path, "--out", str(out_file)]) == 0
    assert out_file.exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert out_file.read_text().startswith("rho,")


def test_identity_residuals_small(critical_path, capsys):
    assert main(["identity", "--map", critical_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    residuals = [abs(float(row.split(",")[3])) for row in lines[1:]]
    assert max(residuals) <= 1e-10


def test_qforms_output_grid(capsys):
    assert main(["qforms", "--rho-grid", "2.7:5.0:4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,rho,A,B,C,discriminant"
    assert len(lines) == 1 + 4 * 21  # 4 radii x n in [-10, 10]


def test_construct_success(capsys):
    assert main(["construct", "--R", "2.0", "--Rstar", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "v 0.33333333333333" in out
    assert "margin 0.25" in out


def test_construct_below_bound_exit_code(capsys):
    assert main(["construct", "--R", "2.0", "--Rstar", "1.2"]) == 4
    assert "deficit 0.05" in capsys.readouterr().out


def test_construct_missing_args(capsys):
    assert main(["construct", "--R", "2.0"]) == 2


def test_minsurf_reports_sharp_slack(tmp_path, capsys):
    assert main(["minsurf", "--nitsche-v", "0.0", "--R", "2.0"]) == 0
    out = capsys.readouterr().out
    slack_line = next(l for l in out.splitlines() if l.startswith("modulus"))
    assert "OK" in slack_line
    assert abs(float(slack_line.split()[5])) <= 1e-12
    # h = 1/conj(z) maps the outer circle inward, U(R) = 1/4 < U(1) = 1, and its
    # image annulus has the same radii ratio 2
    p = tmp_path / "inverse.ahm"
    p.write_text("AHM 1\nR 2\nLOG 0 0 0 0\nC 1 0 0 1 0\n", encoding="utf-8")
    assert main(["minsurf", "--map", str(p), "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().out.split()[-1] == "OK"


def test_minsurf_rejects_odd_zero(tmp_path, capsys):
    bad = AnnulusMap(R=2.0, terms={2: (0.5, 0.0), 1: (-1.5, 1.0)})
    p = tmp_path / "bad.ahm"
    write_map(p, bad)
    assert main(["minsurf", "--map", str(p)]) == 5
    assert "lift rejected" in capsys.readouterr().err
    # sqrt(phi) closes around the hole, but the lift w does not
    multivalued = AnnulusMap(R=2.0, terms={1: (1, 1 + 1j), 2: (-1 / 1.5, 0),
                                           3: (1 / 6.75, 0)})
    write_map(p, multivalued)
    assert main(["minsurf", "--map", str(p)]) == 5
    assert "multivalued" in capsys.readouterr().err


def test_chain_all_hold(capsys):
    assert main(["chain", "--seed", "3", "--quad", "8,8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert all(row.split(",")[-1] == "1" for row in lines[1:])


def test_example51_summary(capsys):
    assert main(["example51", "--a", "0.5", "--lam", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "I True II True III False" in out
    lines = [l for l in out.splitlines() if "," in l]
    margins = {
        float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]
    }
    # the generalized bound margin goes negative well before sigma = 12
    assert margins[max(margins)] < 0.0
    # the default grid stops at R when R < 20
    assert main(["example51", "--R", "5"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if "," in l]
    assert float(rows[-1].split(",")[0]) == 5.0


def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    lines = [line.split() for line in first.splitlines()]
    assert len(lines) >= 15
    # the lines are the registry's results, in its order, run through one generator
    rng = np.random.default_rng(7)
    results = [r for check in checks.REGISTRY for r in check(rng, False)]
    assert [line[0] for line in lines] == [r.name for r in results]
    for (_, value, threshold, status), r in zip(lines, results):
        assert float(value) == r.value and float(threshold) == r.threshold
        assert status == "PASS" and r.value <= r.threshold


def test_verify_failure_exits_1(tmp_path, monkeypatch, capsys):
    def failing(rng, full):
        return [checks.CheckResult("forced_failure", 1.0, 0.0)]

    monkeypatch.setattr(checks, "REGISTRY", (failing, *checks.REGISTRY[1:]))
    assert main(["verify", "--seed", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "forced_failure 1 0 FAIL"
    assert all(line.endswith(" PASS") for line in lines[1:])
    out_file = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "7", "--out", str(out_file)]) == 1
    assert capsys.readouterr().out == "FAIL\n"
    assert out_file.read_text().splitlines() == lines


def test_parse_errors_exit_2(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main(["means"]) == 2  # no map source given
    assert main(["means", "--map", str(tmp_path / "missing.ahm")]) == 2
    garbled = tmp_path / "garbled.ahm"
    garbled.write_text("not a coefficient file\n")
    assert main(["means", "--map", str(garbled)]) == 2
    # --R 0 is an outer radius below 1, not a request for the default; a chain
    # needs K >= 1 maps and means a ring-size floor M >= 0
    for argv in (["means", "--nitsche-v", "0.3", "--R", "0", "--rho-grid", "1:1.5:2"],
                 ["minsurf", "--nitsche-v", "0.3", "--R", "0"],
                 ["example51", "--a", "0.5", "--R", "0"],
                 ["chain", "--quad", "8,0"],
                 ["chain", "--quad=8,-5"],
                 ["means", "--nitsche-v", "0.3", "--quad=-1,4"]):
        assert main(argv) == 2, argv


def test_domain_errors_exit_3(critical_path, tmp_path, capsys):
    assert main(["means", "--map", critical_path, "--rho-grid", "1.0:5.0:10"]) == 3
    assert "domain error" in capsys.readouterr().err
    # example51 on A(1, 5): margins are only defined on [1, 5]
    for grid in ("0.5:20:4", "1:5.5:4"):
        assert main(["example51", "--a", "0.5", "--R", "5", "--rho-grid", grid]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:") and "," not in captured.out
    # a table needs a finite R, even with no terms
    inf_path = tmp_path / "inf.ahm"
    inf_path.write_text("AHM 1\nR inf\nLOG 0 0 1 0\n", encoding="utf-8")
    # identity needs sigma in (1, R]; qforms needs rho in (1, inf); construct
    # refuses a non-finite radius instead of printing a deficit
    for argv in (["identity", "--nitsche-v", "0.3", "--R", "2", "--rho-grid", "0.5:20:3"],
                 ["identity", "--nitsche-v", "0.3", "--R", "2", "--rho-grid", "1:2:3"],
                 ["qforms", "--rho-grid", "0.5:2:3"],
                 ["qforms", "--rho-grid", "3:inf:3"],
                 ["qforms", "--rho-grid", "nan:5:3"],
                 ["minsurf", "--map", str(inf_path), "--out", str(tmp_path / "s.csv")],
                 ["construct", "--R", "2", "--Rstar", "nan"],
                 ["construct", "--R", "inf", "--Rstar", "5"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:") and "," not in captured.out
    # a non-finite grid bound is refused before any grid is built: one line, no warning
    for argv in (["means", "--nitsche-v", "0.3", "--R", "2", "--rho-grid", "3:inf:3"],
                 ["qforms", "--rho-grid", "3:inf:3"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert not caught
        assert err.startswith("domain error:") and err.count("\n") == 1


def test_overflow_exits_3_with_one_line(tmp_path, capsys):
    p = tmp_path / "z600.ahm"  # |z^600|^2 = rho^1200 overflows at rho = 2
    write_map(p, AnnulusMap(R=math.e, terms={600: (1.0, 0.0)}))
    for argv in (["qforms", "--rho-grid", "3:1e40:2"],
                 ["example51", "--a", "0.9"],  # N log R = 2417.7 > the table cap
                 ["means", "--map", str(p), "--rho-grid", "1:2:3"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert not caught and "," not in captured.out
        assert captured.err.startswith("domain error:") and captured.err.count("\n") == 1


def test_means_routes_agree_from_the_inner_circle(tmp_path, capsys):
    m = random_annulus_map(np.random.default_rng(5), n_max=5, R=2.0, log_scale=0.4)
    assert m.log_a0 != 0
    p = tmp_path / "log.ahm"
    write_map(p, m)
    assert main(["means", "--map", str(p)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert rows[0][0] == 1.0
    i1, i3 = header.index("L1"), header.index("L3")
    for row in rows:
        assert abs(row[i1] - row[i3]) <= 1e-10 * max(1.0, abs(row[i1]))
        U, Ud, Udd = means_closed_form(m, row[0])  # the per-radius sums
        assert np.allclose(row[1:4], [U, Ud, Udd], rtol=1e-14, atol=0.0)


def test_cli_surface():
    assert cli.__all__ == ["main"]
    assert main(["qforms", "--tol", "1e-8"]) == 2  # the unused flags are gone
    assert main(["means", "--example51", "--a", "0.5"]) == 2
