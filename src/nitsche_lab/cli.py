"""Command-line front end: map construction, sweeps, and batch verification.

Subcommands: means, verify, construct, minsurf, identity, qforms, chain,
example51; each takes the parsed argparse namespace.  verify runs the check
registry ``nitsche_lab.checks`` at its small sizes, the same functions the
acceptance tests run at full size.  ``--quad M,K`` gives the ring-size
floor M >= 0 for means and the number K >= 1 of maps for chain.  Every
--rho-grid needs finite bounds; an identity one must lie in (1, R].  Exit
codes: 0 success, 1 failed verification check, 2 argument or file parse error,
3 domain error (a radius outside the annulus, a table over the overflow
cap or with a non-finite R, a non-finite construct radius, a value outside the
floating-point range such as an overflowed closed-form circle sum, or an
unconverged radial quadrature),
4 existence bound violated (deficit printed), 5 lift rejected.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from . import checks
from .annulus_core import (
    AhmFormatError, AnnulusDomainError, AnnulusMap, CoefficientRangeError,
    evaluate_rings, read_ahm, write_ahm)
from .circle_means import operator_L, radial_profile
from .disk_maps import jacobian_energy_chain, poisson_extend, random_boundary_homeo
from .identity_engine import verify_identity
from .minimal_surface import (
    BranchError, NoLiftError, catenoid_modulus, lift, modulus_bound_check)
from .nitsche_family import (
    NitscheParams, NoHarmonicHomeomorphism, bound_margin, check_initial_conditions,
    construct_harmonic_homeo, example_51_map, mean_radii_ratio, nitsche_floor,
    nitsche_map)
from .quadratic_forms import SQRT7, qform_coefficients

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_DEFICIT = 4
EXIT_NO_LIFT = 5


def _parse_rho_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected lo:hi:steps")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 2 or hi <= lo:
        raise argparse.ArgumentTypeError("need hi > lo and steps >= 2")
    return lo, hi, steps


def _rho_grid(cfg: argparse.Namespace, default: tuple[float, float, int]) -> np.ndarray:
    """The --rho-grid radii, or the default (lo, hi, steps); bounds must be finite."""
    lo, hi, steps = cfg.rho_grid or default
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise AnnulusDomainError(f"rho grid bounds must be finite, got {lo}:{hi}")
    return np.linspace(lo, hi, steps)


def _parse_quad(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected M,K")
    M, K = int(parts[0]), int(parts[1])
    if M < 0 or K < 1:
        raise argparse.ArgumentTypeError("need M >= 0 and K >= 1")
    return M, K


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nitsche-lab",
        description="spectral toolkit for harmonic annulus maps",
    )
    p.add_argument("command", choices=[
        "means", "verify", "construct", "minsurf",
        "identity", "qforms", "chain", "example51",
    ])
    p.add_argument("--map", dest="map_path", help="AHM coefficient file")
    p.add_argument("--out", dest="out_path", help="output file (CSV or AHM)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho-grid", type=_parse_rho_grid, default=None,
                   metavar="LO:HI:STEPS")
    p.add_argument("--quad", type=_parse_quad, default=(256, 16), metavar="M,K",
                   help="M: ring-size floor for means; K: maps for chain")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--Rstar", dest="R_star", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--nitsche-v", dest="v", type=float, default=None)
    return p


def _load_map(cfg: argparse.Namespace) -> AnnulusMap:
    if cfg.map_path:
        with open(cfg.map_path, "r", encoding="utf-8") as fh:
            return read_ahm(fh)
    if cfg.v is not None:
        return nitsche_map(NitscheParams(v=cfg.v, R=2.0 if cfg.R is None else cfg.R))
    raise AhmFormatError("no map given: use --map or --nitsche-v")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(cfg: argparse.Namespace, text: str) -> None:
    """Write to --out atomically, or to stdout when no path is given."""
    if cfg.out_path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(cfg.out_path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, cfg.out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], table) -> str:
    """CSV text of a (rows, len(header)) table of floats, each cell as _fmt
    writes it.  Each column formats each of its distinct values once (a grid
    repeats its radii and angles, and a constant column is one value), and
    one % operation lays the formatted cells out in lines.  Values are told
    apart by their bits, so -0.0 stays "-0" beside 0.0."""
    cells = np.asarray(table, dtype=float).reshape(-1, len(header))
    text = np.empty(cells.shape, dtype=object)
    for j, col in enumerate(cells.T):
        bits, where = np.unique(col.view(np.uint64), return_inverse=True)
        text[:, j] = np.array(["%.17g" % x for x in bits.view(float).tolist()],
                              dtype=object)[where]
    line = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (line * cells.shape[0]) % tuple(text.ravel().tolist())


def cmd_means(cfg: argparse.Namespace) -> int:
    m = _load_map(cfg)
    prof = radial_profile(m, _rho_grid(cfg, (1.0, 0.995 * m.R, 50)))  # checks [1, R)
    L3 = [operator_L(m, rho, cfg.quad[0])[2] for rho in prof.rho_grid.tolist()]
    cols = (prof.rho_grid, prof.U, prof.U_dot, prof.U_ddot, prof.mean_radius,
            prof.L_of_U, np.array(L3), nitsche_floor(prof.rho_grid),
            bound_margin(m, prof.rho_grid))
    _write_text(cfg, _csv(
        ["rho", "U", "U_dot", "U_ddot", "mean_radius",
         "L1", "L3", "nitsche_floor", "margin"], np.column_stack(cols)))
    return EXIT_OK


def cmd_identity(cfg: argparse.Namespace) -> int:
    m = _load_map(cfg)
    rows = []
    for sigma in _rho_grid(cfg, (1.0 + (m.R - 1.0) / 10.0, m.R, 10)):
        rep = verify_identity(m, float(sigma))  # checks sigma in (1, R]
        rows.append([
            rep.R_eval, rep.lhs, rep.rhs, rep.residual,
            *rep.lhs_terms, *rep.rhs_integrals,
        ])
    _write_text(cfg, _csv(
        ["R_eval", "lhs", "rhs", "residual",
         "term1", "term2", "term3", "term4", "int1", "int2"], rows))
    return EXIT_OK


def cmd_qforms(cfg: argparse.Namespace) -> int:
    rows = []
    for rho in _rho_grid(cfg, (SQRT7, 10.0, 30)):
        for n in range(-10, 11):
            q = qform_coefficients(n, float(rho))
            rows.append([float(n), q.rho, q.A, q.B, q.C, q.discriminant])
    _write_text(cfg, _csv(["n", "rho", "A", "B", "C", "discriminant"], rows))
    return EXIT_OK


def cmd_construct(cfg: argparse.Namespace) -> int:
    if cfg.R is None or cfg.R_star is None:
        print("construct requires --R and --Rstar", file=sys.stderr)
        return EXIT_PARSE
    try:
        m = construct_harmonic_homeo(cfg.R, cfg.R_star)
    except NoHarmonicHomeomorphism as exc:
        print(f"no harmonic homeomorphism: deficit {_fmt(exc.deficit)}")
        return EXIT_DEFICIT
    a, b = m.terms[1]
    v = 2.0 * a.real - 1.0
    margin = cfg.R_star - nitsche_floor(cfg.R)
    print(f"v {_fmt(v)}")
    print(f"a1 {_fmt(a.real)}")
    print(f"b1 {_fmt(b.real)}")
    print(f"margin {_fmt(margin)}")
    if margin == 0.0:
        print("equality: rigid family")
    if cfg.out_path:
        import io

        buf = io.StringIO()
        write_ahm(m, buf)
        _write_text(cfg, buf.getvalue())
    return EXIT_OK


def cmd_minsurf(cfg: argparse.Namespace) -> int:
    m = _load_map(cfg)
    try:
        res = lift(m)
    except (NoLiftError, BranchError) as exc:
        print(f"lift rejected: {exc}", file=sys.stderr)
        return EXIT_NO_LIFT
    h = evaluate_rings(m, res.rho_grid, res.theta_grid).value
    rho, theta = np.meshgrid(res.rho_grid, res.theta_grid, indexing="ij")
    residual = np.full_like(res.w, res.conformality_residual)
    cols = [x.ravel() for x in (rho, theta, h.real, h.imag, res.w, residual)]
    ratio = mean_radii_ratio(m)
    holds, slack = modulus_bound_check(math.log(m.R), ratio)
    print(f"modulus {_fmt(math.log(m.R))} catenoid_cap "
          f"{_fmt(catenoid_modulus(ratio))} slack {_fmt(slack)} "
          f"{'OK' if holds else 'VIOLATED'}")
    _write_text(cfg, _csv(["rho", "theta", "u", "v", "w", "residual"],
                           np.column_stack(cols)))
    return EXIT_OK


def cmd_chain(cfg: argparse.Namespace) -> int:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for k in range(cfg.quad[1]):
        bdry = random_boundary_homeo(rng)
        f = poisson_extend(bdry, N=96)
        res = jacobian_energy_chain(f)
        rows.append([
            float(k), res.boundary_abs_det, res.disk_energy,
            res.twice_area, res.signed_area,
            1.0 if res.chain_holds else 0.0,
        ])
    _write_text(cfg, _csv(
        ["index", "boundary_abs_det", "disk_energy",
         "twice_area", "signed_area", "chain_holds"], rows))
    return EXIT_OK


def cmd_example51(cfg: argparse.Namespace) -> int:
    a = cfg.a if cfg.a is not None else 0.5
    m = example_51_map(a, cfg.lam, R=20.0 if cfg.R is None else cfg.R)
    cond = check_initial_conditions(m)
    print(f"I {cond.I} II {cond.II} III {cond.III}")
    print(f"mean_jacobian {_fmt(cond.mean_jacobian_at_1)}")
    grid = _rho_grid(cfg, (1.0, min(20.0, m.R), 100))
    _write_text(cfg, _csv(["sigma", "margin"],
                           np.column_stack((grid, bound_margin(m, grid)))))
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    rng = np.random.default_rng(cfg.seed)
    results = [r for check in checks.REGISTRY for r in check(rng, False)]
    all_ok = all(r.passed for r in results)
    _write_text(cfg, "".join(
        f"{r.name} {_fmt(r.value)} {_fmt(r.threshold)} {'PASS' if r.passed else 'FAIL'}\n"
        for r in results))
    if cfg.out_path:
        print("PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "means": cmd_means,
    "verify": cmd_verify,
    "construct": cmd_construct,
    "minsurf": cmd_minsurf,
    "identity": cmd_identity,
    "qforms": cmd_qforms,
    "chain": cmd_chain,
    "example51": cmd_example51,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (AnnulusDomainError, CoefficientRangeError, ArithmeticError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (AhmFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
