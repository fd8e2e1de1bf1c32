"""Seeded workload inputs and the per-item checks of the benchmark.

Each workload is a closed loop with one client: items run one after another
in one process.  Inputs are generated in *rounds*.  A round holds one item
from every stratum of the workload's input range (table order N, n_max, or
one whole CLI session), so every round carries the same mix of work and a
run that ends on a round boundary measures the same mix whatever the seed.
Round r is drawn from ``default_rng([seed, r])``; the same seed always gives
the same inputs, independent of how many rounds a run gets through.

An item returns a dict of observations (possibly empty) and raises
``CheckFailed`` when its output is outside the stated tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

import nitsche_lab as nl
from nitsche_lab import cli
from nitsche_lab.quadratic_forms import SQRT7

# acceptance-gate tolerances
IDENTITY_RTOL = 1e-8
CERT_GAP_RTOL = 1e-12
CERT_FLOOR = -1e-10
CHAIN_SLACK = 1e-8
LEMMA_FLOOR = -1e-9
SPLIT_RTOL = 1e-9
NORMAL_RTOL = 1e-8

# identity_sweep: N evenly over 4..40, one item per stratum per round
IDENTITY_STRATA = ((4, 7), (8, 11), (12, 15), (16, 19), (20, 23),
                   (24, 27), (28, 31), (32, 35), (36, 40))
CERT_NMAX = tuple(range(2, 13))
CHAIN_NMAX = tuple(range(2, 9))
CLI_MINSURF_RUNS = 14
CLI_REFUSAL_RUNS = 3


class CheckFailed(AssertionError):
    """An item's output is outside its stated tolerance."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, r])


def _warmup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, 2**32])


def _ahm_text(m: nl.AnnulusMap) -> str:
    buf = io.StringIO()
    nl.write_ahm(m, buf)
    return buf.getvalue()


# -- identity_sweep ----------------------------------------------------------


@dataclass(frozen=True)
class IdentityItem:
    m: nl.AnnulusMap
    sigma: float


def _identity_item(rng: np.random.Generator, N: int) -> IdentityItem:
    m = nl.random_annulus_map(rng, n_max=N, R=3.0)
    sigma = 3.0 - 1.95 * float(rng.random())  # (1.05, 3]
    return IdentityItem(m, sigma)


def _identity_round(rng: np.random.Generator, seed: int, r: int) -> list[IdentityItem]:
    # Within each stratum N steps through every value in turn, so a run of
    # a few rounds covers 4..40 evenly and per-item time has no gaps; the
    # seed sets the phase of that cycle, the tables and sigma.
    items = [_identity_item(rng, lo + (r + seed + k) % (hi - lo + 1))
             for k, (lo, hi) in enumerate(IDENTITY_STRATA)]
    return [items[i] for i in rng.permutation(len(items))]


def run_identity(item: IdentityItem, ctx: "Context") -> dict:
    rep = nl.verify_identity(item.m, item.sigma)
    rel = abs(rep.residual) / max(1.0, abs(rep.lhs))
    _require(rel <= IDENTITY_RTOL, f"identity residual {rel:.3e}")
    return {"values": (rep.lhs, rep.rhs)}


# -- certify_maps --------------------------------------------------------------


@dataclass(frozen=True)
class CertifyItem:
    ahm_text: str
    written: nl.AnnulusMap
    rhos: tuple[float, ...]
    sigma: float


MARGIN_GRID = 64
CERT_RADII = 4


def _certify_item(rng: np.random.Generator, n_max: int) -> CertifyItem:
    m = nl.random_annulus_map(rng, n_max=n_max, R=30.0, decay=3.0, log_scale=0.3)
    rhos = tuple(float(x) for x in rng.uniform(SQRT7, 0.99 * m.R, CERT_RADII))
    sigma = 1.0 + (math.e - 1.0) * (1.0 - float(rng.random()))  # (1, e]
    return CertifyItem(_ahm_text(m), m, rhos, sigma)


def _certify_round(rng: np.random.Generator) -> list[CertifyItem]:
    items = [_certify_item(rng, n) for n in CERT_NMAX]
    return [items[i] for i in rng.permutation(len(items))]


def run_certify(item: CertifyItem, ctx: "Context") -> dict:
    m = nl.read_ahm(io.StringIO(item.ahm_text))
    w = item.written
    _require(
        m.R == w.R and m.log_a0 == w.log_a0 and m.log_b0 == w.log_b0
        and dict(m.terms) == dict(w.terms),
        "AHM round trip changed the table",
    )
    cond = nl.check_initial_conditions(m)
    _require(
        all(math.isfinite(x) for x in
            (cond.min_modulus, cond.u_dot_at_1, cond.mean_jacobian_at_1)),
        "initial conditions not finite",
    )
    values = [cond.mean_jacobian_at_1]
    for rho in np.linspace(1.0, 0.99 * m.R, MARGIN_GRID):
        U, _, _ = nl.means_closed_form(m, float(rho))
        margin = math.sqrt(U) - 0.5 * (rho + 1.0 / rho)
        _require(math.isfinite(margin), f"margin not finite at rho={rho}")
        values.append(margin)
    for rho in item.rhos:
        cert = nl.prop52_certificate(m, rho)
        dec = nl.qform_decomposition(m, rho)
        gap = abs(cert.value - dec) / max(1.0, abs(cert.value))
        _require(gap <= CERT_GAP_RTOL, f"certificate gap {gap:.3e}")
        _require(cert.value >= CERT_FLOOR, f"certificate value {cert.value:.3e}")
        values += [cert.value, dec]
    thin = nl.thin_annulus_bound(m, item.sigma)
    _require(math.isfinite(thin.margin), "thin-annulus margin not finite")
    values.append(thin.margin)
    return {"values": tuple(values)}


# -- disk_chain ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainItem:
    bdry: nl.BoundaryHomeo
    angles: tuple[float, float, float]


def _chain_item(rng: np.random.Generator, n_max: int) -> ChainItem:
    bdry = nl.random_boundary_homeo(rng, n_max=n_max)
    angles = tuple(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 3))
    return ChainItem(bdry, angles)  # type: ignore[arg-type]


def _chain_round(rng: np.random.Generator) -> list[ChainItem]:
    items = [_chain_item(rng, n) for n in CHAIN_NMAX]
    return [items[i] for i in rng.permutation(len(items))]


def run_chain(item: ChainItem, ctx: "Context") -> dict:
    bdry = item.bdry
    f = nl.poisson_extend(bdry, N=96)
    res = nl.jacobian_energy_chain(f)
    slack = max(res.disk_energy - res.boundary_abs_det,
                res.twice_area - res.disk_energy)
    _require(slack <= CHAIN_SLACK, f"chain order slack {slack:.3e}")
    area = abs(res.signed_area - math.pi)
    _require(area <= CHAIN_SLACK, f"signed area off by {area:.3e}")
    values = [res.boundary_abs_det, res.disk_energy, res.signed_area]
    plain = nl.lemma_functional(bdry, M=512)
    _require(plain >= LEMMA_FLOOR, f"lemma functional {plain:.3e}")
    split = nl.lemma_functional_split(bdry)
    rel = abs(split.total - plain) / max(1.0, abs(plain))
    _require(rel <= SPLIT_RTOL, f"split total off by {rel:.3e}")
    values += [plain, split.total]
    for theta in item.angles:
        sing = nl.boundary_normal_derivative(bdry, theta)
        spec = nl.normal_derivative_spectral(f, theta)
        rel = abs(sing - spec) / max(1.0, abs(spec))
        _require(rel <= NORMAL_RTOL, f"normal derivative off by {rel:.3e}")
        values += [sing, spec]
    return {"values": tuple(values)}


# -- cli_session ---------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    argv: tuple[str, ...]
    expect_exit: int
    expect_stdout: str = ""  # substring the captured stdout must contain
    files: tuple[tuple[str, str], ...] = ()  # (name, AHM text) written in setup


def _cli_round(rng: np.random.Generator, r: int) -> list[CliItem]:
    items = [CliItem(("verify", "--seed", str(int(rng.integers(2**31))),
                      "--out", "verify.txt"), 0, "PASS")]
    for k in range(CLI_MINSURF_RUNS):
        # lift's cost grows with R: one R per stratum of [1.5, 5] keeps every
        # session's mix the same
        v = 0.95 * float(rng.random())
        R = 1.5 + 3.5 * (k + float(rng.random())) / CLI_MINSURF_RUNS
        items.append(CliItem(
            ("minsurf", "--nitsche-v", repr(v), "--R", repr(R),
             "--out", "minsurf.csv"), 0, " OK"))
    for k in range(CLI_REFUSAL_RUNS):
        # h_z = 1 - z/z0 has a simple zero at z0 inside the annulus, so phi
        # has an odd-order zero and no lift exists
        R = float(rng.uniform(2.0, 5.0))
        z0 = float(rng.uniform(1.2, R - 0.2)) * np.exp(
            1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        b1 = complex(*rng.standard_normal(2))
        name = f"zero_r{r}_{k}.ahm"
        m = nl.AnnulusMap(R=R, terms={1: (1.0, b1), 2: (-1.0 / (2.0 * z0), 0.0)})
        items.append(CliItem(("minsurf", "--map", name, "--out", "refused.csv"),
                             5, files=((name, _ahm_text(m)),)))
    R = float(rng.uniform(1.5, 5.0))
    floor = 0.5 * (R + 1.0 / R)
    items.append(CliItem(("construct", "--R", repr(R), "--Rstar",
                          repr(floor * float(rng.uniform(1.01, 1.5))),
                          "--out", "built.ahm"), 0, "margin"))
    items.append(CliItem(("construct", "--R", repr(R), "--Rstar",
                          repr(1.0 + (floor - 1.0) * float(rng.uniform(0.1, 0.9)))),
                         4, "deficit"))
    table = nl.random_annulus_map(rng, n_max=4, R=2.5)
    name = f"table_r{r}.ahm"
    files = ((name, _ahm_text(table)),)
    items.append(CliItem(("identity", "--map", name, "--rho-grid", "1.25:2.5:3",
                          "--out", "identity.csv"), 0, files=files))
    items.append(CliItem(("means", "--map", name, "--out", "means.csv"),
                         0, files=files))
    items.append(CliItem(("example51", "--a", repr(float(rng.uniform(0.2, 0.6))),
                          "--out", "example51.csv"), 0, "mean_jacobian"))
    items.append(CliItem(("chain", "--seed", str(int(rng.integers(2**31))),
                          "--quad", "256,4", "--out", "chain.csv"), 0))
    items.append(CliItem(("qforms", "--out", "qforms.csv"), 0))
    return [items[i] for i in rng.permutation(len(items))]


def run_cli(item: CliItem, ctx: "Context") -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = [ctx.path(a) if a.endswith((".ahm", ".csv", ".txt")) else a
            for a in item.argv]
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_path and os.path.exists(out_path):
        os.unlink(out_path)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _require(code == item.expect_exit,
             f"{item.argv[0]} exit {code}, expected {item.expect_exit}: "
             f"{err.getvalue().strip()[:200]}")
    text = out.getvalue()
    _require(item.expect_stdout in text,
             f"{item.argv[0]} stdout lacks {item.expect_stdout!r}")
    written = text.encode()
    if code == 0 and out_path:
        _require(os.path.exists(out_path), f"{item.argv[0]} wrote no {out_path}")
        with open(out_path, "rb") as fh:
            written += fh.read()
    return {"out_bytes": len(written),
            "values": hashlib.sha256(written).hexdigest()}


# -- plumbing ------------------------------------------------------------------


class Context:
    """Per-process scratch directory for CLI input and output files."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def stage(self, items) -> None:
        """Write the input files an item list needs (setup, untimed)."""
        for item in items:
            for name, text in getattr(item, "files", ()):
                with open(self.path(name), "w", encoding="utf-8") as fh:
                    fh.write(text)


RUNNERS = {
    "identity_sweep": run_identity,
    "certify_maps": run_certify,
    "disk_chain": run_chain,
    "cli_session": run_cli,
}


def make_round(name: str, seed: int, r: int) -> list:
    """Inputs of round r of a workload; a pure function of (name, seed, r)."""
    rng = _round_rng(seed, r)
    if name == "identity_sweep":
        return _identity_round(rng, seed, r)
    if name == "certify_maps":
        return _certify_round(rng)
    if name == "disk_chain":
        return _chain_round(rng)
    if name == "cli_session":
        return _cli_round(rng, r)
    raise ValueError(f"unknown workload {name!r}")


def make_warmup(name: str, seed: int):
    """The untimed warm-up item: one fixed-size item per workload."""
    rng = _warmup_rng(seed)
    if name == "identity_sweep":
        return _identity_item(rng, 8)
    if name == "certify_maps":
        return _certify_item(rng, 6)
    if name == "disk_chain":
        return _chain_item(rng, 2)
    if name == "cli_session":
        return CliItem(("minsurf", "--nitsche-v", "0.5", "--R", "2.0",
                        "--out", "minsurf.csv"), 0, " OK")
    raise ValueError(f"unknown workload {name!r}")


def run_item(name: str, item, ctx: Context) -> dict:
    return RUNNERS[name](item, ctx)
