"""Metric definitions: end-to-end figures of a timed loop and per-layer figures of a trace."""

from __future__ import annotations

import math
import statistics

# the order of the names here is the order of BENCHMARK.json
WORKLOADS = ("identity_sweep", "certify_maps", "disk_chain", "cli_session")

# (name, unit)
END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Layer label -> metric prefix.  Metric names may not start with "_", so the
# module _quad is reported as "quad".
def metric_prefix(label: str) -> str:
    return label[1:] if label.startswith("_quad.") else label


N_BUCKETS = (("n04-09", 4, 9), ("n10-19", 10, 19), ("n20-29", 20, 29),
             ("n30-40", 30, 40))

SERIES = ("zeta", "zeta_prime", "xi", "xi_prime")
BOUNDARY = ("boundary_trace", "boundary_d_theta", "boundary_d_rho")

PER_LAYER = (
    ("annulus_core.evaluate.calls", "1/item"),
    ("annulus_core.evaluate.self_s", "s"),
    ("annulus_core.evaluate.mode_points", "1/item"),
    ("annulus_core.evaluate.repeat_share", "share"),
    ("quad.radial_integral.calls", "1/item"),
    ("quad.radial_integral.self_s", "s"),
    ("quad.radial_integral.nodes", "1/item"),
    ("quad.radial_integral.passes", "1/item"),
    ("quad.radial_integral.kept_node_share", "share"),
    ("quad.radial_integral.cap_hits", "1/item"),
    ("quad.gauss_legendre_panels.self_s", "s"),
    ("circle_means.means_closed_form.calls", "1/item"),
    ("circle_means.means_closed_form.self_s", "s"),
    ("circle_means._mode_sums.self_s", "s"),
    ("quadratic_forms.qform_decomposition.self_s", "s"),
    ("quadratic_forms.circle_functionals.self_s", "s"),
    ("identity_engine.identity_lhs.self_s", "s"),
    ("identity_engine.identity_rhs.self_s", "s"),
    ("identity_engine.thin_annulus_bound.self_s", "s"),
    *((f"identity_engine.verify_identity.p50_ms.{b}", "ms") for b, _, _ in N_BUCKETS),
    ("identity_engine.worst_residual_over_tol", "ratio"),
    ("quadratic_forms.prop52_certificate.calls", "1/item"),
    ("quadratic_forms.prop52_certificate.self_s", "s"),
    ("quadratic_forms.qform_coefficients.calls", "1/item"),
    ("quadratic_forms.positivity_scan.self_s", "s"),
    ("quadratic_forms.worst_gap_over_tol", "ratio"),
    ("nitsche_family.check_initial_conditions.self_s", "s"),
    ("nitsche_family.winding_on_unit_circle.self_s", "s"),
    ("nitsche_family.construct_harmonic_homeo.refusals", "1/item"),
    ("disk_maps.poisson_extend.self_s", "s"),
    ("disk_maps.jacobian_energy_chain.self_s", "s"),
    ("disk_maps.lemma_functional.self_s", "s"),
    ("disk_maps.lemma_functional_split.self_s", "s"),
    ("disk_maps.boundary_normal_derivative.self_s", "s"),
    ("disk_maps.psi_region_check.self_s", "s"),
    ("disk_maps.BoundaryHomeo.series.self_s", "s"),
    ("disk_maps.BoundaryHomeo.series.mode_points", "1/item"),
    ("disk_maps.DiskMap.boundary.self_s", "s"),
    ("disk_maps.DiskMap.boundary.mode_points", "1/item"),
    ("disk_maps.BoundaryHomeo.require_monotone.calls", "1/item"),
    ("minimal_surface.lift.calls", "1/item"),
    ("minimal_surface.lift.self_s", "s"),
    ("minimal_surface.lift.rejections", "1/item"),
    ("minimal_surface.phi_zeros.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.out_bytes", "bytes/item"),
    ("cli.verify.total_s", "s"),
    ("cli.minsurf.total_s", "s"),
    ("cli.identity.total_s", "s"),
    ("cli.chain.total_s", "s"),
    ("bench.item.self_s", "s"),
    ("bench.tracer.self_s", "s"),
    ("bench.span_cover_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.ref_kernel_ms", "ms"),
)


def tail_percentile(n: int) -> float:
    """Highest percentile, in steps of 0.1, with at least ten items beyond it.

    With the nearest-rank percentile (rank ceil(p n / 100)), "beyond" means
    ranked strictly above it.  Below 20 items no such percentile exists and
    the median (50) is returned.
    """
    best = 50.0
    for tenths in range(500, 1000):
        p = tenths / 10.0
        if n - math.ceil(p * n / 100.0 - 1e-9) >= 10:
            best = p
    return best


def nearest_rank(sorted_values: list[float], p: float) -> float:
    k = max(1, math.ceil(p * len(sorted_values) / 100.0 - 1e-9))
    return sorted_values[k - 1]


TAIL_BLOCK = 250


def block_tail(item_s: list[float]) -> tuple[float, float, int]:
    """(tail seconds, its percentile, items per block).

    The items, in run order, are cut into max(1, n // TAIL_BLOCK) blocks of
    near-equal size.  In each block the tail is the highest percentile with
    at least ten items beyond it; the figure is the median over blocks.  A
    stall of the shared host slows a burst of consecutive items; blocks keep
    one burst from setting the tail of a whole run of cheap items.
    """
    n = len(item_s)
    k = max(1, n // TAIL_BLOCK)
    blocks = [sorted(item_s[i * n // k:(i + 1) * n // k]) for i in range(k)]
    p = tail_percentile(len(blocks[-1]))
    tails = [nearest_rank(b, tail_percentile(len(b))) for b in blocks]
    return statistics.median(tails), p, len(blocks[-1])


def loop_summary(item_s: list[float], rounds: list[tuple[int, float]]) -> dict:
    """End-to-end figures of one timed loop; ``rounds`` is (items, seconds).

    Every round carries the same mix of work.  ``items_per_s`` is the median
    over rounds of the round's rate, so a short stall of the host does not
    move it.  ``item_p50_ms`` is each round's median item time, averaged over
    rounds: on a host that alternates between fast and slow periods one
    median of all items jumps between the two speeds, while the average of
    per-round medians moves smoothly with the share of slow rounds.
    """
    tail, p, per_block = block_tail(item_s)
    medians, start = [], 0
    for n, _ in rounds:
        medians.append(statistics.median(item_s[start:start + n]))
        start += n
    return {
        "items_per_s": statistics.median(n / t for n, t in rounds),
        "item_p50_ms": 1e3 * statistics.mean(medians),
        "item_tail_ms": 1e3 * tail,
        "tail_percentile": p,
        "tail_block_items": per_block,
        "items": len(item_s),
        "rounds": len(rounds),
        "loop_s": sum(item_s),
        "round_rates": [n / t for n, t in rounds],
    }


def layer_metrics(tracer, n_items: int, obs: list[dict], loop_s: float,
                  untraced_s: float, ref_ms: float) -> dict[str, float]:
    """Per-layer figures of a traced loop; 0 where a function never ran.

    Counts are per traced item, so runs of different length compare.
    """
    self_s, calls, tracer_s = tracer.self_times()
    out: dict[str, float] = {}
    for label, t in self_s.items():
        out[f"{metric_prefix(label)}.self_s"] = t
    for label, c in calls.items():
        out[f"{metric_prefix(label)}.calls"] = c
    c = tracer.counts
    out.update({k: v for k, v in c.items()})
    mp = c.get("annulus_core.evaluate.mode_points", 0.0)
    out["annulus_core.evaluate.repeat_share"] = (
        c.get("annulus_core.evaluate.repeat_points", 0.0) / mp if mp else 0.0)
    nodes = c.get("quad.radial_integral.nodes", 0.0)
    out["quad.radial_integral.kept_node_share"] = (
        c.get("quad.radial_integral.kept_nodes", 0.0) / nodes if nodes else 0.0)
    for group, methods in (("disk_maps.BoundaryHomeo.series", SERIES),
                           ("disk_maps.DiskMap.boundary", BOUNDARY)):
        cls = group.split(".")[1]
        out[f"{group}.self_s"] = sum(
            self_s.get(f"disk_maps.{cls}.{m}", 0.0) for m in methods)
    for bucket, lo, hi in N_BUCKETS:
        ms = [t for n, t in tracer.identity_ms if lo <= n <= hi]
        out[f"identity_engine.verify_identity.p50_ms.{bucket}"] = (
            statistics.median(ms) if ms else 0.0)
    for cmd in ("verify", "minsurf", "identity", "chain"):
        out[f"cli.{cmd}.total_s"] = tracer.command_s.get(cmd, 0.0)
    out["cli.out_bytes"] = sum(o.get("out_bytes", 0) for o in obs)
    for name, unit in PER_LAYER:
        if unit.endswith("/item"):
            out[name] = out.get(name, 0.0) / max(n_items, 1)
    out["bench.tracer.self_s"] = tracer_s
    covered = sum(self_s.values()) + tracer_s
    out["bench.span_cover_share"] = covered / loop_s if loop_s else 0.0
    out["bench.trace_overhead_share"] = loop_s / untraced_s - 1.0
    out["bench.ref_kernel_ms"] = ref_ms
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}
