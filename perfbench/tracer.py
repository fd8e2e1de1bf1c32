"""Outside-in tracer: spans and work counters around the package's public calls.

Nothing inside ``src/`` changes.  ``Tracer.install`` replaces every function
named in a ``nitsche_lab`` module's ``__all__`` (plus the shared closed-form
kernel ``circle_means._mode_sums``) in *every* ``nitsche_lab`` namespace that
binds it, because modules import ``evaluate`` and ``_mode_sums`` by name.  It
also wraps the public methods of ``BoundaryHomeo`` and ``DiskMap``.
``uninstall`` puts the originals back.

A span is (name, start, end, parent span, item id).  Spans stay in memory
and are written out when the run ends.  Counters are taken from call
arguments and results at the same wrappers.  The time a counter spends
hashing or inspecting arguments is kept out of every span and reported as
``bench.tracer``, so self times are not inflated by the tracer's own work.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

from nitsche_lab import BranchError, NoHarmonicHomeomorphism, NoLiftError
from report import BOUNDARY, SERIES

MODULES = ("_quad", "annulus_core", "circle_means", "identity_engine",
           "quadratic_forms", "nitsche_family", "disk_maps", "minimal_surface",
           "cli")
EXTRA_FUNCTIONS = (("circle_means", "_mode_sums"),)
TRACED_CLASSES = (("disk_maps", "BoundaryHomeo"), ("disk_maps", "DiskMap"))

ITEM_SPAN = "bench.item"
NAME, START, END, PARENT, ITEM = range(5)


def table_key(m) -> int:
    """Content hash of an AnnulusMap: equal tables give equal keys."""
    ns, a, b = m.mode_arrays()
    return hash((m.R, m.log_a0, m.log_b0, ns.tobytes(), a.tobytes(), b.tobytes()))


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.overhead: dict[int, float] = defaultdict(float)  # by parent span
        self.identity_ms: list[tuple[int, float]] = []  # (order N, ms)
        self.command_s: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._seen_grids: set = set()
        self._certificates: dict = {}
        self._signatures: dict = {}
        self._hooks = {
            "annulus_core.evaluate": self._count_evaluate,
            "_quad.radial_integral": self._count_radial,
            "identity_engine.verify_identity": self._count_identity,
            "quadratic_forms.prop52_certificate": self._count_certificate,
            "quadratic_forms.qform_decomposition": self._count_decomposition,
            "nitsche_family.construct_harmonic_homeo": self._count_refusal,
            "minimal_surface.lift": self._count_lift,
            "cli.main": self._count_cli,
        }
        # xi and xi_prime delegate to zeta and zeta_prime: count the work once
        for meth in SERIES[:2]:
            self._hooks[f"disk_maps.BoundaryHomeo.{meth}"] = self._count_series
        for meth in BOUNDARY:
            self._hooks[f"disk_maps.DiskMap.{meth}"] = self._count_boundary

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"nitsche_lab.{name}")
                for name in MODULES}
        namespaces = [importlib.import_module("nitsche_lab"), *mods.values()]
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            names = list(mod.__all__)
            names += [n for m_, n in EXTRA_FUNCTIONS if m_ == short]
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(ns, attr, wrappers[id(value)])
        for short, cls_name in TRACED_CLASSES:
            cls = getattr(mods[short], cls_name)
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    self._patch(cls, attr, self._wrap(
                        f"{short}.{cls_name}.{attr}", value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- spans -------------------------------------------------------------

    def begin_item(self, item_id: int) -> None:
        self.item_id = item_id
        self._seen_grids.clear()
        self._certificates.clear()
        self.stack.append(len(self.spans))
        self.spans.append([ITEM_SPAN, time.perf_counter(), 0.0, -1, item_id])

    def end_item(self) -> None:
        self.spans[self.stack.pop()][END] = time.perf_counter()

    def _wrap(self, label: str, fn):
        hook = self._hooks.get(label)
        spans, stack, overhead = self.spans, self.stack, self.overhead

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            parent = stack[-1] if stack else -1
            after = None
            if hook is not None:
                args, kwargs, after = hook(fn, args, kwargs)
            idx = len(spans)
            span = [label, 0.0, 0.0, parent, self.item_id]
            spans.append(span)
            stack.append(idx)
            failure = None
            span[START] = t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failure = exc
                raise
            finally:
                span[END] = t1 = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(None if failure else result, failure, t1 - t0)
                overhead[parent] += (t0 - enter) + (time.perf_counter() - t1)
            return result

        return functools.update_wrapper(traced, fn)

    # -- counters (each returns possibly new args, kwargs and an after-hook) --

    def _bind(self, fn, args, kwargs) -> dict:
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _count_evaluate(self, fn, args, kwargs):
        a = self._bind(fn, args, kwargs)
        m, z = a["m"], np.asarray(a["z"])
        work = m.mode_arrays()[0].size * z.size
        self.counts["annulus_core.evaluate.mode_points"] += work
        key = (table_key(m), z.shape, hash(z.tobytes()))
        if key in self._seen_grids:
            self.counts["annulus_core.evaluate.repeat_points"] += work
        self._seen_grids.add(key)
        return args, kwargs, None

    def _count_radial(self, fn, args, kwargs):
        a = self._bind(fn, args, kwargs)
        f, order, cap = a["f"], a["order"], a["max_panels"]
        passes: list[int] = []

        def counted(nodes):
            passes.append(len(nodes))
            return f(nodes)

        a["f"] = counted

        def after(result, failure, dt):
            c = self.counts
            c["quad.radial_integral.passes"] += len(passes)
            c["quad.radial_integral.nodes"] += sum(passes)
            if passes:
                c["quad.radial_integral.kept_nodes"] += passes[-1]
                c["quad.radial_integral.cap_hits"] += passes[-1] // order >= cap
        return (), a, after

    def _count_identity(self, fn, args, kwargs):
        m = self._bind(fn, args, kwargs)["m"]

        def after(rep, failure, dt):
            self.identity_ms.append((m.order, dt * 1e3))
            if rep is not None:
                rel = abs(rep.residual) / max(1.0, abs(rep.lhs)) / 1e-8
                key = "identity_engine.worst_residual_over_tol"
                self.counts[key] = max(self.counts[key], rel)
        return args, kwargs, after

    def _count_certificate(self, fn, args, kwargs):
        a = self._bind(fn, args, kwargs)
        key = (table_key(a["m"]), a["rho"])

        def after(cert, failure, dt):
            if cert is not None:
                self._certificates[key] = cert.value
        return args, kwargs, after

    def _count_decomposition(self, fn, args, kwargs):
        a = self._bind(fn, args, kwargs)
        key = (table_key(a["m"]), a["rho"])

        def after(dec, failure, dt):
            cert = self._certificates.get(key)
            if dec is not None and cert is not None:
                gap = abs(cert - dec) / max(1.0, abs(cert)) / 1e-12
                name = "quadratic_forms.worst_gap_over_tol"
                self.counts[name] = max(self.counts[name], gap)
        return args, kwargs, after

    def _count_refusal(self, fn, args, kwargs):
        def after(result, failure, dt):
            if isinstance(failure, NoHarmonicHomeomorphism):
                self.counts["nitsche_family.construct_harmonic_homeo.refusals"] += 1
        return args, kwargs, after

    def _count_lift(self, fn, args, kwargs):
        def after(result, failure, dt):
            if isinstance(failure, (NoLiftError, BranchError)):
                self.counts["minimal_surface.lift.rejections"] += 1
        return args, kwargs, after

    def _count_cli(self, fn, args, kwargs):
        argv = self._bind(fn, args, kwargs)["argv"] or []
        command = argv[0] if argv else ""

        def after(result, failure, dt):
            self.command_s[command] += dt
        return args, kwargs, after

    def _count_series(self, fn, args, kwargs):
        bdry, theta = args[0], args[1] if len(args) > 1 else kwargs["theta"]
        self.counts["disk_maps.BoundaryHomeo.series.mode_points"] += (
            bdry._ns.size * np.size(theta))
        return args, kwargs, None

    def _count_boundary(self, fn, args, kwargs):
        f, theta = args[0], args[1] if len(args) > 1 else kwargs["theta"]
        self.counts["disk_maps.DiskMap.boundary.mode_points"] += (
            f.mode_arrays()[0].size * np.size(theta))
        return args, kwargs, None

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds by span name, calls by span name, tracer overhead s).

        Self time is a span's duration minus its child spans and minus the
        tracer's own bookkeeping charged to it.
        """
        n = len(self.spans)
        start = np.fromiter((s[START] for s in self.spans), float, n)
        end = np.fromiter((s[END] for s in self.spans), float, n)
        parent = np.fromiter((s[PARENT] for s in self.spans), np.int64, n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        over = np.zeros(n)
        for p, t in self.overhead.items():
            if p >= 0:
                over[p] += t
        own = dur - child - over
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, t in zip(self.spans, own.tolist()):
            self_s[span[NAME]] += t
            calls[span[NAME]] += 1
        return dict(self_s), dict(calls), float(sum(self.overhead.values()))

    def write_spans(self, path: str, t_origin: float) -> None:
        """Spans as gzip CSV: name,start_s,end_s,parent,item (times from t_origin)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START] - t_origin:.9f},"
                         f"{s[END] - t_origin:.9f},{s[PARENT]},{s[ITEM]}\n")
