"""One workload in one single-threaded process: set-up, warm-up, timed loop.

Started by run.py with the BLAS thread count pinned to 1 and ``src`` on
PYTHONPATH.  Prints one JSON object as its last line of standard output.

  worker.py --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
            [--setup-only]

``ready`` in the result is the CLOCK_MONOTONIC time at which set-up ended
(imports, round-0 inputs built with the package's constructors, one
untimed warm-up item); run.py subtracts the time it started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback


def ref_kernel_ms(reps: int = 15) -> float:
    """Median time of a fixed numpy kernel shaped like the package's work:
    a complex exponential table and a mode sum on a ring grid."""
    import numpy as np

    ns = np.arange(-40, 41)
    theta = np.arange(2048) * (2.0 * np.pi / 2048)
    c = np.exp(-0.1 * np.abs(ns)) * (1.0 + 0.5j)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ph = np.exp(1j * np.multiply.outer(ns, theta))
        v = np.sum(c[:, None] * ph, axis=0)
        float(np.abs(v).sum())
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def blas_info() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name = "unknown"
    return {
        "blas": name,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }


def os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def run_round(name, items, ctx, tracer=None, first_id=0):
    """Run one round's items; (item seconds, failures, observations)."""
    import workloads as W

    item_s, obs, failed = [], [], 0
    for k, it in enumerate(items):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_item(first_id + k)
        try:
            obs.append(W.run_item(name, it, ctx))
        except Exception:  # a failed check or an unexpected error
            failed += 1
            obs.append({})
            if failed <= 3:
                traceback.print_exc(file=sys.stderr)
        if tracer is not None:
            tracer.end_item()
        item_s.append(time.perf_counter() - t0)
    return item_s, failed, obs


def run_loop(name, seed, seconds, ctx, first_round, tracer=None):
    """Whole rounds until at least ``seconds`` of item time has passed.

    Round inputs are built between rounds, off the clock.  With a tracer
    every round also runs once untraced, alternately before and after the
    traced pass, so host drift and warm caches do not bias the overhead;
    both passes count towards ``seconds``.  Returns (item seconds,
    (items, seconds) per round, failures, observations, untraced seconds).
    """
    import workloads as W

    item_s, rounds, obs = [], [], []
    failed, elapsed, untraced_s, r, items = 0, 0.0, 0.0, 0, first_round
    while True:
        if tracer is not None and r % 2:
            untraced_s += sum(run_round(name, items, ctx)[0])
        if tracer is not None:
            tracer.install()
        try:
            ts, f, o = run_round(name, items, ctx, tracer, len(item_s))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None and not r % 2:
            untraced_s += sum(run_round(name, items, ctx)[0])
        item_s += ts
        obs += o
        failed += f
        rounds.append((len(items), sum(ts)))
        elapsed += sum(ts)
        if elapsed + untraced_s >= seconds:
            return item_s, rounds, failed, obs, untraced_s
        r += 1
        items = W.make_round(name, seed, r)
        ctx.stage(items)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads as W

    name, seed = args.workload, args.seed
    ctx = W.Context(os.path.join(args.out_dir, f"work-{os.getpid()}"))
    try:
        first = W.make_round(name, seed, 0)
        warm = W.make_warmup(name, seed)
        ctx.stage([*first, warm])
        warm_failed = 0
        try:
            W.run_item(name, warm, ctx)
        except Exception:
            warm_failed = 1
            traceback.print_exc(file=sys.stderr)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready, "warm_failed": warm_failed}))
            return 0

        ref_before = ref_kernel_ms()
        tracer = None
        if args.trace:
            import tracer as T

            tracer = T.Tracer()
        t_loop = time.perf_counter()
        item_s, rounds, failed, obs, untraced = run_loop(
            name, seed, args.seconds, ctx, first, tracer)
        ref_after = ref_kernel_ms()

        import report

        summary = report.loop_summary(item_s, rounds)
        ref_ms = statistics.median([ref_before, ref_after])
        attempted, failed = len(item_s) + 1, failed + warm_failed
        summary["fail_share"] = failed / attempted
        result = {
            "ready": ready,
            "attempted": attempted,
            "failed": failed,
            "summary": summary,
            "item_s": item_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "record": {
                "workload": name,
                "seed": seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": __import__("numpy").__version__,
                **blas_info(),
                "os_threads": os_threads(),
                "ref_kernel_ms": {"before": ref_before, "after": ref_after},
            },
        }
        if tracer is not None:
            result["layers"] = report.layer_metrics(
                tracer, len(item_s), obs, summary["loop_s"], untraced, ref_ms)
            spans = os.path.join(args.out_dir, f"spans-{name}-s{seed}.csv.gz")
            tracer.write_spans(spans, t_loop)
            result["record"]["spans_file"] = spans
            result["record"]["spans"] = len(tracer.spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
