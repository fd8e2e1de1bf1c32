"""Benchmark entry point for nitsche-lab: seeded workloads, end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each workload runs in its own worker process (worker.py)
with the BLAS thread count pinned to 1.  With ``--trace 0`` the result holds
the end-to-end metrics; ``setup_s`` is the median over SETUP_PROBES extra
set-up-only processes and the measuring process itself.  With ``--trace 1``
the result holds the per-layer metrics of a traced loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every item passed its check, 1 when any failed, and 2 when the
benchmark could not run at all (for example, no ``src/nitsche_lab``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from report import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; (monotonic start time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--out-dir", str(OUT_DIR)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - started), check=False,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            started, probe = start_worker([*common, "--setup-only"], deadline)
            setups.append(probe["ready"] - started)
    started, res = start_worker(common, deadline)
    setups.append(res["ready"] - started)
    s = res["summary"]
    if trace:
        metrics = {n: {"value": res["layers"][n], "unit": u} for n, u in PER_LAYER}
    else:
        values = {**s, "peak_rss_mb": res["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    res["record"]["setup_s_samples"] = setups
    return {"attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "summary": s, "record": res["record"],
            "item_s": res["item_s"]}


def print_report(name: str, out: dict) -> None:
    s = out["summary"]
    for metric, m in out["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} fail_share {out['failed'] / out['attempted']:.6g} share "
          f"({out['failed']} of {out['attempted']} items)")
    print(f"{name} tail percentile p{s['tail_percentile']:g} of blocks of "
          f"{s['tail_block_items']} items; {s['items']} items in "
          f"{s['rounds']} rounds")
    print(f"{name} record {json.dumps(out['record'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nitsche_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'nitsche_lab'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError,
                json.JSONDecodeError) as exc:
            print(f"perfbench: {name} did not run: {exc}", file=sys.stderr)
            return 2
        print_report(name, results[name])
        record = OUT_DIR / f"record-{name}-s{args.seed}-t{args.trace}.json"
        record.write_text(json.dumps(results[name], indent=1, sort_keys=True))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
