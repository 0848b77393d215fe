"""Two independent sets of benchmark runs, and how far they agree.

    python3 perfbench/steadiness.py --out perfbench/steadiness-N.json

Runs ``run.py`` once per seed on every workload of ``BENCHMARK.json``, for
two sets of ``RUNS`` seeds each (1-10, then 11-20), one process at a time.
The workloads take turns within a set, so that each set samples the host's
slow drift in speed alike for all of them.  For each end-to-end metric it
reports each set's median, quartiles (``statistics.quantiles(values, n=4)``)
and interquartile spread as a share of the median, and the change of the
second set's median from the first's, next to the bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for k in range(2):
        seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
        runs = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, bench["run_seconds"])
                if not r["correct"] or r["failed"]:
                    print(f"{w} seed {seed}: {r['failed']} failed", file=sys.stderr)
                    return 1
                runs[w].append({m: v["value"] for m, v in r["metrics"].items()})
                print(f"set {k + 1} {w} seed {seed}: "
                      + " ".join(f"{m}={v:.4f}" for m, v in runs[w][-1].items()), flush=True)
        sets.append({"seeds": [seeds.start, seeds.stop - 1], "finished": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "runs": runs})
    table = {}
    for w in workloads:
        for metric, bound in bounds.items():
            first, second = (describe([r[metric] for r in s["runs"][w]]) for s in sets)
            change = second["median"] / first["median"] - 1
            table[f"{w} {metric}"] = {"bound": bound, "sets": [first, second],
                                      "median_change": change}
            print(f"{w:16} {metric:12} bound {bound:.2f} spread {first['spread']:.4f} "
                  f"{second['spread']:.4f} median change {change:+.4f}")
    args.out.write_text(json.dumps({"run_seconds": bench["run_seconds"], "sets": sets,
                                    "metrics": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
