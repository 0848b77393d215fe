"""Benchmark of gamma2cat on three fixed workloads, each run in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads (see ``workloads.py``):

* ``segal-battery``: specialness of the K-theory diagrams of F1-F3 at cap 3
  and of F5 at cap 2, very-specialness of F2 and M3 at cap 2.  Dominated by
  building the composition tables of F3 level 3.
* ``level-scan``: the exhaustive validators over the same tables (F5 level 2
  and its diagram, F2 at cap 3, the product-flavor level of F3 at 2).
* ``inverse-bounded``: the lazily evaluated inverse construction, both
  triangle identities, the span construction and the unit's comparison.

Every run process starts fresh, so the package's process-global intern pools
and caches start empty, and ``--seed`` becomes its ``PYTHONHASHSEED``, the
only input that is not fixed.  Bytecode is cached under ``.perfbench-out/``
whatever the caller's settings, so every process but the first of a fresh
checkout imports from cached bytecode.  A workload is repeated as many whole times
as its typical timed length (``TYPICAL_S``) fits into ``--seconds``, at
least once; the reported values are medians over the repetitions.

End-to-end metrics (``--trace 0``), with every verdict checked:

* ``wall_s``: the timed section, from the first call after set-up to the
  last verdict.
* ``peak_rss_mb``: the run process's peak resident set size.
* ``setup_s``: from process spawn to the first timed call (interpreter
  start, ``import gamma2cat``, loading the fixtures through
  ``gamma2cat.cli.resolve_fixture`` and promoting them), as the median over
  the run processes and ``SETUP_SAMPLES`` set-up-only processes, shared out
  evenly before each run process and after the last.  The samples are spread
  over the whole invocation because the host's speed drifts over tens of
  seconds.

``--trace 1`` runs the same untraced repetitions and then one traced
process, prints the per-layer metrics and writes the spans and the
per-layer summary to ``.perfbench-out/``.  ``trace.overhead_s`` is the
traced ``wall_s`` minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# Typical timed length of one repetition, in seconds, on a 2-vCPU VM.
TYPICAL_S = {"segal-battery": 64.0, "level-scan": 9.0, "inverse-bounded": 17.0}
# Set-up-only processes per invocation, about 0.12 s each.
SETUP_SAMPLES = 20
# Every process of one invocation must end by then.
BUDGET_S = 175.0


class RunError(Exception):
    pass


def spawn(workload: str, mode: str, seed: int, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; its set-up time and result."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"))
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), workload, mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} ({mode}) did not finish within the budget")
    if proc.returncode != 0:
        raise RunError(f"{workload} ({mode}) exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    return result["ready"] - started, result


def repetitions(workload: str, seconds: float) -> int:
    return max(1, int(seconds // TYPICAL_S[workload]))


def write_trace(workload: str, seed: int, result: dict, metrics: dict) -> Path:
    """Spans relative to the start of the timed section, and the summary."""
    t0 = result["t0"]
    spans = [{"name": n, "layer": layer, "parent": p, "start": s - t0, "end": e - t0}
             for n, layer, p, s, e in result["spans"]]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "wall_s": result["wall_s"], "metrics": metrics,
                                "spans": spans}, indent=1))
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    reps = repetitions(workload, seconds)
    per_gap = -(-SETUP_SAMPLES // (reps + 1))

    def sample_setup():
        setups.extend(spawn(workload, "setup", seed, deadline)[0] for _ in range(per_gap))

    setups, walls, rss, ops = [], [], [], []
    for i in range(reps):
        sample_setup()
        setup, r = spawn(workload, "run", seed, deadline)
        setups.append(setup)
        walls.append(r["wall_s"])
        rss.append(r["peak_rss_mb"])
        ops.extend(r["ops"])
        print(f"# {workload} rep {i + 1}: wall_s={r['wall_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.2f} setup_s={setup:.4f} verdicts at "
              + " ".join(f"{at:.3f}" for *_, at in r["ops"]))
    sample_setup()
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    if trace:
        _, r = spawn(workload, "trace", seed, deadline)
        ops.extend(r["ops"])
        summary = dict(r["summary"], **{"trace.overhead_s": r["wall_s"] - metrics["wall_s"][0]})
        path = write_trace(workload, seed, r, summary)
        print(f"# {workload} traced: wall_s={r['wall_s']:.4f}, spans in {path}")
        metrics = {name: (value, _unit(name)) for name, value in summary.items()}
    failed = [(name, detail) for name, ok, detail, _ in ops if not ok]
    for name, detail in failed:
        print(f"# FAILED {name}: {detail}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "entries/cell" if metric.endswith("_per_cell") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TYPICAL_S))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "gamma2cat" / "__init__.py").is_file():
        print(f"no gamma2cat sources under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    print(f"# workload {args.workload}, seed {args.seed} (PYTHONHASHSEED={seed}), "
          f"{repetitions(args.workload, args.seconds)} timed repetition(s)")
    try:
        result = measure(args.workload, seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
