"""One fresh-process run of a workload.

    python perfbench/worker.py SRC_DIR WORKLOAD MODE

MODE is ``setup`` (set up, then stop), ``run`` (set up, then run the timed
section) or ``trace`` (as ``run``, with spans around every call into the
package).  Prints one JSON object on standard output.  ``ready`` is the
``time.monotonic()`` reading just before the first timed call, which the
parent compares with its reading at spawn.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, workload, mode = argv
    sys.path.insert(0, src)
    import gamma2cat

    if not Path(gamma2cat.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"gamma2cat imported from {gamma2cat.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracing import Api, Tracer, summarize
    from workloads import WORKLOADS, Checks, set_up

    tracer = Tracer() if mode == "trace" else None
    api = Api(tracer)
    fx = set_up(api, workload)
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if mode != "setup":
        check = Checks()
        t0 = time.perf_counter()
        WORKLOADS[workload](api, fx, check)
        wall = time.perf_counter() - t0
        ops = [(name, ok, detail, at - t0) for name, ok, detail, at in check.results]
        out.update(wall_s=wall, ops=ops,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            out.update(t0=t0, spans=tracer.spans, summary=summarize(tracer))
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
