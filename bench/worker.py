"""One benchmark operation in a fresh process: set up, run it, check it, report.

    python3 bench/worker.py --workload NAME --seed N --size full --out DIR \
        --result FILE --spawned-at T [--warm-from DIR] [--trace]

`run.py` starts this once per operation, so every operation pays what a CLI
invocation pays: a cold interpreter, an empty mode-table cache and fresh
allocator state. Set-up is everything from the parent's spawn time (`T`, on
the system-wide monotonic clock) to the start of the timed section: the
interpreter, the numpy and nsexpand imports, writing the scenario file and,
for warm operations, copying the prepared tree. The timed section is the
`nsexpand.cli.main` calls alone; the output checks run after it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--warm-from", default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from nsexpand import cli

    import checks
    import tracing
    from workloads import WORKLOADS, scenario_doc

    wl = WORKLOADS[args.workload]
    doc = scenario_doc(wl, args.seed, args.size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario_path = out / "scenario.json"
    scenario_path.write_text(json.dumps(doc, indent=1))
    tree_root = out / "tree"
    if args.warm_from:
        shutil.copytree(args.warm_from, tree_root)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    gc.collect()

    argv_tail = ["--scenario", str(scenario_path), "--out", str(tree_root)]
    start = time.monotonic()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    codes = [cli.main([cmd, *argv_tail]) for cmd in wl.commands]
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    run_dir = tree_root / doc["name"]
    references = checks.load_references() if args.size == "full" else {}
    failures = checks.check_tree(wl.kind, doc, args.seed, codes, run_dir, references)
    result = {
        "setup_s": start - args.spawned_at,
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "sys_s": r1.ru_stime - r0.ru_stime,
        "minflt": r1.ru_minflt - r0.ru_minflt,
        "max_rss_mb": r1.ru_maxrss / 1024.0,
        "codes": codes,
        "failures": failures,
        "sha256": checks.tree_sha256(run_dir) if run_dir.is_dir() else None,
    }
    if tracer is not None:
        layers = tracing.op_layer_metrics(tracer)
        layers.update(checks.tree_facts(run_dir))
        result["layers"] = layers
        result["prediction_failures"] = tracing.prediction_failures(wl.name, tracer)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
