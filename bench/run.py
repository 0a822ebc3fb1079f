"""nsexpand benchmark: run one workload, check every output, print the metrics.

    python3 bench/run.py --workload ladder-cold --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout. Each operation runs in a fresh child
process (`worker.py`) with single-threaded BLAS/OpenMP, `NSE_EXPAND_THREADS`
unset, a fixed `PYTHONHASHSEED` and its outputs in a scratch directory under
`.bench_work/`, which is removed at the end. Children run one after another
until the next one would end past `--seconds` (at least three of them).
The run reports `wall_s` and `cpu_s` as the mean over its operations and
`setup_s` and the counts as the median; see `END_TO_END`.
With `--trace 1` every other child runs traced (see tracing.py) and the
metrics are the per-layer ones; the untraced children of that run give
`trace.overhead`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it give each metric's
reported value, median, quartiles, minimum and sample count, every
operation's value, and the recorded environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS  # noqa: E402

MIN_UNTRACED = 3       # an untraced run reports over at least this many processes
RUN_LIMIT_S = 170.0    # never start a child that could push the run past this
MODULES = ("__init__", "analysis", "cli", "expansion", "fieldpoly", "galerkin", "scenario",
           "serialize", "spectral")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


# name -> (unit, statistic over the run's untraced operations). On a shared host the
# machine's speed switches between a fast and a slow level (about 1.4x apart) for
# stretches of tens of seconds to minutes. A run's median or quartile jumps to whichever level
# holds enough of its operations; the mean moves only in proportion to the time spent
# at each, so it varies least between runs of the same code. Set-up time is the
# median of the run's set-ups, and the counts barely vary between operations.
END_TO_END = {
    "setup_s": ("s", statistics.median),
    "wall_s": ("s", statistics.fmean),
    "cpu_s": ("s", statistics.fmean),
    "minflt": ("count", statistics.median),
    "max_rss_mb": ("MB", statistics.median),
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("bytes_read") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("src_lines") or name == "src.total_lines":
        return "lines"
    if name == "trace.overhead":
        return "ratio"
    return "count"


class HarnessError(RuntimeError):
    pass


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env.pop("NSE_EXPAND_THREADS", None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(root / "src"),
        TMPDIR=str(work),
    )
    return env


def run_child(args, env, work: Path, index: int, *, traced=False, warm_from=None,
              workload=None, deadline: float) -> dict:
    """Start one worker, wait for it, and return its result (or a crash record)."""
    out = work / f"op{index:03d}"
    result = work / f"op{index:03d}.json"
    stderr = work / f"op{index:03d}.err"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload or args.workload,
           "--seed", str(args.seed), "--size", args.size, "--out", str(out),
           "--result", str(result)]
    if warm_from is not None:
        cmd += ["--warm-from", str(warm_from)]
    if traced:
        cmd.append("--trace")
    with open(stderr, "w") as err:
        spawned = time.monotonic()
        # fixed width, so the child's argv (and so its heap layout) does not vary run to run
        proc = subprocess.Popen(cmd + ["--spawned-at", f"{spawned:020.9f}"], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise HarnessError(f"operation {index} did not finish before the run limit") from None
    if code != 0 or not result.exists():
        tail = stderr.read_text()[-2000:]
        sys.stderr.write(f"operation {index} exited with code {code}:\n{tail}\n")
        return {"crashed": True, "failures": [f"worker exited with code {code}"], "traced": traced}
    rec = json.loads(result.read_text())
    rec["traced"] = traced
    rec["out"] = out
    return rec


def src_lines(root: Path) -> dict:
    out = {}
    for m in MODULES:
        p = root / "src" / "nsexpand" / f"{m}.py"
        name = "init" if m == "__init__" else m
        out[f"{name}.src_lines"] = len(p.read_text().splitlines()) if p.exists() else 0
    out["src.total_lines"] = sum(out.values())
    return out


def environment(root: Path, env: dict) -> dict:
    import numpy

    facts = {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "child_env": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS", "PYTHONHASHSEED")},
        "NSE_EXPAND_THREADS": "unset",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(cache_dir.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                facts["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return facts


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; 'tiny' is for the self-test only")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "nsexpand" / "__init__.py").is_file():
        print(f"error: no src/nsexpand under {root}; run from the root of an nsexpand checkout",
              file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    try:
        return measure(args, root, work)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path) -> int:
    wl = WORKLOADS[args.workload]
    env = child_env(root, work)
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S

    warm_from = None
    if wl.warm:
        # The tree a cold operation leaves, made once per run outside any timed section.
        prep = run_child(args, env, work, 0, workload="ladder-cold", deadline=deadline)
        if prep.get("crashed") or prep["failures"]:
            raise HarnessError(f"preparing the warm tree failed: {prep['failures']}")
        warm_from = prep["out"] / "tree"

    ops: list[dict] = []
    t_start = time.monotonic()
    lengths: list[float] = []
    while True:
        n_untraced = sum(1 for o in ops if not o["traced"])
        n_traced = len(ops) - n_untraced
        traced = bool(args.trace) and n_traced < n_untraced
        enough = n_untraced >= (1 if args.trace else MIN_UNTRACED) and (
            not args.trace or n_traced >= 1
        )
        # stop when the next operation would be expected to end past --seconds
        if enough and time.monotonic() - t_start + statistics.median(lengths) > args.seconds:
            break
        if enough and time.monotonic() + 1.5 * max(lengths) > deadline:
            break
        t0 = time.monotonic()
        ops.append(run_child(args, env, work, len(ops) + 1, traced=traced,
                             warm_from=warm_from, deadline=deadline))
        lengths.append(time.monotonic() - t0)
        shutil.rmtree(work / f"op{len(ops):03d}", ignore_errors=True)

    # Every operation of a run has the same inputs, so its output tree must match the first's.
    first = next((o["sha256"] for o in ops if not o.get("crashed")), None)
    for i, o in enumerate(ops, 1):
        if not o.get("crashed") and o["sha256"] != first:
            o["failures"].append(f"output tree of operation {i} differs from the first operation's")
    failed = sum(1 for o in ops if o["failures"])
    for i, o in enumerate(ops, 1):
        for msg in o["failures"]:
            print(f"operation {i} failed: {msg}", file=sys.stderr)
    ok = [o for o in ops if not o.get("crashed")]
    untraced = [o for o in ok if not o["traced"]]
    traced_ops = [o for o in ok if o["traced"]]
    if not untraced or (args.trace and not traced_ops):
        print("error: no operation completed", file=sys.stderr)
        return 1

    values = {name: [o[name] for o in untraced] for name in END_TO_END}
    reported = {name: stat(values[name]) for name, (_, stat) in END_TO_END.items()}
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}: "
          f"{len(ops)} operations ({len(traced_ops)} traced), {failed} failed; "
          f"fail_ratio {failed / len(ops):.4g} ratio")
    print(f"{'metric':<24} {'reported':>14} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} "
          f"{'n':>4}  unit")
    for name, (unit, stat) in END_TO_END.items():
        med, q1, q3 = quartiles(values[name])
        print(f"{name:<24} {reported[name]:>14.6g} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{min(values[name]):>14.6g} {len(untraced):>4}  {unit} ({stat.__name__})")
    for name in END_TO_END:
        print(f"per operation {name}: " + json.dumps(values[name]))

    correct = failed == 0
    if args.trace:
        layers, problems = trace_metrics(traced_ops, untraced, root)
        for msg in problems:
            print(f"trace check failed: {msg}", file=sys.stderr)
        correct = correct and not problems
        print(f"{'per-layer metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
        for name, (med, q1, q3) in layers.items():
            print(f"{name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{len(traced_ops):>4}  {per_layer_unit(name)}")
        metrics = {name: {"value": v[0], "unit": per_layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {name: {"value": reported[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    print("environment: " + json.dumps(environment(root, env), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_metrics(traced: list[dict], untraced: list[dict], root: Path):
    """Median per-layer values over the traced operations, and failed trace predictions."""
    problems = [msg for o in traced for msg in o["prediction_failures"]]
    names = list(traced[0]["layers"])
    layers = {}
    for name in names:
        values = [o["layers"][name] for o in traced]
        if len(set(values)) == 1:
            layers[name] = (values[0],) * 3
            continue
        # counts of work done repeat exactly; page faults depend on the allocator's history
        if per_layer_unit(name) != "s" and not name.endswith("_minflt"):
            problems.append(f"count {name} differs between traced operations: {values}")
        layers[name] = quartiles(values)
    for name, value in src_lines(root).items():
        layers[name] = (value, value, value)
    traced_wall = statistics.median(o["wall_s"] for o in traced)
    untraced_wall = statistics.median(o["wall_s"] for o in untraced)
    layers["trace.wall_s"] = quartiles([o["wall_s"] for o in traced])
    layers["trace.overhead"] = (traced_wall / untraced_wall,) * 3
    layers["process.cpu_sys_s"] = quartiles([o["sys_s"] for o in untraced])
    return layers, problems


if __name__ == "__main__":
    sys.exit(main())
