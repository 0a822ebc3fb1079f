"""Record the per-seed reference values the output checks compare against.

    PYTHONPATH=src python3 bench/record_references.py SEEDS...

Runs each kind of workload once per seed at full size, in this process,
checks the tree against everything except recorded values (the invariants
and the analytic leading order), and writes what `checks.observe` reads off
it to `references.json`. Rerun it only for new seeds, or when a change to
the program is meant to move these numbers, and say so when committing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from nsexpand import cli

import checks
from workloads import WORKLOADS, scenario_doc

KINDS = {"ladder": "ladder-cold", "simulate": "simulate-m24", "expand": "expand-deep"}


def record(seed: int, kind: str, tmp: Path) -> dict:
    wl = WORKLOADS[KINDS[kind]]
    doc = scenario_doc(wl, seed)
    out = tmp / f"{kind}-{seed}"
    out.mkdir()
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main([c, "--scenario", str(scenario), "--out", str(out)]) for c in wl.commands]
    run_dir = out / doc["name"]
    bad = checks.check_tree(kind, doc, seed, codes, run_dir, references={})
    if bad:
        raise SystemExit(f"{kind} seed {seed} fails its checks, not recording: {bad}")
    return checks.observe(kind, run_dir)


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    refs = checks.load_references()
    Path(".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_work") as tmp:
        for kind in KINDS:
            for seed in seeds:
                refs.setdefault(kind, {})[str(seed)] = record(seed, kind, Path(tmp))
                print(kind, seed, json.dumps(refs[kind][str(seed)]), flush=True)
    for kind in refs:
        refs[kind] = dict(sorted(refs[kind].items(), key=lambda kv: int(kv[0])))
    checks.REFERENCES_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
