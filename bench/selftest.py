"""Quick self-test of the benchmark at tiny input sizes (about a minute).

    python3 bench/selftest.py

Run from the root of the checkout. It checks that
- every workload, untraced and traced, emits exactly the metrics
  BENCHMARK.json names, each with the unit given there, and reports correct;
- the output checks pass a good tree and count each kind of corruption of it
  as a failure, so they can actually fail;
- seed 0 of the ladder workloads drives exactly the Tier-1 `ladder_phi()`.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def check_emitted_metrics(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stderr)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == expected, f"{name} trace {trace}: metrics differ from BENCHMARK.json: " \
                f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, " \
                f"units {[(n, got[n], expected[n]) for n in got if n in expected and got[n] != expected[n]]}"
            print(f"ok: {name} trace {trace} emits {len(got)} metrics with units")


def _edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def _break_divergence(run_dir: Path) -> None:
    # Add a gradient part k * 1e-3 to the first mode of the last sample (real parts).
    k = json.loads((run_dir / "trajectory_modes.json").read_text())["modes"][0]
    lines = (run_dir / "trajectory.csv").read_text().splitlines()
    cols = lines[-1].split(",")
    for c in range(3):
        cols[1 + 2 * c] = repr(float(cols[1 + 2 * c]) + 1e-3 * k[c])
    lines[-1] = ",".join(cols)
    (run_dir / "trajectory.csv").write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "a verify verdict": lambda d: _edit_json(
        d / "reports" / "verify.json", lambda j: j["rows"][0].update(verdict="fail")),
    "a certificate verdict": lambda d: _edit_json(
        d / "reports" / "certify.json", lambda j: j["rows"][0].update(verdict="violated")),
    "the level residual": lambda d: _edit_json(
        d / "expansion" / "residuals.json", lambda j: j.update(max_residual=1e-6)),
    "a resonant fit": lambda d: _edit_json(
        d / "expansion" / "resonant_fits.json", lambda j: j["2"].update(contaminated=True)),
    "a fitted slope": lambda d: _edit_json(
        d / "reports" / "verify.json", lambda j: j["rows"][2].update(slope=-1.0)),
    "the certificate margin": lambda d: _edit_json(
        d / "reports" / "certify.json", lambda j: j["rows"][0].update(min_margin=1.0)),
    "the trajectory's divergence": _break_divergence,
}


def check_corruption_is_caught(tmp: Path) -> None:
    from nsexpand import cli

    wl = workloads.WORKLOADS["ladder-cold"]
    doc = workloads.scenario_doc(wl, 0, "tiny")
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main([c, "--scenario", str(scenario), "--out", str(tmp / "good")])
                 for c in wl.commands]
    good = tmp / "good" / doc["name"]
    refs = {}  # tiny inputs have no recorded values; the analytic ones apply
    assert checks.check_tree("ladder", doc, 0, codes, good, refs) == [], "a good tree fails"
    for what, corrupt in CORRUPTIONS.items():
        bad_dir = tmp / "bad"
        shutil.rmtree(bad_dir, ignore_errors=True)
        shutil.copytree(good, bad_dir)
        corrupt(bad_dir)
        failures = checks.check_tree("ladder", doc, 0, codes, bad_dir, refs)
        assert failures, f"corrupting {what} was not detected"
        assert checks.tree_sha256(bad_dir) != checks.tree_sha256(good)
        print(f"ok: corrupting {what} counts as a failure: {failures[0]}")
    assert checks.check_tree("ladder", doc, 0, [0, 2], good, refs), "exit code 2 not detected"
    print("ok: a nonzero exit code counts as a failure")


def check_seed0_is_tier1() -> None:
    from nsexpand.spectral import SpectralField, leray_project, norm

    phi = leray_project(SpectralField(workloads.TIER1_LADDER_RAW))
    phi = phi * (0.05 / norm(phi))
    ours = workloads.ladder_phi(0)
    assert list(ours) == list(phi.support())
    for k, c in phi.modes():
        assert (ours[k] == c).all(), (k, ours[k], c)
    print("ok: seed 0 drives the Tier-1 ladder force exactly")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_seed0_is_tier1()
    (root / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as tmp:
        check_corruption_is_caught(Path(tmp))
    check_emitted_metrics(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
