"""End-to-end driver tests: subcommands, exit codes, file tree, determinism."""

import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ladder_phi, ladder_scenario_doc
from nsexpand import (
    SpectralField, analysis, bilinear, cli, eigenvalue, eigenvalues_up_to, expansion, leray_project,
)
from nsexpand.cli import EXIT_ERROR, EXIT_FAILED, EXIT_INCONCLUSIVE, EXIT_OK, main
from nsexpand.fieldpoly import FieldPolynomial
from nsexpand.scenario import scenario_from_doc
from nsexpand.serialize import field_to_literal, poly_to_literal, trajectory_key


def write_doc(tmp_path, doc, stem="scenario"):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def mini_ladder_doc(name="mini", **kw):
    defaults = dict(
        mode_cutoff=6,
        step=0.01,
        t_end=6.0,
        sample_stride=10,
        norm_specs=((0.5, 0.0),),
        certificates=False,
    )
    defaults.update(kw)
    return ladder_scenario_doc(name=name, **defaults)


def manufactured_doc(name="steady"):
    # u = q e^{-t} solves the truncated system exactly when f_2 = B(q, q) and
    # the level-1 constant is q itself.
    q = SpectralField({(1, 0, 0): [0, 0.25, 0.25j], (0, 1, 0): [0.5, 0, -0.125]})
    f2 = bilinear(q, q)
    return {
        "name": name,
        "force": {"terms": [{"n": 2, "poly": poly_to_literal(FieldPolynomial.constant(f2))}]},
        "initial": field_to_literal(q),
        "expansion": {"N_max": 2, "resonant": {"1": field_to_literal(q)}},
        "solver": {"mode_cutoff": 8, "step": 0.01, "t_end": 1.0, "sample_stride": 10},
    }


# -- spectrum ----------------------------------------------------------------------


def test_spectrum_lists_eigenvalues(capsys):
    assert main(["spectrum", "--nmax", "30"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert [int(x) for x in out] == eigenvalues_up_to(30)


def test_spectrum_default_bound(capsys):
    assert main(["spectrum"]) == EXIT_OK
    values = [int(x) for x in capsys.readouterr().out.split()]
    assert values[-1] == 100
    assert len(values) == 85  # 15 gap values below 100


@pytest.mark.parametrize("nmax", ["-1", "100000000000"])
def test_spectrum_rejects_bounds_past_the_cap(nmax, capsys):
    # the lattice ball holds (2 isqrt(nmax) + 1)^3 points: outside [0, 1024] none is built
    assert main(["spectrum", "--nmax", nmax]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --nmax: nmax must lie in [0, 1024], got {nmax}\n"


@pytest.mark.parametrize("argv, err", [
    (["spectrum", "--nmax", "1.5"], "nse-expand spectrum: argument --nmax: invalid int value: '1.5'"),
    (["verify"], "nse-expand verify: the following arguments are required: --scenario"),
])
def test_usage_errors_exit_one_with_one_error_line(argv, err, capsys):
    # a usage error is bad input like any other: exit 1, not argparse's 2 (a failed check)
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


# -- expand -------------------------------------------------------------------------


def test_expand_manufactured(tmp_path, capsys):
    sp = write_doc(tmp_path, manufactured_doc())
    out = tmp_path / "out"
    assert main(["expand", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "level 1: degree 0" in stdout
    assert "(resonant)" in stdout

    run = out / "steady"
    lvl1 = json.loads((run / "expansion" / "level_01.json").read_text())
    assert list(lvl1) == ["level", "poly"]  # resonance is recorded in residuals.json only
    assert lvl1["level"] == 1
    lvl2 = json.loads((run / "expansion" / "level_02.json").read_text())
    assert lvl2["poly"]["degree_coeffs"] == []  # level 2 cancels exactly
    res = json.loads((run / "expansion" / "residuals.json").read_text())
    assert list(res) == ["residuals", "resonance_log", "max_residual"]
    assert res["max_residual"] <= 1e-10
    assert res["resonance_log"] == [[1, 1]]


def test_expand_zero_force(tmp_path, capsys):
    doc = mini_ladder_doc(name="null", n_max=1)
    doc["force"]["terms"] = []
    sp = write_doc(tmp_path, doc)
    assert main(["expand", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_OK
    capsys.readouterr()


def test_expand_rejects_off_eigenspace_constant(tmp_path, capsys):
    doc = manufactured_doc()
    q = SpectralField({(1, 0, 0): [0, 0.25, 0.25j], (0, 1, 0): [0.5, 0, -0.125]})
    doc["expansion"]["resonant"] = {"2": field_to_literal(q)}  # |k|^2 = 1 modes
    sp = write_doc(tmp_path, doc)
    assert main(["expand", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: expansion.resonant")


def shell(n):
    """Representatives with |k|^2 = n, in key order."""
    r = math.isqrt(n)
    return [k for k in itertools.product(range(-r, r + 1), repeat=3)
            if k > (0, 0, 0) and eigenvalue(k) == n]


def deep_expand_doc(seed):
    """Two force levels of degree 1 with seeded divergence-free coefficients on the
    |k|^2 <= 2 shells (level 1) and the |k|^2 in {1, 3} shells (level 2), built to
    N_max = 4 with a seeded constant on each |k|^2 = n shell."""
    rng = np.random.default_rng(seed)

    def field(modes):
        raw = {k: 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) for k in modes}
        return leray_project(SpectralField(raw))

    force = {1: shell(1) + shell(2), 2: shell(1) + shell(3)}
    return {
        "name": "deep",
        "force": {"terms": [{"n": n, "poly": poly_to_literal(FieldPolynomial([field(m), field(m)]))}
                            for n, m in force.items()]},
        "initial": [],
        "expansion": {"N_max": 4, "resonant": {str(n): field_to_literal(field(shell(n)))
                                               for n in range(1, 5)}},
        "solver": {"mode_cutoff": 12, "step": 0.01, "t_end": 1.0},
    }


# sha256 of each expansion document of deep_expand_doc(0), recorded before the levels were
# solved in one pass over their rows: the exact arithmetic keeps every byte. level_04.json was
# recorded again when bilinear's per-mode dot products left the BLAS kernel for einsum's own
# loop, which moved the last bits of one of its coefficients; the other digests did not move.
# No step depends on the BLAS kernel or on numpy's v3/v4 dispatch, so such hosts read these.
DEEP_EXPAND_DIGESTS = {
    "level_01.json": "f5daafa726a7aba652c06179e5214901908517be6aac9a94ffbda0cde1ca2165",
    "level_02.json": "cd6d5ad749124731546e8bf3f29e1b677249545c13c03c8d4b791a573487bd54",
    "level_03.json": "27884e8eb5b95a9ddab07af71322c2f0ae88ff7e5d0e1179c902dfa5bca9e4fc",
    "level_04.json": "2dd17b981f7bc94add103491ceee330705a3092ac8a0aa72884b3852dba5f1ff",
    "residuals.json": "cce78467b5795e429f7f988cf12aa3afaa1bc36da313f605f4d85a15fba8c549",
}


def test_expand_deep_documents_keep_their_bytes(tmp_path, capsys):
    sp = write_doc(tmp_path, deep_expand_doc(0))
    assert main(["expand", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_OK
    capsys.readouterr()
    files = sorted((tmp_path / "o" / "deep" / "expansion").glob("*.json"))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert got == DEEP_EXPAND_DIGESTS


def _numpy_v4_features() -> str:
    """Those of numpy's x86-64-v4 (AVX-512) dispatch targets that this host runs: disabled
    through NPY_DISABLE_CPU_FEATURES they leave numpy at v3. Empty on a host without them."""
    from numpy._core._multiarray_umath import __cpu_features__
    return " ".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f))


_RUN_IN_CHILD = """
import json, sys
from nsexpand.cli import main
sys.exit(max(main([command, "--scenario", path, "--out", sys.argv[1]])
             for command, path in json.loads(sys.argv[2])))
"""


@pytest.mark.parametrize("setting", [
    {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": _numpy_v4_features()},
    {"OPENBLAS_CORETYPE": "SandyBridge"},
], ids=["prescott-numpy-v3", "sandybridge"])
def test_trees_keep_their_bytes_under_other_blas_kernels_and_simd_levels(tmp_path, capsys, setting):
    # No output goes through a BLAS kernel or a SIMD exp/log loop, so a process that runs
    # another OpenBLAS kernel, or numpy's v3 loops in place of v4, writes the same bytes.
    # Each scenario is written once here: the child reads the parent's file.
    runs = [("expand", write_doc(tmp_path, deep_expand_doc(0), "deep")),
            *[(c, write_doc(tmp_path, mini_ladder_doc(certificates=True))) for c in ("verify", "certify")]]
    for command, path in runs:
        assert main([command, "--scenario", path, "--out", str(tmp_path / "default")]) == EXIT_OK
    capsys.readouterr()
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env.update(setting, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", _RUN_IN_CHILD, str(tmp_path / "child"), json.dumps(runs)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == EXIT_OK, child.stderr
    assert tree_bytes(tmp_path / "child") == tree_bytes(tmp_path / "default")


# -- simulate -----------------------------------------------------------------------


def test_simulate_writes_trajectory_and_norms(tmp_path, capsys):
    doc = mini_ladder_doc(name="sim", t_end=2.0, sample_stride=20)
    sp = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "simulated 11 samples to t = 2" in stdout
    run = out / "sim"
    assert (run / "trajectory.csv").exists()
    assert (run / "trajectory_modes.json").exists()
    assert (run / "norms" / "norm_alpha0.5_sigma0.csv").exists()


def test_simulate_into_a_complete_tree_integrates_nothing(tmp_path, capsys, monkeypatch):
    # simulate takes its flow from the same producer as verify and certify, so a
    # second run reuses the tree's trajectory, says so and rewrites the same bytes
    sp = write_doc(tmp_path, mini_ladder_doc(name="sim", t_end=2.0, sample_stride=20))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    first = capsys.readouterr().out
    cold = tree_bytes(out / "sim")

    def no_integration(*args):
        raise AssertionError("simulate integrated a flow its tree already holds")

    monkeypatch.setattr(cli, "integrate", no_integration)
    assert main(["simulate", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    written = f"trajectory written to {out / 'sim' / 'trajectory.csv'}\n"
    reused = f"trajectory reused from {out / 'sim' / 'trajectory.npy'}\n"
    assert first.endswith(written)
    assert capsys.readouterr() == (first.replace(written, reused), "")
    assert tree_bytes(out / "sim") == cold


def test_simulate_on_cutoff_one_ball(tmp_path, capsys):
    # On |k|^2 <= 1 no two modes add up to a mode of the ball: the advection
    # term vanishes and the flow is pure forced heat flow.
    phi = SpectralField({(1, 0, 0): [0, 0.1, 0.05j]})
    doc = {
        "name": "cutoff-one",
        "force": {"terms": [{"n": 1, "poly": poly_to_literal(FieldPolynomial.constant(phi))}]},
        "initial": [],
        "expansion": {"N_max": 1, "norm_specs": [[0.5, 0.0]]},
        "solver": {"mode_cutoff": 1, "step": 0.01, "t_end": 0.5, "sample_stride": 10},
    }
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    assert "simulated 6 samples to t = 0.5" in capsys.readouterr().out
    manifest = json.loads((out / "cutoff-one" / "trajectory_modes.json").read_text())
    assert manifest["modes"] == [[1, 0, 0]]


# -- verify -------------------------------------------------------------------------


def test_verify_mini_ladder_passes(tmp_path, capsys):
    sp = write_doc(tmp_path, mini_ladder_doc())
    out = tmp_path / "out"
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "pass" in stdout

    run = out / "mini"
    rep = json.loads((run / "reports" / "verify.json").read_text())
    assert rep["exit_code"] == 0
    assert [r["verdict"] for r in rep["rows"]] == ["pass", "pass"]
    slopes = {r["level"]: r["slope"] for r in rep["rows"]}
    assert slopes[1] == pytest.approx(-2.0, abs=0.05)
    assert slopes[2] == pytest.approx(-3.1, abs=0.15)
    # one series file per row; its fit lives in verify.json only
    assert sorted(p.name for p in (run / "norms").iterdir()) == [
        f"remainder_N{n}_alpha0.5_sigma0.csv" for n in (1, 2)
    ]
    fits = json.loads((run / "expansion" / "resonant_fits.json").read_text())
    assert fits["1"]["snapped_to_zero"] is True  # nothing drives |k|^2 = 1
    assert fits["2"]["snapped_to_zero"] is False
    assert fits["2"]["contaminated"] is False


def test_verify_runs_without_lapack(tmp_path, monkeypatch):
    # the rate and resonant fits are closed forms over exactly rounded sums, and every other
    # value is rounded by elementwise arithmetic, einsum's loops, math.exp and math.log, none
    # of which the CPU's BLAS kernel or SIMD level chooses: with numpy's least-squares routines,
    # dot products and exp/log loops unavailable, verify still reaches the mini ladder's
    # verdicts (the blow-up guard's np.vdot stays: its value reaches no output)
    def unavailable(*args, **kwargs):
        raise AssertionError("verify called a LAPACK or BLAS routine or numpy's exp/log loop")

    monkeypatch.setattr(np.linalg, "lstsq", unavailable)
    for name in ("polyfit", "dot", "vecdot", "inner", "matmul", "exp", "log"):
        monkeypatch.setattr(np, name, unavailable)
    sp = write_doc(tmp_path, mini_ladder_doc())
    assert main(["verify", "--scenario", sp, "--out", str(tmp_path / "out")]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "mini" / "reports" / "verify.json").read_text())
    assert [r["verdict"] for r in rep["rows"]] == ["pass", "pass"]


def test_verify_inconclusive_on_unusable_window(tmp_path, capsys):
    doc = mini_ladder_doc(name="sparse", step=0.1, n_max=1)
    doc["expansion"]["resonant"] = {"1": []}  # skip trajectory fitting
    sp = write_doc(tmp_path, doc)
    code = main(["verify", "--scenario", sp, "--out", str(tmp_path / "o")])
    assert code == EXIT_INCONCLUSIVE
    capsys.readouterr()
    rep = json.loads((tmp_path / "o" / "sparse" / "reports" / "verify.json").read_text())
    assert rep["rows"][0]["verdict"] == "inconclusive"
    assert "unusable window" in rep["rows"][0]["annotation"]


def test_verify_fit_window_past_the_horizon_is_unusable(tmp_path, capsys):
    # The series ends at t = 6: a window of [20, 30] holds no sample at all,
    # which is not the same as a remainder at the numerical floor.
    doc = mini_ladder_doc(name="late", norm_specs=((0.5, 0.0), (0.5, 0.1)))
    doc["expansion"]["fit_window"] = [20, 30]
    sp = write_doc(tmp_path, doc)
    assert main(["verify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_INCONCLUSIVE
    capsys.readouterr()
    rows = json.loads((tmp_path / "o" / "late" / "reports" / "verify.json").read_text())["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["verdict"] == "inconclusive"
        assert row["annotation"] == (
            "unusable window: window [20, 30] holds no samples; series ends at 6"
        )


def test_verify_rebuilds_levels_short_of_n_max(tmp_path, capsys):
    # verify builds and fits its levels on every run: raising N_max from 2 to 3
    # and lowering it back each give the tree of a cold run at that N_max.
    out = tmp_path / "out"
    shallow = write_doc(tmp_path, mini_ladder_doc(n_max=2))
    deep = write_doc(tmp_path, mini_ladder_doc(n_max=3), stem="deeper")
    for i, sp in enumerate([shallow, deep, shallow]):
        code = main(["verify", "--scenario", sp, "--out", str(out)])
        table = capsys.readouterr().out
        cold = tmp_path / f"cold{i}"
        assert main(["verify", "--scenario", sp, "--out", str(cold)]) == code
        assert capsys.readouterr().out == table  # verify.json says the trajectory was reused
        assert "expansion levels" not in table
        for sub in ("expansion", "norms"):
            assert tree_bytes(out / "mini" / sub) == tree_bytes(cold / "mini" / sub), (i, sub)
    rows = json.loads((out / "mini" / "reports" / "verify.json").read_text())["rows"]
    assert [r["level"] for r in rows] == [1, 2]


def test_verify_forms_each_remainder_once_per_level(tmp_path, capsys, monkeypatch):
    # two norm specs cost the assemble calls of one: a level's remainder is formed once for
    # all its specs, half the calls of one remainder per (level, spec) row
    assemble, calls = analysis.assemble, []
    monkeypatch.setattr(analysis, "assemble", lambda *args: calls.append(1) or assemble(*args))
    counts = []
    for specs in (((0.5, 0.0),), ((0.5, 0.0), (0.5, 0.1))):
        doc = mini_ladder_doc(name=f"specs{len(specs)}", norm_specs=specs)
        doc["expansion"]["resonant"] = {"1": [], "2": []}   # supplied: no fit calls assemble
        calls.clear()
        main(["verify", "--scenario", write_doc(tmp_path, doc, doc["name"]), "--out", str(tmp_path)])
        counts.append(len(calls))
    capsys.readouterr()
    one_spec, two_specs = counts
    per_row = 2 * one_spec   # the calls of one remainder per (level, spec) row, two specs
    assert one_spec > 0 and 2 * two_specs == per_row


def test_expand_then_verify_matches_verify_alone(tmp_path, capsys):
    # expand pins the undeclared level-2 constant to zero; verify must fit its
    # own, not read expand's levels back
    sp = write_doc(tmp_path, mini_ladder_doc())
    both, alone = tmp_path / "both", tmp_path / "alone"
    assert main(["expand", "--scenario", sp, "--out", str(both)]) == EXIT_OK
    assert main(["verify", "--scenario", sp, "--out", str(both)]) == EXIT_OK
    assert main(["verify", "--scenario", sp, "--out", str(alone)]) == EXIT_OK
    capsys.readouterr()
    for sub in ("expansion", "norms"):
        assert tree_bytes(both / "mini" / sub) == tree_bytes(alone / "mini" / sub), sub
    report = Path("mini", "reports", "verify.json")
    assert (both / report).read_bytes() == (alone / report).read_bytes()


def test_expand_after_verify_leaves_only_its_own_levels(tmp_path, capsys):
    # a deeper verify's level_03.json and every verify's fit log belong to those
    # runs: the last build owns expansion/
    shallow = write_doc(tmp_path, mini_ladder_doc(n_max=2))
    deep = write_doc(tmp_path, mini_ladder_doc(n_max=3), stem="deeper")
    out, alone = tmp_path / "out", tmp_path / "alone"
    for command, sp in [("verify", deep), ("verify", shallow), ("expand", shallow)]:
        main([command, "--scenario", sp, "--out", str(out)])
    assert main(["expand", "--scenario", shallow, "--out", str(alone)]) == EXIT_OK
    capsys.readouterr()
    expansion = tree_bytes(out / "mini" / "expansion")
    assert sorted(expansion) == ["level_01.json", "level_02.json", "residuals.json"]
    assert expansion == tree_bytes(alone / "mini" / "expansion")


def test_verify_error_when_fit_window_cannot_estimate_constant(tmp_path, capsys):
    # Without an explicit constant the resonant fit needs samples; spacing 1.0
    # leaves a single one in the default window [0.8 T, 0.95 T] and none in
    # [20, 30], which is an input error at the key that sets the window.
    doc = mini_ladder_doc(name="sparse2", step=0.1, n_max=1)
    sp = write_doc(tmp_path, doc)
    assert main(["verify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: expansion.resonant_fit_window: default window [4.8, 5.7] holds fewer than 2 samples\n"
    )
    doc["expansion"]["resonant_fit_window"] = [20, 30]
    sp = write_doc(tmp_path, doc)
    assert main(["verify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: expansion.resonant_fit_window: window [20, 30] holds fewer than 2 samples\n"
    )


def test_verify_error_when_the_fit_window_overflows_the_growth_factor(tmp_path, capsys):
    # the level-2 fit rescales by e^{2 t}, which passes the largest double beyond
    # t = ln(DBL_MAX) / 2 = 354.9, and the default window of a t_end = 500 run is [400, 475]
    sp = write_doc(tmp_path, mini_ladder_doc(name="long", step=0.5, t_end=500.0))
    assert main(["verify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: expansion.resonant_fit_window: default window [400, 475] reaches e^(2 t) "
        "past the largest double, at t > 354.9\n"
    )


def _norm_spec_doc(spec):
    return mini_ladder_doc(name="weights", norm_specs=((0.5, 0.0), spec))


def _certificate_doc(sigma):
    doc = mini_ladder_doc(name="weights", certificates=True)
    doc["certificates"][0]["sigma"] = sigma
    return doc


# Each weight squared overflows on the mini ladder's modes (|k|^2 <= 6): lam**alpha itself
# at [400, 0], the exponential at [0.5, 800] and sigma 300, and only the square at [200, 0],
# which used to give inf norms that every verify row read as "at numerical floor".
@pytest.mark.parametrize("command, doc, key", [
    ("verify", _norm_spec_doc((400, 0)), "expansion.norm_specs[1]"),
    ("simulate", _norm_spec_doc((400, 0)), "expansion.norm_specs[1]"),
    ("verify", _norm_spec_doc((0.5, 800)), "expansion.norm_specs[1]"),
    ("verify", _norm_spec_doc((200, 0)), "expansion.norm_specs[1]"),
    ("certify", _certificate_doc(300), "certificates[0]"),
], ids=["alpha-400", "simulate-alpha-400", "sigma-800", "square-200", "certificate-sigma-300"])
def test_norm_weight_past_the_largest_double_is_an_input_error(tmp_path, capsys, command, doc, key):
    sp = write_doc(tmp_path, doc)
    assert main([command, "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: norm weight ") and err.count("\n") == 1, err
    assert "overflows a double when squared" in err


def test_bad_norm_spec_leaves_the_last_verify_tree(tmp_path, capsys):
    # the spec is refused before verify deletes or rewrites a file: the last run's levels,
    # remainder series and report stay as they were, and stay consistent with each other
    out = tmp_path / "o"
    assert main(["verify", "--scenario", write_doc(tmp_path, _norm_spec_doc((0.5, 0.1))),
                 "--out", str(out)]) == EXIT_OK
    first = tree_bytes(out / "weights")
    capsys.readouterr()
    doc = _norm_spec_doc((0.5, 0.1))
    doc["expansion"]["norm_specs"] = [[400, 0]]
    assert main(["verify", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: expansion.norm_specs[0]: norm weight ") and err.count("\n") == 1
    assert tree_bytes(out / "weights") == first


def test_certificate_constant_past_the_largest_double_is_an_input_error(tmp_path, capsys):
    # C0 = delta / (4 K^alpha): 2^1100 is no double, so the certificate is refused as input
    doc = _certificate_doc(0.0)
    doc["certificates"][0]["alpha"] = 1100
    sp = write_doc(tmp_path, doc)
    assert main(["certify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert capsys.readouterr() == ("", "error: certificates[0]: K^alpha = 2^1100 overflows a double\n")


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_level_equation_gate_exits_failed(tmp_path, capsys, monkeypatch, command):
    # This ladder's levels solve their equations with residual exactly 0, so
    # only a negative tolerance trips the gate, on the supplied and the fitted path alike.
    monkeypatch.setattr(expansion, "RESIDUAL_TOL", -1.0)
    sp = write_doc(tmp_path, mini_ladder_doc(name="gate"))
    assert main([command, "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: level equations violated")
    assert "Traceback" not in err
    assert not list((tmp_path / "o" / "gate" / "expansion").iterdir())  # no failed level written


def test_verify_contaminated_fit_makes_rows_inconclusive(tmp_path, capsys):
    # A level-3 force on |k|^2 = 2 adds an e^{-3t} term to the eigenspace of the
    # level-2 constant; fitted early, where e^{-t} is not yet small, that
    # constant drifts by far more than 10%.
    doc = mini_ladder_doc(name="early")
    f3 = SpectralField({(1, 1, 0): [0.05, -0.05, 0]})
    doc["force"]["terms"].append({"n": 3, "poly": poly_to_literal(FieldPolynomial.constant(f3))})
    doc["expansion"]["resonant_fit_window"] = [0.2, 1.2]
    sp = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    for _ in range(2):  # the rerun refits and reaches the same verdicts
        assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_INCONCLUSIVE
        fits = json.loads((out / "early" / "expansion" / "resonant_fits.json").read_text())
        assert fits["2"]["contaminated"] is True
        rows = json.loads((out / "early" / "reports" / "verify.json").read_text())["rows"]
        assert rows[0]["level"] == 1 and rows[0]["verdict"] == "pass"
        assert rows[1]["level"] == 2 and rows[1]["verdict"] == "inconclusive"
        assert rows[1]["annotation"] == (
            f"contaminated resonant fit: level 2 (drift {fits['2']['drift']:.3g})"
        )
    # levels built from supplied constants fit nothing: the old fit log goes with the old levels
    doc["expansion"]["resonant"] = {"1": [], "2": []}
    sp = write_doc(tmp_path, doc)
    for _ in range(2):
        main(["verify", "--scenario", sp, "--out", str(out)])
        assert not (out / "early" / "expansion" / "resonant_fits.json").exists()
        rows = json.loads((out / "early" / "reports" / "verify.json").read_text())["rows"]
        assert not any("contaminated" in r["annotation"] for r in rows)
    capsys.readouterr()


@pytest.fixture(scope="module")
def mini_tree(tmp_path_factory):
    """Scenario file and output root of one passing mini-ladder verify run; the scenario
    has a certificate, so certify reads the tree's trajectory too."""
    root = tmp_path_factory.mktemp("mini-tree")
    sp = write_doc(root, mini_ladder_doc(certificates=True))
    assert main(["verify", "--scenario", sp, "--out", str(root / "out")]) == EXIT_OK
    return sp, root / "out"


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def edit_block(edit):
    """A corruption that rewrites trajectory.npy as edit(block)."""
    return lambda path: np.save(path, edit(np.load(path)))


def nan_at_sample_3(block):
    block[3, 0, 2] = complex(np.nan, 0)
    return block


UNPICKLED = []


def _unpickle_hook():
    UNPICKLED.append(True)


class Detonator:
    """An object whose unpickling is recorded in UNPICKLED."""

    def __reduce__(self):
        return _unpickle_hook, ()


def save_pickled(path):
    np.save(path, np.array([Detonator()], dtype=object), allow_pickle=True)


# case: (subcommand, file in the run directory, corruption, what follows the file in the message)
BAD_DOCUMENTS = {
    "manifest-fractional-mode": (
        "verify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["modes"].__setitem__(1, [1.5, 0, 1])),
        ".modes[1]: expected an integer",
    ),
    "manifest-non-representative-mode": (
        "verify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["modes"].__setitem__(1, [0, -1, 1])),
        ".modes[1]: [0, -1, 1] is not a stored wavevector",
    ),
    "duplicate-manifest-mode": (
        "verify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["modes"].__setitem__(2, d["modes"][0])),
        ".modes[2]: duplicate wavevector [0, 1, -1]",
    ),
    "manifest-huge-mode": (
        "verify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["modes"].__setitem__(1, [1e300, 0, 0])),
        ".modes[1]: wavevector components must lie strictly between -2**20 and 2**20",
    ),
    "invalid-json-manifest": (
        "certify", "trajectory_modes.json", lambda p: p.write_text("{ nope"), ": invalid JSON",
    ),
}
# the mini tree holds 61 samples of 6 modes; each bad block fails verify and certify alike
BAD_BLOCKS = {
    "truncated-block": (
        lambda p: p.write_bytes(p.read_bytes()[:-100]),
        ": unreadable block: Failed to read all data for array",
    ),
    "block-one-sample-short": (
        edit_block(lambda b: b[:-1]),
        ": expected complex128 (61, 6, 3), got complex128 (60, 6, 3)",
    ),
    "float64-block": (
        edit_block(lambda b: b.real.copy()),
        ": expected complex128 (61, 6, 3), got float64 (61, 6, 3)",
    ),
    "nan-in-block": (edit_block(nan_at_sample_3), ": non-finite coefficient at (0, 1, -1)"),
    "pickled-block": (
        save_pickled, ": unreadable block: Object arrays cannot be loaded when allow_pickle=False",
    ),
}
BAD_DOCUMENTS.update(
    (f"{case}-{command}", (command, "trajectory.npy", corrupt, message))
    for case, (corrupt, message) in BAD_BLOCKS.items()
    for command in ("verify", "certify")
)


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_reused_tree_rejects_bad_document(tmp_path, capsys, mini_tree, case):
    command, name, corrupt, message = BAD_DOCUMENTS[case]
    sp, tree = mini_tree
    out = tmp_path / "out"
    shutil.copytree(tree, out)
    corrupt(out / "mini" / name)
    capsys.readouterr()
    assert main([command, "--scenario", sp, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'mini' / name}{message}"), err
    assert "Traceback" not in err
    assert not UNPICKLED  # a pickled block is refused, never loaded


def test_warm_verify_rewrites_the_cold_norm_files_byte_for_byte(tmp_path, capsys, mini_tree):
    # the trajectory read back from the tree must give every series the bytes
    # that the integrated trajectory gave on the cold run
    sp, tree = mini_tree
    out = tmp_path / "out"
    shutil.copytree(tree, out)
    norms = out / "mini" / "norms"
    cold = {p.name: p.read_bytes() for p in sorted(norms.iterdir())}
    assert {Path(name).suffix for name in cold} == {".csv"}
    for p in norms.iterdir():
        p.unlink()
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out / "mini" / "reports" / "verify.json").read_text())
    assert report["trajectory_recomputed"] is False
    assert {p.name: p.read_bytes() for p in sorted(norms.iterdir())} == cold


def test_warm_runs_read_trees_written_with_the_old_duplicate_keys(tmp_path, capsys):
    # Older trees also held the CSV header as the manifest's "columns", each level's
    # resonance as "resonant_hit", N_max as "levels" in residuals.json and a .tsv copy
    # of each remainder series; warm runs ignore all of them.
    sp = write_doc(tmp_path, mini_ladder_doc(certificates=True))
    cold, new, old = tmp_path / "cold", tmp_path / "new", tmp_path / "old"
    for command in ("verify", "certify"):
        assert main([command, "--scenario", sp, "--out", str(cold)]) == EXIT_OK
    shutil.copytree(cold, new)
    shutil.copytree(cold, old)
    run = old / "mini"
    header = (run / "trajectory.csv").read_text().splitlines()[0].split(",")
    edit_json(run / "trajectory_modes.json", lambda d: d.update(columns=header))
    residuals = run / "expansion" / "residuals.json"
    hits = {n for n, _ in json.loads(residuals.read_text())["resonance_log"]}
    for lvl in (run / "expansion").glob("level_*.json"):
        edit_json(lvl, lambda d: d.update(resonant_hit=d["level"] in hits))
    edit_json(residuals, lambda d: d.update(levels=2))
    (run / "norms" / "remainder_N1_alpha0.5_sigma0.tsv").write_text("# slope=-2\n0\t1\n")
    capsys.readouterr()
    results = []
    for out in (new, old):
        codes = [main([c, "--scenario", sp, "--out", str(out)]) for c in ("verify", "certify")]
        captured = capsys.readouterr()
        reports = tree_bytes(out / "mini" / "reports")
        results.append((codes, captured.out.replace(str(out), "<out>"), captured.err, reports))
    assert results[0] == results[1]
    assert results[0][0] == [EXIT_OK, EXIT_OK]


def test_reuse_takes_the_sample_grid_from_the_scenario(tmp_path, capsys, mini_tree):
    # Older manifests also held a solver block. The key covers the scenario's solver
    # block, so the reader takes its grid from there: a manifest block edited to another
    # step and horizon with the same 61 samples changes no report.
    sp, tree = mini_tree
    edited = {"mode_cutoff": 6, "step": 0.02, "t_end": 12.0, "sample_stride": 10}  # 600 steps
    results = []
    for name, solver in (("clean", None), ("edited", edited)):
        out = tmp_path / name
        shutil.copytree(tree, out)
        if solver:
            edit_json(out / "mini" / "trajectory_modes.json", lambda d: d.update(solver=solver))
        capsys.readouterr()
        codes = [main([c, "--scenario", sp, "--out", str(out)]) for c in ("verify", "certify")]
        captured = capsys.readouterr()
        assert not recomputed(out / "mini")
        results.append((codes, captured.out, captured.err, tree_bytes(out / "mini" / "reports")))
    assert results[0] == results[1]
    assert results[0][0] == [EXIT_OK, EXIT_OK]


def recomputed(run_dir: Path) -> bool:
    return json.loads((run_dir / "reports" / "verify.json").read_text())["trajectory_recomputed"]


def test_tree_without_a_block_is_recomputed_once_then_reused(tmp_path, capsys):
    # Trees written before the block existed hold only trajectory.csv and a
    # manifest without a key: the first warm run integrates again and writes
    # the cold run's files, the next one reuses them.
    sp = write_doc(tmp_path, mini_ladder_doc())
    cold, old = tmp_path / "cold", tmp_path / "old"
    assert main(["verify", "--scenario", sp, "--out", str(cold)]) == EXIT_OK
    shutil.copytree(cold, old)
    (old / "mini" / "trajectory.npy").unlink()
    edit_json(old / "mini" / "trajectory_modes.json", lambda d: d.pop("key"))
    capsys.readouterr()
    assert main(["verify", "--scenario", sp, "--out", str(old)]) == EXIT_OK
    assert capsys.readouterr().err == "recomputing the trajectory: no trajectory.npy\n"
    assert recomputed(old / "mini")
    assert tree_bytes(old / "mini") == tree_bytes(cold / "mini")
    assert main(["verify", "--scenario", sp, "--out", str(old)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert not recomputed(old / "mini")


def test_tree_without_its_csv_is_recomputed(tmp_path, capsys):
    # reuse needs every file the producer writes: a tree that lost trajectory.csv
    # integrates again and ends up as the cold tree
    sp = write_doc(tmp_path, mini_ladder_doc())
    cold, out = tmp_path / "cold", tmp_path / "out"
    assert main(["verify", "--scenario", sp, "--out", str(cold)]) == EXIT_OK
    shutil.copytree(cold, out)
    (out / "mini" / "trajectory.csv").unlink()
    capsys.readouterr()
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == "recomputing the trajectory: no trajectory.csv\n"
    assert tree_bytes(out / "mini") == tree_bytes(cold / "mini")


def test_tree_without_its_manifest_is_recomputed(tmp_path, capsys):
    # the block and the CSV mean nothing without the manifest's modes and key: a tree
    # that holds either file but no manifest integrates again and says why
    sp = write_doc(tmp_path, mini_ladder_doc())
    cold, out = tmp_path / "cold", tmp_path / "out"
    assert main(["verify", "--scenario", sp, "--out", str(cold)]) == EXIT_OK
    for lost in (["trajectory_modes.json"], ["trajectory_modes.json", "trajectory.npy"]):
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(cold, out)
        for name in lost:
            (out / "mini" / name).unlink()
        capsys.readouterr()
        assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == "recomputing the trajectory: no trajectory_modes.json\n"
        assert tree_bytes(out / "mini") == tree_bytes(cold / "mini")


def test_block_without_a_key_is_recomputed(tmp_path, capsys):
    sp = write_doc(tmp_path, mini_ladder_doc())
    out = tmp_path / "out"
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    edit_json(out / "mini" / "trajectory_modes.json", lambda d: d.pop("key"))
    capsys.readouterr()
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == "recomputing the trajectory: no key\n"
    assert recomputed(out / "mini")


def tripled_force(doc):
    doc["force"]["terms"][0]["poly"] = poly_to_literal(FieldPolynomial.constant(3 * ladder_phi()))


def finer_step(doc):
    doc["solver"].update(step=0.005, sample_stride=20)  # the same sample times


@pytest.mark.parametrize("edit", [tripled_force, finer_step])
def test_changed_flow_recomputes_the_trajectory(tmp_path, capsys, edit):
    # the key covers the force, the initial data and the solver block: a tree
    # written for the old flow gives the reports of a fresh tree for the new one
    doc = mini_ladder_doc(certificates=True)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    for command in ("verify", "certify"):
        assert main([command, "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    edit(doc)
    sp = write_doc(tmp_path, doc, stem="changed")
    capsys.readouterr()
    codes = [main([c, "--scenario", sp, "--out", str(out)]) for c in ("certify", "verify")]
    assert capsys.readouterr().err == "recomputing the trajectory: key mismatch\n"
    assert not recomputed(out / "mini")  # certify recomputed it, verify reused it
    assert codes == [main([c, "--scenario", sp, "--out", str(fresh)]) for c in ("certify", "verify")]
    capsys.readouterr()
    for name in ("trajectory.npy", "trajectory.csv", "trajectory_modes.json", "reports/certify.json"):
        assert (out / "mini" / name).read_bytes() == (fresh / "mini" / name).read_bytes(), name


def test_edits_outside_the_flow_reuse_the_trajectory(tmp_path, capsys):
    doc = mini_ladder_doc(certificates=True)
    out = tmp_path / "out"
    assert main(["verify", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    doc["certificates"][0]["K"] = 3.0
    doc["expansion"].update(N_max=1, norm_specs=[[0.0, 0.0]], target_epsilon=0.4)
    sp = write_doc(tmp_path, doc, stem="edited")
    capsys.readouterr()
    for command in ("certify", "verify"):
        assert main([command, "--scenario", sp, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert not recomputed(out / "mini")


def test_verify_floor_annotation_on_null_flow(tmp_path, capsys):
    doc = mini_ladder_doc(name="null-flow", mode_cutoff=4, n_max=1, norm_specs=((0.0, 0.0),))
    doc["force"]["terms"] = []
    sp = write_doc(tmp_path, doc)
    code = main(["verify", "--scenario", sp, "--out", str(tmp_path / "o")])
    assert code == EXIT_INCONCLUSIVE
    assert "matches to solver precision" in capsys.readouterr().out
    rep = json.loads((tmp_path / "o" / "null-flow" / "reports" / "verify.json").read_text())
    assert rep["rows"][0]["verdict"] == "inconclusive"


def tree_bytes(run_dir: Path) -> dict:
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def test_verify_outputs_are_byte_deterministic(tmp_path, capsys):
    sp = write_doc(tmp_path, mini_ladder_doc())
    trees = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
        trees.append(tree_bytes(out / "mini"))
    capsys.readouterr()
    assert trees[0].keys() == trees[1].keys()
    for key in trees[0]:
        assert trees[0][key] == trees[1][key], f"{key} differs between runs"


# -- certify ------------------------------------------------------------------------


def test_certify_verified(tmp_path, capsys):
    doc = mini_ladder_doc(name="cert", certificates=True)
    sp = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["certify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "verified" in captured.out
    assert "skipped" not in captured.err
    rep = json.loads((out / "cert" / "reports" / "certify.json").read_text())
    row = rep["rows"][0]
    assert row["verdict"] == "verified"
    assert row["min_margin"] > 0
    assert row["t_star"] == 0.0
    assert len(row["integral"]["times"]) > 0


def test_certify_reports_skipped_integral_check(tmp_path, capsys):
    doc = mini_ladder_doc(name="coarse", t_end=3.0, sample_stride=30, certificates=True)
    sp = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["certify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "integral check skipped: sample spacing 0.3 does not divide 1" in err
    row = json.loads((out / "coarse" / "reports" / "certify.json").read_text())["rows"][0]
    assert row["integral"] == {"times": [], "margins": []}
    assert "integral_skipped" not in row  # the output tree stays as it was


def test_certify_inapplicable_on_large_data(tmp_path, capsys):
    doc = mini_ladder_doc(name="big", t_end=2.0, certificates=True)
    doc["initial"] = [{"k": [1, 0, 0], "re": [0.0, 0.2, 0.0], "im": [0.0, 0.0, 0.0]}]
    sp = write_doc(tmp_path, doc)
    code = main(["certify", "--scenario", sp, "--out", str(tmp_path / "o")])
    assert code == EXIT_INCONCLUSIVE
    assert "hypothesis not met: initial data" in capsys.readouterr().out


def test_certify_inapplicable_when_t_star_is_past_the_horizon(tmp_path, capsys):
    # delta = 0.1 and sigma = 0.3 give t_star = 18, past the last sample at 6:
    # the small-data hypotheses hold, but no conclusion is ever checked.
    doc = mini_ladder_doc(name="late", certificates=True)
    doc["force"]["terms"][0]["poly"] = poly_to_literal(FieldPolynomial.constant(1e-3 * ladder_phi()))
    doc["certificates"] = [{"alpha": 0.5, "delta": 0.1, "lambda": 1.0, "sigma": 0.3, "K": 2.0}]
    sp = write_doc(tmp_path, doc)
    assert main(["certify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_INCONCLUSIVE
    assert "inapplicable (min margin -)" in capsys.readouterr().out
    row = json.loads((tmp_path / "o" / "late" / "reports" / "certify.json").read_text())["rows"][0]
    assert row["verdict"] == "inapplicable"
    assert row["hypothesis_failures"] == ["no sample at or after t_star = 18; last sample at 6"]


def test_certify_without_certificates(tmp_path, capsys):
    doc = mini_ladder_doc(name="nocert", t_end=1.0)
    sp = write_doc(tmp_path, doc)
    assert main(["certify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert capsys.readouterr().out == "no certificates configured\n"
    report = json.loads((tmp_path / "o" / "nocert" / "reports" / "certify.json").read_text())
    assert report == {"scenario": "nocert", "rows": [], "exit_code": EXIT_OK}
    assert not list((tmp_path / "o" / "nocert").glob("trajectory.*"))  # no flow integrated


# -- error handling -------------------------------------------------------------------


def test_missing_scenario_file(tmp_path, capsys):
    code = main(["verify", "--scenario", str(tmp_path / "absent.json")])
    assert code == EXIT_ERROR
    assert "not found" in capsys.readouterr().err


def test_invalid_scenario_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code = main(["expand", "--scenario", str(bad)])
    assert code == EXIT_ERROR
    assert "invalid JSON" in capsys.readouterr().err


def test_sub_step_horizon_is_a_scenario_error(tmp_path, capsys):
    sp = write_doc(tmp_path, mini_ladder_doc(name="short", t_end=0.004))
    assert main(["simulate", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: solver: t_end shorter than one step, got 0.004 with step 0.01\n"
    )
    assert not (tmp_path / "o").exists()  # refused before any directory is made


@pytest.mark.parametrize(
    "t_end, steps", [(1e308, "inf"), (1e300, "1e+302"), (100001.0, "1.00001e+07")]
)
def test_step_count_past_the_cap_is_a_scenario_error(tmp_path, capsys, t_end, steps):
    # t_end / step must be a finite count of at most 10**7 steps; 1e308 / 0.01 overflows
    sp = write_doc(tmp_path, mini_ladder_doc(name="long", t_end=t_end))
    assert main(["simulate", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: solver.t_end: t_end / step = {t_end:g} / 0.01 = {steps} steps, "
        "past the cap of 10000000\n"
    )
    assert not (tmp_path / "o").exists()


def test_out_override_creates_tree(tmp_path, capsys):
    sp = write_doc(tmp_path, mini_ladder_doc(name="tree", t_end=1.0))
    out = tmp_path / "custom-root"
    doc = mini_ladder_doc(name="tree", t_end=1.0, n_max=1)
    doc["expansion"]["resonant"] = {"1": []}
    sp = write_doc(tmp_path, doc)
    assert main(["expand", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    for sub in ("expansion", "norms", "reports"):
        assert (out / "tree" / sub).is_dir()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_output_listing_matches_the_tree(tmp_path, capsys):
    # the README's scenario (its first json block) through every subcommand into
    # one tree holds exactly the files of the README's output listing
    text = README.read_text()
    doc = json.loads(re.search(r"^```json\n(.*?)^```$", text, re.M | re.S).group(1))
    listing = re.search(r"Each run writes under.*?^```\n(.*?)^```$", text, re.M | re.S).group(1)
    sp = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    for command in ("expand", "simulate", "verify", "certify"):
        assert main([command, "--scenario", sp, "--out", str(out)]) == EXIT_OK, command
    capsys.readouterr()
    run = out / doc["name"]
    patterns = [line.split()[0] for line in listing.splitlines()]
    expanded = {pat: {p.relative_to(run).as_posix() for p in run.glob(pat)} for pat in patterns}
    assert [pattern for pattern, files in expanded.items() if not files] == []
    assert set(tree_bytes(run)) == set().union(*expanded.values())


def test_readme_scenario_keeps_its_trajectory_key():
    # the reuse key is the sha256 of the scenario's canonical text; if a field's text
    # drifted, every tree written before would be recomputed ("key mismatch")
    doc = json.loads(re.search(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S).group(1))
    scenario = scenario_from_doc(doc)
    key = trajectory_key(scenario.force, scenario.initial, scenario.solver)
    assert key == "9912af9106363a1ba6c2f00e08bb270fb6fc4bfb28e6788286b5fd9c1523d351"


def test_readme_scenario_at_n_max_six_ends_with_verdicts(tmp_path, capsys):
    # the fitted level-6 constant of the README's flow is a window mean of projected
    # states, divergence-free only to rounding; verify projects it, so the run ends
    # with a verdict on every row, not with the divergence gate's input error
    doc = json.loads(re.search(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S).group(1))
    doc["expansion"]["N_max"] = 6
    sp = write_doc(tmp_path, doc)
    code = main(["verify", "--scenario", sp, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (EXIT_FAILED, EXIT_INCONCLUSIVE), err
    report = json.loads((tmp_path / "out" / doc["name"] / "reports" / "verify.json").read_text())
    assert report["exit_code"] == code
    assert sorted({row["level"] for row in report["rows"]}) == [1, 2, 3, 4, 5, 6]
    assert all(row["verdict"] in ("pass", "fail", "inconclusive") for row in report["rows"])
