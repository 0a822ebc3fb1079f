"""End-to-end driver tests: subcommands, exit codes, file tree, determinism."""

import json
import shutil
from pathlib import Path

import pytest

from conftest import ladder_scenario_doc
from nsexpand import SpectralField, bilinear, eigenvalues_up_to, expansion
from nsexpand.cli import EXIT_ERROR, EXIT_FAILED, EXIT_INCONCLUSIVE, EXIT_OK, main
from nsexpand.fieldpoly import FieldPolynomial
from nsexpand.serialize import field_to_literal, poly_to_literal


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
    assert lvl1["level"] == 1
    assert lvl1["resonant_hit"] is True
    lvl2 = json.loads((run / "expansion" / "level_02.json").read_text())
    assert lvl2["poly"]["degree_coeffs"] == []  # level 2 cancels exactly
    res = json.loads((run / "expansion" / "residuals.json").read_text())
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
    for n in (1, 2):
        assert (run / "norms" / f"remainder_N{n}_alpha0.5_sigma0.csv").exists()
        assert (run / "norms" / f"remainder_N{n}_alpha0.5_sigma0.tsv").exists()
    fits = json.loads((run / "expansion" / "resonant_fits.json").read_text())
    assert fits["1"]["snapped_to_zero"] is True  # nothing drives |k|^2 = 1
    assert fits["2"]["snapped_to_zero"] is False
    assert fits["2"]["contaminated"] is False


def test_verify_reuses_existing_tree_and_detects_tampering(tmp_path, capsys):
    sp = write_doc(tmp_path, mini_ladder_doc())
    out = tmp_path / "out"
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()

    lvl = out / "mini" / "expansion" / "level_01.json"
    doc = json.loads(lvl.read_text())
    entry = doc["poly"]["degree_coeffs"][0][0]
    entry["re"] = [1.01 * x for x in entry["re"]]
    lvl.write_text(json.dumps(doc))

    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_FAILED
    stdout = capsys.readouterr().out
    assert "loaded expansion levels [1, 2]" in stdout  # reuse, not rebuild
    rep = json.loads((out / "mini" / "reports" / "verify.json").read_text())
    by_level = {r["level"]: r for r in rep["rows"]}
    # the 1% tamper leaves a stray q_1 e^{-t} component in the N=2 remainder
    assert by_level[2]["verdict"] == "fail"
    assert by_level[2]["slope"] == pytest.approx(-1.0, abs=0.1)
    assert "needs slope <=" in by_level[2]["annotation"]


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


def test_verify_error_when_fit_window_cannot_estimate_constant(tmp_path, capsys):
    # Without an explicit constant the resonant fit needs samples; spacing 1.0
    # leaves a single one in the fitting window, which is an input error.
    doc = mini_ladder_doc(name="sparse2", step=0.1, n_max=1)
    sp = write_doc(tmp_path, doc)
    assert main(["verify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


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
    assert not list((tmp_path / "o" / "gate" / "expansion").iterdir())  # nothing to reuse


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
    for reused in (False, True):  # the reused tree keeps the verdicts via resonant_fits.json
        assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_INCONCLUSIVE
        assert ("loaded expansion levels" in capsys.readouterr().out) is reused
        fits = json.loads((out / "early" / "expansion" / "resonant_fits.json").read_text())
        assert fits["2"]["contaminated"] is True
        rows = json.loads((out / "early" / "reports" / "verify.json").read_text())["rows"]
        assert rows[0]["level"] == 1 and rows[0]["verdict"] == "pass"
        assert rows[1]["level"] == 2 and rows[1]["verdict"] == "inconclusive"
        assert rows[1]["annotation"] == (
            f"contaminated resonant fit: level 2 (drift {fits['2']['drift']:.3g})"
        )
    # levels rebuilt from supplied constants fit nothing: the old fit log goes with the old levels
    for lvl in (out / "early" / "expansion").glob("level_*.json"):
        lvl.unlink()
    doc["expansion"]["resonant"] = {"1": [], "2": []}
    sp = write_doc(tmp_path, doc)
    for _ in range(2):
        main(["verify", "--scenario", sp, "--out", str(out)])
        assert not (out / "early" / "expansion" / "resonant_fits.json").exists()
        rows = json.loads((out / "early" / "reports" / "verify.json").read_text())["rows"]
        assert not any("contaminated" in r["annotation"] for r in rows)
    capsys.readouterr()


@pytest.mark.parametrize("level", [0, "x"])
def test_verify_rejects_bad_level_document(tmp_path, capsys, level):
    sp = write_doc(tmp_path, mini_ladder_doc())
    out = tmp_path / "out"
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lvl = out / "mini" / "expansion" / "level_01.json"
    doc = json.loads(lvl.read_text())
    doc["level"] = level
    lvl.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", sp, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lvl}.level: expected a positive integer")


@pytest.fixture(scope="module")
def mini_tree(tmp_path_factory):
    """Scenario file and output root of one passing mini-ladder verify run."""
    root = tmp_path_factory.mktemp("mini-tree")
    sp = write_doc(root, mini_ladder_doc())
    assert main(["verify", "--scenario", sp, "--out", str(root / "out")]) == EXIT_OK
    return sp, root / "out"


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def edit_cells(path, lineno, edit):
    lines = path.read_text().splitlines()
    cells = lines[lineno - 1].split(",")
    edit(cells)
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# case: (subcommand, file in the run directory, corruption, what follows the file in the message)
BAD_DOCUMENTS = {
    "manifest-without-solver": (
        "verify", "trajectory_modes.json", lambda p: edit_json(p, lambda d: d.pop("solver")),
        ".solver: missing required key",
    ),
    "manifest-fractional-cutoff": (
        "verify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["solver"].update(mode_cutoff=12.7)),
        ".solver.mode_cutoff: expected an integer",
    ),
    "manifest-string-cutoff": (
        "certify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["solver"].update(mode_cutoff="12")),
        ".solver.mode_cutoff: expected a number",
    ),
    "manifest-boolean-stride": (
        "verify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["solver"].update(sample_stride=True)),
        ".solver.sample_stride: expected a number",
    ),
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
    "short-csv-row-verify": (
        "verify", "trajectory.csv", lambda p: edit_cells(p, 5, list.pop), ":5: expected",
    ),
    "short-csv-row-certify": (
        "certify", "trajectory.csv", lambda p: edit_cells(p, 5, list.pop), ":5: expected",
    ),
    "manifest-huge-mode": (
        "verify", "trajectory_modes.json",
        lambda p: edit_json(p, lambda d: d["modes"].__setitem__(1, [1e300, 0, 0])),
        ".modes[1]: wavevector components must lie strictly between -2**20 and 2**20",
    ),
    # the mini tree holds 61 samples, t = 0, 0.1, ..., 6 on CSV lines 2..62
    "csv-dropped-last-row": (
        "verify", "trajectory.csv", lambda p: edit_lines(p, list.pop),
        ": expected 61 samples, got 60",
    ),
    "csv-repeated-last-row": (
        "certify", "trajectory.csv", lambda p: edit_lines(p, lambda ls: ls.append(ls[-1])),
        ":63: expected t = 6.1000000000000005, got 6",
    ),
    "csv-shifted-time": (
        "verify", "trajectory.csv", lambda p: edit_cells(p, 10, lambda c: c.__setitem__(0, "0.81")),
        ":10: expected t = 0.80000000000000004, got 0.81000000000000005",
    ),
    "non-numeric-csv-cell": (
        "verify", "trajectory.csv", lambda p: edit_cells(p, 3, lambda c: c.__setitem__(2, "x")),
        ":3: could not convert",
    ),
    "fit-without-contaminated": (
        "verify", "expansion/resonant_fits.json",
        lambda p: edit_json(p, lambda d: d["2"].pop("contaminated")),
        ": malformed fit log: KeyError('contaminated')",
    ),
    "invalid-json-level": (
        "verify", "expansion/level_01.json", lambda p: p.write_text("{ nope"), ": invalid JSON",
    ),
    "invalid-json-manifest": (
        "certify", "trajectory_modes.json", lambda p: p.write_text("{ nope"), ": invalid JSON",
    ),
}


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


def test_certify_without_certificates(tmp_path, capsys):
    doc = mini_ladder_doc(name="nocert", t_end=1.0)
    sp = write_doc(tmp_path, doc)
    assert main(["certify", "--scenario", sp, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "no certificates configured" in capsys.readouterr().out


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
