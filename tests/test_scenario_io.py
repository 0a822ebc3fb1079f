"""Literal formats, deterministic writers, and scenario-document parsing."""

import copy
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import emit_by_value, ladder_phi, ladder_scenario_doc, random_div_free_field
from nsexpand import (
    FieldPolynomial,
    ForceExpansion,
    NormSpec,
    SolverConfig,
    SpectralField,
    Trajectory,
    integrate,
)
from nsexpand.scenario import load_scenario, scenario_from_doc
from nsexpand.serialize import (
    _PIECE,
    ScenarioError,
    _emit,
    _format_float,
    dumps_json,
    field_from_literal,
    field_to_literal,
    level_to_doc,
    poly_from_literal,
    poly_to_literal,
    read_trajectory,
    write_json,
    write_norm_csv,
    write_trajectory,
)
from nsexpand.spectral import is_representative


# -- float formatting and JSON emission ------------------------------------------


def test_format_float_round_trips():
    for x in (1 / 3, 0.1, -1e-300, 6.02214076e23, math.pi, 2.0, -0.0, 5e-324):
        assert float(_format_float(x)) == x
    assert math.copysign(1.0, json.loads(_format_float(-0.0))) == -1.0


def test_dumps_json_frozen_layout():
    text = dumps_json({"a": 0.1, "b": [1, 2]})
    assert text == (
        '{\n  "a": 0.10000000000000001,\n  "b": [\n    1,\n    2\n  ]\n}\n'
    )


def test_dumps_json_special_values():
    assert dumps_json(math.nan) == "null\n"
    assert dumps_json(math.inf) == "null\n"
    assert dumps_json(True) == "true\n"
    assert dumps_json(None) == "null\n"
    assert dumps_json({}) == "{}\n"
    assert dumps_json([]) == "[]\n"


def test_dumps_json_numpy_scalars_and_arrays():
    assert dumps_json(np.float64(0.5)) == "0.5\n"
    assert dumps_json(np.int64(3)) == "3\n"
    assert "1.5" in dumps_json(np.array([1.5]))
    with pytest.raises(TypeError):
        dumps_json(object())


# Lists of floats (doubles and np.float64 alike, any bit pattern), sometimes with ints, bools
# or non-finite values among them, as lists, tuples or arrays, nested 0-3 levels deep.
_doubles = st.floats(allow_nan=False, allow_infinity=False)
_series_item = st.one_of(_doubles, _doubles.map(np.float64))
_odd_item = st.one_of(st.floats(), st.integers(-3, 3), st.booleans(), st.none())
_series = st.one_of(
    st.lists(_series_item, max_size=8),
    st.lists(_doubles, max_size=8).map(np.array),
    st.lists(_series_item, max_size=8).map(tuple),
    st.lists(st.one_of(_series_item, _odd_item), max_size=8),
)


def _wrapped(seq, depth):
    """`seq` twice in a list, `depth` times over."""
    for _ in range(depth):
        seq = [seq, seq]
    return seq


def _written_json(obj) -> bytes:
    """The bytes `write_json` puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "doc.json")
        write_json(path, obj)
        return path.read_bytes()


# Series longer than one `_PIECE`-value piece, with -0.0 last in one piece and first in the
# next, and a last piece that is full and ends in -0.0.
_EDGE = [0.5] * (_PIECE - 1) + [-0.0, -0.0] + [1 / 3] * 5


@settings(max_examples=150)
@given(_series, st.integers(0, 3))
@example([-0.0, 1.5, 2.0], 0)
@example([1.5, 2.0, -0.0], 1)
@example([-0.0], 2)
@example((-0.0, -0.0), 3)
@example([5e-324, -5e-324, 2.2250738585072009e-308, -1e-310], 1)
@example([sys.float_info.max, -sys.float_info.max], 0)
@example([0.1, 1 / 3, -2 / 3, 1.2345678901234567e-5, 0.1 + 0.2], 2)
@example([np.float64(-0.0), 0.5, np.float64(1 / 3), -0.0, np.float64(5e-324)], 0)
@example(np.array([-0.0, 0.25, -1e300]), 3)
@example([1.0, math.nan, -math.inf, math.inf], 0)
@example([np.float64(math.nan), -0.0], 1)
@example([1.0, 2, -0.0], 0)
@example([True, 0.5, False], 2)
@example([[0.5, -0.0], [-0.0]], 1)
@example([], 3)
@example(_EDGE, 0)
@example(np.array(_EDGE), 2)
@example(tuple(_EDGE[1:]), 1)
@example([-0.0] * (2 * _PIECE), 1)
def test_float_series_text_is_the_per_value_text(seq, depth):
    obj = _wrapped(seq, depth)
    text = emit_by_value(obj) + "\n"
    assert dumps_json(obj) == text
    assert _written_json(obj) == text.encode()


# -- field and polynomial literals -------------------------------------------------


def test_field_literal_round_trip():
    u = random_div_free_field(np.random.default_rng(3), 2, 5)
    assert field_from_literal(field_to_literal(u)) == u
    # and through actual JSON text
    text = dumps_json(field_to_literal(u))
    assert field_from_literal(json.loads(text)) == u
    assert field_to_literal(SpectralField.zero()) == []


def test_field_literal_error_paths():
    with pytest.raises(ScenarioError) as err:
        field_from_literal({"k": [1, 0, 0]})
    assert err.value.path == "field"
    with pytest.raises(ScenarioError) as err:
        field_from_literal([{"re": [1, 0, 0], "im": [0, 0, 0]}])
    assert err.value.path == "field[0].k"
    with pytest.raises(ScenarioError) as err:
        field_from_literal([{"k": [1, 0], "re": [1, 0, 0], "im": [0, 0, 0]}])
    assert err.value.path == "field[0].k"
    with pytest.raises(ScenarioError) as err:
        field_from_literal([{"k": [1, 0, 0], "re": ["x", 0, 0], "im": [0, 0, 0]}])
    assert err.value.path == "field[0].re"
    entry = {"k": [1, 0, 0], "re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}
    with pytest.raises(ScenarioError) as err:
        field_from_literal([entry, entry])
    assert err.value.path == "field[1].k"
    with pytest.raises(ScenarioError) as err:
        field_from_literal([{"k": [-1, 0, 0], "re": [0, 1, 0], "im": [0, 0, 0]}])
    assert err.value.path == "field"  # representative check happens in the constructor


def test_poly_literal_round_trip_and_errors():
    rng = np.random.default_rng(7)
    poly = FieldPolynomial([random_div_free_field(rng, 1, 3) for _ in range(3)])
    assert poly_from_literal(poly_to_literal(poly)) == poly
    assert poly_from_literal(poly_to_literal(FieldPolynomial.zero())).is_zero
    with pytest.raises(ScenarioError) as err:
        poly_from_literal([1, 2])
    assert err.value.path == "poly"
    with pytest.raises(ScenarioError) as err:
        poly_from_literal({"degree_coeffs": "nope"}, path="p")
    assert err.value.path == "p.degree_coeffs"


def test_expansion_term_doc_round_trip():
    poly = FieldPolynomial([random_div_free_field(np.random.default_rng(9), 1, 2)])
    doc = json.loads(dumps_json(level_to_doc(2, poly)))
    assert list(doc) == ["level", "poly"]
    assert doc["level"] == 2
    assert poly_from_literal(doc["poly"]) == poly


# -- literal round trips (property tests) ----------------------------------------------


def _complex(re, im):
    # complex(r, i) keeps a -0.0 imaginary part, which r + 1j * i turns into +0.0
    return [complex(r, i) for r, i in zip(re, im)]


# Any finite double, subnormals included, must survive the text format, the
# sign of zero too: -0.0 is written "-0.0", since JSON reads "-0" as the
# integer 0.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_wavevector = st.tuples(*[st.integers(-3, 3)] * 3).filter(is_representative)
_fields = st.dictionaries(_wavevector, st.lists(_finite, min_size=6, max_size=6), max_size=5).map(
    lambda d: SpectralField({k: _complex(v[:3], v[3:]) for k, v in d.items()})
)


def _through_text(literal):
    """The literal as a file holds it: emitted by dumps_json, parsed by json."""
    return json.loads(dumps_json(literal))


@settings(max_examples=100)
@given(_fields)
def test_field_literal_round_trip_is_exact(field):
    assert field_from_literal(_through_text(field_to_literal(field))) == field


def _nested(obj, depth):
    """`obj` under `depth` alternating list and dict levels."""
    for i in range(depth):
        obj = [obj] if i % 2 else {"x": obj}
    return obj


_DBL_MAX, _TINY = sys.float_info.max, 5e-324


def _one_mode(re, im, k=(0, 1, -1)):
    return SpectralField({k: _complex(re, im)})


def _piece_edge_field(n_modes=40):
    """A field past one piece of `_PIECE` values (9 per mode) whose -0.0s sit last in the
    first piece (the last mode's last imaginary part) and first among the floats of the
    next (the next mode's first real part; a mode starts with its wavevector)."""
    reps = [k for k in itertools.product(range(-2, 3), repeat=3) if is_representative(k)]
    coeffs = {k: _complex([i + 0.5, -i / 7, 1 / 3], [0.25, i / 3, -1.5]) for i, k in enumerate(reps[:n_modes])}
    last = reps[_PIECE // 9 - 1]
    coeffs[last][2] = complex(1 / 3, -0.0)
    coeffs[reps[_PIECE // 9]][0] = complex(-0.0, 0.25)
    return SpectralField(coeffs)


@settings(max_examples=100)
@given(_fields, st.integers(0, 4))
@example(SpectralField.zero(), 0)
@example(SpectralField.zero(), 3)
@example(_one_mode([-0.0, 1.0, 0.0], [0.0, 2.0, -0.0]), 0)
@example(_one_mode([0.0, 1.0, -0.0], [-0.0, 2.0, 0.0], k=(1, -2, 3)), 4)
@example(_one_mode([-0.0, -0.0, -0.0], [-0.0, -1.0, -0.0]), 2)
@example(_one_mode([_TINY, -_TINY, 2.2250738585072014e-308], [-1e-310, 0.0, _TINY]), 1)
@example(_one_mode([_DBL_MAX, -_DBL_MAX, 1.0], [-_DBL_MAX, 0.0, _DBL_MAX]), 2)
@example(_one_mode([0.1, 1 / 3, -2 / 3], [1.2345678901234567e-5, -9.876543210987654e21, 0.1 + 0.2]), 3)
@example(_piece_edge_field(), 0)
@example(_piece_edge_field(), 3)
@example(_piece_edge_field(2 * _PIECE // 9), 1)
def test_field_text_is_the_text_of_its_literal(field, depth):
    text = dumps_json(_nested(field_to_literal(field), depth))
    assert dumps_json(_nested(field, depth)) == text
    assert _written_json(_nested(field, depth)) == text.encode()


def test_level_document_is_written_in_bounded_pieces():
    """`_emit` hands a 283-mode level document to its writer in pieces of at most 16 KiB,
    `_PIECE` values (32 modes) at most each, where one field's text alone is over 70 kB."""
    reps = [k for k in itertools.product(range(-4, 5), repeat=3) if is_representative(k)][:283]
    rng = np.random.default_rng(4)
    field = SpectralField({k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in reps})
    doc = level_to_doc(4, FieldPolynomial([field, field * 0.5, field * -0.25]))
    pieces = []
    _emit(doc, pieces.append, 0)
    assert "".join(pieces) + "\n" == dumps_json(doc)
    assert len(dumps_json(field)) > 70_000
    assert max(map(len, pieces)) <= 16 * 1024


@settings(max_examples=50)
@given(st.lists(_fields, max_size=4))
def test_poly_literal_round_trip_is_exact(coeffs):
    poly = FieldPolynomial(coeffs)
    assert poly_from_literal(_through_text(poly_to_literal(poly))) == poly


@settings(max_examples=50)
@given(st.lists(_fields, max_size=4))
@example([SpectralField({(0, 0, 1): np.array([-0.0, 0, 0]) + 1j * np.array([-1.0, 0, 0])})])
@example([_one_mode([-0.0, 0.0, 0.0], [0.0, 1.0, -0.0])])
def test_poly_literal_text_survives_re_emission(coeffs):
    text = dumps_json(poly_to_literal(FieldPolynomial(coeffs)))
    assert dumps_json(json.loads(text)) == text
    assert dumps_json(poly_to_literal(poly_from_literal(json.loads(text)))) == text


@settings(max_examples=50)
@given(st.integers(1, 64), st.lists(_fields, max_size=3))
def test_level_doc_round_trip_is_exact(n, coeffs):
    poly = FieldPolynomial(coeffs)
    doc = _through_text(level_to_doc(n, poly))
    assert doc["level"] == n
    assert poly_from_literal(doc["poly"]) == poly


# -- trajectory files ---------------------------------------------------------------


def small_trajectory():
    u0 = SpectralField({(1, 0, 0): [0, 0.4, 0.1j], (1, 1, 0): [0.2, -0.2, 0.3]})
    cfg = SolverConfig(6, 0.05, 0.5, sample_stride=2)
    return integrate(u0, ForceExpansion(()), cfg)


def test_trajectory_round_trip_bitwise(tmp_path):
    traj = small_trajectory()
    csv, manifest = tmp_path / "traj.csv", tmp_path / "traj_modes.json"
    write_trajectory(csv, manifest, traj, "k0")
    back = read_trajectory(tmp_path / "traj.npy", manifest, traj.config)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.modes, traj.modes)
    assert np.array_equal(back.coeffs, traj.coeffs)
    assert back.config == traj.config

    header = csv.read_text().splitlines()[0].split(",")
    doc = json.loads(manifest.read_text())
    assert header[0] == "t"
    assert header[1] == "re(k1 u1)"
    assert header[2] == "im(k1 u1)"
    assert len(header) == 1 + 6 * len(doc["modes"])
    # the CSV header is the only column list, and the reader's solver block the only grid
    assert list(doc) == ["modes", "key"]
    assert doc["key"] == "k0"


# A trajectory block over 1-4 modes and 2-5 samples, any finite doubles.
@st.composite
def _trajectories(draw, elements=_finite):
    modes = sorted(draw(st.sets(_wavevector, min_size=1, max_size=4)))
    samples = draw(st.integers(2, 5))
    parts = draw(arrays(np.float64, (samples, len(modes), 3, 2), elements=elements))
    coeffs = parts.view(np.complex128)[..., 0]   # (re, im) pairs, bits kept
    if draw(st.booleans()):
        coeffs[draw(st.integers(0, samples - 1))] = 0
    cfg = SolverConfig(6, 0.5, 0.5 * (samples - 1))
    return Trajectory(np.array(modes, np.int64), coeffs, cfg)


@settings(max_examples=50)
@given(_trajectories())
@example(Trajectory(
    np.array([[0, 0, 1], [1, 0, 0]], np.int64),
    np.array([[[-0.0, 5e-324, 0], [-5e-324j, 0, 0]], [[0, 0, 0], [0, 0, 0]]], complex),
    SolverConfig(6, 0.5, 0.5),
))
def test_trajectory_block_round_trip_is_exact(traj):
    with tempfile.TemporaryDirectory() as tmp:
        csv, manifest = Path(tmp, "t.csv"), Path(tmp, "t_modes.json")
        write_trajectory(csv, manifest, traj, "k")
        back = read_trajectory(Path(tmp, "t.npy"), manifest, traj.config)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.modes, traj.modes)
    assert np.array_equal(back.coeffs, traj.coeffs)
    assert np.array_equal(np.signbit(back.coeffs.view(float)), np.signbit(traj.coeffs.view(float)))


def csv_by_value(traj) -> str:
    """The trajectory CSV spelled with one `_format_float` call per value."""
    names = [f"{part}(k{i + 1} u{c + 1})" for i in range(len(traj.modes)) for c in range(3) for part in ("re", "im")]
    lines = [",".join(["t", *names])]
    for t, sample in zip(traj.times, traj.coeffs):
        lines.append(",".join(map(_format_float, [t, *sample.view(float).ravel()])))
    return "\n".join(lines) + "\n"


# any finite float64 bit pattern, besides hypothesis's own choice of doubles
_bit_patterns = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(math.isfinite)
_EDGES = [-0.0, -0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 0.1, 1 / 3, -1e-05, 2.0**-1074 * 3, -0.0]   # 0.1 and 1/3 need 17 digits


@settings(max_examples=60)
@given(_trajectories(st.one_of(_finite, _bit_patterns)))
@example(Trajectory(   # -0.0 twice in a row, at a row's end and beside the extremes
    np.array([[0, 0, 1], [1, 0, 0]], np.int64),
    np.array([_EDGES, _EDGES[::-1]]).view(complex).reshape(2, 2, 3),
    SolverConfig(6, 0.5, 0.5),
))
def test_trajectory_csv_is_format_float_per_value(traj):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp, "t.csv")
        write_trajectory(csv, Path(tmp, "t_modes.json"), traj, "k")
        text = csv.read_bytes()
    assert text == csv_by_value(traj).encode()
    lines = text.decode().splitlines()
    assert len(lines) == 1 + len(traj)
    assert len(lines[0].split(",")) == 1 + 6 * len(traj.modes)


def test_trajectory_reader_puts_manifest_modes_in_key_order(tmp_path):
    traj = small_trajectory()
    block, manifest = tmp_path / "traj.npy", tmp_path / "traj_modes.json"
    write_trajectory(tmp_path / "traj.csv", manifest, traj, "k0")
    doc = json.loads(manifest.read_text())
    perm = list(range(len(doc["modes"])))[::-1]
    assert len(perm) > 1
    doc["modes"] = [doc["modes"][j] for j in perm]
    manifest.write_text(json.dumps(doc))
    np.save(block, np.load(block)[:, perm])  # the block columns follow the reversed manifest
    back = read_trajectory(block, manifest, traj.config)
    assert np.array_equal(back.modes, traj.modes)
    assert np.array_equal(back.coeffs, traj.coeffs)


def test_trajectory_write_is_deterministic(tmp_path):
    traj = small_trajectory()
    paths = [(tmp_path / f"a{i}.csv", tmp_path / f"a{i}.json") for i in range(2)]
    for csv, man in paths:
        write_trajectory(csv, man, traj, "k0")
    for suffix in (".csv", ".npy", ".json"):
        assert (tmp_path / f"a0{suffix}").read_bytes() == (tmp_path / f"a1{suffix}").read_bytes()


def test_read_trajectory_detects_manifest_mismatch(tmp_path):
    traj = small_trajectory()
    manifest = tmp_path / "traj_modes.json"
    write_trajectory(tmp_path / "traj.csv", manifest, traj, "k0")
    doc = json.loads(manifest.read_text())
    doc["modes"] = doc["modes"][:-1]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=r"traj\.npy: expected complex128 \(6, 9, 3\), got complex128 \(6, 10"):
        read_trajectory(tmp_path / "traj.npy", manifest, traj.config)


def test_write_norm_csv(tmp_path):
    from nsexpand.analysis import NormSeries

    series = NormSeries(np.array([0.0, 0.5]), np.array([1.0, 1 / 3]))
    path = tmp_path / "norm.csv"
    write_norm_csv(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0,1"
    assert lines[2] == f"0.5,{_format_float(1 / 3)}"


def norm_csv_by_value(series) -> str:
    """The norm CSV spelled with one `_format_float` call per value."""
    rows = [f"{_format_float(t)},{_format_float(v)}" for t, v in zip(series.times, series.values)]
    return "".join(line + "\n" for line in ["t,value", *rows])


@settings(max_examples=60)
@given(st.lists(st.tuples(st.one_of(_finite, _bit_patterns), st.floats()), max_size=6))
@example([(-0.0, -0.0)])
@example([(0.0, 1.0), (-0.0, 2.0), (0.5, -0.0)])
@example([(5e-324, sys.float_info.max), (0.1, 1 / 3), (-sys.float_info.max, -5e-324)])
@example([(1.0, math.nan), (2.0, math.inf), (3.0, -math.inf)])
@example([])
@example([(i / 2, 1 / (i + 1)) for i in range(_PIECE // 2 - 1)] + [(71.5, -0.0), (-0.0, 2.0), (72.5, 0.5)])
@example([(-0.0, -0.0)] * _PIECE)
def test_norm_csv_is_format_float_per_value(pairs):
    from nsexpand.analysis import NormSeries

    times, values = (np.array([p[i] for p in pairs], dtype=float) for i in (0, 1))
    series = NormSeries(times, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "norm.csv")
        write_norm_csv(path, series)
        assert path.read_bytes() == norm_csv_by_value(series).encode()


# -- scenario documents ----------------------------------------------------------------


def test_scenario_full_parse():
    doc = ladder_scenario_doc()
    sc = scenario_from_doc(doc)
    assert sc.name == "rate-ladder"
    assert [n for n, _ in sc.force.terms] == [1]
    assert sc.initial.is_zero
    assert sc.expansion.n_max == 2
    assert sc.expansion.target_epsilon == 0.5
    assert sc.expansion.norm_specs == (NormSpec(0.5, 0.0), NormSpec(0.5, 0.1))
    assert sc.solver == SolverConfig(12, 1e-3, 12.0, 10)
    assert len(sc.certificates) == 1
    assert sc.certificates[0].lam == 1.0  # JSON key "lambda"


def test_scenario_defaults():
    doc = {
        "name": "tiny",
        "force": {"terms": []},
        "initial": [],
        "expansion": {"N_max": 1},
        "solver": {"mode_cutoff": 4, "step": 0.1, "t_end": 1.0},
    }
    sc = scenario_from_doc(doc)
    assert sc.expansion.target_epsilon == 0.5
    assert sc.expansion.norm_specs == (NormSpec(0.0, 0.0),)
    assert sc.expansion.fit_window is None
    assert sc.expansion.resonant_fit_window is None
    assert sc.solver.sample_stride == 1
    assert sc.certificates == ()


def scenario_error_path(doc):
    with pytest.raises(ScenarioError) as err:
        scenario_from_doc(doc)
    return err.value.path


def test_scenario_error_paths():
    base = ladder_scenario_doc()

    bad = json.loads(json.dumps(base))
    bad["name"] = "white space"
    assert scenario_error_path(bad) == "name"

    bad = json.loads(json.dumps(base))
    del bad["force"]["terms"][0]["n"]
    assert scenario_error_path(bad) == "force.terms[0].n"

    bad = json.loads(json.dumps(base))
    bad["force"]["terms"] = {"1": {}}
    assert scenario_error_path(bad) == "force.terms"

    bad = json.loads(json.dumps(base))
    bad["initial"] = [{"k": [1, 1, 0], "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}]
    assert scenario_error_path(bad) == "initial"

    bad = json.loads(json.dumps(base))
    bad["expansion"]["resonant"] = {"two": []}
    assert scenario_error_path(bad) == "expansion.resonant.two"

    bad = json.loads(json.dumps(base))
    # level-1 constant supported on |k|^2 = 2: wrong eigenspace
    bad["expansion"]["resonant"] = {
        "1": [{"k": [1, 1, 0], "re": [1.0, -1.0, 0.0], "im": [0.0, 0.0, 0.0]}]
    }
    assert scenario_error_path(bad) == "expansion.resonant"

    bad = json.loads(json.dumps(base))
    bad["expansion"]["fit_window"] = [5.0, 2.0]
    assert scenario_error_path(bad) == "expansion.fit_window"

    bad = json.loads(json.dumps(base))
    bad["expansion"]["norm_specs"] = [[0.5]]
    assert scenario_error_path(bad) == "expansion.norm_specs[0]"

    bad = json.loads(json.dumps(base))
    bad["expansion"]["norm_specs"] = [[0.5, -1.0]]
    assert scenario_error_path(bad) == "expansion.norm_specs[0]"

    bad = json.loads(json.dumps(base))
    bad["expansion"]["target_epsilon"] = 1.5
    assert scenario_error_path(bad) == "expansion"

    bad = json.loads(json.dumps(base))
    del bad["expansion"]["N_max"]
    assert scenario_error_path(bad) == "expansion.N_max"

    bad = json.loads(json.dumps(base))
    bad["solver"]["step"] = 0.6
    assert scenario_error_path(bad) == "solver"

    bad = json.loads(json.dumps(base))
    bad["solver"]["t_end"] = 4e-4  # under one step of 1e-3
    assert scenario_error_path(bad) == "solver"

    bad = json.loads(json.dumps(base))
    del bad["certificates"][0]["alpha"]
    assert scenario_error_path(bad) == "certificates[0].alpha"

    bad = json.loads(json.dumps(base))
    bad["certificates"][0]["lambda"] = 0.2
    assert scenario_error_path(bad) == "certificates[0]"

    bad = json.loads(json.dumps(base))
    bad["certificates"][0]["alpha"] = True
    assert scenario_error_path(bad) == "certificates[0].alpha"

    bad = json.loads(json.dumps(base))
    bad["output_dir"] = "runs"  # not a key: --out is the only output root
    assert scenario_error_path(bad) == "output_dir"

    # numbers: finite everywhere, integral where an integer is meant
    lit = ("force", "terms", 0, "poly", "degree_coeffs", 0, 0)
    lit_path = "force.terms[0].poly.degree_coeffs[0][0]"
    for where, value, path in [
        (("expansion", "N_max"), 2.7, "expansion.N_max"),
        (("expansion", "N_max"), math.nan, "expansion.N_max"),
        (("expansion", "N_max"), 1025, "expansion.N_max"),   # past MAX_CUTOFF
        (("expansion", "N_max"), 0, "expansion.N_max"),
        (("solver", "mode_cutoff"), 6.9, "solver.mode_cutoff"),
        (("solver", "mode_cutoff"), math.inf, "solver.mode_cutoff"),
        (("solver", "mode_cutoff"), 10**6, "solver.mode_cutoff"),   # past MAX_CUTOFF
        (("solver", "t_end"), math.inf, "solver.t_end"),
        (("solver", "step"), -math.inf, "solver.step"),
        (("force", "terms", 0, "n"), 1.5, "force.terms[0].n"),
        (lit + ("k", 0), 1.5, f"{lit_path}.k"),
        (lit + ("k", 2), math.inf, f"{lit_path}.k"),
        (lit + ("re", 1), math.nan, f"{lit_path}.re"),
        # an integral float too large for the wavevector store: the field literal is blamed
        (lit + ("k", 0), 1e300, "force.terms[0].poly.degree_coeffs[0]"),
        (("initial",), [{"k": [1e300, 0, 0], "re": [0.0, 1.0, 0.0], "im": [0.0] * 3}], "initial"),
    ]:
        bad = json.loads(json.dumps(base))
        leaf = bad
        for key in where[:-1]:
            leaf = leaf[key]
        leaf[where[-1]] = value
        assert scenario_error_path(bad) == path, (where, value)

    good = json.loads(json.dumps(base))
    good["solver"]["mode_cutoff"] = 12.0
    good["expansion"]["N_max"] = 2.0
    sc = scenario_from_doc(good)
    assert (sc.solver.mode_cutoff, sc.expansion.n_max) == (12, 2)


@pytest.mark.parametrize(
    "where, key, path",
    [
        ((), "nmae", "nmae"),
        (("force",), "term", "force.term"),
        (("force", "terms", 0), "m", "force.terms[0].m"),
        (("expansion",), "fit_windw", "expansion.fit_windw"),  # would leave fit_window None
        (("solver",), "stride", "solver.stride"),
        (("certificates", 0), "k", "certificates[0].k"),  # would leave K = 2.0
    ],
)
def test_scenario_rejects_unknown_keys(where, key, path):
    doc = ladder_scenario_doc()
    obj = doc
    for step in where:
        obj = obj[step]
    obj[key] = 3.0
    with pytest.raises(ScenarioError, match="unknown key; expected one of") as err:
        scenario_from_doc(doc)
    assert err.value.path == path


@pytest.mark.parametrize("specs", [[[0.5, 0.1], [0.5, 0.1000001]], [[0.5, 0], [1, 0], [0.5, 0.0]]])
def test_scenario_rejects_norm_specs_sharing_a_file_tag(specs):
    # "%g" prints both sigmas as 0.1: the two series would share one file name
    doc = ladder_scenario_doc()
    doc["expansion"]["norm_specs"] = specs
    with pytest.raises(ScenarioError, match="repeats an earlier spec") as err:
        scenario_from_doc(doc)
    assert err.value.path == f"expansion.norm_specs[{len(specs) - 1}]"


def _leaf_paths(doc, prefix=()):
    """Key paths of every scalar and every empty container in a JSON document."""
    if isinstance(doc, (dict, list)) and doc:
        keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
        return [path for key in keys for path in _leaf_paths(doc[key], prefix + (key,))]
    return [prefix]


_FUZZ_DOC = ladder_scenario_doc(resonant={2: ladder_phi()})
_FUZZ_DOC["expansion"].update(fit_window=[6.0, 11.0], resonant_fit_window=[8.0, 11.0])
# JSON text can carry NaN and +-Infinity; floats() draws them too, but rarely
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400)
@given(st.sampled_from(_leaf_paths(_FUZZ_DOC)), _json_values)
def test_scenario_parser_fuzz_raises_only_scenario_errors(path, value):
    scenario_from_doc(_FUZZ_DOC)  # the document before the change is valid
    doc = copy.deepcopy(_FUZZ_DOC)
    leaf = doc
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = value
    try:
        scenario_from_doc(doc)
    except ScenarioError:
        pass


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    for text in (b"{ not json", b"\xff\xfe{}", b"[" + b"1" * 5000 + b"]"):
        bad.write_bytes(text)
        with pytest.raises(ScenarioError, match="invalid JSON") as err:
            load_scenario(bad)
        assert err.value.path == str(bad)


def test_load_scenario_round_trip(tmp_path):
    from nsexpand.serialize import write_json

    path = tmp_path / "ladder.json"
    write_json(path, ladder_scenario_doc())
    sc = load_scenario(path)
    assert sc.name == "rate-ladder"
    assert sc.solver.t_end == 12.0
