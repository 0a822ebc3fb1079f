"""Literal formats, the checked readers of input documents, and deterministic writers.

Field literal: list of mode entries {"k": [k1,k2,k3], "re": [...], "im": [...]},
one entry per conjugate pair, keyed by the stored representative.
Polynomial literal: {"degree_coeffs": [field-literal, ...]} by power of t.

Every reader here turns a JSON document (a scenario, a trajectory manifest, a
level document) into typed values or raises a `ScenarioError` whose `path`
names the offending key; `scenario` holds only the scenario schema on top.

Every float is printed with 17 significant digits so files round-trip to the
exact same doubles; writers emit keys and rows in fixed orders and carry no
wall-clock content, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .fieldpoly import FieldPolynomial
from .galerkin import SolverConfig, Trajectory
from .spectral import SpectralField, _wavevectors, is_representative

__all__ = [
    "ScenarioError",
    "format_float",
    "dumps_json",
    "write_json",
    "load_json",
    "field_to_literal",
    "field_from_literal",
    "poly_to_literal",
    "poly_from_literal",
    "solver_from_doc",
    "write_trajectory",
    "read_trajectory",
    "write_norm_csv",
    "write_fit_tsv",
    "level_to_doc",
    "level_from_doc",
]


class ScenarioError(ValueError):
    """Input document violates the schema; `path` locates the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def format_float(x: float) -> str:
    return format(float(x), ".17g")


# -- JSON with controlled float formatting ------------------------------------


def dumps_json(obj, indent: int = 2) -> str:
    out: list[str] = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], indent: int, level: int):
    pad = " " * (indent * (level + 1))
    closepad = " " * (indent * level)
    if isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format_float(x) if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(k))}: ")
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closepad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(str(path), "file not found") from None
    except ValueError as exc:  # bad syntax, bad UTF-8, an integer too long to read
        raise ScenarioError(str(path), f"invalid JSON: {exc}") from None


# -- field / polynomial literals ----------------------------------------------


def field_to_literal(field: SpectralField) -> list[dict]:
    return [
        {
            "k": list(k),
            "re": [c[0].real, c[1].real, c[2].real],
            "im": [c[0].imag, c[1].imag, c[2].imag],
        }
        for k, c in field.modes()
    ]


@contextmanager
def _at(path: str):
    """Report a constructor's own ValueError as a ScenarioError at `path`."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, "expected an object")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(path, "expected a list")
    return value


_REQUIRED = object()


def _need(doc: dict, key: str, path: str, default=_REQUIRED):
    """doc[key]; a missing key is an error at `path.key` unless a default is given."""
    if key in doc:
        return doc[key]
    if default is _REQUIRED:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required key")
    return default


def _number(value, path: str, kind=float):
    """A finite JSON number as `kind`; an int field also takes integral floats such as 12.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity or beyond any double
        raise ScenarioError(path, f"expected a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    return kind(value)


def _triple(value, path: str, kind):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(path, "expected a list of 3 values")
    return [_number(v, path, kind) for v in value]


def field_from_literal(lit, path: str = "field") -> SpectralField:
    coeffs = {}
    for i, entry in enumerate(_list(lit, path)):
        epath = f"{path}[{i}]"
        entry = _object(entry, epath)
        k = tuple(_triple(_need(entry, "k", epath), f"{epath}.k", int))
        re = _triple(_need(entry, "re", epath), f"{epath}.re", float)
        im = _triple(_need(entry, "im", epath), f"{epath}.im", float)
        if k in coeffs:
            raise ScenarioError(f"{epath}.k", f"duplicate wavevector {list(k)}")
        coeffs[k] = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    with _at(path):
        return SpectralField(coeffs)


def poly_to_literal(poly: FieldPolynomial) -> dict:
    return {"degree_coeffs": [field_to_literal(c) for c in poly.coeffs()]}


def poly_from_literal(lit, path: str = "poly") -> FieldPolynomial:
    coeffs = _list(_need(_object(lit, path), "degree_coeffs", path), f"{path}.degree_coeffs")
    return FieldPolynomial(
        [field_from_literal(c, f"{path}.degree_coeffs[{j}]") for j, c in enumerate(coeffs)]
    )


def solver_from_doc(doc, path: str) -> SolverConfig:
    """The solver block of a scenario and of a trajectory manifest."""
    doc = _object(doc, path)
    with _at(path):
        return SolverConfig(
            mode_cutoff=_number(_need(doc, "mode_cutoff", path), f"{path}.mode_cutoff", int),
            step=_number(_need(doc, "step", path), f"{path}.step"),
            t_end=_number(_need(doc, "t_end", path), f"{path}.t_end"),
            sample_stride=_number(
                _need(doc, "sample_stride", path, 1), f"{path}.sample_stride", int
            ),
        )


# -- trajectory CSV + sidecar manifest ----------------------------------------


def write_trajectory(csv_path, manifest_path, traj: Trajectory):
    """CSV columns: t, then re/im per stored mode component; sidecar maps them back."""
    support = sorted(set().union(*(s.support() for s in traj.states)) or set())
    cells = [(i + 1, c + 1) for i in range(len(support)) for c in range(3)]
    columns = ["t", *(f"{part}(k{i} u{c})" for i, c in cells for part in ("re", "im"))]
    rows = np.array(support, dtype=np.int64).reshape(-1, 3)
    with open(csv_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for t, state in zip(traj.times, traj.states):
            # (L, 3) complex viewed as floats is re, im per component, mode by mode
            values = [t, *state._rows(rows).view(float).ravel().tolist()]
            fh.write(",".join(map(format_float, values)) + "\n")
    cfg = traj.config
    write_json(
        manifest_path,
        {
            "modes": [list(k) for k in support],
            "columns": columns,
            "solver": {
                "mode_cutoff": cfg.mode_cutoff,
                "step": cfg.step,
                "t_end": cfg.t_end,
                "sample_stride": cfg.sample_stride,
            },
        },
    )


def read_trajectory(csv_path, manifest_path) -> Trajectory:
    """Trajectory from its CSV and manifest: exactly the samples `integrate` writes under the
    manifest's solver block, or a ScenarioError naming the file."""
    mpath = str(manifest_path)
    manifest = _object(load_json(manifest_path), mpath)
    modes = []
    for i, k in enumerate(_list(_need(manifest, "modes", mpath), f"{mpath}.modes")):
        k = tuple(_triple(k, f"{mpath}.modes[{i}]", int))
        with _at(f"{mpath}.modes[{i}]"):
            _wavevectors([k])
        if not is_representative(k):
            raise ScenarioError(f"{mpath}.modes[{i}]", f"{list(k)} is not a stored wavevector")
        modes.append(k)
    config = solver_from_doc(_need(manifest, "solver", mpath), f"{mpath}.solver")
    stride = config.sample_stride
    samples = round(config.t_end / config.step) // stride + 1
    times = []
    states = []
    expected = 1 + 6 * len(modes)
    with open(csv_path) as fh:
        if len(fh.readline().split(",")) != expected:
            raise ScenarioError(csv_path, "column count does not match manifest")
        for i, line in enumerate(fh):
            with _at(f"{csv_path}:{i + 2}"):
                vals = np.array(line.split(","), dtype=float)
                if len(vals) != expected:
                    raise ValueError(f"expected {expected} values, got {len(vals)}")
                if vals[0] != (t := i * stride * config.step):
                    raise ValueError(f"expected t = {format_float(t)}, got {format_float(vals[0])}")
                # t, then (re, im) per component: the tail is the (L, 3) complex block
                states.append(SpectralField(zip(modes, vals[1:].view(complex).reshape(-1, 3))))
            times.append(vals[0])
    if len(states) != samples:
        raise ScenarioError(csv_path, f"expected {samples} samples, got {len(states)}")
    return Trajectory(np.array(times), tuple(states), config)


# -- norm series outputs --------------------------------------------------------


def write_norm_csv(path, series):
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{format_float(t)},{format_float(v)}\n")


def write_fit_tsv(path, series, fit=None, verdict: str = ""):
    """Plot-ready TSV; the comment header carries the fit so gnuplot users get both."""
    with open(path, "w") as fh:
        if fit is not None:
            fh.write(
                "# slope={} intercept={} rms={} window=[{},{}] samples={} verdict={}\n".format(
                    format_float(fit.slope),
                    format_float(fit.intercept),
                    format_float(fit.rms_residual),
                    format_float(fit.window[0]),
                    format_float(fit.window[1]),
                    fit.n_samples,
                    verdict or ("floor" if fit.floor_dominated else ""),
                )
            )
        else:
            fh.write(f"# slope=nan verdict={verdict}\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{format_float(t)}\t{format_float(v)}\n")


def level_to_doc(n: int, poly: FieldPolynomial, resonant_hit: bool) -> dict:
    """Document for one expansion level q_n(t) e^{-n t}."""
    return {"level": n, "resonant_hit": bool(resonant_hit), "poly": poly_to_literal(poly)}


def level_from_doc(doc, path: str = "level-doc") -> tuple[int, FieldPolynomial]:
    """(n, q_n) from a level document; `path` names the document in errors."""
    doc = _object(doc, path)
    n = _need(doc, "level", path)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ScenarioError(f"{path}.level", f"expected a positive integer, got {n!r}")
    return n, poly_from_literal(_need(doc, "poly", path), f"{path}.poly")
