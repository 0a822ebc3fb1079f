"""Literal formats and deterministic file writers.

Field literal: list of mode entries {"k": [k1,k2,k3], "re": [...], "im": [...]},
one entry per conjugate pair, keyed by the stored representative.
Polynomial literal: {"degree_coeffs": [field-literal, ...]} by power of t.

Every float is printed with 17 significant digits so files round-trip to the
exact same doubles; writers emit keys and rows in fixed orders and carry no
wall-clock content, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .fieldpoly import FieldPolynomial
from .galerkin import SolverConfig, Trajectory
from .spectral import SpectralField

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


def _need(entry: dict, key: str, path: str):
    if key not in entry:
        raise ScenarioError(f"{path}.{key}", "missing required key")
    return entry[key]


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
    if not isinstance(lit, list):
        raise ScenarioError(path, "expected a list of mode entries")
    coeffs = {}
    for i, entry in enumerate(lit):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(epath, "expected an object with keys k, re, im")
        k = tuple(_triple(_need(entry, "k", epath), f"{epath}.k", int))
        re = _triple(_need(entry, "re", epath), f"{epath}.re", float)
        im = _triple(_need(entry, "im", epath), f"{epath}.im", float)
        if k in coeffs:
            raise ScenarioError(f"{epath}.k", f"duplicate wavevector {list(k)}")
        coeffs[k] = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    try:
        return SpectralField(coeffs)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def poly_to_literal(poly: FieldPolynomial) -> dict:
    return {"degree_coeffs": [field_to_literal(c) for c in poly.coeffs()]}


def poly_from_literal(lit, path: str = "poly") -> FieldPolynomial:
    if not isinstance(lit, dict) or "degree_coeffs" not in lit:
        raise ScenarioError(path, 'expected an object with key "degree_coeffs"')
    coeffs = lit["degree_coeffs"]
    if not isinstance(coeffs, list):
        raise ScenarioError(f"{path}.degree_coeffs", "expected a list of field literals")
    return FieldPolynomial(
        [
            field_from_literal(c, f"{path}.degree_coeffs[{j}]")
            for j, c in enumerate(coeffs)
        ]
    )


# -- trajectory CSV + sidecar manifest ----------------------------------------


def write_trajectory(csv_path, manifest_path, traj: Trajectory):
    """CSV columns: t, then re/im per stored mode component; sidecar maps them back."""
    support = sorted(set().union(*(s.support() for s in traj.states)) or set())
    columns = ["t"]
    for i in range(len(support)):
        for c in range(3):
            columns.append(f"re(k{i + 1} u{c + 1})")
            columns.append(f"im(k{i + 1} u{c + 1})")
    with open(csv_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for t, state in zip(traj.times, traj.states):
            row = [format_float(t)]
            for k in support:
                coef = state.coeff(k)
                for c in range(3):
                    row.append(format_float(coef[c].real))
                    row.append(format_float(coef[c].imag))
            fh.write(",".join(row) + "\n")
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
    """Trajectory from its CSV and manifest; a malformed file is a ScenarioError naming it."""
    manifest = load_json(manifest_path)
    mpath = str(manifest_path)
    try:
        modes = [tuple(int(x) for x in k) for k in _need(manifest, "modes", mpath)]
        sv = _need(manifest, "solver", mpath)
        config = SolverConfig(
            mode_cutoff=int(_need(sv, "mode_cutoff", f"{mpath}.solver")),
            step=float(_need(sv, "step", f"{mpath}.solver")),
            t_end=float(_need(sv, "t_end", f"{mpath}.solver")),
            sample_stride=int(_need(sv, "sample_stride", f"{mpath}.solver")),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(mpath, f"malformed manifest: {exc}") from None
    times = []
    states = []
    with open(csv_path) as fh:
        header = fh.readline()
        expected = 1 + 6 * len(modes)
        if len(header.split(",")) != expected:
            raise ScenarioError(csv_path, "column count does not match manifest")
        for lineno, line in enumerate(fh, start=2):
            try:
                vals = [float(x) for x in line.split(",")]
                if len(vals) != expected:
                    raise ValueError(f"expected {expected} values, got {len(vals)}")
                coeffs = {}
                for i, k in enumerate(modes):
                    base = 1 + 6 * i
                    coeffs[k] = np.array(
                        [
                            vals[base] + 1j * vals[base + 1],
                            vals[base + 2] + 1j * vals[base + 3],
                            vals[base + 4] + 1j * vals[base + 5],
                        ]
                    )
                states.append(SpectralField(coeffs))
            except ValueError as exc:
                raise ScenarioError(f"{csv_path}:{lineno}", str(exc)) from None
            times.append(vals[0])
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
    if not isinstance(doc, dict) or "level" not in doc or "poly" not in doc:
        raise ScenarioError(path, 'expected an object with keys "level" and "poly"')
    n = doc["level"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ScenarioError(f"{path}.level", f"expected a positive integer, got {n!r}")
    return n, poly_from_literal(doc["poly"], f"{path}.poly")
