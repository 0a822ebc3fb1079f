"""Literal formats, the checked readers of input documents, and deterministic writers.

Field literal: list of mode entries {"k": [k1,k2,k3], "re": [...], "im": [...]},
one entry per conjugate pair, keyed by the stored representative.
Polynomial literal: {"degree_coeffs": [field-literal, ...]} by power of t.

Every reader here turns a JSON document (a scenario or a trajectory manifest)
into typed values or raises a `ScenarioError` whose `path` names the offending
key; `scenario` holds only the scenario schema on top.

Every float is printed with 17 significant digits so files round-trip to the
exact same doubles; writers emit keys and rows in fixed orders and carry no
wall-clock content, so identical inputs give byte-identical files. Every
float series is printed piece-wise by `_write_run`: one item template ("%.17g"
values) repeated over at most `_PIECE` (288) values per `%`, so no writer
holds more than one piece's text. That covers a JSON list of finite floats, a
norm CSV (one "%.17g,%.17g" row per item) and a `SpectralField` inside a
document (one per-mode "%d"/"%.17g" template at the current indent, per
(k, re, im) row); a trajectory CSV row is one template of its own. "%.17g"
spells -0.0 "-0", which JSON reads as the integer 0, so each piece goes
through one respelling, `_negative_zeros`, to "-0.0", after its trailing
separator is attached. The text is exactly that of one `_format_float` call
per value, so a field's text is that of its field literal, level documents
and the trajectory key's text hold fields themselves, and a value has one
text on every path. `_emit` hands its pieces to a `write` callable: `write_json`
passes the open file's, so a document's text is never held whole, and
`dumps_json` joins them. Each fact is
written once: a series file holds only its samples (its rate fit lives in the
verify report), and a level document only its level and polynomial. Level
documents and the trajectory CSV are output only: no program path reads one
back. A trajectory is read from its exact `.npy` block (never unpickled) on the
scenario's sample grid; its manifest holds only its modes and the reuse key.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .fieldpoly import FieldPolynomial
from .galerkin import SolverConfig, Trajectory
from .spectral import SpectralField, _mode_rows, _mode_union, _wavevectors, is_representative

__all__ = [
    "ScenarioError",
    "dumps_json",
    "write_json",
    "load_json",
    "field_to_literal",
    "field_from_literal",
    "poly_to_literal",
    "poly_from_literal",
    "trajectory_key",
    "write_trajectory",
    "read_trajectory",
    "write_norm_csv",
    "level_to_doc",
]


class ScenarioError(ValueError):
    """Input document violates the schema; `path` locates the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _format_float(x: float) -> str:
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text   # "-0" would read back as the integer 0


def _negative_zeros(text: str) -> str:
    """Text of "%.17g" values, each followed by "," or a newline, with -0.0's "-0" spelled
    "-0.0" as `_format_float` spells it. No other value's "%.17g" text ends in "-0"."""
    return text.replace("-0,", "-0.0,").replace("-0\n", "-0.0\n")


# -- JSON with controlled float formatting ------------------------------------


_PIECE = 288   # values per formatted piece: 32 field modes, 144 norm CSV rows


def _write_run(write, item: str, sep: str, end: str, values: list, per: int):
    """Write `sep.join([item] * n) % values + end`, n = len(values) // per items of `per`
    values each, in pieces of at most `_PIECE` values. Each piece carries its trailing
    `sep` (or `end`) before `_negative_zeros` respells it, so a piece's last "-0" is seen."""
    count, step = len(values) // per, max(1, _PIECE // per)
    full = (item + sep) * step
    for i in range(0, count, step):
        template = full if i + step < count else (item + sep) * (count - i - 1) + item + end
        write(_negative_zeros(template % tuple(values[i * per:(i + step) * per])))


def dumps_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out.append, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, write, level: int):
    pad, closepad = "  " * (level + 1), "  " * level   # two spaces per level
    if isinstance(obj, SpectralField):
        _field_text(obj, write, level)
    elif isinstance(obj, bool) or obj is None:
        write(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        write(_format_float(x) if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        write(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        write("{\n")
        for i, (k, v) in enumerate(obj.items()):
            write(f"{pad}{json.dumps(str(k))}: ")
            _emit(v, write, level + 1)
            write(",\n" if i < len(obj) - 1 else "\n")
        write(closepad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            write("[]")
            return
        write("[\n")
        # a float series: one template for all; "nan" and "inf" take the generic path (null)
        if set(map(type, seq)) <= {float, np.float64} and all(map(math.isfinite, seq)):
            _write_run(write, pad + "%.17g", ",\n", f"\n{closepad}]", seq, 1)
            return
        for i, v in enumerate(seq):
            write(pad)
            _emit(v, write, level + 1)
            write(",\n" if i < len(seq) - 1 else "\n")
        write(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _field_text(field: SpectralField, write, level: int):
    """Write the text of `_emit(field_to_literal(field))` at `level`: one mode template per
    (k, re, im) row; a coefficient is never non-finite."""
    if field.is_zero:
        write("[]")
        return
    p1, p2, p3 = ("  " * (level + i) for i in (1, 2, 3))
    triple = "[\n" + ",\n".join([p3 + "%s"] * 3) + f"\n{p2}]"
    ints, floats = triple % (("%d",) * 3), triple % (("%.17g",) * 3)
    mode = f'{p1}{{\n{p2}"k": {ints},\n{p2}"re": {floats},\n{p2}"im": {floats}\n{p1}}}'
    rows = np.concatenate((field._k, field._c.real, field._c.imag), axis=1)   # k exact as floats
    write("[\n")
    _write_run(write, mode, ",\n", f"\n{'  ' * level}]", rows.ravel().tolist(), 9)


def write_json(path, obj):
    with open(path, "w") as fh:   # the text of dumps_json, written piece by piece
        _emit(obj, fh.write, 0)
        fh.write("\n")


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
def _at(path: str, kind=ValueError):
    """Report a constructor's own `kind` of ValueError as a ScenarioError at `path`."""
    try:
        yield
    except ScenarioError:
        raise
    except kind as exc:
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
        coeffs[k] = list(map(complex, re, im))   # keeps signed zeros; re + 1j * im does not
    with _at(path):
        return SpectralField(coeffs)


def poly_to_literal(poly: FieldPolynomial) -> dict:
    return {"degree_coeffs": [field_to_literal(c) for c in poly.coeffs()]}


def _poly_doc(poly: FieldPolynomial) -> dict:
    """`poly_to_literal(poly)` with the fields themselves, which `dumps_json` prints the same."""
    return {"degree_coeffs": poly.coeffs()}


def poly_from_literal(lit, path: str = "poly") -> FieldPolynomial:
    coeffs = _list(_need(_object(lit, path), "degree_coeffs", path), f"{path}.degree_coeffs")
    return FieldPolynomial(
        [field_from_literal(c, f"{path}.degree_coeffs[{j}]") for j, c in enumerate(coeffs)]
    )


# -- trajectory: CSV + coefficient block + manifest of modes and key --------------


def trajectory_key(force, initial: SpectralField, solver: SolverConfig) -> str:
    """sha256 of what fixes a flow and its sample grid: force levels, initial data, solver block."""
    doc = {"force": [[n, _poly_doc(q)] for n, q in force.terms]}
    doc.update(initial=initial, solver=vars(solver))
    return hashlib.sha256(dumps_json(doc).encode()).hexdigest()


def write_trajectory(csv_path, manifest_path, traj: Trajectory, key: str):
    """CSV columns: t, then re/im per component of each manifest mode, named only in the header.
    The exact block goes beside the CSV as `.npy`; the manifest stores its modes and `key`.
    A row is one "%.17g" template, the text of `_format_float` per value."""
    cells = [(i + 1, c + 1) for i in range(len(traj.modes)) for c in range(3)]
    columns = ["t", *(f"{part}(k{i} u{c})" for i, c in cells for part in ("re", "im"))]
    # a (L, 3) complex sample viewed as floats is re, im per component, mode by mode
    rows = np.ascontiguousarray(traj.coeffs).view(float).reshape(len(traj), -1)
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(csv_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for t, row in zip(traj.times.tolist(), rows):   # row by row: no whole-block list
            fh.write(_negative_zeros(template % (t, *row.tolist())))
    np.save(Path(csv_path).with_suffix(".npy"), traj.coeffs, allow_pickle=False)
    write_json(manifest_path, {"modes": traj.modes.tolist(), "key": key})


def read_trajectory(block_path, manifest_path, config: SolverConfig) -> Trajectory:
    """Trajectory from its coefficient block and manifest on the sample grid of `config`, the
    solver block that the manifest's key covers, or a ScenarioError naming the file."""
    mpath, bpath = str(manifest_path), str(block_path)
    manifest = _object(load_json(manifest_path), mpath)
    modes = {}
    for i, k in enumerate(_list(_need(manifest, "modes", mpath), f"{mpath}.modes")):
        k = tuple(_triple(k, f"{mpath}.modes[{i}]", int))
        with _at(f"{mpath}.modes[{i}]"):
            _wavevectors([k])
        if not is_representative(k):
            raise ScenarioError(f"{mpath}.modes[{i}]", f"{list(k)} is not a stored wavevector")
        if k in modes:
            raise ScenarioError(f"{mpath}.modes[{i}]", f"duplicate wavevector {list(k)}")
        modes[k] = i
    try:  # the .npy format only: no pickle, no archive
        with open(block_path, "rb") as fh:
            coeffs = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ScenarioError(bpath, f"unreadable block: {exc}") from None
    listed = np.array(list(modes), np.int64).reshape(-1, 3)
    keyed = _mode_union(listed)
    with _at(bpath):   # dtype and shape: complex128, one row per sample of `config`
        traj = Trajectory(keyed, coeffs, config)   # columns in manifest order until the return
    if not (finite := np.isfinite(coeffs).all(axis=(0, 2))).all():
        raise ScenarioError(bpath, f"non-finite coefficient at {list(modes)[np.argmin(finite)]}")
    at = _mode_rows(listed, keyed)   # each manifest mode's key rank
    return traj if (np.diff(at) > 0).all() else Trajectory(keyed, coeffs[:, np.argsort(at)], config)


# -- norm series outputs --------------------------------------------------------


def write_norm_csv(path, series):
    """Header "t,value", then one "%.17g,%.17g" row per sample, the text of `_format_float`."""
    pairs = np.column_stack((series.times, series.values)).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("t,value\n")
        _write_run(fh.write, "%.17g,%.17g\n", "", "", pairs, 2)


def level_to_doc(n: int, poly: FieldPolynomial) -> dict:
    """Document for one expansion level q_n(t) e^{-n t}; its text is that of the literal."""
    return {"level": n, "poly": _poly_doc(poly)}
