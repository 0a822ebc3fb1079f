"""Scenario files: one JSON document that pins down a full experiment.

Schema (all field/polynomial values use the literal formats in `serialize`):

    {
      "name": "rate-ladder",
      "force": {"terms": [{"n": 1, "poly": <polynomial-literal>}, ...]},
      "initial": <field-literal>,
      "expansion": {
        "N_max": 2,
        "resonant": {"1": <field-literal>, ...},        # optional
        "target_epsilon": 0.5,                           # optional
        "norm_specs": [[alpha, sigma], ...],             # optional
        "fit_window": [a, b],                            # optional
        "resonant_fit_window": [a, b]                    # optional
      },
      "solver": {"mode_cutoff": 12, "step": 1e-3, "t_end": 12.0, "sample_stride": 10},
      "certificates": [{"alpha": 0.5, "delta": 0.5, "lambda": 1.0,
                        "sigma": 0.0, "K": 2.0}, ...]    # optional
    }

This module is the schema only: the checked readers in `serialize` turn each
value into its type, and every violation, a key outside the schema included,
is a `ScenarioError` naming the path of the offending field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .analysis import DecayCertificate
from .expansion import ForceExpansion, check_resonant_data
from .galerkin import SolverConfig, StepCountError, _CutoffError
from .serialize import (
    ScenarioError,
    _at,
    _list,
    _need,
    _number,
    _object,
    field_from_literal,
    load_json,
    poly_from_literal,
)
from .spectral import MAX_CUTOFF, NormSpec, SpectralField

__all__ = ["ExpansionRequest", "Scenario", "load_scenario", "scenario_from_doc"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_TOP_KEYS = ("name", "force", "initial", "expansion", "solver", "certificates")
_SOLVER_KEYS = ("mode_cutoff", "step", "t_end", "sample_stride")
_EXPANSION_KEYS = (
    "N_max", "resonant", "target_epsilon", "norm_specs", "fit_window", "resonant_fit_window"
)


@dataclass(frozen=True)
class ExpansionRequest:
    n_max: int
    resonant: dict = dc_field(default_factory=dict)
    target_epsilon: float = 0.5
    norm_specs: tuple[NormSpec, ...] = (NormSpec(0.0, 0.0),)
    fit_window: tuple[float, float] | None = None
    resonant_fit_window: tuple[float, float] | None = None

    def __post_init__(self):
        if not 1 <= self.n_max <= MAX_CUTOFF or self.n_max != int(self.n_max):
            raise _CutoffError(f"N_max must be an integer in [1, {MAX_CUTOFF}], got {self.n_max}")
        if not (0 < self.target_epsilon < 1):
            raise ValueError(
                f"target_epsilon must lie in (0, 1), got {self.target_epsilon}"
            )
        if not self.norm_specs:
            raise ValueError("at least one norm spec is required")


@dataclass(frozen=True)
class Scenario:
    name: str
    force: ForceExpansion
    initial: SpectralField
    expansion: ExpansionRequest
    solver: SolverConfig
    certificates: tuple[DecayCertificate, ...] = ()


def _norm_tag(spec) -> str:
    """The part of a norm's series file names that tells its spec apart."""
    return f"alpha{spec.alpha:g}_sigma{spec.sigma:g}"


def _keys(value, path: str, allowed: tuple[str, ...]) -> dict:
    """`value` as an object whose keys all lie in `allowed`."""
    for key in _object(value, path):
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ScenarioError(where, f"unknown key; expected one of {', '.join(allowed)}")
    return value


def _pair(value, path, what):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(path, f"expected {what}")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


def _window(doc, key, path):
    value = _need(doc, key, path, None)
    if value is None:
        return None
    a, b = _pair(value, f"{path}.{key}", "[start, end]")
    if not (a < b):
        raise ScenarioError(f"{path}.{key}", f"window start must precede end, got [{a}, {b}]")
    return (a, b)


def _parse_force(doc, path) -> ForceExpansion:
    terms = _list(_need(_keys(doc, path, ("terms",)), "terms", path), f"{path}.terms")
    pairs = []
    for i, entry in enumerate(terms):
        epath = f"{path}.terms[{i}]"
        entry = _keys(entry, epath, ("n", "poly"))
        n = _number(_need(entry, "n", epath), f"{epath}.n", int)
        pairs.append((n, poly_from_literal(_need(entry, "poly", epath), f"{epath}.poly")))
    with _at(f"{path}.terms"):
        return ForceExpansion(tuple(pairs))


def _parse_expansion(doc, path) -> ExpansionRequest:
    doc = _keys(doc, path, _EXPANSION_KEYS)
    n_max = _number(_need(doc, "N_max", path), f"{path}.N_max", int)
    resonant = {}
    for key, lit in _object(_need(doc, "resonant", path, {}), f"{path}.resonant").items():
        with _at(f"{path}.resonant.{key}"):  # keys are integer level indices
            resonant[int(key)] = field_from_literal(lit, f"{path}.resonant.{key}")
    with _at(f"{path}.resonant"):
        check_resonant_data(resonant)
    eps = _number(_need(doc, "target_epsilon", path, 0.5), f"{path}.target_epsilon")
    specs_doc = _need(doc, "norm_specs", path, [[0.0, 0.0]])
    if not isinstance(specs_doc, list) or not specs_doc:
        raise ScenarioError(f"{path}.norm_specs", "expected a non-empty list")
    specs = []
    for i, pair in enumerate(specs_doc):
        spath = f"{path}.norm_specs[{i}]"
        with _at(spath):
            specs.append(NormSpec(*_pair(pair, spath, "[alpha, sigma]")))
        if _norm_tag(specs[-1]) in map(_norm_tag, specs[:-1]):  # one series file per spec
            raise ScenarioError(spath, f"file tag {_norm_tag(specs[-1])} repeats an earlier spec")
    with _at(path), _at(f"{path}.N_max", _CutoffError):
        return ExpansionRequest(
            n_max,
            resonant,
            eps,
            tuple(specs),
            _window(doc, "fit_window", path),
            _window(doc, "resonant_fit_window", path),
        )


def _parse_solver(doc, path) -> SolverConfig:
    doc = _keys(doc, path, _SOLVER_KEYS)
    with _at(path), _at(f"{path}.t_end", StepCountError), _at(f"{path}.mode_cutoff", _CutoffError):
        return SolverConfig(
            mode_cutoff=_number(_need(doc, "mode_cutoff", path), f"{path}.mode_cutoff", int),
            step=_number(_need(doc, "step", path), f"{path}.step"),
            t_end=_number(_need(doc, "t_end", path), f"{path}.t_end"),
            sample_stride=_number(_need(doc, "sample_stride", path, 1), f"{path}.sample_stride", int),
        )


def _parse_certificates(doc, path) -> tuple[DecayCertificate, ...]:
    if doc is None:
        return ()
    certs = []
    for i, entry in enumerate(_list(doc, path)):
        epath = f"{path}[{i}]"
        entry = _keys(entry, epath, ("alpha", "delta", "lambda", "sigma", "K"))
        with _at(epath):
            certs.append(
                DecayCertificate(
                    alpha=_number(_need(entry, "alpha", epath), f"{epath}.alpha"),
                    delta=_number(_need(entry, "delta", epath), f"{epath}.delta"),
                    lam=_number(_need(entry, "lambda", epath), f"{epath}.lambda"),
                    sigma=_number(_need(entry, "sigma", epath, 0.0), f"{epath}.sigma"),
                    K=_number(_need(entry, "K", epath, 2.0), f"{epath}.K"),
                )
            )
    return tuple(certs)


def scenario_from_doc(doc) -> Scenario:
    doc = _keys(_object(doc, "scenario"), "", _TOP_KEYS)
    name = _need(doc, "name", "")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ScenarioError(
            "name", "must be a nonempty string of letters, digits, dot, dash, underscore"
        )
    force = _parse_force(_need(doc, "force", ""), "force")
    initial = field_from_literal(_need(doc, "initial", ""), "initial")
    with _at("initial"):
        initial.require_divergence_free()
    expansion = _parse_expansion(_need(doc, "expansion", ""), "expansion")
    solver = _parse_solver(_need(doc, "solver", ""), "solver")
    certificates = _parse_certificates(_need(doc, "certificates", "", None), "certificates")
    return Scenario(name, force, initial, expansion, solver, certificates)


def load_scenario(path) -> Scenario:
    return scenario_from_doc(load_json(path))
