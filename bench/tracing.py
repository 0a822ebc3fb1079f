"""Per-layer tracing from outside the program: wrap nsexpand's public functions in place.

`install` replaces every public function of the traced modules with a timing
wrapper, at every module attribute that is bound to it: `cli` imports
`integrate`, `remainder_series` and others by name, `analysis` binds
`assemble`, `norm` and `evaluate_force`, `fieldpoly` binds `bilinear`, so
patching only the defining module would miss those calls. A few methods that
carry the hot paths are wrapped on their class. Nothing under `src/` changes;
the wrappers live for the rest of the process, which only ever runs one
traced operation (the output checks after it never call into nsexpand).

Each wrapper records calls, total time and self time (total minus the time
spent in wrapped callees).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import resource
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("galerkin", "spectral", "fieldpoly", "expansion", "analysis", "serialize",
          "scenario", "cli")

# (module, class, method) -> stats key. Several methods may share one key.
METHODS = {
    ("galerkin", "ModeTable", "__init__"): "galerkin.table_build",
    ("galerkin", "ModeTable", "convolve"): "galerkin.convolve",
    ("galerkin", "ModeTable", "to_field"): "galerkin.to_field",
    ("spectral", "SpectralField", "__add__"): "spectral.field_arith",
    ("spectral", "SpectralField", "__sub__"): "spectral.field_arith",
    ("spectral", "SpectralField", "__mul__"): "spectral.field_arith",
    ("spectral", "SpectralField", "__rmul__"): "spectral.field_arith",
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.cutoffs: set[int] = set()
        self._children: list[float] = []   # time in wrapped callees, one slot per open call

    def wrap(self, key: str, fn, hook=None, faults: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._children
            stack.append(0.0)
            if faults:
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if faults:
                    tracer.counts[key + "_minflt"] += (
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
                    )
                child = stack.pop()
                tracer.calls[key] += 1
                tracer.total[key] += dt
                tracer.self_time[key] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper


# -- counters read from call arguments and results --------------------------------------


def _count_pairs(tracer, args, result):
    u, v = args[0], args[1]
    tracer.counts["spectral.bilinear_pairs"] += (2 * u.n_modes) * (2 * v.n_modes)


def _count_read(tracer, args, result):
    tracer.counts["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_written(tracer, args, result):
    tracer.counts["serialize.bytes_written"] += os.path.getsize(args[0])


def _reuse(tracer, args, result):
    tracer.counts["cli.recomputed_artifacts" if result[1] else "cli.reused_artifacts"] += 1


def _reuse_if_loaded(tracer, args, result):
    if result is not None:
        tracer.counts["cli.reused_artifacts"] += 1


def _recomputed(tracer, args, result):
    tracer.counts["cli.recomputed_artifacts"] += 1


def _table_cutoff(tracer, args, result):
    tracer.cutoffs.add(int(args[1]))


HOOKS = {
    "spectral.bilinear": _count_pairs,
    "serialize.read_trajectory": _count_read,    # the manifest is counted by load_json
    "serialize.load_json": _count_read,
    "serialize.write_json": _count_written,
    "serialize.write_norm_csv": _count_written,
    "serialize.write_fit_tsv": _count_written,
    "serialize.write_trajectory": _count_written,  # the manifest is counted by write_json
    "cli.ensure_trajectory": _reuse,
    "cli.load_expansion_terms": _reuse_if_loaded,
    "cli.build_terms_with_fitting": _recomputed,
    "cli.run_simulate": _recomputed,
    "cli.run_expand": _recomputed,
    "galerkin.table_build": _table_cutoff,
}


def install(tracer: Tracer) -> None:
    """Wrap the traced layers' public functions and the methods in METHODS."""
    mods = {name: importlib.import_module(f"nsexpand.{name}") for name in LAYERS}
    package = [m for n, m in sys.modules.items() if n == "nsexpand" or n.startswith("nsexpand.")]
    for name, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            key = f"{name}.{attr}"
            wrapper = tracer.wrap(key, fn, HOOKS.get(key))
            for m in package:
                for a, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, a, wrapper)
    for (name, cls_name, meth), key in METHODS.items():
        cls = getattr(mods[name], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is None:
            continue
        setattr(cls, meth, tracer.wrap(key, fn, HOOKS.get(key), faults=key == "galerkin.convolve"))


# -- per-layer metrics of one traced operation ---------------------------------------------


def pair_table_size(cutoff: int) -> tuple[int, int]:
    """(R, P) of the interaction-table kernel at a cutoff, counted from the lattice.

    R is the number of representative wavevectors with |k|^2 <= cutoff; P the
    number of ordered pairs of full modes (both pair halves) whose sum is one
    of them. Both follow from the cutoff alone, not from the program's tables.
    """
    r = math.isqrt(cutoff)
    g = np.arange(-r, r + 1)
    k = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)

    def is_rep(v):
        a, b, c = v[..., 0], v[..., 1], v[..., 2]
        return ((a > 0) | ((a == 0) & ((b > 0) | ((b == 0) & (c > 0))))) & (
            (v * v).sum(axis=-1) <= cutoff
        )

    reps = k[is_rep(k)]
    full = np.concatenate([reps, -reps])
    sums = full[:, None, :] + full[None, :, :]
    return len(reps), int(is_rep(sums).sum())


# Computed cost of one `ModeTable.convolve` call on R representatives and P pairs:
# per pair two index reads (16 B), two gathered complex 3-vectors (96 B), one
# wavevector row (24 B), the dot product (16 B) and the contribution (48 B);
# per representative six complex 3-vector passes (288 B). Flops per pair: the
# complex-real dot product (10), the scaled contribution (18) and its reduction
# (6); per representative the Leray projection (24).
def convolve_cost(r: int, p: int) -> tuple[int, int]:
    return 200 * p + 288 * r, 34 * p + 24 * r


def op_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced operation (counts exact, times in seconds)."""
    calls, total, own, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    r, p = pair_table_size(max(tracer.cutoffs)) if tracer.cutoffs else (0, 0)
    nbytes, flops = convolve_cost(r, p) if p else (0, 0)
    out = {
        "galerkin.convolve_calls": calls["galerkin.convolve"],
        "galerkin.convolve_s": total["galerkin.convolve"],
        "galerkin.convolve_minflt": counts["galerkin.convolve_minflt"],
        "galerkin.table_build_s": total["galerkin.table_build"],
        "galerkin.integrate_self_s": own["galerkin.integrate"],
        "galerkin.to_field_calls": calls["galerkin.to_field"],
        "galerkin.to_field_s": total["galerkin.to_field"],
        "galerkin.evaluate_force_calls": calls["galerkin.evaluate_force"],
        "galerkin.evaluate_force_s": total["galerkin.evaluate_force"],
        "galerkin.basis_size": r,
        "galerkin.table_pairs": p,
        "galerkin.convolve_bytes_computed": nbytes,
        "galerkin.convolve_flops_computed": flops,
        "spectral.bilinear_calls": calls["spectral.bilinear"],
        "spectral.bilinear_s": total["spectral.bilinear"],
        "spectral.bilinear_pairs": counts["spectral.bilinear_pairs"],
        "spectral.norm_calls": calls["spectral.norm"],
        "spectral.norm_s": total["spectral.norm"],
        "spectral.field_arith_calls": calls["spectral.field_arith"],
        "spectral.field_arith_s": total["spectral.field_arith"],
        "spectral.eigenspace_project_calls": calls["spectral.eigenspace_project"],
        "spectral.eigenspace_project_s": total["spectral.eigenspace_project"],
        "fieldpoly.assemble_calls": calls["fieldpoly.assemble"],
        "fieldpoly.assemble_s": total["fieldpoly.assemble"],
        "fieldpoly.poly_bilinear_s": total["fieldpoly.poly_bilinear"],
        "fieldpoly.resolvent_solve_s": total["fieldpoly.resolvent_solve"],
        "expansion.level_source_s": total["expansion.level_source"],
        "expansion.solve_level_s": total["expansion.solve_level"],
        "expansion.residual_s": total["expansion.expansion_residual"],
        "analysis.remainder_series_s": total["analysis.remainder_series"],
        "analysis.certificate_check_s": total["analysis.certificate_check"],
        "analysis.fit_rate_s": total["analysis.fit_rate"],
        "analysis.fit_resonant_constant_s": total["analysis.fit_resonant_constant"],
        "analysis.norm_series_s": total["analysis.norm_series"],
        "serialize.read_trajectory_calls": calls["serialize.read_trajectory"],
        "serialize.read_trajectory_s": total["serialize.read_trajectory"],
        "serialize.bytes_read": counts["serialize.bytes_read"],
        "serialize.write_trajectory_s": total["serialize.write_trajectory"],
        "serialize.write_series_s": total["serialize.write_norm_csv"]
        + total["serialize.write_fit_tsv"],
        "serialize.write_json_s": total["serialize.write_json"],
        "serialize.bytes_written": counts["serialize.bytes_written"],
        "scenario.load_s": total["scenario.load_scenario"],
        "cli.run_verify_s": own["cli.run_verify"],
        "cli.run_certify_s": own["cli.run_certify"],
        "cli.run_simulate_s": own["cli.run_simulate"],
        "cli.run_expand_s": own["cli.run_expand"],
        "cli.reused_artifacts": counts["cli.reused_artifacts"],
        "cli.recomputed_artifacts": counts["cli.recomputed_artifacts"],
    }
    return out


# Stats keys each workload must call at least once, and those it must never call.
PREDICTED_NONZERO = {
    "ladder-cold": (
        "galerkin.convolve", "galerkin.to_field", "galerkin.integrate", "galerkin.table_build",
        "galerkin.evaluate_force", "spectral.norm", "fieldpoly.assemble",
        "analysis.remainder_series", "analysis.certificate_check", "analysis.fit_rate",
        "analysis.fit_resonant_constant", "serialize.write_trajectory", "serialize.write_json",
        "scenario.load_scenario", "cli.run_verify", "cli.run_certify",
    ),
    "ladder-warm": (
        "serialize.read_trajectory", "galerkin.evaluate_force", "spectral.norm",
        "spectral.field_arith", "fieldpoly.assemble", "analysis.remainder_series",
        "analysis.certificate_check", "analysis.fit_rate", "cli.run_verify", "cli.run_certify",
    ),
    "simulate-m24": (
        "galerkin.convolve", "galerkin.to_field", "galerkin.integrate", "galerkin.table_build",
        "analysis.norm_series", "serialize.write_trajectory", "serialize.write_norm_csv",
        "cli.run_simulate",
    ),
    "expand-deep": (
        "spectral.bilinear", "spectral.eigenspace_project", "spectral.field_arith",
        "fieldpoly.poly_bilinear", "fieldpoly.resolvent_solve", "expansion.level_source",
        "expansion.solve_level", "expansion.expansion_residual", "serialize.write_json",
        "cli.run_expand",
    ),
}
PREDICTED_ZERO = {
    "ladder-warm": ("galerkin.convolve", "galerkin.integrate"),
    "expand-deep": ("galerkin.convolve", "galerkin.integrate"),
}


def prediction_failures(workload: str, tracer: Tracer) -> list[str]:
    bad = [
        f"{key} was predicted to run on {workload} but recorded 0 calls"
        for key in PREDICTED_NONZERO[workload]
        if tracer.calls[key] == 0
    ]
    bad += [
        f"{key} was predicted not to run on {workload} but recorded {tracer.calls[key]} calls"
        for key in PREDICTED_ZERO.get(workload, ())
        if tracer.calls[key] != 0
    ]
    return bad
