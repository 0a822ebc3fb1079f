"""Field representation, mode-wise operators, norms, and the advection form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_fields_close,
    brute_force_bilinear,
    random_div_free_field,
    sum_of_three_squares,
)
from nsexpand import (
    NormSpec,
    SpectralField,
    bilinear,
    bilinear_norm_ratio,
    eigenvalue,
    eigenvalues_up_to,
    inner,
    leray_project,
    norm,
)
from nsexpand.spectral import _mode_rows, _mode_union, eigenspace_project, is_representative


def single(k, c):
    return SpectralField({k: c})


# -- wavevectors and representatives --------------------------------------------


def test_eigenvalue():
    assert eigenvalue((1, 0, 0)) == 1
    assert eigenvalue((1, -2, 3)) == 14
    assert eigenvalue((0, 2, 0)) == 4


def test_representative_is_lexicographically_positive():
    assert is_representative((1, 0, 0))
    assert is_representative((0, 1, -1))
    assert is_representative((0, 0, 1))
    assert not is_representative((0, 0, 0))
    assert not is_representative((-1, 0, 0))
    assert not is_representative((0, -1, 1))
    # exactly one of each pair is stored
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = tuple(int(x) for x in rng.integers(-3, 4, 3))
        if k == (0, 0, 0):
            continue
        mk = (-k[0], -k[1], -k[2])
        assert is_representative(k) != is_representative(mk)


# -- SpectralField construction --------------------------------------------------


def test_field_rejects_zero_mode():
    with pytest.raises(ValueError, match="k = 0"):
        SpectralField({(0, 0, 0): [1, 0, 0]})


def test_field_rejects_non_representative_key():
    with pytest.raises(ValueError, match="not the stored half"):
        SpectralField({(-1, 0, 0): [1, 0, 0]})


def test_field_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError, match="3-vector"):
        SpectralField({(1, 0, 0): [1, 0]})
    with pytest.raises(ValueError, match="non-finite"):
        SpectralField({(1, 0, 0): [math.nan, 0, 0]})


def test_field_rejects_duplicates_and_copies_its_input():
    c = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="duplicate"):
        SpectralField([((1, 0, 0), c), ((1, 0, 0), c)])
    with pytest.raises(ValueError, match="3-vector"):
        SpectralField([((1, 0, 0), c), ((0, 1, 0), [1, 0])])
    u = SpectralField([((0, 1, 0), c), ((1, 0, 0), c)])
    c[1] = 5.0
    assert u.support() == ((0, 1, 0), (1, 0, 0))
    assert np.array_equal(u._rows(np.array([(1, 0, 0)]))[0], [0, 1, 0])


def test_field_addition_matches_modewise_sum():
    rng = np.random.default_rng(7)
    u, v = (random_div_free_field(rng, 2, 10) for _ in range(2))
    w = u + v
    assert list(w.support()) == sorted(w.support())
    keys = np.array(sorted(set(u.support()) | set(v.support())))
    assert np.array_equal(w._rows(keys), u._rows(keys) + v._rows(keys))
    assert (u + (-1.0) * u).is_zero and w == v + u


def test_field_drops_exact_zeros():
    u = SpectralField({(1, 0, 0): [0, 0, 0], (0, 1, 0): [0, 0, 1]})
    assert u.support() == ((0, 1, 0),)
    assert u.n_modes == 1
    assert not u.is_zero
    assert SpectralField.zero().is_zero


def test_field_algebra_and_equality():
    u = single((1, 0, 0), [0, 1, 0])
    v = single((1, 0, 0), [0, 0, 1])
    w = u + 2.0 * v
    assert np.array_equal(w._rows(np.array([(1, 0, 0)]))[0], np.array([0, 1, 2], dtype=complex))
    assert (w - 2.0 * v) == u
    assert (u - u).is_zero
    assert ((-1.0) * u)._rows(np.array([(1, 0, 0)]))[0][1] == -1


def test_divergence_defect():
    good = single((1, 1, 0), [1, -1, 0])  # c.k = 0
    assert good.divergence_defect() == 0.0
    good.require_divergence_free()
    bad = single((1, 1, 0), [1, 0, 0])
    assert bad.divergence_defect() > 0
    with pytest.raises(ValueError, match="not divergence-free"):
        bad.require_divergence_free()
    huge = single((1, 0, 0), [1e200, 0, 0])  # a pure gradient whose norm overflows
    with pytest.raises(ValueError, match="not divergence-free"):
        huge.require_divergence_free()
    # an overflowed coefficient makes the defect NaN (0 * inf), which must not pass
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = single((0, 0, 1), [1e308, 0, 0]) * 10.0
        with pytest.raises(ValueError, match="not divergence-free"):
            overflowed.require_divergence_free()


# -- Leray projection --------------------------------------------------------------


def test_leray_annihilates_gradient_mode():
    u = single((1, 0, 0), [1, 0, 0])
    assert leray_project(u).is_zero


def test_leray_fixes_solenoidal_mode():
    u = single((0, 0, 1), [1, 0, 0])
    assert leray_project(u) == u


def test_leray_oblique_mode():
    u = single((1, 1, 0), [1, 0, 0])
    got = leray_project(u)._rows(np.array([(1, 1, 0)]))[0]
    assert np.allclose(got, [0.5, -0.5, 0.0], rtol=0, atol=1e-15)


def test_leray_idempotent_and_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeffs = {}
        for __ in range(6):
            k = tuple(int(x) for x in rng.integers(-2, 3, 3))
            if k <= (0, 0, 0):
                continue
            coeffs[k] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if not coeffs:
            continue
        w = SpectralField(coeffs)
        p = leray_project(w)
        assert (leray_project(p) - p).max_abs() <= 1e-14 * max(p.max_abs(), 1.0)
        # projection is orthogonal: <Pw, w - Pw> = 0
        ip = inner(p, w - p)
        assert abs(ip) <= 1e-12 * max(norm(w) ** 2, 1.0)
        assert p.divergence_defect() <= 1e-13 * max(p.max_abs(), 1.0)


# -- weights and norms --------------------------------------------------------------


def test_normspec_validation():
    with pytest.raises(ValueError):
        NormSpec(-0.5, 0.0)
    with pytest.raises(ValueError):
        NormSpec(0.5, -1.0)
    with pytest.raises(ValueError):
        NormSpec(math.inf, 0.0)


def test_norm_frozen_examples():
    assert norm(SpectralField.zero()) == 0.0
    c = 0.7
    u = single((1, 0, 0), [0, 0, c])
    assert math.isclose(norm(u), c * math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(
        norm(u, NormSpec(0.5, 1.0)), c * math.sqrt(2.0) * math.e, rel_tol=1e-15
    )


def test_norm_ladder_monotone_in_alpha():
    u = random_div_free_field(np.random.default_rng(7), 2, 6)
    values = [norm(u, NormSpec(m / 2.0, 0.0)) for m in range(6)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo  # every eigenvalue is >= 1


def test_inner_matches_norm():
    u = random_div_free_field(np.random.default_rng(9), 2, 6)
    assert math.isclose(inner(u, u), norm(u) ** 2, rel_tol=1e-12)
    v = random_div_free_field(np.random.default_rng(10), 2, 6)
    assert math.isclose(inner(u, v), inner(v, u), rel_tol=1e-12)


def test_gevrey_domination_inequality():
    # |A^alpha u| <= (2 alpha / (e sigma))^{2 alpha} |e^{sigma A^{1/2}} u|
    rng = np.random.default_rng(21)
    for alpha, sigma in [(0.5, 0.3), (1.0, 0.1), (2.0, 1.0)]:
        bound = (2.0 * alpha / (math.e * sigma)) ** (2.0 * alpha)
        for _ in range(30):
            u = random_div_free_field(rng, 3, 6)
            lhs = norm(u, NormSpec(alpha, 0.0))
            rhs = norm(u, NormSpec(0.0, sigma))
            assert lhs <= bound * rhs * (1.0 + 1e-10)


# -- bilinear form -------------------------------------------------------------------


def test_bilinear_shear_mode_vanishes():
    u = single((1, 0, 0), [0, 0, 0.8])
    assert bilinear(u, u).is_zero


def test_bilinear_matches_brute_force_two_modes():
    u = SpectralField({(1, 0, 0): [0, 1, 0.5j], (0, 1, 0): [1, 0, -0.25]})
    got = bilinear(u, u)
    ref = brute_force_bilinear(u, u)
    keys = set(ref) | set(got.support())
    for k in keys:
        assert np.allclose(got._rows(np.array([k]))[0], ref.get(k, np.zeros(3)), rtol=0, atol=1e-14)


def test_bilinear_matches_brute_force_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        u = random_div_free_field(rng, 2, 5)
        v = random_div_free_field(rng, 2, 5)
        got = bilinear(u, v)
        ref = brute_force_bilinear(u, v)
        scale = max(got.max_abs(), 1e-30)
        keys = set(ref) | set(got.support())
        for k in keys:
            gap = np.abs(got._rows(np.array([k]))[0] - ref.get(k, np.zeros(3))).max()
            assert gap <= 1e-12 * scale


def test_bilinear_requires_divergence_free():
    bad = single((1, 1, 0), [1, 0, 0])
    good = single((0, 0, 1), [1, 0, 0])
    with pytest.raises(ValueError, match="divergence-free"):
        bilinear(bad, good)


_supports = st.sets(
    st.tuples(*[st.integers(-3, 3)] * 3).filter(is_representative), min_size=1, max_size=10
)


@settings(max_examples=60)
@given(_supports, _supports, st.integers(0, 2**32 - 1))
def test_bilinear_orthogonality(support_u, support_v, seed):
    # Re<B(u, v), v> = 0: advection only moves energy around
    rng = np.random.default_rng(seed)
    u, v = (
        leray_project(
            SpectralField({k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in s})
        )
        for s in (support_u, support_v)
    )
    b = bilinear(u, v)
    assert abs(inner(b, v)) <= 1e-12 * norm(b) * norm(v)


def test_bilinear_is_bilinear():
    rng = np.random.default_rng(19)
    u = random_div_free_field(rng, 2, 4)
    w = random_div_free_field(rng, 2, 4)
    v = random_div_free_field(rng, 2, 4)
    lhs = bilinear(2.5 * u + (-1.25) * w, v)
    rhs = 2.5 * bilinear(u, v) + (-1.25) * bilinear(w, v)
    assert_fields_close(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_bilinear_norm_ratio_diagnostic():
    rng = np.random.default_rng(23)
    spec = NormSpec(0.5, 0.0)
    saw = []
    for _ in range(10):
        u = random_div_free_field(rng, 2, 5)
        v = random_div_free_field(rng, 2, 5)
        r = bilinear_norm_ratio(u, v, spec)
        assert math.isfinite(r) and r >= 0
        saw.append(r)
    assert max(saw) > 0
    assert math.isnan(bilinear_norm_ratio(SpectralField.zero(), u, spec))


# -- eigenspaces and the spectrum ------------------------------------------------------


def test_eigenspace_project():
    u = SpectralField({(1, 0, 0): [0, 1, 0], (1, 1, 0): [1, -1, 0]})
    r1 = eigenspace_project(u, 1)
    assert r1.support() == ((1, 0, 0),)
    assert eigenspace_project(u, 7).is_zero  # 7 is not a sum of three squares
    total = SpectralField.zero()
    for n in range(1, u.max_eigenvalue() + 1):
        total = total + eigenspace_project(u, n)
    assert total == u
    with pytest.raises(ValueError):
        eigenspace_project(u, 0)


def test_eigenspace_project_matches_filter_on_random_field():
    u = random_div_free_field(np.random.default_rng(3), 3, 12)
    for n in range(1, u.max_eigenvalue() + 2):
        expected = SpectralField({k: c for k, c in u.modes() if eigenvalue(k) == n})
        assert eigenspace_project(u, n) == expected
        assert eigenspace_project(u, n) == expected  # from the kept split


def test_eigenvalues_up_to_small():
    assert eigenvalues_up_to(1) == [1]
    assert eigenvalues_up_to(3) == [1, 2, 3]
    assert eigenvalues_up_to(10) == [1, 2, 3, 4, 5, 6, 8, 9, 10]
    assert eigenvalues_up_to(0) == []


def test_eigenvalues_up_to_matches_three_square_oracle():
    for nmax in (100, 1024):   # 1024: the whole mode-table cap
        expect = [n for n in range(1, nmax + 1) if sum_of_three_squares(n)]
        assert eigenvalues_up_to(nmax) == expect
    missing = sorted(set(range(1, 101)) - set(eigenvalues_up_to(100)))
    assert missing == [7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95]
    for nmax in (-1, 1025):   # the ball is not built past the cap
        with pytest.raises(ValueError, match=rf"nmax must lie in \[0, 1024\], got {nmax}"):
            eigenvalues_up_to(nmax)


# -- the array store against the former dict store -------------------------------------
#
# Reference implementations over plain dicts {k: complex 3-vector}, as the field
# operations were written before the store became arrays. Results must match them
# exactly, bit for bit, wherever the store only changes how rows are kept. Their
# per-mode dot products add the three components in order, as the program does.


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in sorted(out.items()) if c.any()}


def ref_mul(a: dict, s: float) -> dict:
    return {} if s == 0.0 else {k: c * s for k, c in a.items() if (c * s).any()}


def ref_norm(a: dict, spec: NormSpec) -> float:
    terms = []
    for k, c in sorted(a.items()):
        w = spec.weight(eigenvalue(k))
        terms.append(2.0 * w * w * float(dot3(c.real, c.real) + dot3(c.imag, c.imag)))
    return math.sqrt(math.fsum(terms))


def ref_inner(a: dict, b: dict) -> float:
    return math.fsum(2.0 * float(np.real(dot3(c, np.conj(b[k])))) for k, c in a.items() if k in b)


def ref_leray(a: dict) -> dict:
    out = {}
    for k, c in sorted(a.items()):
        kv = np.array(k, dtype=float)
        out[k] = c - (dot3(c, kv) / eigenvalue(k)) * kv
    return {k: c for k, c in out.items() if c.any()}


def ref_divergence_defect(a: dict) -> float:
    return max(
        (abs(dot3(c, np.array(k, dtype=float))) / math.sqrt(eigenvalue(k)) for k, c in a.items()),
        default=0.0,
    )


def ref_bilinear(a: dict, b: dict) -> dict:
    def signed(d):
        k = np.array(sorted(d), dtype=np.int64)
        c = np.array([d[key] for key in sorted(d)])
        return np.concatenate([k, -k]), np.concatenate([c, np.conj(c)])

    mu, cu = signed(a)
    lv, cv = signed(b)
    n, m = len(mu), len(lv)
    ks = (mu[:, None, :] + lv[None, :, :]).reshape(n * m, 3)
    keep = np.flatnonzero(
        (ks[:, 0] > 0) | ((ks[:, 0] == 0) & ((ks[:, 1] > 0) | ((ks[:, 1] == 0) & (ks[:, 2] > 0))))
    )
    ks = ks[keep]
    dots = np.einsum("ic,cj->ij", cu, lv.T.astype(float)).reshape(n * m)[keep]
    contrib = (1j * dots)[:, None] * cv[keep % m]
    lo = ks.min()
    span = ks.max() - lo + 1
    shifted = ks - lo
    key = (shifted[:, 0] * span + shifted[:, 1]) * span + shifted[:, 2]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
    uniq = ks[order[starts]]
    acc = np.add.reduceat(contrib[order], starts, axis=0)
    kf = uniq.astype(float)
    lam = np.einsum("ij,ij->i", kf, kf)
    shear = np.einsum("ij,ij->i", acc, kf.astype(np.complex128))
    acc = acc - (shear / lam)[:, None] * kf
    return {tuple(k): c for k, c in zip(uniq.tolist(), acc) if c.any()}


def assert_same(field: SpectralField, ref: dict):
    assert field.support() == tuple(sorted(ref))
    assert field == SpectralField(ref)
    for k, c in field.modes():
        assert np.array_equal(np.signbit(c.view(float)), np.signbit(ref[k].view(float)))


def _store_pair(support_a, support_b, seed):
    """Two coefficient dicts; about a third of the shared modes cancel exactly in a + b."""
    rng = np.random.default_rng(seed)

    def draw(support):
        c = rng.standard_normal((len(support), 3)) + 1j * rng.standard_normal((len(support), 3))
        c[rng.random((len(support), 3)) < 0.2] = 0.0  # exact zero components
        return {k: row for k, row in zip(support, c) if row.any()}

    a, b = draw(support_a), draw(support_b)
    for k in set(a) & set(b):
        if rng.random() < 0.35:
            b[k] = -a[k]
    return a, b


_store_supports = st.lists(
    st.tuples(*[st.integers(-3, 3)] * 3).filter(is_representative), min_size=1, max_size=12,
    unique=True,
)


@settings(max_examples=150)
@given(_store_supports, _store_supports, st.integers(0, 2**32 - 1), st.floats(-4.0, 4.0))
def test_array_store_matches_dict_reference(support_a, support_b, seed, s):
    a, b = _store_pair(support_a, support_b, seed)
    u, v = SpectralField(a), SpectralField(b)
    assert_same(u + v, ref_add(a, b))
    assert_same(v + u, ref_add(b, a))
    assert_same(u - v, ref_add(a, ref_mul(b, -1.0)))
    assert_same(u - u, {})
    assert_same(s * u, ref_mul(a, s))
    for spec in (NormSpec(0.0), NormSpec(0.5, 0.1), NormSpec(1.75, 2.0)):
        assert norm(u, spec) == ref_norm(a, spec)
    for n in range(1, 28):
        assert_same(eigenspace_project(u, n), {k: c for k, c in a.items() if eigenvalue(k) == n})
    pa, pb = ref_leray(a), ref_leray(b)
    assert_fields_close(leray_project(u), SpectralField(pa), rtol=1e-15)
    assert math.isclose(inner(u, v), ref_inner(a, b), rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(u.divergence_defect(), ref_divergence_defect(a), rel_tol=1e-15)
    if pa and pb:  # a projection can leave rounding-level rows that the divergence gate refuses
        got = bilinear(SpectralField(pa), SpectralField(pb), check=False)
        assert_same(got, ref_bilinear(pa, pb))


_EDGE = 2**20 - 1   # the largest component the packed key holds
_mode_lists = st.lists(
    st.tuples(*[st.integers(-3, 3) | st.sampled_from((-_EDGE, _EDGE))] * 3), max_size=12
)


@settings(max_examples=200)
@given(st.lists(_mode_lists, max_size=4), _mode_lists)
def test_mode_union_and_rows_match_a_tuple_oracle(parts, probe):
    # key order is tuple order, empty inputs included: a sorted set and a dict are the oracle
    union = sorted(set().union(*parts))
    got = _mode_union(*(np.array(p, np.int64).reshape(-1, 3) for p in parts))
    assert got.dtype == np.int64 and got.shape == (len(union), 3)
    assert list(map(tuple, got.tolist())) == union
    at = {k: i for i, k in enumerate(union)}
    rows = _mode_rows(np.array(probe, np.int64).reshape(-1, 3), got)
    assert rows.tolist() == [at.get(k, -1) for k in probe]


def test_rows_from_modes_are_read_only():
    u = SpectralField({(1, 0, 0): [0, 1, 0], (0, 1, 1): [1j, 0, 0]})
    for _, c in u.modes():
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 5.0
    c = u._rows(np.array([(1, 0, 0)]))[0]
    c[0] = 5.0  # _rows returns a copy
    assert u._rows(np.array([(1, 0, 0)]))[0][0] == 0


def test_field_component_bound():
    edge = 2**20 - 1
    u = SpectralField({(edge, 0, 0): [0, 1, 0], (0, 1, -edge): [1, 0, 0]})
    assert u.support() == ((0, 1, -edge), (edge, 0, 0))
    assert np.array_equal(u._rows(np.array([(edge, 0, 0)]))[0], [0, 1, 0])
    assert np.array_equal(u._rows(np.array([(edge - 1, 0, 0)]))[0], np.zeros(3))
    for k in [(2**20, 0, 0), (1, -(2**20), 0), (10**300, 0, 1)]:
        with pytest.raises(ValueError, match="strictly between -2\\*\\*20 and 2\\*\\*20"):
            SpectralField({k: [0, 1, 0]})
    with pytest.raises(ValueError, match="strictly between"):
        bilinear(u, u)  # (edge, 0, 0) + (edge, 0, 0) leaves the store's range
