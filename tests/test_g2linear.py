"""Pointwise G2 machinery: induced metric, membership, splittings."""

import warnings

import numpy as np
import pytest

from g2lab import g2linear as g2
from g2lab.errors import BadTriple, NotPositive
from g2lab.exterior import (AltTensor, Metric, form_inner, interior,
                            levi_civita_symbol, pullback, volume_form, wedge)
from g2lab.octonion import C3


@pytest.fixture(scope="module")
def data0():
    return g2.metric_from_3form(g2.PHI0)


def test_model_form_constants(data0):
    id7 = Metric.euclidean(7)
    psi = g2.psi0()
    assert abs(form_inner(g2.PHI0, g2.PHI0, id7) - 7.0) < 1e-13
    assert abs(form_inner(psi, psi, id7) - 7.0) < 1e-13
    assert (wedge(g2.PHI0, psi) - 7.0 * volume_form(id7)).max_abs() < 1e-13
    assert (wedge(psi, g2.PHI0) - 7.0 * volume_form(id7)).max_abs() < 1e-13


def test_metric_of_model_form(data0):
    assert np.max(np.abs(data0.g.g - np.eye(7))) < 1e-13
    assert (data0.vol - volume_form(Metric.euclidean(7))).max_abs() < 1e-13
    assert (data0.psi - g2.psi0()).max_abs() < 1e-13
    assert data0.orientation == 1


def test_metric_scaling_law():
    c = 2.3
    dc = g2.metric_from_3form(c * g2.PHI0)
    assert np.max(np.abs(dc.g.g - c ** (2.0 / 3.0) * np.eye(7))) < 1e-12


def test_metric_equivariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = g2.random_gl7(rng)
        data = g2.metric_from_3form(pullback(C3, a))
        scale = np.max(np.abs(a.T @ a))
        assert np.max(np.abs(data.g.g - a.T @ a)) < 1e-10 * scale


def test_negative_orientation_handled():
    rng = np.random.default_rng(1)
    a = g2.random_gl7(rng)
    a[:, 0] = -a[:, 0]
    data = g2.metric_from_3form(pullback(C3, a))
    assert data.orientation == -1
    assert np.max(np.abs(data.g.g - a.T @ a)) < 1e-10 * np.max(np.abs(a.T @ a))


def test_not_positive_raises():
    with pytest.raises(NotPositive):
        g2.metric_from_3form(np.zeros((7, 7, 7)))
    # a generic small 3-form is not positive
    rng = np.random.default_rng(2)
    bad = 0.05 * AltTensor(7, 3, rng.standard_normal((7,) * 3)).comps
    with pytest.raises(NotPositive):
        g2.metric_from_3form(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_form_fails_closed(bad):
    # an inf entry makes inf * 0 in the Hodge star of bilinear_7form; the
    # refusal is NotPositive alone, with no numpy warning before it
    phi = C3.copy()
    phi[0, 1, 2] = bad
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NotPositive):
            g2.metric_from_3form(phi)
    assert seen == []


@pytest.mark.parametrize("scale", [1e40, 1e90, 1e-40, 1e-90])
def test_scaled_positive_form_keeps_its_metric(scale, data0):
    # det of the bilinear form overflows (underflows), and at 1e90 (1e-90)
    # so does det g; their roots do not, so the metric is scale^(2/3) delta
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        data = g2.metric_from_3form(scale * C3)
    assert seen == []
    assert np.max(np.abs(data.g.g / scale ** (2 / 3) - np.eye(7))) < 1e-13
    assert np.max(np.abs(data.psi.comps / scale ** (4 / 3)
                         - data0.psi.comps)) < 1e-13
    assert data.orientation == data0.orientation


def test_overflowing_bilinear_form_is_not_positive():
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NotPositive):
            g2.metric_from_3form(1e110 * C3)
    assert seen == []


def test_g2_from_triple_examples():
    eye = np.eye(7)
    t = g2.g2_from_triple(eye[0], eye[1], eye[3])
    assert np.max(np.abs(t - np.eye(7))) == 0.0
    t2 = g2.g2_from_triple(eye[1], eye[0], eye[3])
    assert np.max(np.abs(pullback(C3, t2) - C3)) <= g2.G2_TOL
    assert np.max(np.abs(t2 - np.eye(7))) > 0.5
    with pytest.raises(BadTriple):
        g2.g2_from_triple(eye[0], eye[0], eye[3])
    with pytest.raises(BadTriple):
        g2.g2_from_triple(eye[0], eye[1], eye[2])  # phi0(e1,e2,e3) = 1


def test_cross_product(data0):
    eye = np.eye(7)
    assert np.allclose(g2.cross(eye[0], eye[1]), eye[2])
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((2, 7))
    assert np.max(np.abs(g2.cross(x, x))) < 1e-13
    c = g2.cross(x, y)
    assert abs(c @ x) < 1e-12 and abs(c @ y) < 1e-12
    assert abs(c @ c - (x @ x) * (y @ y) + (x @ y) ** 2) < 1e-11


def test_contraction_identities_model_and_random(data0):
    res = g2.contraction_identity_residuals(data0)
    assert max(res.values()) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(10):
        data = g2.metric_from_3form(g2.random_positive_3form(rng))
        assert max(g2.contraction_identity_residuals(data).values()) < 1e-10


def test_contraction_identities_any_positive_form(data0):
    # identities hold for any positive 3-form with its own induced metric
    rng = np.random.default_rng(6)
    generic = AltTensor(7, 3, rng.standard_normal((7,) * 3))
    generic = generic * (0.1 / generic.max_abs())
    phi = g2.PHI0 + generic
    res = g2.contraction_identity_residuals(g2.metric_from_3form(phi))
    assert max(res.values()) < 1e-10


def test_r_operator_spectrum(data0):
    mat = g2.r_operator_matrix(data0)
    eig = np.sort(np.linalg.eigvalsh(0.5 * (mat + mat.T)))
    assert np.max(np.abs(eig[:14] + 1.0)) < 1e-10
    assert np.max(np.abs(eig[14:] - 2.0)) < 1e-10


def test_split2(data0):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(7)
    bxphi = AltTensor(7, 2, np.einsum("k,kij->ij", x, data0.phi.comps))
    sp = g2.split2(bxphi, data0)
    assert sp.part14.max_abs() < 1e-12
    beta = AltTensor(7, 2, rng.standard_normal((7, 7)))
    sp = g2.split2(beta, data0)
    assert (sp.part7 + sp.part14 - beta).max_abs() < 1e-13
    contraction = np.einsum("ij,il,jm,lmk->k", sp.part14.comps,
                            data0.g.g_inv, data0.g.g_inv, data0.phi.comps)
    assert np.max(np.abs(contraction)) < 1e-12
    assert (g2.split2(sp.part7, data0).part14).max_abs() < 1e-12
    assert (g2.split2(sp.part14, data0).part7).max_abs() < 1e-12


def _random_structure(rng, det_positive):
    """The structure of A* phi0 for a random A with det A of the given
    sign, so that both orientations are drawn."""
    a = g2.random_gl7(rng)
    if not det_positive:
        a[:, 0] = -a[:, 0]
    return g2.metric_from_3form(pullback(C3, a))


def test_r_operator_and_split2_both_orientations():
    # R = star(phi ^ .) against the contraction 1/2 psi_abcd g^ci g^dj beta_ij
    rng = np.random.default_rng(20)
    orientations = []
    for det_positive in (True, False) * 5:
        data = _random_structure(rng, det_positive)
        orientations.append(data.orientation)
        gi = data.g.g_inv
        beta = AltTensor(7, 2, rng.standard_normal((7, 7)))
        dense = 0.5 * np.einsum("abcd,ci,dj,ij->ab", data.psi.comps, gi, gi,
                                beta.comps)
        rb = g2.r_operator(beta, data)
        assert (rb - AltTensor(7, 2, dense)).max_abs() \
            <= 1e-13 * np.max(np.abs(dense))
        sp = g2.split2(beta, data)
        scale = beta.max_abs()
        assert (sp.part7 + sp.part14 - beta).max_abs() < 1e-13 * scale
        again = g2.split2(sp.part7, data)
        assert (again.part7 - sp.part7).max_abs() < 1e-12 * scale
        assert again.part14.max_abs() < 1e-12 * scale
        again = g2.split2(sp.part14, data)
        assert (again.part14 - sp.part14).max_abs() < 1e-12 * scale
        assert again.part7.max_abs() < 1e-12 * scale
    assert sorted(set(orientations)) == [-1, 1]


def test_split3(data0):
    sp = g2.split3(data0.phi, data0)
    assert abs(sp.f - 1.0) < 1e-12
    assert np.max(np.abs(sp.x)) < 1e-12
    assert np.max(np.abs(sp.h0)) < 1e-12
    eta7 = AltTensor(7, 3, np.einsum("l,lijk->ijk", np.eye(7)[4],
                                     data0.psi.comps))
    sp = g2.split3(eta7, data0)
    assert abs(sp.f) < 1e-12
    assert np.max(np.abs(sp.x - np.eye(7)[4])) < 1e-12
    assert np.max(np.abs(sp.h0)) < 1e-12
    rng = np.random.default_rng(8)
    eta = AltTensor(7, 3, rng.standard_normal((7,) * 3))
    sp = g2.split3(eta, data0)
    assert (sp.part1 + sp.part7 + sp.part27 - eta).max_abs() < 1e-10
    for a, b in ((sp.part1, sp.part7), (sp.part1, sp.part27),
                 (sp.part7, sp.part27)):
        assert abs(form_inner(a, b, data0.g)) < 1e-11


def test_map_f(data0):
    assert (g2.map_f(data0.g.g, data0) - 3.0 * data0.phi).max_abs() < 1e-13
    rng = np.random.default_rng(9)
    beta = AltTensor(7, 2, rng.standard_normal((7, 7)))
    b14 = g2.split2(beta, data0).part14
    assert g2.map_f(b14.comps, data0).max_abs() < 1e-12
    # finite-difference oracle for the infinitesimal action
    a = rng.standard_normal((7, 7))
    step = 1e-5
    am = data0.g.g_inv @ a
    m_plus = np.eye(7) + step * am + step ** 2 / 2 * (am @ am) \
        + step ** 3 / 6 * (am @ am @ am)
    m_minus = np.eye(7) - step * am + step ** 2 / 2 * (am @ am) \
        - step ** 3 / 6 * (am @ am @ am)
    fd = (pullback(data0.phi.comps, m_plus)
          - pullback(data0.phi.comps, m_minus)) / (2 * step)
    assert np.max(np.abs(fd - g2.map_f(a, data0).comps)) < 1e-8


def test_double_interior_wedge_norm(data0):
    rng = np.random.default_rng(10)
    x = rng.standard_normal(7)
    ixphi = interior(x, data0.phi)
    lhs = wedge(wedge(ixphi, ixphi), data0.phi)
    assert (lhs - 6.0 * (x @ x) * data0.vol).max_abs() < 1e-11 * (x @ x)


def test_wedge_star_pack(data0):
    rng = np.random.default_rng(11)
    res = g2.wedge_star_identity_residuals(data0, rng.standard_normal(7),
                                rng.standard_normal(7))
    assert max(res.values()) < 1e-11


def _bilinear_7form_dense(phi, eta):
    """The three-fold contraction with the dense 7-index symbol, kept
    as the reference for the star0-eta form of bilinear_7form."""
    e = levi_civita_symbol(7)
    t1 = np.einsum("iab,abcdefg->icdefg", phi, e)
    t2 = np.einsum("jcd,icdefg->ijefg", phi, t1)
    return np.einsum("efg,ijefg->ij", eta, t2) / 24.0


def test_bilinear_7form_matches_dense_symbol():
    rng = np.random.default_rng(17)
    forms = [g2.PHI0] + [g2.random_positive_3form(rng) for _ in range(20)]
    for phi in forms:
        eta = AltTensor(7, 3, rng.standard_normal((7,) * 3))
        for other in (phi, eta):
            ref = _bilinear_7form_dense(phi.comps, other.comps)
            err = np.max(np.abs(g2.bilinear_7form(phi, other) - ref))
            assert err <= 4e-15 * np.max(np.abs(ref))


def _split3_least_squares(eta, data):
    """(f, X, h0) by least squares over the 28 map_f columns of the
    symmetric basis and the 7 columns e_m . psi, kept as the reference
    for the closed-form split3."""
    sym = []
    for i in range(7):
        for j in range(i, 7):
            m = np.zeros((7, 7))
            m[i, j] = m[j, i] = 1.0
            sym.append(m)
    cols = [g2.map_f(m, data).vals for m in sym]
    cols += [interior(e, data.psi).vals for e in np.eye(7)]
    sol, *_ = np.linalg.lstsq(np.stack(cols, axis=1), eta.vals, rcond=None)
    h = np.einsum("k,kij->ij", sol[:28], np.array(sym))
    trace = float(np.einsum("ij,ij->", h, data.g.g_inv))
    return 3.0 / 7.0 * trace, sol[28:], h - trace / 7.0 * data.g.g


def _assert_parts(sp, f, x, h0, rel):
    assert abs(sp.f - f) <= rel * abs(f)
    assert np.max(np.abs(sp.x - x)) <= rel * np.max(np.abs(x))
    assert np.max(np.abs(sp.h0 - h0)) <= rel * np.max(np.abs(h0))


def test_split3_recovers_constructed_parts_both_orientations():
    rng = np.random.default_rng(21)
    orientations = []
    for det_positive in (True, False) * 10:
        data = _random_structure(rng, det_positive)
        orientations.append(data.orientation)
        f, x = rng.standard_normal(), rng.standard_normal(7)
        s = rng.standard_normal((7, 7))
        s = s + s.T
        h0 = s - np.einsum("ij,ij->", s, data.g.g_inv) / 7.0 * data.g.g
        eta = data.phi * f + interior(x, data.psi) + g2.map_f(h0, data)
        _assert_parts(g2.split3(eta, data), f, x, h0, 1e-12)
    assert sorted(set(orientations)) == [-1, 1]


def test_split3_matches_least_squares_both_orientations():
    rng = np.random.default_rng(22)
    orientations = []
    for det_positive in (True, False) * 25:
        data = _random_structure(rng, det_positive)
        orientations.append(data.orientation)
        eta = AltTensor(7, 3, rng.standard_normal((7,) * 3))
        _assert_parts(g2.split3(eta, data),
                      *_split3_least_squares(eta, data), 1e-12)
    assert sorted(set(orientations)) == [-1, 1]


def test_volume_form_is_scalar_times_basis_form():
    rng = np.random.default_rng(4)
    data = g2.metric_from_3form(g2.random_positive_3form(rng))
    assert np.array_equal(data.vol.comps,
                          data.vol_scalar * levi_civita_symbol(7))


def test_einsum_path_searched_once(monkeypatch):
    real = np.einsum_path
    searches = []

    def counted(*args, **kwargs):
        searches.append(args[0])
        return real(*args, **kwargs)

    data = g2.metric_from_3form(g2.random_positive_3form(
        np.random.default_rng(18)))
    monkeypatch.setattr(np, "einsum_path", counted)
    monkeypatch.setattr(g2, "_EINSUM_PATHS", {})
    first = g2.contraction_identity_residuals(data)
    second = g2.contraction_identity_residuals(data)
    # six contractions, each path searched on the first call only
    assert len(searches) == len(set(searches)) == 6
    assert first == second
    # the cached path is the one optimize=True searches: the same bits
    sub = "ijk,abc,bj,ck->ia"
    ops = (data.phi.comps, data.phi.comps, data.g.g_inv, data.g.g_inv)
    assert sub in searches
    assert np.array_equal(g2._einsum(sub, *ops),
                          np.einsum(sub, *ops, optimize=True))


def test_g2_forms_are_the_scatter_of_their_sorted_components(monkeypatch):
    from itertools import combinations
    from g2lab import deform as df
    from g2lab import exterior as ext
    from g2lab import field as fld
    rng = np.random.default_rng(19)
    data = g2.metric_from_3form(pullback(C3, g2.random_gl7(rng)))
    forms = {"phi": data.phi, "psi": data.psi,
             "map_f": g2.map_f(rng.standard_normal((7, 7)), data)}
    sp2 = g2.split2(AltTensor(7, 2, rng.standard_normal((7, 7))), data)
    forms["split2.part7"], forms["split2.part14"] = sp2.part7, sp2.part14
    sp3 = g2.split3(AltTensor(7, 3, rng.standard_normal((7,) * 3)), data)
    for part in ("part1", "part7", "part27"):
        forms[f"split3.{part}"] = getattr(sp3, part)
    forms["sigma"] = df.sigma(rng.standard_normal(8), data)
    forms["interior"] = ext.interior(rng.standard_normal(7), data.psi)
    # the antisymmetric part of the torsion, as g2_torsion splits it
    seen = []
    real_split2 = fld.split2

    def recording(beta, d):
        seen.append(beta)
        return real_split2(beta, d)

    monkeypatch.setattr(fld, "split2", recording)
    fld.g2_torsion(fld.pullback_warp_field(), np.full(7, 0.1), 1e-3)
    forms["g2_torsion"] = seen[0]
    for name, form in forms.items():
        dense = form.comps
        scattered = ext._scatter(form.vals, form.n, form.k)
        assert dense.tobytes() == scattered.tobytes(), name
        for i, j in combinations(range(form.k), 2):
            assert not np.diagonal(dense, axis1=i, axis2=j).any(), name
