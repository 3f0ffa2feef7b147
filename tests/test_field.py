"""G2-structure fields: finite-difference torsion, the octonion covariant
derivative, and the deformation law for the torsion."""

import warnings

import numpy as np
import pytest

from g2lab import cli
from g2lab import field as fld
from g2lab.connection import central_diff
from g2lab.deform import bundle_inverse, bundle_mul, sigma
from g2lab.errors import BadConfig, LeftDomain, NormDrift, NotPositive
from g2lab.exterior import AltTensor
from g2lab.g2linear import PHI0, split3
X0 = np.array([0.05, -0.1, 0.2, 0.0, 0.1, -0.05, 0.15])
ONE = np.eye(8)[0]


@pytest.fixture(scope="module")
def warp():
    return fld.sigma_warp_field()


@pytest.fixture(scope="module")
def warp_torsion(warp):
    return fld.g2_torsion(warp, X0, 1e-3)


def test_constant_field_torsion_free():
    cf = fld.constant_field()
    t = fld.g2_torsion(cf, X0, 1e-3)
    assert np.max(np.abs(t.T)) < 1e-9
    assert t.defining_residual < 1e-9
    dphi, dpsi = fld.closedness_probe(cf, X0, 1e-3)
    assert dphi < 1e-10 and dpsi < 1e-10


def test_warp_field_torsion(warp, warp_torsion):
    t = warp_torsion
    assert np.max(np.abs(t.T)) > 0.05
    assert t.defining_residual < 1e-9
    # parts sum to T and are mutually orthogonal in the induced metric
    gi = warp.data(X0).g.g_inv
    parts = [t.t1, t.t0, t.t7, t.t14]
    assert np.max(np.abs(sum(parts) - t.T)) < 1e-12

    def ip(a, b):
        return np.einsum("ij,kl,ik,jl->", a, b, gi, gi)

    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(ip(parts[i], parts[j])) < 1e-10


def test_defining_relation_second_order():
    pw = fld.pullback_warp_field(strength=0.05)
    x = 0.5 * X0
    r1 = fld.g2_torsion(pw, x, 1e-3).defining_residual
    r2 = fld.g2_torsion(pw, x, 5e-4).defining_residual
    assert r2 < 0.4 * r1


def test_derivative_in_vector_type_part(warp):
    nphi = fld.nabla_phi(warp, X0, 1e-3)
    data = warp.data(X0)
    for m in (0, 3):
        sp = split3(AltTensor(7, 3, nphi[m]), data)
        assert abs(sp.f) < 1e-7
        assert np.max(np.abs(sp.h0)) < 1e-7


def test_covariant_derivative_examples(warp, warp_torsion):
    cf = fld.constant_field()
    # constant field, constant octonion
    d0 = fld.octonion_covariant_derivative(
        cf, X0, lambda y: ONE, 1e-3)
    assert d0.shape == (7, 8)
    assert np.max(np.abs(d0)) < 1e-12
    # plain derivative when torsion-free: row m is d/dx^m
    a_field = lambda y: y[0] * np.eye(8)[2]
    d1 = fld.octonion_covariant_derivative(cf, X0, a_field, 1e-3)
    assert np.max(np.abs(d1[0] - np.eye(8)[2])) < 1e-10
    assert np.max(np.abs(d1[1:])) < 1e-10
    # D_m 1 = -T(e_m) on the torsionful field
    d2 = fld.octonion_covariant_derivative(
        warp, X0, lambda y: ONE, 1e-3)
    tx = fld.torsion_octonions(warp_torsion.T, warp.data(X0))
    assert np.max(np.abs(d2 + tx)) < 1e-7


def test_quasi_derivation_and_metric_compat(warp):
    rng = np.random.default_rng(0)
    data = warp.data(X0)
    ca, cb = rng.standard_normal((2, 8))
    afield = lambda y: ca + 0.3 * y[1] * np.eye(8)[3]
    bfield = lambda y: cb + 0.2 * y[0] * np.eye(8)[5]
    prod = lambda y: fld.bundle_mul(afield(y), bfield(y), warp.data(y))
    dab = fld.octonion_covariant_derivative(warp, X0, prod, 1e-3)
    na = fld.covariant_octonion(warp, X0, afield, 1e-3)
    db = fld.octonion_covariant_derivative(warp, X0, bfield, 1e-3)
    rhs = fld.bundle_mul(na, bfield(X0), data) \
        + fld.bundle_mul(afield(X0), db, data)
    assert np.max(np.abs(dab - rhs)) < 1e-6

    def inner(u, v, dat):
        return u[0] * v[0] + u[1:] @ (dat.g.g @ v[1:])

    da = fld.octonion_covariant_derivative(warp, X0, afield, 1e-3)
    # d_m <A, B> = <D_m A, B> + <A, D_m B> along every axis m
    lhs = central_diff(
        lambda y: inner(afield(y), bfield(y), warp.data(y)), X0, 1e-3)
    rhs = [inner(da[m], bfield(X0), data) + inner(afield(X0), db[m], data)
           for m in range(7)]
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_leibniz_defect(warp):
    cf = fld.constant_field()
    rng = np.random.default_rng(1)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    d0, p0 = fld.leibniz_defect(cf, X0, a, b, 1e-3)
    assert d0.shape == p0.shape == (7, 8)
    assert np.max(np.abs(d0)) < 1e-9
    # real argument kills the associator
    ar = 1.3 * ONE
    d1, _ = fld.leibniz_defect(warp, X0, ar, b, 1e-3)
    assert np.max(np.abs(d1)) < 1e-9
    d2, p2 = fld.leibniz_defect(warp, X0, a, b, 1e-3)
    assert np.max(np.abs(d2)) > 1e-3
    assert np.max(np.abs(d2 - p2)) < 1e-6


@pytest.mark.parametrize("make", [
    lambda: fld.sigma_warp_field(),
    lambda: fld.pullback_warp_field(strength=0.05),
], ids=["sigma_warp", "pullback_warp"])
def test_axis_rows_match_directional_formulas(make):
    # row m of the whole-axis derivatives against the formulas along e_m
    field = make()
    x = 0.5 * X0
    h = 1e-3
    data = field.data(x)
    t = fld.g2_torsion(field, x, h).T
    gam = fld.levi_civita_at(field, x, h)
    a_field = lambda y: (np.arange(8.0) - 3.0) * (1.0 + y @ np.arange(7.0))
    nabla = fld.covariant_octonion(field, x, a_field, h)
    t_rows = fld.torsion_octonions(t, data)
    for m, e_m in enumerate(np.eye(7)):
        nabla_e = (a_field(x + h * e_m) - a_field(x - h * e_m)) / (2 * h)
        nabla_e[1:] += np.einsum("imk,m,k->i", gam, e_m, a_field(x)[1:])
        t_e = np.zeros(8)
        t_e[1:] = np.einsum("m,mp,pq->q", e_m, t, data.g.g_inv)
        for row, ref in ((nabla[m], nabla_e), (t_rows[m], t_e)):
            assert np.max(np.abs(row - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_levi_civita_evaluations_counted(monkeypatch, warp):
    calls = []
    real = fld.levi_civita

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(fld, "levi_civita", counted)
    # one for the base field and one for its sigma_V deformation, both
    # fresh, so that no memo holds a Gamma yet
    fld.torsion_law_residual(fld.constant_field(), fld.sigma_warp_field(),
                             warp.v_at, X0, 1e-3)
    assert len(calls) == 2
    calls.clear()
    # one per distinct (field, point, step) that the suite differentiates
    cli.run_suite("g2field", cli.RunConfig(seed=42))
    assert len(calls) == 6


def test_g2field_rows_read_every_axis(monkeypatch):
    # a Gamma defect on axis 3 alone fails each row built from the field
    # derivatives, which the suite folds over all seven axes
    real = fld.levi_civita

    def planted(*args):
        gam = real(*args).copy()
        gam[:, 3, :] += 1e-3 * np.arange(49.0).reshape(7, 7) / 49
        return gam

    monkeypatch.setattr(fld, "levi_civita", planted)
    report = cli.run_suite("g2field", cli.RunConfig(seed=42))
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert {"vector_part_only", "leibniz_defect", "d_metric_compat"} <= failed


def test_leibniz_defect_takes_one_levi_civita(monkeypatch, warp):
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    # the same defect through the public derivatives, one Gamma each
    nab = fld.covariant_octonion(
        warp, X0, lambda y: fld.bundle_mul(a, b, warp.data(y)), 1e-3)
    na = fld.covariant_octonion(warp, X0, lambda y: a, 1e-3)
    nb = fld.covariant_octonion(warp, X0, lambda y: b, 1e-3)
    data = warp.data(X0)
    defect = nab - fld.bundle_mul(na, b, data) - fld.bundle_mul(a, nb, data)
    tx = fld.torsion_octonions(fld.g2_torsion(warp, X0, 1e-3).T, data)
    calls = []
    real = fld.levi_civita

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(fld, "levi_civita", counted)
    # a fresh field, whose memo holds no Gamma yet
    got, pred = fld.leibniz_defect(fld.sigma_warp_field(), X0, a, b, 1e-3)
    assert len(calls) == 1
    assert np.array_equal(got, defect)
    ta = fld.bundle_mul(fld.bundle_mul(tx, a, data), b, data)
    assert np.array_equal(pred, ta - fld.bundle_mul(
        tx, fld.bundle_mul(a, b, data), data))


def test_memo_computes_each_quantity_once_read_only():
    field = fld.sigma_warp_field()
    gam = fld.levi_civita_at(field, X0, 1e-3)
    t = fld.g2_torsion(field, X0, 1e-3)
    nphi = fld.nabla_phi(field, X0, 1e-3)
    data = field.data(X0)
    assert fld.levi_civita_at(field, X0.copy(), 1e-3) is gam
    assert fld.g2_torsion(field, list(X0), 1e-3) is t
    assert fld.nabla_phi(field, list(X0), 1e-3) is nphi
    assert field.data(X0.copy()) is data
    # another step or point is another entry
    assert fld.g2_torsion(field, X0, 5e-4) is not t
    assert fld.nabla_phi(field, X0, 5e-4) is not nphi
    assert fld.levi_civita_at(field, 0.5 * X0, 1e-3) is not gam
    phi = field.phi(X0)
    assert field.phi(X0.copy()) is phi
    for kept in (gam, t.T, t.t1, t.t0, t.t7, t.t14, nphi, data.g.g,
                 data.g.g_inv, data.phi.vals, data.psi.vals, data.psi.comps,
                 phi):
        with pytest.raises(ValueError, match="read-only"):
            kept[...] = 0.0
    # the memo keeps a read-only view; the array phi_at returns stays
    # writable
    own = PHI0.comps.copy()
    fld.PhiField(lambda x: own, field.domain, "own").phi(X0)
    assert own.flags.writeable


def test_metric_data_kept_once_per_distinct_phi():
    # the sigma-warp field's phi depends on x[0] alone, the constant
    # field's on nothing: points whose 3-form repeats share one entry
    warp, const = fld.sigma_warp_field(), fld.constant_field()
    off_axis = X0 + 0.3 * np.eye(7)[4] - 0.2 * np.eye(7)[6]
    assert np.array_equal(warp.phi(X0), warp.phi(off_axis))
    assert warp.data(off_axis) is warp.data(X0)
    along = X0 + 0.3 * np.eye(7)[0]
    assert not np.array_equal(warp.phi(X0), warp.phi(along))
    assert warp.data(along) is not warp.data(X0)
    assert const.data(0.5 * X0) is const.data(X0)


def test_g2field_computes_each_structure_once(monkeypatch):
    metric_calls, computed = [], []
    real_metric, real_memo = fld.metric_from_3form, fld.PhiField.memo

    def counted_metric(phi):
        metric_calls.append(None)
        return real_metric(phi)

    def counted_memo(self, quantity, at, fd_step, compute):
        def counted():
            computed.append(quantity)
            return compute()

        return real_memo(self, quantity, at, fd_step, counted)

    monkeypatch.setattr(fld, "metric_from_3form", counted_metric)
    monkeypatch.setattr(fld.PhiField, "memo", counted_memo)
    cli.run_suite("g2field", cli.RunConfig(seed=42))
    # 35 distinct field 3-forms, and the sigma-warp builder's model
    # structure
    assert len(metric_calls) == 36
    assert computed.count("data") == 35
    # one nabla phi per (field, point, step) whose torsion the suite takes;
    # vector_part_only reads the one g2_torsion kept
    assert computed.count("nabla_phi") == 6


def test_g2field_evaluates_phi_once_per_point(monkeypatch):
    fields, calls = [], {}
    real_init = fld.PhiField.__init__

    def init(self, phi_at, *args, **kwargs):
        fields.append(self)    # kept alive, so no id is reused

        def counted(x):
            key = (id(self), x.tobytes())
            calls[key] = calls.get(key, 0) + 1
            return phi_at(x)

        real_init(self, counted, *args, **kwargs)

    monkeypatch.setattr(fld.PhiField, "__init__", init)
    cli.run_suite("g2field", cli.RunConfig(seed=42))
    assert calls and set(calls.values()) == {1}


def _sigma_deformed(field, v_field):
    """The field x -> sigma_{V(x)}(phi(x))."""

    def phi_at(x):
        return sigma(np.asarray(v_field(x)), field.data(x)).comps

    return fld.PhiField(phi_at, field.domain, f"sigma({field.name})")


def _general_law_residual(field, deformed, v_field, x, fd_step):
    """Max-abs residual of the torsion law for V of any norm: the torsion
    of deformed = sigma_V(phi) against Im(Ad_V T + V nabla(V^-1))."""
    data = field.data(x)
    vx = np.asarray(v_field(x))
    vinv = bundle_inverse(vx, data)
    lhs = fld.torsion_octonions(fld.g2_torsion(deformed, x, fd_step).T, data)
    ad_t = bundle_mul(bundle_mul(vx, fld.torsion_octonions(
        fld.g2_torsion(field, x, fd_step).T, data), data), vinv, data)
    nvinv = fld.covariant_octonion(
        field, x, lambda y: bundle_inverse(np.asarray(v_field(y)),
                                           field.data(y)), fd_step)
    rhs = ad_t + bundle_mul(vx, nvinv, data)
    return float(np.max(np.abs(lhs - rhs)[:, 1:]))


def test_torsion_law(warp):
    cf = fld.constant_field()
    # constant V = 1: both sides vanish
    one = lambda y: ONE
    assert fld.torsion_law_residual(cf, _sigma_deformed(cf, one), one, X0,
                                    1e-3) < 1e-10
    # the warp field is sigma_V of the constant field, bit for bit
    assert np.array_equal(warp.phi(X0), _sigma_deformed(cf, warp.v_at).phi(X0))
    res1 = fld.torsion_law_residual(cf, warp, warp.v_at, X0, 1e-3)
    assert res1 < 1e-6
    assert _general_law_residual(cf, warp, warp.v_at, X0, 1e-3) < 1e-6
    res2 = fld.torsion_law_residual(cf, warp, warp.v_at, X0, 5e-4)
    assert res2 < 0.4 * res1
    with pytest.raises(NormDrift):
        fld.torsion_law_residual(cf, warp, lambda y: 2.0 * one(y), X0, 1e-3)


def test_torsion_law_torsionful_base():
    pw = fld.pullback_warp_field(strength=0.05)
    x = 0.5 * X0

    def v_at(y):
        v = fld.exponential(0.1 * float(y[0]) * np.eye(8)[1])
        d = pw.data(y)
        n2 = v[0] ** 2 + v[1:] @ (d.g.g @ v[1:])
        return v / np.sqrt(n2)

    deformed = _sigma_deformed(pw, v_at)
    assert _general_law_residual(pw, deformed, v_at, x, 1e-3) < 1e-5
    assert fld.torsion_law_residual(pw, deformed, v_at, x, 1e-3) < 1e-5


def test_closedness_probe_catalog(warp):
    dphi, dpsi = fld.closedness_probe(warp, X0, 1e-3)
    assert max(dphi, dpsi) > 1e-2
    t = fld.g2_torsion(warp, X0, 1e-3)
    assert np.max(np.abs(t.T)) > 1e-2
    pw = fld.pullback_warp_field(strength=0.05)
    dphi2, dpsi2 = fld.closedness_probe(pw, 0.5 * X0, 1e-3)
    assert max(dphi2, dpsi2) > 1e-3


def test_domain_and_config():
    # the constant field lives on the fixed box |x^i| <= 1
    cf = fld.constant_field()
    with pytest.raises(LeftDomain):
        fld.g2_torsion(cf, np.full(7, 0.9999), 1e-2)


@pytest.mark.parametrize("domain", [[[-1, 1]], [[-1, 1]] * 3],
                         ids=["broadcast_domain", "short_domain"])
def test_field_domain_fails_closed(domain):
    with pytest.raises(BadConfig, match=r"shape \(7, 2\)"):
        fld.PhiField(lambda x: PHI0, domain, "phi0")


def test_overflowing_field_fails_closed_quietly():
    # the pullback overflows to a non-finite form: NotPositive, and no
    # numpy warning on the way
    field = fld.pullback_warp_field(strength=1e200)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NotPositive):
            fld.g2_torsion(field, np.full(7, 0.1), 1e-3)
    assert seen == []


def test_domain_check_fails_closed_on_nan():
    cf = fld.constant_field()
    x = np.zeros(7)
    cf.check_inside(x)
    x[3] = np.nan
    with pytest.raises(LeftDomain, match="nan"):
        cf.check_inside(x)
    with pytest.raises(LeftDomain):
        fld.g2_torsion(cf, x, 1e-3)
