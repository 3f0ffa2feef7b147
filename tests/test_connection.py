"""Connection charts: geodesics, transport, exponential maps, the loop
product and its Taylor tensors, torsion/contorsion/curvature."""

from itertools import permutations

import numpy as np
import pytest

from g2lab import connection as cn
from g2lab.errors import BadConfig, LeftDomain, NoConvergence
from g2lab.octonion import C3


def _perm_sign(perm):
    sign, p = 1, list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def conformal_chart(grad) -> cn.ConnectionChart:
    """Levi-Civita chart of exp(2 f) delta with linear f = <grad, x>, on
    the box |x^i| <= 2."""
    grad = np.asarray(grad, dtype=float)
    n = grad.size
    eye = np.eye(n)

    def metric(x):
        return np.exp(2.0 * float(grad @ x)) * eye

    def gamma(x):
        # G^k_ij = d_i f delta_jk + d_j f delta_ik - d_k f delta_ij
        return (np.einsum("i,jk->kij", grad, eye)
                + np.einsum("j,ik->kij", grad, eye)
                - np.einsum("k,ij->kij", grad, eye))

    return cn.ConnectionChart(n, gamma, [[-2.0, 2.0]] * n,
                              metric_field=metric, name="conformal")


def torsion_offset_chart(base: cn.ConnectionChart,
                         s: np.ndarray) -> cn.ConnectionChart:
    """Gamma = base Gamma + S for a constant tensor S (e.g. a totally
    antisymmetric contorsion added to a Levi-Civita chart)."""
    s = np.asarray(s, dtype=float)

    def gamma(x):
        return base.gamma(x) + s

    return cn.ConnectionChart(base.n, gamma, base.domain,
                              metric_field=base.metric_field,
                              name=f"{base.name}+S")


@pytest.fixture(scope="module")
def sphere():
    return cn.sphere2_chart()


@pytest.fixture(scope="module")
def cs_fit():
    chart = cn.cartan_schouten_chart(0.0)
    rep = cn.fit_fundamental_tensors(chart, np.zeros(7), h=1e-2,
                                     richardson=False, h_ode=1.0 / 16)
    return chart, rep


def test_central_diff_exact_on_quadratic():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    c = rng.standard_normal(3)
    x = rng.standard_normal(3)

    def f(y):
        return np.array([[y @ a @ y, c @ y], [y[0] * y[1], 3.0]])

    got = cn.central_diff(f, x, 0.25)
    assert got.shape == (3,) + f(x).shape
    want = np.zeros((3, 2, 2))
    want[:, 0, 0] = (a + a.T) @ x
    want[:, 0, 1] = c
    want[:, 1, 0] = [x[1], x[0], 0.0]
    assert np.max(np.abs(got - want)) < 1e-12


def test_levi_civita_oracles(sphere):
    x = np.array([1.05, 0.7])
    got = cn.levi_civita(sphere.metric_field, x)
    theta = x[0]
    assert abs(got[0, 1, 1] + np.sin(theta) * np.cos(theta)) < 1e-9
    assert abs(got[1, 0, 1] - np.cos(theta) / np.sin(theta)) < 1e-9
    assert abs(got[1, 1, 0] - np.cos(theta) / np.sin(theta)) < 1e-9
    assert np.max(np.abs(got - sphere.gamma(x))) < 1e-9
    flat = cn.levi_civita(lambda x: np.eye(3), np.zeros(3))
    assert np.max(np.abs(flat)) < 1e-12
    conf = conformal_chart(np.array([0.05, -0.02, 0.03]))
    x3 = np.array([0.1, 0.2, -0.1])
    assert np.max(np.abs(cn.levi_civita(conf.metric_field, x3)
                         - conf.gamma(x3))) < 1e-10


def test_flat_geodesics_exact():
    chart = cn.flat_chart(4)
    x0 = np.array([0.1, -0.2, 0.3, 0.0])
    v0 = np.array([0.5, 0.2, -0.1, 0.4])
    path = cn.integrate_geodesic(chart, x0, v0, 1.0, h=0.25)
    assert np.max(np.abs(path.endpoint - (x0 + v0))) < 1e-15


def test_geodesic_integrator_order(sphere):
    x0 = np.array([1.1, 0.4])
    v0 = np.array([0.3, 0.5])

    def embed(t, p):
        return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p),
                         np.cos(t)])

    eth = np.array([np.cos(x0[0]) * np.cos(x0[1]),
                    np.cos(x0[0]) * np.sin(x0[1]), -np.sin(x0[0])])
    eph = np.array([-np.sin(x0[0]) * np.sin(x0[1]),
                    np.sin(x0[0]) * np.cos(x0[1]), 0.0])
    vec = v0[0] * eth + v0[1] * eph
    s = np.linalg.norm(vec)
    exact = np.cos(s) * embed(*x0) + np.sin(s) * vec / s
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        end = cn.integrate_geodesic(sphere, x0, v0, 1.0, h).endpoint
        errs.append(np.linalg.norm(embed(*end) - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.5 <= order <= 4.5


def test_geodesic_ode_residual_fourth_order():
    # 4th-order stencil residual of the samples against the geodesic ODE
    sphere = cn.sphere2_chart()
    x0, v0 = np.array([1.1, 0.4]), np.array([0.3, 0.5])
    res = []
    for h in (2e-2, 1e-2):
        path = cn.integrate_geodesic(sphere, x0, v0, 1.0, h)
        xs, dt = path.xs, path.ts[1] - path.ts[0]
        worst = 0.0
        for i in range(2, len(xs) - 2, 7):
            vel = (xs[i - 2] - 8 * xs[i - 1] + 8 * xs[i + 1]
                   - xs[i + 2]) / (12 * dt)
            acc = (-xs[i - 2] + 16 * xs[i - 1] - 30 * xs[i]
                   + 16 * xs[i + 1] - xs[i + 2]) / (12 * dt ** 2)
            g = sphere.gamma(xs[i])
            worst = max(worst, np.max(np.abs(
                acc + np.einsum("ijk,j,k->i", g, vel, vel))))
        res.append(worst)
    assert res[0] < 1e-5
    assert res[1] < res[0] / 8.0  # at least ~h^3; h^4 expected


def test_leaving_domain_raises(sphere):
    with pytest.raises(LeftDomain):
        cn.integrate_geodesic(sphere, np.array([0.3, 0.0]),
                              np.array([-1.0, 0.0]), 1.0, 1e-2)


def test_flat_transport_closed_loop():
    chart = cn.flat_chart(3)
    ts = np.linspace(0.0, 2 * np.pi, 101)
    xs = np.stack([np.cos(ts) - 1.0, np.sin(ts), 0 * ts], axis=1)
    vs = np.stack([-np.sin(ts), np.cos(ts), 0 * ts], axis=1)
    w0 = np.array([0.3, -0.7, 0.2])
    w1 = cn.parallel_transport(chart, cn.Path(ts, xs, vs), w0, h=1e-2)
    assert np.max(np.abs(w1 - w0)) < 1e-12


def test_sphere_holonomy(sphere):
    theta0 = 1.0
    m = 400
    ts = np.linspace(0.0, 2 * np.pi, m + 1)
    xs = np.stack([np.full(m + 1, theta0), ts], axis=1)
    vs = np.stack([np.zeros(m + 1), np.ones(m + 1)], axis=1)
    w0 = np.array([1.0, 0.0])
    w1 = cn.parallel_transport(sphere, cn.Path(ts, xs, vs), w0, h=1e-3)
    g = sphere.metric_field(xs[0])
    cosang = (w0 @ g @ w1) / np.sqrt((w0 @ g @ w0) * (w1 @ g @ w1))
    angle = np.arccos(np.clip(cosang, -1.0, 1.0))
    assert abs(angle - 2 * np.pi * (1 - np.cos(theta0))) < 1e-6
    assert abs((w1 @ g @ w1) - (w0 @ g @ w0)) < 1e-10


def test_transport_isometry_with_torsion():
    conf = conformal_chart(np.array([0.05, -0.02, 0.03]))
    s = np.zeros((3, 3, 3))
    for p in permutations(range(3)):
        s[tuple(np.array([0, 1, 2])[list(p)])] = _perm_sign(p) * 0.11
    chart = torsion_offset_chart(conf, s)
    x0 = np.array([0.1, 0.2, -0.1])
    path = cn.integrate_geodesic(chart, x0, np.array([0.2, 0.1, -0.15]),
                                 1.0, 1e-3)
    w0 = np.array([0.3, -0.2, 0.5])
    w1 = cn.parallel_transport(chart, path, w0, h=1e-3)
    g0 = chart.metric_field(x0)
    g1 = chart.metric_field(path.endpoint)
    assert abs(w1 @ g1 @ w1 - w0 @ g0 @ w0) < 1e-9


def test_exp_map_and_inverse(sphere):
    flat = cn.flat_chart(3)
    e = np.array([0.1, 0.2, -0.1])
    v = np.array([0.4, -0.3, 0.2])
    assert np.max(np.abs(cn.exp_map(flat, e, v, h=0.5) - (e + v))) < 1e-14
    rng = np.random.default_rng(0)
    es = np.array([1.2, 0.3])
    for _ in range(5):
        v = rng.uniform(-0.1, 0.1, 2)
        y = cn.exp_map(sphere, es, v, h=1e-3)
        back = cn.exp_inverse(sphere, es, y, h=1e-3)
        assert np.max(np.abs(back - v)) < 1e-9
    # rescaling: exp(c v) equals the geodesic at time c
    c, v = 0.7, np.array([0.2, -0.15])
    a1 = cn.exp_map(sphere, es, c * v, h=1e-3)
    a2 = cn.integrate_geodesic(sphere, es, v, c, h=1e-3).endpoint
    assert np.max(np.abs(a1 - a2)) < 1e-12


def test_loop_product_flat_abelian():
    chart = cn.flat_chart(4)
    rng = np.random.default_rng(1)
    e = rng.uniform(-0.3, 0.3, 4)
    x = e + rng.uniform(-0.5, 0.5, 4)
    y = e + rng.uniform(-0.5, 0.5, 4)
    z = e + rng.uniform(-0.5, 0.5, 4)
    h = 0.25
    mu = cn.loop_product(chart, e, x, y, h)
    assert np.max(np.abs(mu - (x + y - e))) < 1e-12
    assert np.max(np.abs(mu - cn.loop_product(chart, e, y, x, h))) < 1e-12
    lhs = cn.loop_product(chart, e, mu, z, h)
    rhs = cn.loop_product(chart, e, x, cn.loop_product(chart, e, y, z, h), h)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(cn.loop_product(chart, e, x, e, h) - x)) < 1e-12
    assert np.max(np.abs(cn.loop_product(chart, e, e, y, h) - y)) < 1e-12


def test_loop_product_sphere_noncommutative(sphere):
    e = np.array([1.2, 0.3])
    x = e + np.array([0.15, -0.1])
    y = e + np.array([-0.05, 0.2])
    h = 1e-2
    mu_xy = cn.loop_product(sphere, e, x, y, h)
    mu_yx = cn.loop_product(sphere, e, y, x, h)
    assert np.max(np.abs(mu_xy - mu_yx)) > 1e-5
    # unit laws within 10x the shooting tolerance
    assert np.max(np.abs(cn.loop_product(sphere, e, x, e, h) - x)) < 1e-10
    assert np.max(np.abs(cn.loop_product(sphere, e, e, y, h) - y)) < 1e-10


@pytest.mark.parametrize("make, e, spread", [
    (lambda: cn.flat_chart(4), np.array([0.1, -0.2, 0.3, 0.0]), 0.5),
    (cn.sphere2_chart, np.array([1.2, 0.3]), 0.15),
    (lambda: cn.cartan_schouten_chart(0.25), np.zeros(7), 0.3),
])
def test_batched_loop_product_matches_single_rows(make, e, spread):
    chart = make()
    h = 1e-2
    rng = np.random.default_rng(3)
    xs = e + rng.uniform(-spread, spread, (6, chart.n))
    ys = e + rng.uniform(-spread, spread, (6, chart.n))
    ys[1] = e  # nothing to transport: vy = 0
    xs[2] = e  # the unit on the left
    xs[4], ys[4] = e, e
    prods = cn.loop_product(chart, e, xs, ys, h)
    assert prods.shape == xs.shape
    for r in range(6):
        assert np.array_equal(prods[r], cn.loop_product(chart, e, xs[r],
                                                        ys[r], h))
    assert np.max(np.abs(prods[1] - xs[1])) < 1e-10
    assert np.max(np.abs(prods[2] - ys[2])) < 1e-10
    # a per-row base point broadcasts like the other arguments
    es = np.broadcast_to(e, xs.shape)
    assert np.array_equal(cn.loop_product(chart, es, xs, ys, h), prods)


def _four_integration_loop_product(chart, e, x, y, h):
    """The loop product as two exp_inverse solves, the geodesic with its
    frame from e to y, and the closing exp_map: the reference bits."""
    e, x, y = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                    for a in (e, x, y)))
    w = cn.exp_inverse(chart, e, x, h)
    vy = cn.exp_inverse(chart, e, y, h)
    moving = np.max(np.abs(vy), axis=-1) != 0.0
    if moving.any():
        _, _, m = cn.geodesic_with_frame(chart, e[moving], vy[moving], 1.0, h)
        w[moving] = (m @ w[moving][..., None])[..., 0]
    return cn.exp_map(chart, y, w, h)


@pytest.mark.parametrize("make, e, spread", [
    (lambda: cn.flat_chart(4), np.array([0.1, -0.2, 0.3, 0.0]), 0.5),
    (cn.sphere2_chart, np.array([1.2, 0.3]), 0.15),
    (lambda: cn.cartan_schouten_chart(0.25), np.zeros(7), 0.3),
])
def test_loop_product_keeps_the_four_integration_bits(make, e, spread):
    chart = make()
    h = 1e-2
    rng = np.random.default_rng(17)
    xs = e + rng.uniform(-spread, spread, (5, chart.n))
    ys = e + rng.uniform(-spread, spread, (5, chart.n))
    ys[1] = e
    xs[2] = e
    xs[4], ys[4] = e, e
    assert np.array_equal(cn.loop_product(chart, e, xs, ys, h),
                          _four_integration_loop_product(chart, e, xs, ys, h))
    for r in range(5):
        assert np.array_equal(
            cn.loop_product(chart, e, xs[r], ys[r], h),
            _four_integration_loop_product(chart, e, xs[r], ys[r], h))


def test_loop_product_runs_two_integrations(monkeypatch):
    chart = cn.flat_chart(4)
    rng = np.random.default_rng(2)
    e = rng.uniform(-0.3, 0.3, 4)
    xs = e + rng.uniform(-0.5, 0.5, (3, 4))
    ys = e + rng.uniform(-0.5, 0.5, (3, 4))
    real = cn._rk4
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(cn, "_rk4", counted)
    cn.loop_product(chart, e, xs, ys, 0.25)
    # one framed Newton shot for both targets, then the closing exp_map
    assert len(calls) == 2


def test_framed_solver_keeps_the_converged_frame(sphere, monkeypatch):
    e = np.array([1.2, 0.3])
    h = 1e-2
    vs = np.array([[0.01, 0.02], [0.3, -0.2], [0.0, 0.0], [0.5, 0.6],
                   [-0.4, 0.1]])
    ys = cn.exp_map(sphere, e, vs, h)
    real = cn.geodesic_with_frame
    batches = []

    def counted(chart, x0, v0, t_end=1.0, h=1e-3):
        batches.append(len(v0))
        return real(chart, x0, v0, t_end, h)

    monkeypatch.setattr(cn, "geodesic_with_frame", counted)
    es = np.tile(e, (len(vs), 1))
    v, frames = cn._solve_exp(sphere, es, ys, h, cn._SHOT_TOL, frame=True)
    monkeypatch.undo()
    # every shot carries the moving open rows, and they close one by one
    assert len(batches) > 1 and batches[0] == 4 and len(set(batches)) > 2
    assert np.array_equal(v[2], 0 * e) and np.array_equal(frames[2],
                                                          np.eye(2))
    for r in (0, 1, 3, 4):
        assert np.array_equal(frames[r],
                              cn.geodesic_with_frame(sphere, e, v[r], 1.0,
                                                     h)[2])
    plain, none = cn._solve_exp(sphere, es, ys, h, cn._SHOT_TOL,
                                frame=False)
    assert none is None and np.array_equal(plain, v)


@pytest.mark.parametrize("h", [0.0, -1e-3, np.inf, np.nan])
def test_bad_step_size_is_refused(sphere, h):
    e = np.array([1.2, 0.3])
    v = np.array([0.1, -0.05])
    y = e + v
    path = cn.integrate_geodesic(sphere, e, v, 1.0, 0.1)
    calls = [
        lambda: cn.integrate_geodesic(sphere, e, v, 1.0, h),
        lambda: cn.geodesic_with_frame(sphere, e, v, 1.0, h),
        lambda: cn.parallel_transport(sphere, path, v, h),
        lambda: cn.exp_map(sphere, e, v, h),
        lambda: cn.exp_inverse(sphere, e, y, h),
        lambda: cn.loop_product(sphere, e, y, e - v, h),
    ]
    for call in calls:
        with pytest.raises(BadConfig, match="step size"):
            call()


def test_exp_map_is_the_path_endpoint(sphere):
    es = np.array([[1.2, 0.3], [1.0, -0.2], [1.4, 0.1]])
    vs = np.array([[0.2, -0.15], [-0.1, 0.3], [0.05, 0.02]])
    for h in (0.3, 1e-2):
        assert np.array_equal(cn.exp_map(sphere, es, vs, h),
                              cn.integrate_geodesic(sphere, es, vs, 1.0,
                                                    h).xs[-1])


def test_exp_map_memory_does_not_grow_with_steps():
    import tracemalloc
    chart = cn.flat_chart(4)
    rng = np.random.default_rng(5)
    es = rng.uniform(-0.5, 0.5, (200, 4))
    vs = rng.uniform(-0.5, 0.5, (200, 4))
    peaks = []
    for h in (1e-1, 1e-3):   # 10 and 1000 steps
        tracemalloc.start()
        try:
            cn.exp_map(chart, es, vs, h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a stored path of 1000 steps would hold 2 * 1001 * 200 * 4 float64
    # entries (12.8 MB); the stepping state is a few (200, 4) arrays
    assert peaks[1] < 2 * peaks[0] < 2**20


def test_akivis_fits_each_scale_once(sphere, monkeypatch):
    e = np.array([1.2, 0.3])
    h_list = (1e-2, 5e-3)
    reps = [cn.fit_fundamental_tensors(sphere, e, h=h, h_ode=1.0 / 16)
            for h in h_list]
    real = cn._fit_jets
    scales = []

    def counted(mu_fn, n, h):
        scales.append(h)
        return real(mu_fn, n, h)

    monkeypatch.setattr(cn, "_fit_jets", counted)
    out = cn.akivis_check(sphere, e, h_list, h_ode=1.0 / 16)
    assert sorted(scales) == [2.5e-3, 5e-3, 1e-2]
    data = cn.curvature_data(sphere, e)
    for i, rep in enumerate(reps):
        assert out["r1"][i] == float(np.max(np.abs(2.0 * rep.alpha
                                                   + data.torsion)))
        assert out["r2"][i] == float(np.max(np.abs(
            4.0 * rep.beta + data.nabla_torsion + data.curvature)))
        assert out["alpha_norm"][i] == float(np.max(np.abs(rep.alpha)))
        assert out["beta_norm"][i] == float(np.max(np.abs(rep.beta)))


def test_fit_reports_unit_law_residual(sphere):
    rep = cn.fit_fundamental_tensors(sphere, np.array([1.2, 0.3]), h=1e-2,
                                     richardson=False, h_ode=1.0 / 16)
    assert rep.residuals["unit_law"] < 1e-10


def test_fit_flat_chart_vanishes():
    chart = cn.flat_chart(3)
    rep = cn.fit_fundamental_tensors(chart, np.zeros(3), h=1e-2,
                                     richardson=False, h_ode=0.25)
    assert np.max(np.abs(rep.alpha)) < 1e-8
    assert np.max(np.abs(rep.beta)) < 1e-8


def test_fit_cartan_schouten(cs_fit):
    chart, rep = cs_fit
    # 2 alpha = c at family parameter 0, within the fit tolerance
    assert np.max(np.abs(2.0 * rep.alpha - C3)) < 0.05
    # alpha antisymmetric by construction
    assert np.max(np.abs(rep.alpha + np.swapaxes(rep.alpha, 1, 2))) == 0.0
    # mu, nu carry their index symmetries
    assert np.max(np.abs(rep.mu - np.swapaxes(rep.mu, 1, 2))) == 0.0
    assert np.max(np.abs(rep.nu - np.swapaxes(rep.nu, 2, 3))) == 0.0


def test_fit_matches_ch_tensors(cs_fit):
    # the chart realization is a second-order model: it shares lambda and
    # alpha with the Campbell-Hausdorff loop of the parallelized sphere,
    # while the third-order jets (and hence beta) belong to the chart
    from g2lab.cartan import ch_fundamental_tensors
    chart, rep = cs_fit
    lam, mu, nu, alpha, beta = ch_fundamental_tensors(0.0)
    assert np.max(np.abs(rep.lam - lam)) < 0.05
    assert np.max(np.abs(rep.alpha - alpha)) < 0.05
    # constant symbols make the mu-jet vanish on the chart
    assert np.max(np.abs(rep.mu)) < 1e-6


def test_generalized_jacobi_of_fit(cs_fit):
    chart, rep = cs_fit

    def alt3(t):
        out = np.zeros_like(t)
        for p in permutations(range(3)):
            out += _perm_sign(p) * np.transpose(t, (0,) + tuple(
                1 + np.array(p)))
        return out / 6.0

    lhs = alt3(rep.beta)
    rhs = alt3(np.einsum("ijm,mkl->ijkl", rep.alpha, rep.alpha))
    akivis = cn.akivis_check(chart, np.zeros(7), [1e-2], h_ode=1.0 / 16)
    assert np.max(np.abs(lhs - rhs)) <= max(5 * akivis["r1"][0], 1e-10)


def test_curvature_data_flat():
    data = cn.curvature_data(cn.flat_chart(3), np.zeros(3))
    assert np.max(np.abs(data.torsion)) == 0.0
    assert np.max(np.abs(data.curvature)) == 0.0


def test_curvature_data_sphere(sphere):
    e = np.array([1.2, 0.3])
    data = cn.curvature_data(sphere, e)
    assert np.max(np.abs(data.torsion)) == 0.0  # symmetric symbols
    gauss = data.curvature[0, 1, 0, 1] / np.sin(e[0]) ** 2
    assert abs(gauss - 1.0) < 1e-6
    # antisymmetry in the last index pair
    assert np.max(np.abs(data.curvature
                         + np.transpose(data.curvature, (0, 1, 3, 2)))) \
        < 1e-8
    assert data.metric_residual < 1e-9


def test_curvature_data_differentiates_metric_once():
    chart = cn.sphere2_chart()
    real = chart.metric_field
    calls = []

    def counted(x):
        calls.append(None)
        return real(x)

    chart.metric_field = counted
    cn.curvature_data(chart, np.array([1.2, 0.3]))
    # the metric at e and its central difference at 2 n = 4 points
    assert len(calls) == 5


def test_curvature_data_stencil_leaves_domain(sphere):
    # e is inside, but e - fd_step e_theta crosses the theta margin
    e = np.array([sphere.domain[0, 0] + 5e-6, 0.3])
    sphere.check_inside(e)
    with pytest.raises(LeftDomain):
        cn.curvature_data(sphere, e, fd_step=1e-5)


def test_contorsion_consistency():
    conf = conformal_chart(np.array([0.05, -0.02, 0.03]))
    s = np.zeros((3, 3, 3))
    for p in permutations(range(3)):
        s[tuple(np.array([0, 1, 2])[list(p)])] = _perm_sign(p) * 0.11
    chart = torsion_offset_chart(conf, s)
    data = cn.curvature_data(chart, np.array([0.1, 0.2, -0.1]))
    # T = -2S exactly for the added antisymmetric tensor
    assert np.max(np.abs(data.torsion + 2.0 * s)) == 0.0
    assert np.max(np.abs(data.contorsion - s)) < 1e-10
    assert data.metric_residual < 1e-9


def test_akivis_flat_all_h():
    rep = cn.akivis_check(cn.flat_chart(3), np.zeros(3), [1e-2, 5e-3],
                          h_ode=0.25)
    assert max(rep["r1"]) < 1e-8
    assert max(rep["r2"]) < 1e-8


def test_chart_domain_fails_closed(sphere):
    with pytest.raises(BadConfig, match=r"shape \(2, 2\)"):
        cn.ConnectionChart(2, sphere.gamma, [[0.2, 3.0]])


# -- the batched engine -------------------------------------------------------

def test_domain_check_fails_closed_on_nan(sphere):
    with pytest.raises(LeftDomain, match="nan"):
        sphere.check_inside(np.array([np.nan, 0.3]))
    with pytest.raises(LeftDomain):
        cn.integrate_geodesic(sphere, np.array([1.2, 0.3]),
                              np.array([np.nan, 0.0]), 1.0, 0.25)


def test_domain_check_names_the_leaving_row():
    chart = cn.flat_chart(2, half_width=1.0)
    xs = np.array([[0.1, 0.2], [0.3, 1.5], [-0.4, 0.9]])
    with pytest.raises(LeftDomain, match=r"point \[0\.3 1\.5\]"):
        chart.check_inside(xs)
    # only the second geodesic crosses x1 = 1 before t = 1
    vs = np.array([[0.2, 0.1], [0.0, 0.9], [0.1, 0.05]])
    with pytest.raises(LeftDomain):
        cn.integrate_geodesic(chart, xs[[0, 0, 2]], vs, 1.0, 0.25)
    cn.integrate_geodesic(chart, xs[[0, 0, 2]], vs[[0, 0, 2]], 1.0, 0.25)


@pytest.mark.parametrize("make, e, spread", [
    (lambda: cn.flat_chart(4), np.array([0.1, -0.2, 0.3, 0.0]), 0.5),
    (lambda: cn.cartan_schouten_chart(0.25), np.zeros(7), 0.3),
    (cn.sphere2_chart, np.array([1.2, 0.3]), 0.2),
])
def test_batched_engine_matches_single_rows(make, e, spread):
    chart = make()
    h = 1.0 / 16
    rng = np.random.default_rng(7)
    xs = e + rng.uniform(-spread, spread, (5, chart.n))
    vs = rng.uniform(-spread, spread, (5, chart.n))
    vs[3] = 0.0  # exp_map returns the base point of a zero row unintegrated
    path = cn.integrate_geodesic(chart, xs, vs, 1.0, h)
    frame = cn.geodesic_with_frame(chart, xs, vs, 1.0, h)
    ws = cn.parallel_transport(chart, path, vs[::-1], h)
    ys = cn.exp_map(chart, e, vs, h)
    back = cn.exp_inverse(chart, e, ys, h)
    assert path.xs.shape == (17, 5, chart.n)
    assert frame[2].shape == (5, chart.n, chart.n)
    for r in range(5):
        one = cn.integrate_geodesic(chart, xs[r], vs[r], 1.0, h)
        assert np.array_equal(path.xs[:, r], one.xs)
        assert np.array_equal(path.endpoint[r], one.endpoint)
        for batched, single in zip(frame, cn.geodesic_with_frame(
                chart, xs[r], vs[r], 1.0, h)):
            assert np.array_equal(batched[r], single)
        assert np.array_equal(ws[r], cn.parallel_transport(
            chart, one, vs[::-1][r], h))
        assert np.array_equal(ys[r], cn.exp_map(chart, e, vs[r], h))
        assert np.array_equal(back[r], cn.exp_inverse(chart, e, ys[r], h))
    assert np.array_equal(ys[3], e) and np.array_equal(back[3], 0 * e)


def test_batched_fd_fallback_matches_single_rows(sphere, monkeypatch):
    es = np.array([1.2, 0.3])
    # the far row stalls under the identity Jacobian; the near rows do not
    vs = np.array([[0.027, -0.046], [0.5, 2.0], [-0.092, -0.097]])
    ys = cn.exp_map(sphere, es, vs, h=1e-2)
    real = cn.central_diff
    shapes = []

    def counted(f, x, step):
        shapes.append(np.shape(x))
        return real(f, x, step)

    monkeypatch.setattr(cn, "central_diff", counted)
    back = cn.exp_inverse(sphere, es, ys, h=1e-2)
    assert shapes == [(1, 2)]
    assert np.max(np.abs(back - vs)) < 1e-9
    for r in range(3):
        assert np.array_equal(back[r], cn.exp_inverse(sphere, es, ys[r],
                                                      h=1e-2))


def test_unreachable_row_raises_no_convergence():
    # Poincare disk: the unit circle lies at infinite distance from the
    # origin, so (1, 0) is inside the chart box but no geodesic reaches it
    eye = np.eye(2)

    def gamma(x):
        df = 2.0 * x / (1.0 - np.sum(x * x, axis=-1, keepdims=True))
        return (np.einsum("...i,jk->...kij", df, eye)
                + np.einsum("...j,ik->...kij", df, eye)
                - np.einsum("...k,ij->...kij", df, eye))

    disk = cn.ConnectionChart(2, gamma, [[-2.0, 2.0]] * 2, name="disk")
    ys = np.array([[0.3, 0.1], [1.0, 0.0], [-0.2, 0.4]])
    reach = cn.exp_inverse(disk, np.zeros(2), ys[[0, 2]], h=0.05)
    assert np.max(np.abs(cn.exp_map(disk, np.zeros(2), reach, h=0.05)
                         - ys[[0, 2]])) < 1e-11
    with pytest.raises(NoConvergence, match="1 of 3 rows"):
        cn.exp_inverse(disk, np.zeros(2), ys, h=0.05)


def test_gamma_contract_batches(sphere):
    s = np.zeros((2, 2, 2))
    s[0, 1, 0], s[0, 0, 1] = 0.1, -0.1
    charts = [sphere, torsion_offset_chart(sphere, s),
              conformal_chart(np.array([0.1, 0.0]))]
    xs = np.array([[[1.2, 0.3], [0.9, -0.4]], [[1.5, 0.1], [2.0, 0.7]]])
    for chart in charts:
        batch = np.broadcast_to(chart.gamma(xs), (2, 2, 2, 2, 2))
        for idx in np.ndindex(2, 2):
            assert np.array_equal(batch[idx], chart.gamma(xs[idx]))


@pytest.mark.parametrize("rows", [1, 5, 5000])
def test_gamma_dot_rows_match_single_point(rows):
    rng = np.random.default_rng(rows)
    n = 7
    vs = rng.standard_normal((rows, n))
    const = rng.standard_normal((n, n, n))
    field = rng.standard_normal((rows, n, n, n))
    a_const = cn._gamma_dot(const, vs)
    a_field = cn._gamma_dot(field, vs)
    assert a_const.shape == a_field.shape == (rows, n, n)
    for r in range(rows):
        assert np.array_equal(a_const[r], cn._gamma_dot(const, vs[r]))
        assert np.array_equal(a_field[r], cn._gamma_dot(field[r], vs[r]))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_gamma_dot_matches_three_operand_einsums(n):
    rng = np.random.default_rng(n)
    rows = 6
    v = 0.5 * rng.standard_normal((rows, n))
    w = rng.standard_normal((rows, n))
    m = rng.standard_normal((rows, n, n))
    for g in (3.0 * rng.standard_normal((n, n, n)),
              3.0 * rng.standard_normal((rows, n, n, n))):
        a = cn._gamma_dot(g, v)
        scale = 1e-15 * n * n * np.max(np.abs(g)) * np.max(np.abs(v))
        pairs = [
            (np.matmul(a, v[..., None])[..., 0],
             np.einsum("...ijk,...j,...k->...i", g, v, v), np.abs(v)),
            (np.matmul(a, m),
             np.einsum("...ijk,...j,...kc->...ic", g, v, m), np.abs(m)),
            (np.matmul(a, w[..., None])[..., 0],
             np.einsum("...ijk,...j,...k->...i", g, v, w), np.abs(w)),
        ]
        for got, want, other in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= scale * np.max(other)


@pytest.mark.parametrize("make, e", [
    (lambda: cn.cartan_schouten_chart(0.25), np.zeros(7)),
    (cn.sphere2_chart, np.array([1.2, 0.3])),
])
def test_transport_broadcasts_vectors_and_paths(make, e):
    chart = make()
    h = 1.0 / 16
    rng = np.random.default_rng(11)
    ws = rng.uniform(-1.0, 1.0, (5, chart.n))
    # N vectors along one path
    one = cn.integrate_geodesic(chart, e, rng.uniform(-0.2, 0.2, chart.n),
                                1.0, h)
    got = cn.parallel_transport(chart, one, ws, h)
    assert got.shape == ws.shape
    for r in range(5):
        assert np.array_equal(got[r],
                              cn.parallel_transport(chart, one, ws[r], h))
    # one vector along a path of N curves
    xs = e + rng.uniform(-0.2, 0.2, (5, chart.n))
    vs = rng.uniform(-0.2, 0.2, (5, chart.n))
    batch = cn.integrate_geodesic(chart, xs, vs, 1.0, h)
    got = cn.parallel_transport(chart, batch, ws[0], h)
    assert got.shape == ws.shape
    for r in range(5):
        single = cn.integrate_geodesic(chart, xs[r], vs[r], 1.0, h)
        assert np.array_equal(got[r],
                              cn.parallel_transport(chart, single, ws[0], h))


def test_normal_loop_integrates_each_distinct_v_once(monkeypatch):
    chart = cn.cartan_schouten_chart(0.25)
    mu = cn._NormalLoop(chart, np.zeros(7), h_ode=1.0 / 16)
    d = 1e-2 * np.eye(7)
    z = np.zeros(7)
    neg_zero = d[1] * 1.0
    neg_zero[0] = -0.0
    us = np.array([d[0], d[2], -d[0], d[3], d[4], d[5], z])
    vs = np.array([d[1], d[1], neg_zero, d[6], d[1], d[6], d[2]])
    real = cn.geodesic_with_frame
    batches = []

    def counted(chart, x0, v0, t_end=1.0, h=1e-3):
        batches.append(np.array(v0))
        return real(chart, x0, v0, t_end, h)

    monkeypatch.setattr(cn, "geodesic_with_frame", counted)
    got = mu(us, vs)
    # d[1], -0.0-signed d[1] and d[6]; the zero-u row is integrated never
    assert len(batches) == 1 and len(batches[0]) == 3
    assert np.array_equal(got[6], vs[6])
    for r in range(6):
        assert np.array_equal(got[r], mu(us[r:r + 1], vs[r:r + 1])[0])


@pytest.mark.parametrize("n, shot", [(2, 48), (4, 448), (7, 2548)])
def test_jet_stencil_shoots_each_row_once(n, shot):
    us, vs, sizes = cn._jet_stencil(n, 1e-2)
    assert sum(sizes) == len(us) == len(vs)
    live = np.any(us != 0.0, axis=1) & np.any(vs != 0.0, axis=1)
    rows = np.hstack([us, vs])[live]
    # compared by value, so rows that differ only in a signed zero count
    # as one
    assert len(rows) == len(np.unique(rows, axis=0)) == shot


@pytest.mark.parametrize("make, e", [
    (lambda: cn.cartan_schouten_chart(0.0), np.zeros(7)),
    (lambda: cn.cartan_schouten_chart(0.25), np.zeros(7)),
    (cn.sphere2_chart, np.array([1.2, 0.3])),
])
def test_fit_alpha_is_the_full_fits_alpha(make, e):
    chart = make()
    rep = cn.fit_fundamental_tensors(chart, e, h=1e-2, richardson=False,
                                     h_ode=1.0 / 16)
    assert np.array_equal(cn.fit_alpha(chart, e, 1e-2, 1.0 / 16), rep.alpha)


def test_cartan_suite_shoots_only_lam_rows(monkeypatch):
    from g2lab import cli
    rows, frames = [], []
    real_loop = cn._NormalLoop.__call__
    real_frame = cn.geodesic_with_frame

    def loop(self, us, vs):
        rows.append(len(us))
        return real_loop(self, us, vs)

    def frame(chart, x0, v0, t_end=1.0, h=1e-3):
        frames.append(len(v0))
        return real_frame(chart, x0, v0, t_end, h)

    monkeypatch.setattr(cn._NormalLoop, "__call__", loop)
    monkeypatch.setattr(cn, "geodesic_with_frame", frame)
    assert cli.run_suite("cartan", cli.RunConfig(seed=42))["pass"]
    # two fits of the 4 * 7^2 lam rows, with one frame per distinct v
    assert rows == [4 * 7**2] * 2
    assert frames == [14] * 2


def _serial_fit(chart, e, h, richardson, h_ode):
    """The loop-jet fit evaluated one stencil point at a time through
    single-point engine calls, with the pointwise difference formulas."""
    e = np.asarray(e, dtype=float)
    n = chart.n
    frames = {}

    def mu_fn(u, v):
        if np.max(np.abs(u)) == 0.0:
            return v.copy()
        if np.max(np.abs(v)) == 0.0:
            return u.copy()
        key = v.tobytes()
        if key not in frames:
            y, _, m = cn.geodesic_with_frame(chart, e, v, 1.0, h_ode)
            frames[key] = (y, m)
        y, m = frames[key]
        z = cn.exp_map(chart, y, m @ u, h_ode)
        return cn.exp_inverse(chart, e, z, h_ode, tol=1e-12)

    def jets(h):
        lam = np.zeros((n, n, n))
        for j in range(n):
            for k in range(n):
                uj = h * np.eye(n)[j]
                vk = h * np.eye(n)[k]
                lam[:, j, k] = (mu_fn(uj, vk) - mu_fn(-uj, vk)
                                - mu_fn(uj, -vk)
                                + mu_fn(-uj, -vk)) / (4 * h * h)

        def third(first_double):
            def f(a, b):
                return mu_fn(a, b) if first_double else mu_fn(b, a)

            out = np.zeros((n, n, n, n))
            for l in range(n):
                wl = h * np.eye(n)[l]
                for j in range(n):
                    ej = h * np.eye(n)[j]
                    for k in range(j, n):
                        ek = h * np.eye(n)[k]
                        if j == k:
                            val = (f(ej, wl) - 2 * f(0 * ej, wl) + f(-ej, wl)
                                   - f(ej, -wl) + 2 * f(0 * ej, -wl)
                                   - f(-ej, -wl)) / (2 * h**3)
                        else:
                            val = np.zeros(n)
                            for s1 in (1.0, -1.0):
                                for s2 in (1.0, -1.0):
                                    for s3 in (1.0, -1.0):
                                        val = val + s1 * s2 * s3 * f(
                                            s1 * ej + s2 * ek, s3 * wl)
                            val /= 8 * h**3
                        if first_double:
                            out[:, j, k, l] = out[:, k, j, l] = val
                        else:
                            out[:, l, j, k] = out[:, l, k, j] = val
            return out

        return lam, third(True), third(False)

    lam, mu3, nu3 = jets(h)
    if richardson:
        lam2, mu32, nu32 = jets(h / 2.0)
        lam = (4.0 * lam2 - lam) / 3.0
        mu3 = (4.0 * mu32 - mu3) / 3.0
        nu3 = (4.0 * nu32 - nu3) / 3.0
    alpha = 0.5 * (lam - np.swapaxes(lam, 1, 2))
    beta = 0.5 * (nu3 - mu3
                  + np.einsum("mkl,ijm->ijkl", lam, lam)
                  - np.einsum("mjk,iml->ijkl", lam, lam))
    return lam, mu3, nu3, alpha, beta


@pytest.mark.parametrize("make, e, richardson", [
    (lambda: cn.cartan_schouten_chart(0.25), np.zeros(7), False),
    (cn.sphere2_chart, np.array([1.2, 0.3]), True),
])
def test_fit_matches_serial_oracle(make, e, richardson):
    chart = make()
    rep = cn.fit_fundamental_tensors(chart, e, h=1e-2, richardson=richardson,
                                     h_ode=1.0 / 16)
    want = _serial_fit(chart, e, 1e-2, richardson, 1.0 / 16)
    for got, ref in zip((rep.lam, rep.mu, rep.nu, rep.alpha, rep.beta), want):
        assert np.array_equal(got, ref)
