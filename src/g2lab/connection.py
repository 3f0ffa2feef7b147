"""Affine connections on coordinate charts: geodesics, parallel transport,
the exponential map and its inverse, the geodesic loop product, loop
Taylor coefficients, and torsion/contorsion/curvature from Christoffel
symbols.

Index conventions, fixed package-wide:

* ``gamma(x)[i, j, k]`` are the Christoffel symbols with the covariant
  derivative direction in the middle slot: nabla_{d_j} d_k = G^i_jk d_i.
* geodesics solve  x''^i + G^i_jk x'^j x'^k = 0,
* parallel transport solves  X'^i + G^i_jk x'^j X^k = 0,
* the torsion symbols reported here are  T^i_jk = G^i_kj - G^i_jk.

The torsion sign is the one under which the geodesic loop built from
this transport satisfies 2*alpha = -T (and Gamma = LeviCivita + S gives
T = -2S for antisymmetric S); the chart realization of the parallelized
7-sphere family then reproduces 2*alpha = (1 - 2*a) c with the plus
sign.  The curvature components follow
R^i_jkl = G^m_lj G^i_km - G^m_kj G^i_lm + d_k G^i_lj - d_l G^i_kj.
"""

from __future__ import annotations

import json
from math import ceil

import numpy as np

from .errors import BadConfig, LeftDomain, NoConvergence, SingularMetric
from .octonion import C3


class ConnectionChart:
    """Coordinate chart carrying Christoffel symbols as a smooth field."""

    __slots__ = ("n", "gamma", "domain", "metric_field", "normal_radius",
                 "name")

    def __init__(self, n: int, gamma, domain, metric_field=None,
                 normal_radius: float = 1.0, name: str = "chart") -> None:
        self.n = n
        self.gamma = gamma
        self.domain = np.asarray(domain, dtype=float)
        if self.domain.shape != (n, 2):
            raise BadConfig(f"domain must be shape ({n}, 2)")
        self.metric_field = metric_field
        self.normal_radius = normal_radius
        self.name = name

    def check_inside(self, x: np.ndarray) -> None:
        if np.any(x < self.domain[:, 0]) or np.any(x > self.domain[:, 1]):
            raise LeftDomain(f"point {x} left the domain of {self.name}")


class Path:
    """Time-stamped points and velocities of a curve in a chart."""

    __slots__ = ("ts", "xs", "vs")

    def __init__(self, ts, xs, vs) -> None:
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)

    @property
    def endpoint(self) -> np.ndarray:
        return self.xs[-1].copy()

    @property
    def end_velocity(self) -> np.ndarray:
        return self.vs[-1].copy()

    def hermite(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Cubic Hermite value and velocity at parameter t."""
        ts = self.ts
        i = min(max(int(np.searchsorted(ts, t) - 1), 0), len(ts) - 2)
        dt = ts[i + 1] - ts[i]
        s = (t - ts[i]) / dt
        x0, x1 = self.xs[i], self.xs[i + 1]
        v0, v1 = self.vs[i] * dt, self.vs[i + 1] * dt
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        x = h00 * x0 + h10 * v0 + h01 * x1 + h11 * v1
        d00 = 6 * s**2 - 6 * s
        d10 = 3 * s**2 - 4 * s + 1
        d01 = -6 * s**2 + 6 * s
        d11 = 3 * s**2 - 2 * s
        v = (d00 * x0 + d10 * v0 + d01 * x1 + d11 * v1) / dt
        return x, v


class GeodesicPath(Path):
    """Path produced by the geodesic integrator."""

    __slots__ = ("origin", "v0", "h")

    def __init__(self, ts, xs, vs, origin, v0, h) -> None:
        super().__init__(ts, xs, vs)
        self.origin = np.asarray(origin, dtype=float)
        self.v0 = np.asarray(v0, dtype=float)
        self.h = h


def _steps_for(t_end: float, h: float) -> int:
    return max(1, ceil(abs(t_end) / h - 1e-12))


def integrate_geodesic(chart: ConnectionChart, x0, v0, t_end: float = 1.0,
                       h: float = 1e-3) -> GeodesicPath:
    """Classical fixed-step 4th-order integration of the geodesic equation."""
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    chart.check_inside(x)
    n_steps = _steps_for(t_end, h)
    dt = t_end / n_steps
    ts = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    gamma = chart.gamma

    def acc(x, v):
        return -np.einsum("ijk,j,k->i", gamma(x), v, v)

    for step in range(n_steps):
        k1x, k1v = v, acc(x, v)
        k2x, k2v = v + 0.5 * dt * k1v, acc(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = v + 0.5 * dt * k2v, acc(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = v + dt * k3v, acc(x + dt * k3x, v + dt * k3v)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        chart.check_inside(x)
        ts.append((step + 1) * dt)
        xs.append(x.copy())
        vs.append(v.copy())
    return GeodesicPath(ts, xs, vs, x0, v0, dt)


def geodesic_with_frame(chart: ConnectionChart, x0, v0, t_end: float = 1.0,
                        h: float = 1e-3):
    """Integrate the geodesic and the parallel frame along it jointly.

    Returns (endpoint, end_velocity, M) where M maps a vector at x0 to
    its parallel transport at the endpoint.
    """
    n = chart.n
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    m = np.eye(n)
    chart.check_inside(x)
    n_steps = _steps_for(t_end, h)
    dt = t_end / n_steps
    gamma = chart.gamma

    def rhs(state):
        x, v, m = state
        g = gamma(x)
        return (v,
                -np.einsum("ijk,j,k->i", g, v, v),
                -np.einsum("ijk,j,kc->ic", g, v, m))

    for _ in range(n_steps):
        s0 = (x, v, m)
        k1 = rhs(s0)
        k2 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(s0, k1)))
        k3 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(s0, k2)))
        k4 = rhs(tuple(a + dt * b for a, b in zip(s0, k3)))
        x, v, m = tuple(a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                        for a, b1, b2, b3, b4 in zip(s0, k1, k2, k3, k4))
        chart.check_inside(x)
    return x, v, m


def parallel_transport(chart: ConnectionChart, path: Path, w0,
                       h: float = 1e-3) -> np.ndarray:
    """Transport w0 along a sampled path (cubic Hermite interpolated)."""
    w = np.asarray(w0, dtype=float).copy()
    t0, t1 = float(path.ts[0]), float(path.ts[-1])
    n_steps = _steps_for(t1 - t0, h)
    dt = (t1 - t0) / n_steps
    gamma = chart.gamma

    def rhs(t, w):
        x, v = path.hermite(t)
        return -np.einsum("ijk,j,k->i", gamma(x), v, w)

    t = t0
    for _ in range(n_steps):
        k1 = rhs(t, w)
        k2 = rhs(t + 0.5 * dt, w + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, w + 0.5 * dt * k2)
        k4 = rhs(t + dt, w + dt * k3)
        w = w + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return w


def central_diff(f, x, step: float) -> np.ndarray:
    """Central differences of f at x along every coordinate axis, stacked
    on a new leading axis: out[m] = (f(x + step e_m) - f(x - step e_m))
    / (2 step)."""
    x = np.asarray(x, dtype=float)
    return np.array([(np.asarray(f(x + dx)) - np.asarray(f(x - dx)))
                     / (2 * step) for dx in step * np.eye(x.size)])


def exp_map(chart: ConnectionChart, e, v, h: float = 1e-3) -> np.ndarray:
    """Geodesic endpoint exp_e(v) at unit time."""
    v = np.asarray(v, dtype=float)
    if np.max(np.abs(v)) == 0.0:
        return np.asarray(e, dtype=float).copy()
    return integrate_geodesic(chart, e, v, 1.0, h).endpoint


def exp_inverse(chart: ConnectionChart, e, y, h: float = 1e-3,
                tol: float = 1e-11, max_iter: int = 50,
                fd_step: float = 1e-6) -> np.ndarray:
    """Invert the exponential map by damped shooting.

    Newton iteration on v -> exp_e(v) - y, starting from y - e.  The
    Jacobian starts as the identity (exact at v = 0) and is replaced by a
    finite-difference Jacobian whenever convergence stalls.
    """
    e = np.asarray(e, dtype=float)
    y = np.asarray(y, dtype=float)
    v = y - e
    jac = None
    prev = np.inf
    for _ in range(max_iter):
        r = exp_map(chart, e, v, h) - y
        err = float(np.max(np.abs(r)))
        if err <= tol:
            return v
        if jac is None and err > 0.5 * prev:
            jac = central_diff(lambda w: exp_map(chart, e, w, h), v,
                               fd_step).T
        step = r if jac is None else np.linalg.solve(jac, r)
        # damp when the full step would overshoot badly
        scale = 1.0
        if np.linalg.norm(step) > 0.5 * max(np.linalg.norm(v), 1.0):
            scale = 0.5
        v = v - scale * step
        prev = err
    raise NoConvergence(f"exp_inverse stalled at residual {err:.3e}")


def loop_product(chart: ConnectionChart, e, x, y,
                 h: float = 1e-3) -> np.ndarray:
    """Geodesic loop product: shoot exp_e^-1(x), transport it along the
    geodesic from e to y, and shoot from y."""
    e = np.asarray(e, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = exp_inverse(chart, e, x, h)
    vy = exp_inverse(chart, e, y, h)
    if np.max(np.abs(vy)) == 0.0:
        w = u
    else:
        _, _, m = geodesic_with_frame(chart, e, vy, 1.0, h)
        w = m @ u
    return exp_map(chart, y, w, h)


# -- loop Taylor coefficients -------------------------------------------------

class LoopExpansionReport:
    """Fitted Taylor coefficients of a geodesic loop product.

    ``beta`` is normalized so that the loop relations 2*alpha = -T and
    4*beta = -(nabla T) - R hold; it equals one quarter of the raw
    combination 2*(nu - mu + lam lam - lam lam) of the fitted jets.
    """

    __slots__ = ("lam", "mu", "nu", "alpha", "beta", "fit_scale",
                 "richardson", "residuals")

    def __init__(self, lam, mu, nu, alpha, beta, fit_scale, richardson,
                 residuals=None):
        self.lam = lam
        self.mu = mu
        self.nu = nu
        self.alpha = alpha
        self.beta = beta
        self.fit_scale = fit_scale
        self.richardson = richardson
        self.residuals = residuals or {}


class _NormalLoop:
    """Loop product re-expressed in exponential normal coordinates at e,
    with per-v caching of the geodesic/frame integration."""

    def __init__(self, chart: ConnectionChart, e, h_ode: float,
                 newton_tol: float = 1e-12) -> None:
        self.chart = chart
        self.e = np.asarray(e, dtype=float)
        self.h_ode = h_ode
        self.newton_tol = newton_tol
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def _shoot(self, v: np.ndarray):
        key = v.tobytes()
        hit = self._cache.get(key)
        if hit is None:
            y, _, m = geodesic_with_frame(self.chart, self.e, v, 1.0,
                                          self.h_ode)
            hit = (y, m)
            self._cache[key] = hit
        return hit

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if np.max(np.abs(u)) == 0.0:
            return v.copy()
        if np.max(np.abs(v)) == 0.0:
            return u.copy()
        y, m = self._shoot(v)
        z = exp_map(self.chart, y, m @ u, self.h_ode)
        return exp_inverse(self.chart, self.e, z, self.h_ode,
                           tol=self.newton_tol)


def _fit_jets(mu_fn, n: int, h: float):
    """Second-order central-difference estimates of the loop jets."""
    lam = np.zeros((n, n, n))
    for j in range(n):
        for k in range(n):
            uj = h * np.eye(n)[j]
            vk = h * np.eye(n)[k]
            lam[:, j, k] = (mu_fn(uj, vk) - mu_fn(-uj, vk)
                            - mu_fn(uj, -vk) + mu_fn(-uj, -vk)) / (4 * h * h)

    def third(first_double: bool):
        out = np.zeros((n, n, n, n))
        for l in range(n):
            wl = h * np.eye(n)[l]
            for j in range(n):
                ej = h * np.eye(n)[j]
                for k in range(j, n):
                    ek = h * np.eye(n)[k]
                    if j == k:
                        def f(a, b):
                            return mu_fn(a, b) if first_double else mu_fn(b, a)
                        val = (f(ej, wl) - 2 * f(0 * ej, wl) + f(-ej, wl)
                               - f(ej, -wl) + 2 * f(0 * ej, -wl)
                               - f(-ej, -wl)) / (2 * h**3)
                    else:
                        val = np.zeros(n)
                        for s1 in (1.0, -1.0):
                            for s2 in (1.0, -1.0):
                                for s3 in (1.0, -1.0):
                                    arg1 = s1 * ej + s2 * ek
                                    arg2 = s3 * wl
                                    if first_double:
                                        term = mu_fn(arg1, arg2)
                                    else:
                                        term = mu_fn(arg2, arg1)
                                    val = val + s1 * s2 * s3 * term
                        val /= 8 * h**3
                    if first_double:
                        out[:, j, k, l] = val
                        out[:, k, j, l] = val
                    else:
                        out[:, l, j, k] = val
                        out[:, l, k, j] = val
        return out

    mu3 = third(True)    # mu^i_jkl, symmetric in (j, k)
    nu3 = third(False)   # nu^i_jkl, symmetric in (k, l)
    return lam, mu3, nu3


def fit_fundamental_tensors(chart: ConnectionChart, e, h: float = 1e-2,
                            richardson: bool = True,
                            h_ode: float | None = None) -> LoopExpansionReport:
    """Fit lambda, mu, nu by central differences of the loop product and
    assemble the fundamental tensors alpha and beta.

    The product is evaluated in exponential normal coordinates at e, where
    the torsion/curvature relations hold.
    """
    n = chart.n
    if h_ode is None:
        # the stencil geodesics have amplitude ~h, so a handful of
        # integrator steps already sits far below the fit truncation
        h_ode = 1.0 / 16.0
    mu_fn = _NormalLoop(chart, e, h_ode)
    lam, mu3, nu3 = _fit_jets(mu_fn, n, h)
    if richardson:
        lam2, mu32, nu32 = _fit_jets(mu_fn, n, h / 2.0)
        lam = (4.0 * lam2 - lam) / 3.0
        mu3 = (4.0 * mu32 - mu3) / 3.0
        nu3 = (4.0 * nu32 - nu3) / 3.0
    alpha = 0.5 * (lam - np.swapaxes(lam, 1, 2))
    beta = 0.5 * (nu3 - mu3
                  + np.einsum("mkl,ijm->ijkl", lam, lam)
                  - np.einsum("mjk,iml->ijkl", lam, lam))
    # measure the underlying round trip; the normal-coordinate product
    # short-circuits exact unit arguments
    probe = h * np.eye(n)[0]
    z = exp_map(chart, mu_fn.e, probe, mu_fn.h_ode)
    back = exp_inverse(chart, mu_fn.e, z, mu_fn.h_ode, tol=mu_fn.newton_tol)
    unit_law = float(np.max(np.abs(back - probe)))
    return LoopExpansionReport(lam, mu3, nu3, alpha, beta, h, richardson,
                               {"unit_law": unit_law})


# -- torsion, contorsion, curvature ------------------------------------------

class CurvatureData:
    """Torsion symbols, contorsion, curvature, and the covariant
    derivative of the torsion at a point."""

    __slots__ = ("torsion", "contorsion", "curvature", "nabla_torsion",
                 "metric_residual")

    def __init__(self, torsion, contorsion, curvature, nabla_torsion,
                 metric_residual) -> None:
        self.torsion = torsion
        self.contorsion = contorsion
        self.curvature = curvature
        self.nabla_torsion = nabla_torsion
        self.metric_residual = metric_residual


def _christoffel(g0: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """G[k, i, j] = 1/2 g^kl (g_jl,i + g_il,j - g_ij,l) from the metric
    g0, checked positive definite, and dg[m, a, b] = g_ab,m."""
    eig = np.linalg.eigvalsh(0.5 * (g0 + g0.T))
    if eig[0] <= 0:
        raise SingularMetric(f"metric not SPD, min eig {eig[0]:.3e}")
    comb = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(g0), comb)


def levi_civita(metric_field, x, fd_step: float = 1e-5) -> np.ndarray:
    """Christoffel symbols of a metric field by central differences."""
    x = np.asarray(x, dtype=float)
    return _christoffel(np.asarray(metric_field(x), dtype=float),
                        central_diff(metric_field, x, fd_step))


def curvature_data(chart: ConnectionChart, e,
                   fd_step: float = 1e-5) -> CurvatureData:
    """Torsion symbols T^i_jk = G^i_kj - G^i_jk, curvature per the
    Christoffel formula, nabla T, and (when a metric is present) the
    contorsion S = Gamma - LeviCivita with the metric-compatibility
    residual of nabla g."""
    e = np.asarray(e, dtype=float)
    g = chart.gamma(e)
    torsion = np.transpose(g, (0, 2, 1)) - g

    def gamma_inside(y):
        chart.check_inside(y)
        return chart.gamma(y)

    dgam = central_diff(gamma_inside, e, fd_step)
    # R^i_jkl = G^m_lj G^i_km - G^m_kj G^i_lm + d_k G^i_lj - d_l G^i_kj
    curv = (np.einsum("mlj,ikm->ijkl", g, g)
            - np.einsum("mkj,ilm->ijkl", g, g)
            + np.einsum("kilj->ijkl", dgam)
            - np.einsum("likj->ijkl", dgam))
    dtor = np.transpose(dgam, (0, 1, 3, 2)) - dgam  # d_m T^i_jk
    nabla_t = (np.einsum("lijk->ijkl", dtor)
               + np.einsum("ilm,mjk->ijkl", g, torsion)
               - np.einsum("mlj,imk->ijkl", g, torsion)
               - np.einsum("mlk,ijm->ijkl", g, torsion))
    contorsion = None
    metric_residual = None
    if chart.metric_field is not None:
        g0 = np.asarray(chart.metric_field(e), dtype=float)
        dgm = central_diff(chart.metric_field, e, fd_step)
        contorsion = g - _christoffel(g0, dgm)
        nabla_g = (dgm - np.einsum("lki,lj->kij", g, g0)
                   - np.einsum("lkj,il->kij", g, g0))
        metric_residual = float(np.max(np.abs(nabla_g)))
    return CurvatureData(torsion, contorsion, curv, nabla_t, metric_residual)


def akivis_check(chart: ConnectionChart, e, h_list,
                 fd_step: float = 1e-5,
                 h_ode: float | None = None) -> dict:
    """Convergence study of the loop/connection relations at e.

    For each fit scale h the loop product is fitted in normal
    coordinates at e and the residuals
        r1(h) = || 2 alpha + T ||_inf
        r2(h) = || 4 beta + nabla T + R ||_inf
    are reported against the tensors from ``curvature_data``.
    """
    data = curvature_data(chart, e, fd_step)
    out = {"h": [], "r1": [], "r2": [], "alpha_norm": [], "beta_norm": []}
    for h in h_list:
        rep = fit_fundamental_tensors(chart, e, h=h, richardson=True,
                                      h_ode=h_ode)
        r1 = float(np.max(np.abs(2.0 * rep.alpha + data.torsion)))
        r2 = float(np.max(np.abs(4.0 * rep.beta + data.nabla_torsion
                                 + data.curvature)))
        out["h"].append(float(h))
        out["r1"].append(r1)
        out["r2"].append(r2)
        out["alpha_norm"].append(float(np.max(np.abs(rep.alpha))))
        out["beta_norm"].append(float(np.max(np.abs(rep.beta))))
    out["torsion"] = data.torsion
    return out


# -- builtin charts -----------------------------------------------------------

def flat_chart(n: int, half_width: float = 10.0) -> ConnectionChart:
    zero = np.zeros((n, n, n))
    eye = np.eye(n)
    return ConnectionChart(
        n, lambda x: zero, [[-half_width, half_width]] * n,
        metric_field=lambda x: eye, normal_radius=half_width,
        name="flat")


def _sphere2_metric(x: np.ndarray) -> np.ndarray:
    return np.diag([1.0, np.sin(x[0]) ** 2])


def _sphere2_gamma(x: np.ndarray) -> np.ndarray:
    theta = x[0]
    g = np.zeros((2, 2, 2))
    g[0, 1, 1] = -np.sin(theta) * np.cos(theta)
    cot = np.cos(theta) / np.sin(theta)
    g[1, 0, 1] = cot
    g[1, 1, 0] = cot
    return g


def sphere2_chart(margin: float = 0.2) -> ConnectionChart:
    """Round unit 2-sphere in polar coordinates (theta, phi)."""
    return ConnectionChart(
        2, _sphere2_gamma, [[margin, np.pi - margin], [-12.0, 12.0]],
        metric_field=_sphere2_metric, normal_radius=1.0, name="sphere2")


def conformal_chart(grad, half_width: float = 2.0) -> ConnectionChart:
    """Levi-Civita chart of exp(2 f) delta with linear f = <grad, x>."""
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

    return ConnectionChart(n, gamma, [[-half_width, half_width]] * n,
                           metric_field=metric, normal_radius=half_width,
                           name="conformal")


def cartan_schouten_chart(alpha_param: float,
                          half_width: float = 1.0) -> ConnectionChart:
    """Normal-coordinate model of the parallelized 7-sphere family:
    Gamma(x) = k c with k = (1 - 2 a)/2, constant, metric-compatible
    with the Euclidean metric."""
    k = 0.5 * (1.0 - 2.0 * alpha_param)
    const = k * C3
    eye = np.eye(7)
    return ConnectionChart(
        7, lambda x: const, [[-half_width, half_width]] * 7,
        metric_field=lambda x: eye, normal_radius=half_width,
        name=f"cartan_schouten({alpha_param})")


def levi_civita_chart(metric_field, n: int, domain,
                      fd_step: float = 1e-5,
                      name: str = "levi_civita_of") -> ConnectionChart:
    """Chart whose symbols are the Levi-Civita connection of a metric
    field, evaluated by central differences."""
    return ConnectionChart(
        n, lambda x: levi_civita(metric_field, x, fd_step), domain,
        metric_field=metric_field, name=name)


def torsion_offset_chart(base: ConnectionChart, s: np.ndarray,
                         name: str | None = None) -> ConnectionChart:
    """Gamma = base Gamma + S for a constant tensor S (e.g. a totally
    antisymmetric contorsion added to a Levi-Civita chart)."""
    s = np.asarray(s, dtype=float)

    def gamma(x):
        return base.gamma(x) + s

    return ConnectionChart(base.n, gamma, base.domain,
                           metric_field=base.metric_field,
                           normal_radius=base.normal_radius,
                           name=name or f"{base.name}+S")


class GridGamma:
    """Multilinear interpolation of Christoffel symbols sampled on a
    regular grid over a box."""

    def __init__(self, lo, hi, samples: np.ndarray) -> None:
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        self.shape = np.array(self.samples.shape[:len(self.lo)])
        self.spacing = (self.hi - self.lo) / (self.shape - 1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        rel = (np.asarray(x, dtype=float) - self.lo) / self.spacing
        cell = np.clip(np.floor(rel).astype(int), 0, self.shape - 2)
        w = rel - cell
        n = len(self.lo)
        out = 0.0
        for corner in range(2 ** n):
            bits = [(corner >> b) & 1 for b in range(n)]
            weight = np.prod([w[b] if bits[b] else 1.0 - w[b]
                              for b in range(n)])
            idx = tuple(cell[b] + bits[b] for b in range(n))
            out = out + weight * self.samples[idx]
        return out


def grid_chart_from(chart: ConnectionChart, points_per_axis: int,
                    shrink: float = 0.0) -> ConnectionChart:
    """Sample a closed-form chart onto a regular grid."""
    lo = chart.domain[:, 0] + shrink
    hi = chart.domain[:, 1] - shrink
    n = chart.n
    axes = [np.linspace(lo[i], hi[i], points_per_axis) for i in range(n)]
    shape = (points_per_axis,) * n
    samples = np.zeros(shape + (n, n, n))
    for flat_idx in range(points_per_axis ** n):
        idx = np.unravel_index(flat_idx, shape)
        x = np.array([axes[i][idx[i]] for i in range(n)])
        samples[idx] = chart.gamma(x)
    gamma = GridGamma(lo, hi, samples)
    return ConnectionChart(n, gamma, np.stack([lo, hi], axis=1),
                           metric_field=chart.metric_field,
                           normal_radius=chart.normal_radius,
                           name=f"{chart.name}-grid")


_NAMED_METRICS = {
    "sphere2": (_sphere2_metric, 2),
}


def chart_from_config(config: dict) -> ConnectionChart:
    """Build a chart from the JSON chart-definition schema."""
    try:
        n = int(config["dim"])
        kind = config["kind"]
        gamma_name = config["gamma"]
        params = dict(config.get("params", {}))
        domain = config.get("domain")
    except (KeyError, TypeError) as exc:
        raise BadConfig(f"bad chart config: {exc}") from exc
    grid_points = int(params.pop("points", 9))
    if gamma_name == "flat":
        chart = flat_chart(n)
    elif gamma_name == "sphere2":
        chart = sphere2_chart(**params)
    elif gamma_name == "cartan_schouten":
        chart = cartan_schouten_chart(**params)
    elif gamma_name == "levi_civita_of":
        metric_name = params.get("metric", "sphere2")
        if metric_name == "conformal":
            chart = conformal_chart(params.get("grad", [0.1, 0.0]))
        elif metric_name in _NAMED_METRICS:
            field, nn = _NAMED_METRICS[metric_name]
            dom = domain or [[0.2, np.pi - 0.2], [-12, 12]]
            chart = levi_civita_chart(field, nn, dom, name=metric_name)
        else:
            raise BadConfig(f"unknown metric {metric_name!r}")
    else:
        raise BadConfig(f"unknown gamma builtin {gamma_name!r}")
    if domain is not None:
        chart.domain = np.asarray(domain, dtype=float)
    if kind == "grid":
        chart = grid_chart_from(chart, grid_points)
    elif kind != "closed_form":
        raise BadConfig(f"unknown chart kind {kind!r}")
    return chart


def chart_from_json(path) -> ConnectionChart:
    with open(path, "r", encoding="utf-8") as fh:
        return chart_from_config(json.load(fh))


BUILTIN_CHARTS = ("flat", "sphere2", "cartan_schouten", "levi_civita_of")
