"""Affine connections on coordinate charts: geodesics, parallel transport,
the exponential map and its inverse, the geodesic loop product, loop
Taylor coefficients, and torsion/curvature from the chart's closed-form
∂Γ.

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

The ODE engine is one classical fixed-step RK4 stepper, ``_rk4``, over a
tuple state whose arrays share optional leading batch axes: (x, v) of
shape (N, n) for geodesics, (x, v, M) with M of shape (N, n, n) for the
geodesic with its parallel frame, and (w,) for transport along a sampled
path; every integrator steps through it, and the geodesic ones check
the whole batch against the domain once per step.  ``exp_map`` and
``geodesic_with_frame`` shoot through ``_shoot``, the one zero-velocity
and domain rule: it checks every row's start against the domain, steps
only the rows with v != 0, and keeps only the current state, where
``integrate_geodesic`` stores the path.
Every public ODE function and ``loop_product`` take a single point of
shape (n,) or rows of shape (N, n); each row of a batch gets the bits a
single-point call gives it, because every contraction is a stacked
product that acts row by row: the symbols meet a velocity only in
``_gamma_dot``, and each right-hand side applies its A = G·v.
``exp_inverse`` is one damped Newton iteration over the distinct (e, y)
rows (``_distinct_rows``, the package's one row-dedup rule), with a
per-row convergence mask and a per-row finite-difference Jacobian
fallback (the batched ``central_diff`` of ``exp_map``); a repeated row
takes the result of its first, each iteration shoots the rows still
active through ``exp_map`` in one call, and every Newton solve stops at
the one residual ``_NEWTON_TOL``.  ``loop_product`` runs that iteration
once over both targets x and y, with each shot carrying the parallel
frame through ``geodesic_with_frame``, so a point that several rows
target from one e is shot once.  A row keeps the frame of the shot it
converged on, whose geodesic is the one from e to y, so the product
takes two integrations: that solve, then one ``exp_map`` from y of the
transported exp_e^-1(x).  The loop-jet fit has two ways in, both through
``_normal_loop``, that product in normal coordinates at e, with one
batched call per fit: ``akivis_check`` shoots the stencils of all its
scales in one call, each distinct (u, v) row once (a diagonal
third-order term is a lam row or has a zero argument, so it is read, not
shot), and ``_fit_jets`` combines each scale's rows and shoots nothing;
``fit_alpha`` shoots only the lam rows.
References: Hairer, Norsett & Wanner, Solving ODEs I, II.1 (RK4) and
II.4 (Richardson extrapolation).
"""

from __future__ import annotations

from math import ceil, inf

import numpy as np

from .errors import BadConfig, LeftDomain, NoConvergence, SingularMetric
from .octonion import C3, dot


def _require_inside(domain: np.ndarray, x, name: str) -> None:
    """Raise LeftDomain unless every point of x, shape (n,) or (..., n),
    lies in the box domain[:, 0] <= x <= domain[:, 1].  The comparison is
    written so that a NaN coordinate counts as outside."""
    x = np.asarray(x)
    inside = (domain[:, 0] <= x) & (x <= domain[:, 1])
    if not inside.all():
        rows = x.reshape(-1, x.shape[-1])
        bad = rows[~inside.reshape(rows.shape).all(axis=1)][0]
        raise LeftDomain(f"point {bad} left the domain of {name}")


def _domain_box(domain, n: int) -> np.ndarray:
    """domain as an (n, 2) float array of [lo, hi] rows, else BadConfig."""
    box = np.asarray(domain, dtype=float)
    if box.shape != (n, 2):
        raise BadConfig(f"domain must be shape ({n}, 2), got {box.shape}")
    return box


class ConnectionChart:
    """Coordinate chart carrying Christoffel symbols as a smooth field,
    with their first derivatives in closed form.

    ``gamma`` maps points x of shape (..., n) to symbols of shape
    (..., n, n, n), one (n, n, n) block per point; a chart whose symbols
    do not depend on x may return one constant (n, n, n) array for any
    batch.  The integrators contract with either form by broadcasting, so
    they never ask which kind of chart they hold.  ``dgamma`` maps the
    same points to the derivatives dgamma(x)[..., m, i, j, k] = d_m G^i_jk,
    shape (..., n, n, n, n), the layout ``central_diff`` of ``gamma``
    stacks at one point; a chart with constant symbols returns zeros.
    """

    __slots__ = ("n", "gamma", "dgamma", "domain", "name")

    def __init__(self, n: int, gamma, dgamma, domain, *, name: str) -> None:
        self.n = n
        self.gamma = gamma
        self.dgamma = dgamma
        self.domain = _domain_box(domain, n)
        self.name = name

    def check_inside(self, x: np.ndarray) -> None:
        _require_inside(self.domain, x, self.name)


class Path:
    """Time-stamped points and velocities of a curve in a chart.

    ``xs`` and ``vs`` have shape (len(ts), n), or (len(ts), N, n) for a
    batch of N curves sampled at common times.
    """

    __slots__ = ("ts", "xs", "vs")

    def __init__(self, ts, xs, vs) -> None:
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)

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


def _steps_for(t_end: float, h: float) -> int:
    """RK4 steps over t_end at step h; BadConfig unless h is finite and
    positive (a NaN h fails the comparison too)."""
    if not 0.0 < h < inf:
        raise BadConfig(f"step size h must be finite and positive, got {h}")
    return max(1, ceil(abs(t_end) / h - 1e-12))


def _rk4(rhs, state: tuple, t0: float, dt: float, n_steps: int):
    """Classical fixed-step RK4 on a tuple of arrays; rhs(t, state)
    returns the tuple of derivatives.  Yields the state after each step."""
    half = 0.5 * dt
    sixth = dt / 6.0
    t = t0
    for _ in range(n_steps):
        d1 = rhs(t, state)
        d2 = rhs(t + half, tuple([s + half * d for s, d in zip(state, d1)]))
        d3 = rhs(t + half, tuple([s + half * d for s, d in zip(state, d2)]))
        d4 = rhs(t + dt, tuple([s + dt * d for s, d in zip(state, d3)]))
        state = tuple([s + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
                       for s, k1, k2, k3, k4 in zip(state, d1, d2, d3, d4)])
        t += dt
        yield state


def _point_pair(x0, v0) -> tuple[np.ndarray, np.ndarray]:
    """Fresh float copies of x0 and v0 broadcast to one shape."""
    x, v = np.broadcast_arrays(np.asarray(x0, dtype=float),
                               np.asarray(v0, dtype=float))
    return x.copy(), v.copy()


def _gamma_dot(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A[..., i, k] = G^i_jk v^j for symbols g of shape (n, n, n) or
    (..., n, n, n) and velocities v of shape (n,) or (..., n).

    One stacked row-vector product per point, v^j against the (n, n * n)
    block G[j, (i, k)], so each row of a batch gets the bits a
    single-point call gives it."""
    n = v.shape[-1]
    blocks = g.swapaxes(-3, -2).reshape(g.shape[:-3] + (n, n * n))
    a = np.matmul(v[..., None, :], blocks)
    return a.reshape(a.shape[:-2] + (n, n))


def _geodesic_steps(chart: ConnectionChart, state: tuple, t_end: float,
                    n_steps: int):
    """Yield the geodesic state (x, v), or (x, v, M) with the parallel
    frame M carried along, after each of n_steps _rk4 steps over t_end,
    with the batch checked against the domain after every step; the
    caller checks the start."""
    gamma = chart.gamma

    def rhs(t, state):
        x, v, *frame = state
        a = _gamma_dot(gamma(x), v)
        return (v, -np.matmul(a, v[..., None])[..., 0],
                *[-np.matmul(a, m) for m in frame])

    for state in _rk4(rhs, state, 0.0, t_end / n_steps, n_steps):
        chart.check_inside(state[0])
        yield state


def _shoot(chart: ConnectionChart, state: tuple, t_end: float,
           h: float) -> tuple:
    """The geodesic state (x, v), or (x, v, M) with its parallel frame,
    after t_end, keeping only the current state while stepping.  Every
    row's start is checked against the domain; a row with v = 0 is left
    as given, and only the other rows step through _geodesic_steps.  The
    arrays of state are written in place and returned."""
    n_steps = _steps_for(t_end, h)
    chart.check_inside(state[0])
    moving = np.max(np.abs(state[1]), axis=-1) != 0.0
    if moving.any():
        for end in _geodesic_steps(chart, tuple([s[moving] for s in state]),
                                   t_end, n_steps):
            pass
        for s, part in zip(state, end):
            s[moving] = part
    return state


def integrate_geodesic(chart: ConnectionChart, x0, v0, t_end: float,
                       h: float) -> Path:
    """Classical fixed-step 4th-order integration of the geodesic equation.

    x0 and v0 are one point and velocity, shape (n,), or a batch of N,
    shape (N, n); xs and vs of the path then have shape (steps + 1, N, n).
    """
    n_steps = _steps_for(t_end, h)
    x, v = _point_pair(x0, v0)
    chart.check_inside(x)
    xs = np.empty((n_steps + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x, v
    for i, (x, v) in enumerate(_geodesic_steps(chart, (x, v), t_end,
                                               n_steps), 1):
        xs[i], vs[i] = x, v
    return Path(t_end / n_steps * np.arange(n_steps + 1), xs, vs)


def geodesic_with_frame(chart: ConnectionChart, x0, v0, t_end: float = 1.0,
                        h: float = 1e-3):
    """Integrate the geodesic and the parallel frame along it jointly.

    Returns (endpoint, end_velocity, M) where M maps a vector at x0 to
    its parallel transport at the endpoint; for a batch of N geodesics
    the three have shapes (N, n), (N, n) and (N, n, n).  A row with
    v = 0 returns its x0, its v0 and the identity unintegrated.
    """
    x, v = _point_pair(x0, v0)
    frame = np.broadcast_to(np.eye(chart.n), x.shape + (chart.n,)).copy()
    return _shoot(chart, (x, v, frame), t_end, h)


def parallel_transport(chart: ConnectionChart, path: Path, w0,
                       h: float) -> np.ndarray:
    """Transport w0 along a sampled path (cubic Hermite interpolated).

    w0 is one vector, shape (n,), or N vectors, shape (N, n), carried
    along the same path or along a batch path of N curves.
    """
    gamma = chart.gamma

    def rhs(t, state):
        x, v = path.hermite(t)
        a = _gamma_dot(gamma(x), v)
        return (-np.matmul(a, state[0][..., None])[..., 0],)

    t0, t1 = float(path.ts[0]), float(path.ts[-1])
    n_steps = _steps_for(t1 - t0, h)
    state = (np.array(w0, dtype=float),)
    for state in _rk4(rhs, state, t0, (t1 - t0) / n_steps, n_steps):
        pass
    return state[0]


def central_diff(f, x, step: float) -> np.ndarray:
    """Central differences of f at x along every coordinate axis, stacked
    on a new leading axis: out[m] = (f(x + step e_m) - f(x - step e_m))
    / (2 step).  x may be a batch of points, shape (N, n), when f maps
    such a batch row by row; out then has shape (n, N, ...)."""
    x = np.asarray(x, dtype=float)
    return np.array([(np.asarray(f(x + dx)) - np.asarray(f(x - dx)))
                     / (2 * step) for dx in step * np.eye(x.shape[-1])])


def exp_map(chart: ConnectionChart, e, v, h: float = 1e-3) -> np.ndarray:
    """Geodesic endpoint exp_e(v) at unit time, for one (e, v) pair or
    for rows of a batch; a row with v = 0 returns its e unintegrated."""
    return _shoot(chart, _point_pair(e, v), 1.0, h)[0]


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array a, told apart by their bytes (so
    +0.0 and -0.0 stay apart): firsts indexes the first row of each, in
    the order they first appear, and a[firsts][which] is a."""
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]
    _, firsts, which = np.unique(keys, return_index=True,
                                 return_inverse=True)
    # the stable sort is the one np.unique already runs; the default one
    # maps 256 kB more of numpy's sort code into memory on first use
    order = np.argsort(firsts, kind="stable")
    return firsts[order], np.argsort(order, kind="stable")[which]


# Newton shooting of exp_inverse: the residual within which a row stops,
# the shot budget, and the finite-difference step of the fallback Jacobian.
_NEWTON_TOL = 1e-12
_MAX_SHOTS = 50
_JAC_STEP = 1e-6


def _solve_exp(chart: ConnectionChart, e: np.ndarray, y: np.ndarray,
               h: float, frame: bool):
    """Damped Newton shooting for exp_e(v) = y over rows e, y of shape
    (N, n); returns v, and with frame set also the parallel frame along
    the shot on which each row converged (the identity where v = 0).

    Only the distinct (e, y) rows iterate, and a repeated row gets the v
    and frame of its first: rows are independent, so it would have taken
    the same shots.  A converged row keeps the v of its last shot, so its
    frame is the one geodesic_with_frame(e, v) gives.  Without frame the
    shots go through exp_map; the finite-difference Jacobian never
    carries a frame.
    """
    firsts, which = _distinct_rows(np.concatenate([e, y], axis=1))
    e, y = e[firsts], y[firsts]
    v = y - e
    rows, n = v.shape
    frames = np.empty((rows, n, n)) if frame else None
    jac = None
    has_jac = np.zeros(rows, dtype=bool)
    prev = np.full(rows, np.inf)
    active = np.arange(rows)
    for _ in range(_MAX_SHOTS):
        if frame:
            end, _, frames[active] = geodesic_with_frame(chart, e[active],
                                                         v[active], 1.0, h)
        else:
            end = exp_map(chart, e[active], v[active], h)
        r = end - y[active]
        err = np.max(np.abs(r), axis=1)
        open_ = ~(err <= _NEWTON_TOL)
        active, r, err = active[open_], r[open_], err[open_]
        if active.size == 0:
            return v[which], None if frames is None else frames[which]
        stalled = ~has_jac[active] & (err > 0.5 * prev[active])
        if stalled.any():
            if jac is None:
                jac = np.zeros((rows, n, n))
            fresh = active[stalled]
            e_fresh = e[fresh]
            jac[fresh] = np.transpose(central_diff(
                lambda w: exp_map(chart, e_fresh, w, h), v[fresh], _JAC_STEP),
                (1, 2, 0))
            has_jac[fresh] = True
        step = r
        solved = has_jac[active]
        if solved.any():
            step[solved] = np.linalg.solve(jac[active[solved]],
                                           r[solved][:, :, None])[:, :, 0]
        va = v[active]
        # damp when the full step would overshoot badly; each row's norm
        # has the bits np.linalg.norm gives that row alone
        scale = np.where(np.sqrt(dot(step, step))
                         > 0.5 * np.maximum(np.sqrt(dot(va, va)), 1.0),
                         0.5, 1.0)
        v[active] = va - scale[:, None] * step
        prev[active] = err
    raise NoConvergence(f"exp_inverse stalled at residual {np.max(err):.3e} "
                        f"({np.isin(which, active).sum()} of {which.size} "
                        "rows open)")


def exp_inverse(chart: ConnectionChart, e, y, h: float = 1e-3) -> np.ndarray:
    """Invert the exponential map by damped shooting.

    Newton iteration on v -> exp_e(v) - y, starting from y - e.  The
    Jacobian starts as the identity (exact at v = 0) and is replaced by a
    finite-difference Jacobian whenever convergence stalls.  e and y are
    single points or batches of rows; every row iterates on its own, a
    row stops when its residual is within _NEWTON_TOL (a NaN residual
    never is), and NoConvergence is raised when any row is still open
    after _MAX_SHOTS (50) shots.
    """
    e = np.asarray(e, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(e.shape, y.shape)
    e = np.broadcast_to(e, shape).reshape(-1, shape[-1])
    y = np.broadcast_to(y, shape).reshape(-1, shape[-1])
    v, _ = _solve_exp(chart, e, y, h, frame=False)
    return v.reshape(shape)


def loop_product(chart: ConnectionChart, e, x, y, h: float) -> np.ndarray:
    """Geodesic loop product: shoot exp_e^-1(x), transport it along the
    geodesic from e to y, and shoot from y.

    e, x and y are points (n,) or rows (N, n), broadcast together; a row
    with y = e shoots no geodesic, and its identity frame keeps
    exp_e^-1(x).  One Newton solve covers the targets x and y and keeps
    the frame of each converged shot, so the geodesic from e to y is not
    integrated again for the transport."""
    e, x, y = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                    for a in (e, x, y)))
    n = e.shape[-1]
    v, frames = _solve_exp(chart, np.concatenate([e, e]).reshape(-1, n),
                           np.concatenate([x, y]).reshape(-1, n), h,
                           frame=True)
    w = (np.split(frames, 2)[1] @ np.split(v, 2)[0][..., None])[..., 0]
    return exp_map(chart, y, w.reshape(e.shape), h)


# -- loop Taylor coefficients -------------------------------------------------

def _normal_loop(chart: ConnectionChart, e, us: np.ndarray, vs: np.ndarray,
                 h_ode: float) -> np.ndarray:
    """The loop product re-expressed in exponential normal coordinates at
    e: mu(us[r], vs[r]) for every row r of two (P, n) arrays.

    A zero argument returns the other one.  The remaining rows take one
    geodesic-with-frame integration per distinct v (``_distinct_rows``,
    so +0.0 and -0.0 entries stay apart), all in one batch.  One forward
    shot and one Newton solve then cover all of those rows.  The stencil
    geodesics have amplitude ~h, so a handful of integrator steps
    (h_ode = 1/16) already sits far below the fit truncation.
    """
    u_zero = np.max(np.abs(us), axis=1) == 0.0
    v_zero = np.max(np.abs(vs), axis=1) == 0.0
    out = vs.copy()
    out[v_zero & ~u_zero] = us[v_zero & ~u_zero]
    rows = np.flatnonzero(~u_zero & ~v_zero)
    if rows.size == 0:
        return out
    firsts, which = _distinct_rows(vs[rows])
    ys, _, ms = geodesic_with_frame(chart, e, vs[rows[firsts]], 1.0, h_ode)
    w = np.matmul(ms[which], us[rows][:, :, None])[:, :, 0]
    z = exp_map(chart, ys[which], w, h_ode)
    out[rows] = exp_inverse(chart, e, z, h_ode)
    return out


_SIGNS3 = [(s1, s2, s3) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)
           for s3 in (1.0, -1.0)]


def _jet_groups(n: int):
    """Index groups of one fit pass: all n * n pairs (p, q), which are
    (j, k) for lam and (l, j) for the diagonal third-order terms, and
    every (l, j, k) with j < k for the off-diagonal ones."""
    p, q = np.divmod(np.arange(n * n), n)
    j, k = np.triu_indices(n, 1)
    return p, q, np.repeat(np.arange(n), j.size), np.tile(j, n), np.tile(k, n)


def _lam_stencil(n: int, h: float):
    """The 4 lam terms mu(+-h e_p, +-h e_q), each over all n * n pairs
    (p, q) in row-major order."""
    eh = h * np.eye(n)
    p, q, *_ = _jet_groups(n)
    return [(eh[p], eh[q]), (-eh[p], eh[q]), (eh[p], -eh[q]),
            (-eh[p], -eh[q])]


def _lam(t, n: int, h: float) -> np.ndarray:
    """lam^i_jk from the values t of the 4 terms of ``_lam_stencil``."""
    lam = np.zeros((n, n, n))
    p, q, *_ = _jet_groups(n)
    lam[:, p, q] = ((t[0] - t[1] - t[2] + t[3]) / (4 * h * h)).T
    return lam


def _jet_stencil(n: int, h: float):
    """The (u, v) rows of one fit pass, term by term: the 4 lam terms,
    then the 8 off-diagonal terms with mu(a, w), then the same 8 with
    mu(w, a).  No row repeats: the diagonal third-order terms are lam
    rows or have a zero argument, and ``_fit_jets`` reads them from
    those.  Returns U, V of shape (P, n)."""
    eh = h * np.eye(n)
    _, _, ol, oj, ok = _jet_groups(n)
    off = [(s1 * eh[oj] + s2 * eh[ok], s3 * eh[ol]) for s1, s2, s3 in _SIGNS3]
    terms = _lam_stencil(n, h) + off + [(v, u) for u, v in off]
    return (np.concatenate([u for u, _ in terms]),
            np.concatenate([v for _, v in terms]))


def _fit_jets(mus: np.ndarray, n: int, h: float):
    """Second-order central-difference estimates of the loop jets.

    mus holds mu(U, V) for the rows U, V of ``_jet_stencil(n, h)``; they
    are combined term by term, and nothing is shot:

    * lam^i_jk from mu(+-h e_j, +-h e_k);
    * mu^i_jkl (symmetric in j, k) from mu(a, +-h e_l) and nu^i_jkl
      (symmetric in k, l) from mu(+-h e_l, a), with a = {1, 0, -1} h e_j
      on the diagonal j = k and a = +-h e_j +- h e_k for j < k.

    The diagonal terms are not shot again: mu(+-h e_j, +-h e_l) is a
    lam row, and mu(0, w) = mu(w, 0) = w exactly.
    """
    p, q, ol, oj, ok = _jet_groups(n)
    t = np.split(mus, np.cumsum([p.size] * 4 + [ol.size] * 16)[:-1])
    lam = _lam(t, n, h)

    rows_j = np.concatenate([q, oj])
    rows_k = np.concatenate([q, ok])
    rows_l = np.concatenate([p, ol])
    w = h * np.eye(n)[p]     # h e_l of the diagonal groups
    tr = q * n + p           # the lam row of pair (q, p)

    def third(d, o, first_double: bool):
        val_d = (d[0] - 2 * d[1] + d[2] - d[3] + 2 * d[4] - d[5]) / (2 * h**3)
        val_o = np.zeros((ol.size, n))
        for (s1, s2, s3), term in zip(_SIGNS3, o):
            val_o = val_o + s1 * s2 * s3 * term
        val_o /= 8 * h**3
        val = np.concatenate([val_d, val_o]).T
        out = np.zeros((n, n, n, n))
        if first_double:
            out[:, rows_j, rows_k, rows_l] = val
            out[:, rows_k, rows_j, rows_l] = val
        else:
            out[:, rows_l, rows_j, rows_k] = val
            out[:, rows_l, rows_k, rows_j] = val
        return out

    # mu^i_jkl, symmetric in (j, k): mu(a, w), mu(0, w), mu(-a, w),
    # mu(a, -w), mu(0, -w), mu(-a, -w) with a = h e_j
    mu3 = third([t[0][tr], w, t[1][tr], t[2][tr], -w, t[3][tr]], t[4:12],
                True)
    # nu^i_jkl, symmetric in (k, l): the same terms as mu(w, a)
    nu3 = third([t[0], w, t[2], t[1], -w, t[3]], t[12:20], False)
    return lam, mu3, nu3


def _fundamental_tensors(jets, fine=None):
    """lam, mu, nu and the fundamental tensors alpha, beta from the jets
    fitted at h, Richardson-combined with the jets at h/2 when ``fine``
    holds them.  beta is normalized so that the loop relations
    2 alpha = -T and 4 beta = -(nabla T) - R hold: one quarter of the
    raw combination 2 (nu - mu + lam lam - lam lam)."""
    lam, mu3, nu3 = jets
    if fine is not None:
        lam, mu3, nu3 = ((4.0 * f - c) / 3.0 for c, f in zip(jets, fine))
    alpha = 0.5 * (lam - np.swapaxes(lam, 1, 2))
    beta = 0.5 * (nu3 - mu3
                  + np.einsum("mkl,ijm->ijkl", lam, lam)
                  - np.einsum("mjk,iml->ijkl", lam, lam))
    return lam, mu3, nu3, alpha, beta


def _fit_scales(name: str, hs) -> list:
    """hs as floats; BadConfig unless there is one and all are finite > 0."""
    hs = [float(h) for h in hs]
    if not hs or not all(0.0 < h < inf for h in hs):
        raise BadConfig(f"fit scales must be finite and > 0: {name} = {hs}")
    return hs


def fit_alpha(chart: ConnectionChart, e, h: float,
              h_ode: float) -> np.ndarray:
    """alpha = (lam - lam^T) / 2 from the lam rows alone, with the bits
    of the alpha that ``_fundamental_tensors(_fit_jets(...))`` assembles
    from the full fit at h without Richardson: the 4 n^2 rows of
    ``_lam_stencil`` and 2 n frames, where the full fit shoots the whole
    third-order stencil.  A bad h is a BadConfig before any shot."""
    h, = _fit_scales("h", [h])
    terms = _lam_stencil(chart.n, h)
    t = _normal_loop(chart, e, np.concatenate([u for u, _ in terms]),
                     np.concatenate([v for _, v in terms]), h_ode)
    lam = _lam(np.split(t, 4), chart.n, h)
    return 0.5 * (lam - np.swapaxes(lam, 1, 2))


# -- torsion, curvature -------------------------------------------------------

class CurvatureData:
    """Torsion symbols, curvature, and the covariant derivative of the
    torsion at a point."""

    __slots__ = ("torsion", "curvature", "nabla_torsion")

    def __init__(self, torsion, curvature, nabla_torsion) -> None:
        self.torsion = torsion
        self.curvature = curvature
        self.nabla_torsion = nabla_torsion


def _christoffel(g0: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """G[k, i, j] = 1/2 g^kl (g_jl,i + g_il,j - g_ij,l) from the metric
    g0, checked positive definite, and dg[m, a, b] = g_ab,m."""
    eig = np.linalg.eigvalsh(0.5 * (g0 + g0.T))
    if eig[0] <= 0:
        raise SingularMetric(f"metric not SPD, min eig {eig[0]:.3e}")
    comb = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(g0), comb)


def levi_civita(metric, x, fd_step: float) -> np.ndarray:
    """Christoffel symbols of a metric field by central differences."""
    x = np.asarray(x, dtype=float)
    return _christoffel(np.asarray(metric(x), dtype=float),
                        central_diff(metric, x, fd_step))


def curvature_data(chart: ConnectionChart, e) -> CurvatureData:
    """Torsion symbols T^i_jk = G^i_kj - G^i_jk, curvature per the
    Christoffel formula, and nabla T at the point e, checked against the
    domain, all from the chart's own gamma and dgamma."""
    e = np.asarray(e, dtype=float)
    chart.check_inside(e)
    g = chart.gamma(e)
    torsion = np.transpose(g, (0, 2, 1)) - g
    dgam = chart.dgamma(e)
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
    return CurvatureData(torsion, curv, nabla_t)


def akivis_check(chart: ConnectionChart, e, h_list, h_ode: float) -> dict:
    """Convergence study of the loop/connection relations at e.

    For each fit scale h the loop product is fitted in normal
    coordinates at e and the residuals
        r1(h) = || 2 alpha + T ||_inf
        r2(h) = || 4 beta + nabla T + R ||_inf
    are reported against the tensors from ``curvature_data``, with
    alpha_norm = || alpha ||_inf: three lists, one entry per h.  The
    stencils of every distinct scale, h and h/2 for each h in h_list, are
    shot in one ``_normal_loop`` call; each row gets the bits a call per
    scale would give it.  BadConfig unless h_list holds at least one
    scale and every scale is finite and positive.
    """
    h_list = _fit_scales("h_list", h_list)
    data = curvature_data(chart, e)
    # each distinct scale is fitted once: h/2 is often the next h
    scales = sorted(set(h_list) | {h / 2.0 for h in h_list})
    stencils = [_jet_stencil(chart.n, h) for h in scales]
    mus = _normal_loop(chart, e, np.concatenate([u for u, _ in stencils]),
                       np.concatenate([v for _, v in stencils]), h_ode)
    # every stencil has the same row count
    jets = {h: _fit_jets(block, chart.n, h)
            for h, block in zip(scales, np.split(mus, len(scales)))}
    out = {"r1": [], "r2": [], "alpha_norm": []}
    for h in h_list:
        *_, alpha, beta = _fundamental_tensors(jets[h], jets[h / 2.0])
        out["r1"].append(float(np.max(np.abs(2.0 * alpha + data.torsion))))
        out["r2"].append(float(np.max(np.abs(
            4.0 * beta + data.nabla_torsion + data.curvature))))
        out["alpha_norm"].append(float(np.max(np.abs(alpha))))
    return out


# -- builtin charts -----------------------------------------------------------

def flat_chart(n: int, half_width: float = 10.0) -> ConnectionChart:
    zero = np.zeros((n, n, n))
    dzero = np.zeros((n, n, n, n))
    return ConnectionChart(n, lambda x: zero, lambda x: dzero,
                           [[-half_width, half_width]] * n, name="flat")


def _sphere2_gamma(x: np.ndarray) -> np.ndarray:
    theta = np.asarray(x)[..., 0]
    sin, cos = np.sin(theta), np.cos(theta)
    g = np.zeros(theta.shape + (2, 2, 2))
    g[..., 0, 1, 1] = -sin * cos
    cot = cos / sin
    g[..., 1, 0, 1] = cot
    g[..., 1, 1, 0] = cot
    return g


def _sphere2_dgamma(x: np.ndarray) -> np.ndarray:
    """d_theta of the symbols of _sphere2_gamma; every d_phi is 0."""
    theta = np.asarray(x)[..., 0]
    d = np.zeros(theta.shape + (2, 2, 2, 2))
    d[..., 0, 0, 1, 1] = -np.cos(2.0 * theta)
    d[..., 0, 1, 0, 1] = -1.0 / np.sin(theta) ** 2
    d[..., 0, 1, 1, 0] = d[..., 0, 1, 0, 1]
    return d


def sphere2_chart() -> ConnectionChart:
    """Round unit 2-sphere in polar coordinates (theta, phi), on
    0.2 <= theta <= pi - 0.2 and |phi| <= 12."""
    return ConnectionChart(
        2, _sphere2_gamma, _sphere2_dgamma,
        [[0.2, np.pi - 0.2], [-12.0, 12.0]], name="sphere2")


def cartan_schouten_chart(alpha_param: float) -> ConnectionChart:
    """The constant-Gamma model Gamma(x) = k c with k = (1 - 2 a)/2,
    metric-compatible with the Euclidean metric, on the box |x^i| <= 1.
    It is not the 7-sphere: at a = 0 its curvature is 0.5, while the
    sphere's left-parallelizing connection is flat."""
    k = 0.5 * (1.0 - 2.0 * alpha_param)
    const = k * C3
    dzero = np.zeros((7, 7, 7, 7))
    return ConnectionChart(
        7, lambda x: const, lambda x: dzero, [[-1.0, 1.0]] * 7,
        name=f"cartan_schouten({alpha_param})")

