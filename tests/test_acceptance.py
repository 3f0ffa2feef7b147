"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s).
Randomized criteria use fixed seeds so the run is reproducible.
"""

import time

import numpy as np

_LINES = []


def _worst(values):
    """Largest residual; a NaN or inf anywhere propagates and fails."""
    return float(np.max(np.asarray(list(values), dtype=float)))


def _report(num, label, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    line = (f"[{status}] criterion {num:2d} ({label}): {detail} "
            f"[{elapsed:.2f}s < {budget:.0f}s]")
    _LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_model_form_constants():
    start = time.perf_counter()
    from g2lab.exterior import Metric, form_inner, hodge, volume_form, wedge
    from g2lab.g2linear import PHI0
    id7 = Metric.euclidean(7)
    psi = hodge(PHI0, id7, +1)
    vol = volume_form(id7)
    r = _worst((abs(form_inner(PHI0, PHI0, id7) - 7.0),
                abs(form_inner(psi, psi, id7) - 7.0),
                (wedge(PHI0, psi) - 7.0 * vol).max_abs()))
    elapsed = time.perf_counter() - start
    _report(1, "phi0/psi0 constants", r <= 1e-13,
            f"max residual {r:.2e} <= 1e-13", 1.0, elapsed)


def test_criterion_02_contraction_identity_suite():
    start = time.perf_counter()
    from g2lab.exterior import pullback
    from g2lab.g2linear import (metric_from_3form, random_gl7,
                                contraction_identity_residuals, PHI0)
    rng = np.random.default_rng(2024)
    resids = []
    for _ in range(100):
        a = random_gl7(rng, cond_max=10.0)
        data = metric_from_3form(pullback(PHI0.comps, a))
        resids.extend(contraction_identity_residuals(data).values())
    worst = _worst(resids)
    elapsed = time.perf_counter() - start
    _report(2, "six contraction identities", worst <= 1e-10,
            f"max residual {worst:.2e} <= 1e-10 over 100 forms", 10.0,
            elapsed)


def test_criterion_03_metric_recovery():
    start = time.perf_counter()
    from g2lab.exterior import Metric, pullback, volume_form
    from g2lab.g2linear import metric_from_3form, psi0, random_gl7, PHI0
    data = metric_from_3form(PHI0)
    exact = _worst((np.max(np.abs(data.g.g - np.eye(7))),
                    (data.psi - psi0()).max_abs(),
                    (data.vol - volume_form(Metric.euclidean(7))).max_abs()))
    rng = np.random.default_rng(3)
    resids = []
    for _ in range(100):
        a = random_gl7(rng)
        d = metric_from_3form(pullback(PHI0.comps, a))
        resids.append(np.max(np.abs(d.g.g - a.T @ a))
                      / np.max(np.abs(a.T @ a)))
    equiv = _worst(resids)
    elapsed = time.perf_counter() - start
    _report(3, "metric from 3-form", exact <= 1e-13 and equiv <= 1e-10,
            f"model {exact:.2e} <= 1e-13, equivariance {equiv:.2e} <= 1e-10",
            5.0, elapsed)


def test_criterion_04_r_operator_spectrum():
    start = time.perf_counter()
    from g2lab.g2linear import metric_from_3form, r_operator_matrix, PHI0
    mat = r_operator_matrix(metric_from_3form(PHI0))
    eig = np.sort(np.linalg.eigvalsh(0.5 * (mat + mat.T)))
    r = _worst((np.max(np.abs(eig[:14] + 1.0)),
                np.max(np.abs(eig[14:] - 2.0))))
    elapsed = time.perf_counter() - start
    _report(4, "2-form operator spectrum", r <= 1e-10,
            f"eigenvalue residual {r:.2e} <= 1e-10 (-1 x14, 2 x7)", 1.0,
            elapsed)


def test_criterion_05_g2_construction():
    start = time.perf_counter()
    from g2lab.exterior import pullback
    from g2lab.g2linear import (g2_from_triple, random_admissible_triple,
                                PHI0)
    rng = np.random.default_rng(5)
    phis, dets = [], []
    for _ in range(1000):
        t = g2_from_triple(*random_admissible_triple(rng))
        phis.append(np.max(np.abs(
            pullback(PHI0.comps, t) - PHI0.comps)))
        dets.append(abs(np.linalg.det(t) - 1.0))
    worst_phi, worst_det = _worst(phis), _worst(dets)
    elapsed = time.perf_counter() - start
    _report(5, "group elements from triples",
            worst_phi <= 1e-10 and worst_det <= 1e-10,
            f"membership {worst_phi:.2e}, det {worst_det:.2e} <= 1e-10 "
            f"over 1000 triples", 10.0, elapsed)


def test_criterion_06_deformation_laws():
    start = time.perf_counter()
    from g2lab import octonion as oc
    from g2lab.deform import sigma, conjugation_pullback_residual, composition_residual
    from g2lab.g2linear import metric_from_3form, random_positive_3form, PHI0
    rng = np.random.default_rng(6)
    data0 = metric_from_3form(PHI0)
    r36, r40, riso = [], [], []
    for _ in range(100):
        u, v = oc.random_octonions(rng, 2, unit=True)
        r36.append(conjugation_pullback_residual(v, data0))
        r40.append(composition_residual(u, v, data0))
        phi = random_positive_3form(rng, cond_max=4.0)
        dp = metric_from_3form(phi)
        dv = metric_from_3form(sigma(v, dp))
        riso.append(np.max(np.abs(dv.g.g - dp.g.g))
                    / np.max(np.abs(dp.g.g)))
    w36, w40, wiso = _worst(r36), _worst(r40), _worst(riso)
    elapsed = time.perf_counter() - start
    _report(6, "deformation laws",
            w36 <= 1e-11 and w40 <= 1e-10 and wiso <= 1e-10,
            f"conjugation {w36:.2e} <= 1e-11, composition {w40:.2e} <= 1e-10,"
            f" isometry {wiso:.2e} <= 1e-10", 10.0, elapsed)


def test_criterion_07_flat_loop():
    start = time.perf_counter()
    from g2lab.connection import flat_chart, loop_product
    rng = np.random.default_rng(7)
    chart = flat_chart(4)
    h = 0.25  # the one-step method is exact on a vanishing right side
    resids = []
    for _ in range(100):
        e = rng.uniform(-0.3, 0.3, 4)
        x = e + rng.uniform(-0.5, 0.5, 4)
        y = e + rng.uniform(-0.5, 0.5, 4)
        z = e + rng.uniform(-0.5, 0.5, 4)
        mu = loop_product(chart, e, x, y, h)
        resids.append(np.max(np.abs(mu - (x + y - e))))
        resids.append(np.max(np.abs(mu - loop_product(chart, e, y, x, h))))
        lhs = loop_product(chart, e, mu, z, h)
        rhs = loop_product(chart, e, x, loop_product(chart, e, y, z, h), h)
        resids.append(np.max(np.abs(lhs - rhs)))
    worst = _worst(resids)
    elapsed = time.perf_counter() - start
    _report(7, "flat geodesic loop", worst <= 1e-12,
            f"abelian-group residual {worst:.2e} <= 1e-12 over 100 triples",
            5.0, elapsed)


def test_criterion_08_akivis_convergence():
    start = time.perf_counter()
    from g2lab.connection import (akivis_check, cartan_schouten_chart,
                                  sphere2_chart)
    chart = cartan_schouten_chart(0.0)
    rep = akivis_check(chart, np.zeros(7), [1e-2, 5e-3], h_ode=1.0 / 16)
    r1_h, r1_h2 = rep["r1"]
    cs_ok = r1_h <= 0.05 and r1_h2 <= r1_h / 1.8
    sp = sphere2_chart()
    rep_s = akivis_check(sp, np.array([1.2, 0.3]), [1e-2, 5e-3],
                         h_ode=1.0 / 16)
    a_h, a_h2 = rep_s["alpha_norm"]
    tl_ok = a_h <= 0.05 and a_h2 <= a_h / 1.8
    elapsed = time.perf_counter() - start
    _report(8, "loop-tensor convergence", cs_ok and tl_ok,
            f"torsionful r1 {r1_h:.2e}->{r1_h2:.2e}, torsionless alpha "
            f"{a_h:.2e}->{a_h2:.2e}", 120.0, elapsed)


def test_criterion_09_self_duality_constants():
    start = time.perf_counter()
    from g2lab.cartan import self_duality_residuals
    worst = _worst(r for k in (1.0, 2.0)
                   for r in self_duality_residuals(k).values())
    elapsed = time.perf_counter() - start
    _report(9, "self-duality constants", worst <= 1e-12,
            f"max residual {worst:.2e} <= 1e-12 at k in {{1, 2}}", 1.0,
            elapsed)


def test_criterion_10_enveloping_relation():
    start = time.perf_counter()
    from g2lab import octonion as oc
    from g2lab.clifford import ENVELOPING_KAPPA, enveloping_residual
    from g2lab.octonion import left_matrix
    rng = np.random.default_rng(10)
    orth, kappa = [], []
    for _ in range(100):
        q1 = rng.standard_normal(7)
        q1 /= np.linalg.norm(q1)
        q2 = rng.standard_normal(7)
        q2 -= (q2 @ q1) * q1
        q2 /= np.linalg.norm(q2)
        l1 = left_matrix(np.r_[0.0, q1])
        l2 = left_matrix(np.r_[0.0, q2])
        orth.append(np.max(np.abs(l1 @ l2 + l2 @ l1)))
        a = oc.random_octonions(rng, 1, imaginary=True)[0]
        b = oc.random_octonions(rng, 1, imaginary=True)[0]
        kappa.append(enveloping_residual(a, b))
    worst_orth, worst_kappa = _worst(orth), _worst(kappa)
    elapsed = time.perf_counter() - start
    _report(10, "enveloping Clifford relation",
            worst_orth <= 1e-13 and worst_kappa <= 1e-12,
            f"orthonormal anticommutator {worst_orth:.2e} <= 1e-13, "
            f"kappa = {ENVELOPING_KAPPA:g} stable ({worst_kappa:.2e})",
            5.0, elapsed)


def test_criterion_11_field_torsion():
    start = time.perf_counter()
    from g2lab.field import (constant_field, g2_torsion, sigma_warp_field,
                             torsion_law_residual)
    x = np.array([0.05, -0.1, 0.2, 0.0, 0.1, -0.05, 0.15])
    cf = constant_field()
    t0 = np.max(np.abs(g2_torsion(cf, x, 1e-3).T))
    sw = sigma_warp_field()
    r1 = torsion_law_residual(cf, sw, sw.v_at, x, 1e-3)
    r2 = torsion_law_residual(cf, sw, sw.v_at, x, 5e-4)
    improves = r2 <= 0.4 * r1
    elapsed = time.perf_counter() - start
    _report(11, "field torsion law", t0 <= 1e-9 and r1 <= 1e-6 and improves,
            f"constant |T| {t0:.2e} <= 1e-9, transformation law {r1:.2e} "
            f"<= 1e-6 improving x{r1 / max(r2, 1e-300):.1f}", 60.0, elapsed)


def test_criterion_12_octonion_identity_pack():
    start = time.perf_counter()
    from g2lab import octonion as oc

    def mul(a, b):
        return oc.mul_cols(a.T, b.T).T

    rng = np.random.default_rng(12)
    n = 10000
    a = oc.random_octonions(rng, n)
    b = oc.random_octonions(rng, n)
    norm_mult = np.max(np.abs(
        oc.norm_batch(mul(a, b)) - oc.norm_batch(a) * oc.norm_batch(b))
        / (oc.norm_batch(a) * oc.norm_batch(b)))
    alt = np.max(np.abs(mul(mul(a, a), b) - mul(a, mul(a, b)))
                 / (oc.norm_batch(a) ** 2 * oc.norm_batch(b))[:, None])
    ai = oc.random_octonions(rng, n, imaginary=True)
    bi = oc.random_octonions(rng, n, imaginary=True)
    ci = oc.random_octonions(rng, n, imaginary=True)
    nscale = (oc.norm_batch(ai) * oc.norm_batch(bi)
              * oc.norm_batch(ci))[:, None]
    assoc = mul(mul(ai, bi), ci) - mul(ai, mul(bi, ci))
    phi_abc = np.einsum("nk,nk->n", mul(ai, bi), ci)
    one = np.zeros((n, 8))
    one[:, 0] = 1.0
    dots_ab = np.einsum("nk,nk->n", ai, bi)
    expansion = (mul(ai, mul(bi, ci)) + 0.5 * assoc
                 + phi_abc[:, None] * one
                 + np.einsum("nk,nk->n", bi, ci)[:, None] * ai
                 - np.einsum("nk,nk->n", ai, ci)[:, None] * bi
                 + dots_ab[:, None] * ci)
    e560 = np.max(np.abs(expansion) / nscale)
    bc_cross = mul(bi, ci).copy()
    bc_cross[:, 0] = 0.0
    double = mul(ai, bc_cross).copy()
    double[:, 0] = 0.0
    double_rhs = (-dots_ab[:, None] * ci
                  + np.einsum("nk,nk->n", ai, ci)[:, None] * bi
                  - 0.5 * assoc)
    e565 = np.max(np.abs(double - double_rhs) / nscale)
    ab_cross = mul(ai, bi).copy()
    ab_cross[:, 0] = 0.0
    e564 = np.max(np.abs(
        np.einsum("nk,nk->n", ab_cross, ab_cross)
        - oc.norm_batch(ai) ** 2 * oc.norm_batch(bi) ** 2 + dots_ab ** 2)
        / (oc.norm_batch(ai) * oc.norm_batch(bi)) ** 2)
    worst = _worst((norm_mult, alt, e560, e564, e565))
    elapsed = time.perf_counter() - start
    _report(12, "octonion identity pack", worst <= 1e-12,
            f"max residual {worst:.2e} <= 1e-12 over {n} draws", 5.0,
            elapsed)


def test_zz_summary():
    print()
    for line in _LINES:
        print(line)
