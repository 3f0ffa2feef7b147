"""Isometric deformations: adjoint map, sigma_V, deformed products."""

import math

import numpy as np
import pytest

from g2lab import deform as df
from g2lab import g2linear as g2
from g2lab import octonion as oc
from g2lab.errors import ZeroDivisor
from g2lab.exterior import pullback
from g2lab.octonion import conj, exponential, inverse, mul, power

E = np.eye(8)
ONE = E[0]


def close(a, b, tol):
    return bool(np.max(np.abs(a - b)) <= tol)


@pytest.fixture(scope="module")
def data0():
    return g2.metric_from_3form(g2.PHI0)


def test_ad_basics(data0):
    rng = np.random.default_rng(0)
    a = rng.standard_normal(8)
    assert close(df.ad(ONE, a), a, 1e-15)
    v = oc.random_octonions(rng, 1, unit=True)[0]
    assert np.max(np.abs(df.ad_matrix7(3.7 * v, data0)
                         - df.ad_matrix7(v, data0))) < 1e-13
    with pytest.raises(ZeroDivisor):
        df.ad(np.zeros(8), a)


def test_ad_two_routes(data0):
    rng = np.random.default_rng(1)
    v = oc.random_octonions(rng, 1, unit=True)[0]
    m = df.ad_matrix7(v, data0)
    for _ in range(5):
        im = oc.random_octonions(rng, 1, imaginary=True)[0]
        via_products = df.ad(v, im)
        assert abs(via_products[0]) < 1e-13
        assert np.max(np.abs(via_products[1:] - m @ im[1:])) < 1e-13
    # norm and real-part preservation off the imaginary subspace
    a = rng.standard_normal(8)
    ada = df.ad(v, a)
    assert abs(np.linalg.norm(ada) - np.linalg.norm(a)) < 1e-13
    assert abs(ada[0] - a[0]) < 1e-13


def test_ad_in_so7(data0):
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = oc.random_octonions(rng, 1, unit=True)[0]
        m = df.ad_matrix7(v, data0)
        assert np.max(np.abs(m.T @ m - np.eye(7))) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-10


def test_sigma_examples(data0):
    assert (df.sigma(ONE, data0) - g2.PHI0).max_abs() == 0
    s1 = df.sigma(E[1], data0)
    d1 = g2.metric_from_3form(s1)
    assert np.max(np.abs(d1.g.g - np.eye(7))) < 1e-13
    with pytest.raises(ZeroDivisor):
        df.sigma(np.zeros(8), data0)


def test_sigma_isometry_random_base():
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = g2.random_positive_3form(rng)
        dp = g2.metric_from_3form(phi)
        v = oc.random_octonions(rng, 1, unit=True)[0]
        sv = df.sigma(v, dp)
        dv = g2.metric_from_3form(sv)
        assert np.max(np.abs(dv.g.g - dp.g.g)) \
            < 1e-10 * np.max(np.abs(dp.g.g))


def test_conjugation_pullback(data0):
    assert df.conjugation_pullback_residual(ONE, data0) < 1e-14
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = oc.random_octonions(rng, 1, unit=True)[0]
        assert df.conjugation_pullback_residual(v, data0) < 1e-11
    v2 = 2.0 * oc.random_octonions(rng, 1, unit=True)[0]
    assert df.conjugation_pullback_residual(v2, data0) < 1e-11


def test_composition_law(data0):
    rng = np.random.default_rng(5)
    for _ in range(10):
        u, v = oc.random_octonions(rng, 2, unit=True)
        assert df.composition_residual(u, v, data0) < 1e-10
    # both readings of the product UV coincide when the right factor is V
    u, v = oc.random_octonions(rng, 2, unit=True)
    assert close(df.deformed_mul(u, v, v), mul(u, v), 1e-13)


def test_deformed_mul_routes(data0):
    rng = np.random.default_rng(6)
    a, b = oc.random_octonions(rng, 2)
    v = oc.random_octonions(rng, 1, unit=True)[0]
    r1 = df.deformed_mul(a, b, v)
    r2 = mul(mul(a, v), mul(inverse(v), b))
    assert close(r1, r2, 1e-13)
    sv = df.sigma(v, data0)
    dsv = g2.metric_from_3form(sv)
    assert close(r1, df.bundle_mul(a, b, dsv), 1e-12)
    # real deformer reduces to the plain product
    r4 = df.deformed_mul(a, b, 2.5 * ONE)
    assert close(r4, mul(a, b), 1e-13)


def test_adjoint_product_identities():
    rng = np.random.default_rng(7)
    v = oc.random_octonions(rng, 1, unit=True)[0]
    a, b = oc.random_octonions(rng, 2)
    res = df.adjoint_product_residuals(v, a, b)
    assert max(res.values()) < 1e-12
    res1 = df.adjoint_product_residuals(ONE, a, b)
    assert max(res1.values()) == 0.0
    # a real kills the associator terms
    res2 = df.adjoint_product_residuals(v, 1.7 * ONE, b)
    assert max(res2.values()) < 1e-13


def test_adjoint_residual_rows_are_the_stack_bits():
    rng = np.random.default_rng(8)
    v = oc.random_octonions(rng, 6)
    v[0] = ONE
    a, b = oc.random_octonions(rng, 6), oc.random_octonions(rng, 6)
    stacked = df.adjoint_product_residuals(v, a, b)
    assert list(stacked) == ["split_translation_1", "split_translation_2",
                             "adjoint_product", "conjugated_product",
                             "cubed_translation"]
    for i in range(6):
        row = df.adjoint_product_residuals(v[i], a[i], b[i])
        assert list(row) == list(stacked)
        for key, value in row.items():
            assert isinstance(value, float)
            assert np.float64(value).tobytes() == stacked[key][i].tobytes()
    # a (2, 3, 8) stack gives (2, 3) residuals, row for row
    shaped = df.adjoint_product_residuals(v.reshape(2, 3, 8),
                                          a.reshape(2, 3, 8),
                                          b.reshape(2, 3, 8))
    for key, value in shaped.items():
        assert value.shape == (2, 3)
        assert value.tobytes() == stacked[key].tobytes()


def test_fixed_structure_sweep(data0):
    # sigma_{V^3}(phi0) = phi0 exactly when V^3 is real
    for theta, fixes in ((0.0, True), (math.pi / 3, True),
                         (math.pi / 2, False), (2 * math.pi / 3, True),
                         (math.pi, True)):
        v = exponential(theta * E[1])
        r = (df.sigma(power(v, 3), data0) - g2.PHI0).max_abs()
        if fixes:
            assert r < 1e-12, theta
        else:
            assert r > 0.5, theta
    # sigma_V itself fixes phi0 only for real V
    v = exponential(math.pi / 3 * E[1])
    assert (df.sigma(v, data0) - g2.PHI0).max_abs() > 0.5


def test_bundle_mul_agrees_with_mul_at_model_form(data0):
    # the bound stated in bundle_mul's docstring
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        diff = df.bundle_mul(a, b, data0) - mul(a, b)
        assert np.max(np.abs(diff)) <= 2e-15 * np.linalg.norm(a) * np.linalg.norm(b)


def test_bundle_mul_rows_keep_single_call_bits():
    rng = np.random.default_rng(6)
    data = g2.metric_from_3form(pullback(oc.C3, g2.random_gl7(rng)))
    a_rows, b_rows = rng.standard_normal((2, 7, 8))
    a_rows[:, 0] = -0.0
    a, b = a_rows[0], b_rows[0]
    for lhs, rhs in ((a_rows, b_rows), (a_rows, b), (a, b_rows)):
        got = df.bundle_mul(lhs, rhs, data)
        want = [df.bundle_mul(x, y, data)
                for x, y in zip(*np.broadcast_arrays(lhs, rhs))]
        assert got.shape == (7, 8)
        assert got.tobytes() == np.array(want).tobytes()


def test_conj_rows_keep_single_call_bits():
    # the conjugate that bundle_inverse divides
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((3, 4, 8))
    rows[0, 0] = -0.0
    got = conj(rows)
    assert got.shape == rows.shape
    want = [conj(r) for r in rows.reshape(-1, 8)]
    assert got.tobytes() == np.array(want).tobytes()
    single = conj(rows[1, 2])
    assert single[0] == rows[1, 2, 0]
    assert single[1:].tobytes() == (-rows[1, 2, 1:]).tobytes()
    # every row is conjugated, the first one too
    assert conj(np.ones((2, 8))).tolist() == [[1.0] + [-1.0] * 7] * 2


def test_bundle_norm_and_inverse_rows_keep_single_call_bits(data0):
    rng = np.random.default_rng(8)
    data = g2.metric_from_3form(pullback(oc.C3, g2.random_gl7(rng)))
    rows = rng.standard_normal((3, 4, 8))
    rows[0, 0, 0] = -0.0
    flat = rows.reshape(-1, 8)
    for fn, shape in ((df.bundle_norm_sq, (3, 4)),
                      (df.bundle_inverse, (3, 4, 8))):
        got = fn(rows, data)
        assert got.shape == shape
        want = np.array([fn(r, data) for r in flat])
        assert got.tobytes() == want.tobytes()
    # a single octonion keeps the bits and the float of the one-row formula
    a = flat[5]
    n2 = df.bundle_norm_sq(a, data)
    assert type(n2) is float
    assert n2 == float(a[0] ** 2 + a[1:] @ (data.g.g @ a[1:]))
    assert df.bundle_inverse(a, data).tobytes() == \
        (conj(a) / n2).tobytes()
    # the stacks that raised numpy's ValueError from matmul
    for n in (2, 8):
        ones = np.ones((n, 8))
        assert np.allclose(df.bundle_norm_sq(ones, data0), 8.0)
        assert np.allclose(df.bundle_inverse(ones, data0),
                           conj(ones) / 8.0)
    # one row below ZERO_EPS refuses the whole stack
    flat[7] = 0.0
    with pytest.raises(ZeroDivisor):
        df.bundle_inverse(flat, data)
