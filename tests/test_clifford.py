"""Clifford algebras, the enveloping relation of left translations, and
the spinor <-> octonion dictionary."""

import numpy as np
import pytest

from g2lab import clifford as cl
from g2lab import deform as df
from g2lab import g2linear as g2
from g2lab import octonion as oc
from g2lab.errors import (BadConfig, NotImaginary, SignatureMismatch,
                          ZeroReference)
from g2lab.octonion import left_matrix, mul

E = np.eye(8)


def _reorder_sign(a: int, b: int) -> int:
    """Sign from counting transpositions when merging two blades."""
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


def _close(a, b, tol):
    """Every component of a - b within tol."""
    return (a - b).max_abs() <= tol


def blade_product(mask_a: int, mask_b: int, p: int, q: int) -> tuple[int, int]:
    """(result mask, sign) for the product of two basis blades, one pair
    at a time: the reference of the dense tables behind clifford_mul."""
    sign = _reorder_sign(mask_a, mask_b)
    common = mask_a & mask_b
    for bit in range(p, p + q):
        if common & (1 << bit):
            sign = -sign
    return mask_a ^ mask_b, sign


def test_dimension():
    for p in range(3):
        for q in range(3):
            assert cl.CliffordElement(p, q).coeffs.size == 2 ** (p + q)


def test_cl01_complex_model():
    e1 = cl.CliffordElement.vector(0, 1, [1.0])
    sq = cl.clifford_mul(e1, e1)
    assert sq.coeffs[0] == -1.0 and sq.coeffs[1] == 0.0
    # commutative
    a = cl.CliffordElement(0, 1, [2.0, 3.0])
    b = cl.CliffordElement(0, 1, [-1.0, 0.5])
    assert _close(cl.clifford_mul(a, b), cl.clifford_mul(b, a), 0)


def test_cl02_quaternion_model():
    i = cl.CliffordElement.vector(0, 2, [1, 0])
    j = cl.CliffordElement.vector(0, 2, [0, 1])
    k = cl.clifford_mul(i, j)
    assert cl.clifford_mul(k, k).coeffs[0] == -1.0
    assert cl.clifford_mul(i, i).coeffs[0] == -1.0
    assert _close(cl.clifford_mul(j, k), i, 0)
    assert _close(cl.clifford_mul(k, i), j, 0)
    assert _close(cl.clifford_mul(j, i), -1.0 * k, 0)


def test_unit_element():
    rng = np.random.default_rng(0)
    a = cl.CliffordElement(2, 2, rng.standard_normal(16))
    one = cl.CliffordElement.scalar(2, 2)
    assert _close(cl.clifford_mul(one, a), a, 0)
    assert _close(cl.clifford_mul(a, one), a, 0)


def test_clifford_identity_on_vectors():
    rng = np.random.default_rng(1)
    for (p, q) in ((3, 0), (0, 3), (1, 3), (0, 7)):
        u, v = rng.standard_normal((2, p + q))
        cu = cl.CliffordElement.vector(p, q, u)
        cv = cl.CliffordElement.vector(p, q, v)
        anti = cl.clifford_mul(cu, cv) + cl.clifford_mul(cv, cu)
        want = cl.CliffordElement.scalar(p, q,
                                         2.0 * cl.vector_inner(p, q, u, v))
        assert _close(anti, want, 1e-13)


def test_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        cl.clifford_mul(cl.CliffordElement.scalar(0, 2),
                        cl.CliffordElement.scalar(2, 0))


def _blade(p, q, mask, value=1.0):
    """The blade of the given mask, times value, in Cl(p, q)."""
    coeffs = np.zeros(1 << (p + q))
    coeffs[mask] = value
    return cl.CliffordElement(p, q, coeffs)


def test_involutions():
    # e1 e3 and e0 e2 e5
    b2 = _blade(0, 7, 0b1010)
    assert _close(cl.reversion(b2), -1.0 * b2, 0)
    b3 = _blade(0, 7, 0b100101)
    assert _close(cl.reversion(b3), -1.0 * b3, 0)
    rng = np.random.default_rng(2)
    x = cl.CliffordElement(0, 4, rng.standard_normal(16))
    y = cl.CliffordElement(0, 4, rng.standard_normal(16))
    assert _close(cl.reversion(cl.clifford_mul(x, y)),
                  cl.clifford_mul(cl.reversion(y), cl.reversion(x)), 1e-12)
    assert _close(cl.reversion(cl.reversion(x)), x, 0)


def test_cl07_associative_vs_octonion():
    rng = np.random.default_rng(4)
    x, y, z = (cl.CliffordElement(0, 7, rng.standard_normal(128))
               for _ in range(3))
    assoc = (cl.clifford_mul(cl.clifford_mul(x, y), z)
             - cl.clifford_mul(x, cl.clifford_mul(y, z)))
    scale = x.max_abs() * y.max_abs() * z.max_abs()
    assert assoc.max_abs() < 1e-12 * scale
    a, b, c = oc.random_octonions(rng, 3)
    oct_assoc = mul(mul(a, b), c) - mul(a, mul(b, c))
    assert np.max(np.abs(oct_assoc)) > 0.1


def test_enveloping_relation():
    e1, e2 = E[1], E[2]
    l1, l2 = left_matrix(e1), left_matrix(e2)
    assert np.max(np.abs(l1 @ l2 + l2 @ l1)) == 0.0
    assert np.max(np.abs(l1 @ l1 + np.eye(8))) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = oc.random_octonions(rng, 1, imaginary=True)[0]
        b = oc.random_octonions(rng, 1, imaginary=True)[0]
        assert cl.enveloping_residual(a, b) < 1e-13
    assert cl.ENVELOPING_KAPPA == 2.0
    with pytest.raises(NotImaginary):
        cl.enveloping_residual(E[0], e1)


def test_j_map_examples():
    rng = np.random.default_rng(6)
    xi = oc.random_octonions(rng, 1, unit=True)[0]
    assert np.max(np.abs(cl.j_map(xi, xi) - E[0])) < 1e-13
    eta = cl.clifford_action(E[1], xi)
    assert np.max(np.abs(cl.j_map(eta, xi) - E[1])) < 1e-13
    # mutually inverse
    a = rng.standard_normal(8)
    assert np.max(np.abs(cl.j_map(cl.j_inverse(a, xi), xi) - a)) < 1e-13
    # isometry
    n1 = rng.standard_normal(8)
    n2 = rng.standard_normal(8)
    assert abs(n1 @ n2 - cl.j_map(n1, xi) @ cl.j_map(n2, xi)) < 1e-12
    with pytest.raises(ZeroReference):
        cl.j_map(n1, np.zeros(8))


def test_j_map_equivariance():
    rng = np.random.default_rng(7)
    xi = oc.random_octonions(rng, 1, unit=True)[0]
    eta = rng.standard_normal(8)
    v = rng.standard_normal(8)
    lhs = cl.j_map(cl.clifford_action(v, eta), xi)
    rhs = df.deformed_mul(v, cl.j_map(eta, xi), xi)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # double action equals the deformed-composition route
    w = oc.random_octonions(rng, 1, unit=True)[0]
    lhs2 = cl.j_map(cl.clifford_action(v, cl.clifford_action(w, eta)), xi)
    rhs2 = df.deformed_mul(v, df.deformed_mul(w, cl.j_map(eta, xi), xi), xi)
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-12


def test_sigma_from_spinor():
    # the structure of a transported spinor A . zeta is sigma_A(phi_zeta)
    rng = np.random.default_rng(8)
    data0 = g2.metric_from_3form(g2.PHI0)
    assert _close(df.sigma(E[0], data0), g2.PHI0, 0)
    u, v = oc.random_octonions(rng, 2, unit=True)
    inner = df.sigma(v, data0)
    two_step = df.sigma(u, g2.metric_from_3form(inner))
    one_step = df.sigma(mul(u, v), data0)
    assert (two_step - one_step).max_abs() < 1e-10
    # reference structure of a unit spinor
    xi = oc.random_octonions(rng, 1, unit=True)[0]
    phi_xi = cl.reference_structure(xi, data0)
    assert (phi_xi - df.sigma(xi, data0)).max_abs() == 0.0


def test_basis_mul_table_shape():
    table = cl.basis_mul_table(1, 1)
    assert len(table) == 4 and len(table[0]) == 4
    assert table[0][3] == {"mask": 3, "sign": 1}


def _add_at_oracle(x, y):
    # the blade-by-blade np.add.at product that the dense gather replaced
    res, sgn, _ = cl._tables(x.p, x.q)
    out = np.zeros(x.coeffs.size)
    yi = np.nonzero(y.coeffs)[0]
    for a in np.nonzero(x.coeffs)[0]:
        np.add.at(out, res[a, yi], x.coeffs[a] * sgn[a, yi] * y.coeffs[yi])
    return out


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("p, q", [(0, 1), (0, 2), (0, 7), (3, 4), (8, 0)])
def test_clifford_mul_bitwise_equals_add_at_oracle(p, q):
    rng = np.random.default_rng(20)
    n, dim = p + q, 1 << (p + q)

    def dense():
        return cl.CliffordElement(p, q, rng.standard_normal(dim))

    def vector():
        return cl.CliffordElement.vector(p, q, rng.standard_normal(n))

    def single_blade():
        mask = int(rng.integers(dim))
        return _blade(p, q, mask, float(rng.standard_normal()))

    makers = (dense, vector, single_blade)
    for make_x in makers:
        for make_y in makers:
            x, y = make_x(), make_y()
            got = cl.clifford_mul(x, y).coeffs
            assert np.array_equal(_bits(got), _bits(_add_at_oracle(x, y)))


@pytest.mark.parametrize("p, q", [(0, 0), (0, 1), (1, 1), (0, 3), (2, 2),
                                  (1, 4), (0, 7), (3, 5), (8, 0)])
def test_basis_mul_table_matches_blade_product(p, q):
    dim = 1 << (p + q)
    want = [[dict(zip(("mask", "sign"), blade_product(a, b, p, q)))
             for b in range(dim)] for a in range(dim)]
    assert cl.basis_mul_table(p, q) == want


def test_clifford_mul_zero_times_inf_fails_closed():
    # the dense gather multiplies every pair, so the zero coefficients of
    # x meet the inf of y and the product is NaN rather than finite
    x = cl.CliffordElement.scalar(0, 2, 2.0)
    y = cl.CliffordElement(0, 2, [1.0, 0.0, 0.0, np.inf])
    with np.errstate(invalid="ignore"):
        got = cl.clifford_mul(x, y).coeffs
    assert np.isnan(got[:3]).all() and got[3] == np.inf
    # the skipping loop never formed 0 * inf and left these finite
    assert np.array_equal(_add_at_oracle(x, y), [2.0, 0.0, 0.0, np.inf])


def test_grades_cached_read_only():
    x = cl.CliffordElement(0, 7, np.ones(128))
    y = cl.CliffordElement(3, 4, np.ones(128))
    assert x.grades() is y.grades()
    assert not x.grades().flags.writeable
    assert x.grades().tolist() == [bin(m).count("1") for m in range(128)]
    assert x.grades().dtype == np.array([1]).dtype


@pytest.mark.parametrize("p, q", [(-1, 2), (2, -1), (5, 4), (0, 40),
                                  (1.5, 1)])
def test_signature_is_refused_before_allocation(p, q):
    # Cl(0, 40) would need 2^40 doubles; the check comes first
    for build in (cl.CliffordElement, cl.CliffordElement.scalar,
                  cl.basis_mul_table):
        with pytest.raises(BadConfig):
            build(p, q)
    with pytest.raises(BadConfig):
        cl.CliffordElement.vector(p, q, [])


def test_vector_needs_one_component_per_generator():
    for comps in ([1.0, 2.0, 3.0], [1.0], np.ones((4, 3))):
        with pytest.raises(BadConfig):
            cl.CliffordElement.vector(0, 2, comps)
    stack = cl.CliffordElement.vector(0, 2, [[1.0, 2.0], [3.0, 4.0]])
    assert stack.coeffs.tolist() == [[0, 1, 2, 0], [0, 3, 4, 0]]


def test_stacked_rows_get_one_element_bits():
    rng = np.random.default_rng(21)
    xs, ys = rng.standard_normal((2, 5, 128))
    x, y = cl.CliffordElement(0, 7, xs), cl.CliffordElement(0, 7, ys)
    one = [cl.CliffordElement(0, 7, row) for row in ys]
    prod = cl.clifford_mul(x, y).coeffs
    assert prod.shape == (5, 128)
    for k, yk in enumerate(one):
        xk = cl.CliffordElement(0, 7, xs[k])
        assert _bits(prod[k]).tolist() == _bits(
            cl.clifford_mul(xk, yk).coeffs).tolist()
        assert _bits(cl.reversion(x).coeffs[k]).tolist() == _bits(
            cl.reversion(xk).coeffs).tolist()
    assert cl.reversion(x).max_abs().shape == (5,)
    assert cl.vector_inner(0, 7, xs[:, :7], ys[:, :7]).tolist() == [
        cl.vector_inner(0, 7, u, v) for u, v in zip(xs[:, :7], ys[:, :7])]
    a, b = oc.random_octonions(rng, 2, imaginary=True)
    rows = np.stack([a, b, a])
    assert cl.enveloping_residual(rows, rows[::-1]).tolist() == [
        cl.enveloping_residual(u.copy(), v.copy())
        for u, v in zip(rows, rows[::-1])]
