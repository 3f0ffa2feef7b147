"""Octonion arithmetic: multiplication table, involutions, exponential,
powers, translation operatorsatrices, and the algebra identity pack."""

import math
from fractions import Fraction

import numpy as np
import pytest

from g2lab import octonion as oc
from g2lab.errors import NotImaginary, ZeroDivisor
from g2lab.octonion import Octonion

E = [Octonion.basis(k) for k in range(8)]
TABLE = oc.basis_table()


def mul_exact(a, b):
    """Multiply octonions with Fraction coefficients using the exact table.

    Only the integer basis table enters, so results are exact rationals.
    """
    out = [Fraction(0)] * 8
    for i in range(8):
        if a[i] == 0:
            continue
        for j in range(8):
            if b[j] == 0:
                continue
            k, sign = TABLE[i][j]
            out[k] += Fraction(a[i]) * Fraction(b[j]) * sign
    return tuple(out)


def test_unit_is_two_sided():
    rng = np.random.default_rng(0)
    a = Octonion(rng.standard_normal(8))
    assert oc.mul(Octonion.one(), a).allclose(a, 0)
    assert oc.mul(a, Octonion.one()).allclose(a, 0)


def test_cycle_products():
    assert oc.mul(E[1], E[2]).allclose(E[3], 0)
    assert oc.mul(E[1], E[4]).allclose(E[5], 0)
    assert oc.mul(E[6], E[2]).allclose(E[4], 0)
    assert oc.mul(E[2], E[4]).allclose(E[6], 0)
    assert oc.mul(E[4], E[6]).allclose(E[2], 0)


def test_imaginary_units_square_to_minus_one():
    for k in range(1, 8):
        assert oc.mul(E[k], E[k]).allclose(-1.0 * Octonion.one(), 0)


def test_conjugation():
    assert oc.conj(Octonion.one()).allclose(Octonion.one(), 0)
    assert oc.conj(E[5]).allclose(-1.0 * E[5], 0)
    a = Octonion.from_parts(3.0, 2.0 * np.eye(7)[0])
    assert oc.conj(a).allclose(Octonion.from_parts(3.0, -2.0 * np.eye(7)[0]), 0)
    rng = np.random.default_rng(1)
    x, y = (Octonion(v) for v in rng.standard_normal((2, 8)))
    assert oc.conj(oc.conj(x)).allclose(x, 0)
    assert oc.conj(oc.mul(x, y)).allclose(oc.mul(oc.conj(y), oc.conj(x)),
                                          1e-13)
    # A conj(A) = |A|^2
    assert oc.mul(x, oc.conj(x)).allclose(x.norm_sq() * Octonion.one(), 1e-12)


def test_inverse():
    assert oc.inverse(E[1]).allclose(-1.0 * E[1], 0)
    assert oc.inverse(2.0 * Octonion.one()).allclose(0.5 * Octonion.one(), 0)
    rng = np.random.default_rng(2)
    u = Octonion(oc.random_octonions(rng, 1, unit=True)[0])
    assert oc.mul(u, oc.inverse(u)).allclose(Octonion.one(), 1e-14)
    assert oc.mul(oc.inverse(u), u).allclose(Octonion.one(), 1e-14)
    with pytest.raises(ZeroDivisor):
        oc.inverse(Octonion.zero())


def test_commutator_and_associator_units():
    assert oc.commutator(E[1], E[2]).allclose(2.0 * E[3], 0)
    assert oc.associator(E[1], E[2], E[3]).allclose(Octonion.zero(), 0)
    # sign fixed by the brute-force table
    assert oc.associator(E[1], E[2], E[4]).allclose(-2.0 * E[7], 0)
    assert abs(oc.C4[6, 0, 1, 3] + 1.0) == 0.0


def test_associator_total_antisymmetry_exact_table():
    table = oc.basis_table()

    def mul_idx(i, j):
        return table[i][j]

    def assoc(i, j, k):
        m1, s1 = mul_idx(i, j)
        m2, s2 = mul_idx(m1, k)
        m3, s3 = mul_idx(j, k)
        m4, s4 = mul_idx(i, m3)
        out = {}
        out[m2] = out.get(m2, 0) + s1 * s2
        out[m4] = out.get(m4, 0) - s3 * s4
        return {k_: v for k_, v in out.items() if v}

    a134 = assoc(1, 3, 4)
    a314 = assoc(3, 1, 4)
    assert a134 == {k_: -v for k_, v in a314.items()}
    assert assoc(2, 2, 5) == {}


def test_commutator_associator_imaginary_valued():
    rng = np.random.default_rng(3)
    x, y, z = (Octonion(v) for v in oc.random_octonions(rng, 3,
                                                        imaginary=True))
    assert abs(oc.commutator(x, y).real) < 1e-14
    assert abs(oc.associator(x, y, z).real) < 1e-14


def test_exponential():
    assert oc.exponential(Octonion.zero()).allclose(Octonion.one(), 0)
    assert oc.exponential(math.pi * E[1]).allclose(-1.0 * Octonion.one(),
                                                   1e-15)
    assert oc.exponential(math.pi / 2 * E[3]).allclose(E[3], 1e-15)
    # series branch near zero
    small = 1e-8 * E[2]
    got = oc.exponential(small)
    assert abs(got.real - 1.0) < 1e-15
    assert abs(got.coeffs[2] - 1e-8) < 1e-22
    with pytest.raises(NotImaginary):
        oc.exponential(Octonion.from_parts(0.5, np.ones(7)))


def test_exponential_vs_power_series_oracle():
    rng = np.random.default_rng(4)
    a = Octonion(0.3 * oc.random_octonions(rng, 1, imaginary=True)[0])
    series = Octonion.one()
    term = Octonion.one()
    for k in range(1, 30):
        term = oc.mul(term, a) * (1.0 / k)
        series = series + term
    assert oc.exponential(a).allclose(series, 1e-14)


def test_power():
    assert oc.power(E[1], 2).allclose(-1.0 * Octonion.one(), 1e-15)
    rng = np.random.default_rng(5)
    a = Octonion(rng.standard_normal(8))
    assert oc.power(a, 1).allclose(a, 1e-14)
    u = Octonion(oc.random_octonions(rng, 1, unit=True)[0])
    assert oc.power(u, 3).allclose(oc.mul(oc.mul(u, u), u), 1e-13)
    assert oc.power(u, -2).allclose(
        oc.inverse(oc.mul(u, u)), 1e-13)
    assert oc.power(a, 0).allclose(Octonion.one(), 0)
    with pytest.raises(ZeroDivisor):
        oc.power(Octonion.zero(), -1)


def test_translation_matrices():
    assert np.max(np.abs(oc.left_matrix(Octonion.one()) - np.eye(8))) == 0
    got = oc.left_matrix(E[1]) @ E[2].coeffs
    assert np.max(np.abs(got - E[3].coeffs)) == 0
    rng = np.random.default_rng(6)
    b, a, c = (Octonion(v) for v in rng.standard_normal((3, 8)))
    assert np.max(np.abs(oc.left_matrix(b) @ a.coeffs
                         - oc.mul(b, a).coeffs)) < 1e-14
    assert np.max(np.abs(oc.right_matrix(b) @ a.coeffs
                         - oc.mul(a, b).coeffs)) < 1e-14
    lhs = (oc.left_matrix(b) @ a.coeffs) @ c.coeffs
    rhs = a.coeffs @ (oc.left_matrix(oc.conj(b)) @ c.coeffs)
    assert abs(lhs - rhs) < 1e-12


def test_exact_rational_table_mode():
    a = tuple(Fraction(x) for x in (1, 2, 0, 0, 3, 0, 0, 0))
    b = tuple(Fraction(x) for x in (0, 1, -1, 0, 0, 0, 0, 2))
    exact = mul_exact(a, b)
    floats = oc.mul(Octonion([float(x) for x in a]),
                    Octonion([float(x) for x in b]))
    assert all(float(e) == f for e, f in zip(exact, floats.coeffs))
    # alternativity is exact in the rational mode
    ab = mul_exact(a, b)
    aab = mul_exact(mul_exact(a, a), b)
    a_ab = mul_exact(a, ab)
    assert aab == a_ab


def test_norm_multiplicativity_bulk():
    rng = np.random.default_rng(7)
    a = oc.random_octonions(rng, 10000)
    b = oc.random_octonions(rng, 10000)
    lhs = oc.norm_batch(_mul_rows(a, b))
    rhs = oc.norm_batch(a) * oc.norm_batch(b)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_generalized_jacobi_resolved_sign():
    # sum_cyc [x,[y,z]] = -6 [x,y,z] for this structure-constant table
    rng = np.random.default_rng(8)
    x, y, z = (Octonion(v) for v in oc.random_octonions(rng, 3,
                                                        imaginary=True))
    jac = (oc.commutator(x, oc.commutator(y, z))
           + oc.commutator(y, oc.commutator(z, x))
           + oc.commutator(z, oc.commutator(x, y)))
    assert jac.allclose(-6.0 * oc.associator(x, y, z), 1e-12)


def _bits(x):
    # compare float arrays bit for bit, the sign of a zero included
    return np.ascontiguousarray(x).view(np.int64)


def _mul_rows(a, b):
    # (N, 8) row stacks multiply as the columns of their transposes
    return oc.mul_cols(a.T, b.T).T


@pytest.mark.parametrize("n", [0, 1, 7, oc._BLOCK_ROWS - 1, oc._BLOCK_ROWS,
                               oc._BLOCK_ROWS + 1, 2 * oc._BLOCK_ROWS + 3])
def test_mul_batch_bitwise_equals_einsum(n):
    # the row route of the whole-array oracles: the bits of _mul_raw on
    # rows and of mul on each row
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, n, 8))
    got = _mul_rows(a, b)
    assert got.shape == (n, 8)
    assert np.array_equal(_bits(got), _bits(oc._mul_raw(a, b)))
    for r in range(min(n, 3)):
        single = oc.mul(Octonion(a[r]), Octonion(b[r])).coeffs
        assert np.array_equal(_bits(got[r]), _bits(single))


def test_mul_batch_basis_pairs_match_table():
    table = oc.basis_table()
    eye = np.eye(8)
    i, j = np.divmod(np.arange(64), 8)
    got = _mul_rows(eye[i], eye[j])
    for r in range(64):
        k, sign = table[i[r]][j[r]]
        assert np.array_equal(got[r], sign * eye[k])


@pytest.mark.parametrize("a_shape, b_shape", [
    ((1, 8), (5, 8)),
    ((5, 8), (4, 8)),
    ((8,), (8,)),
    ((5, 7), (5, 7)),
    ((2, 5, 8), (2, 5, 8)),
])
def test_mul_batch_rejects_other_shapes(a_shape, b_shape):
    # a row stack of another shape transposes to no (8, m) pair
    with pytest.raises(ValueError) as err:
        _mul_rows(np.ones(a_shape), np.ones(b_shape))
    for shape in (a_shape, b_shape):
        assert str(shape[::-1]) in str(err.value)


@pytest.mark.parametrize("m", [0, 1, 7, 4096, 4097])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_mul_cols_bitwise_equals_mul_per_column(m, layout):
    rng = np.random.default_rng(13)
    if layout == "contiguous":
        a, b = rng.standard_normal((2, 8, m))
    else:
        # (8, m) views of (m, 8) rows, and of every other column
        a = rng.standard_normal((m, 8)).T
        b = rng.standard_normal((8, 2 * m))[:, ::2]
        assert m < 2 or not (a.flags.c_contiguous or b.flags.c_contiguous)
    got = oc.mul_cols(a, b)
    assert got.shape == (8, m) and got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(oc._mul_raw(a.T, b.T).T))
    for c in sorted({0, m // 2, m - 1} & set(range(m))):
        single = oc.mul(Octonion(a[:, c]), Octonion(b[:, c])).coeffs
        assert np.array_equal(_bits(got[:, c]), _bits(single))


def test_mul_cols_turns_signed_zeros_positive():
    # products of +-0 and +-1 only: every term is a signed zero or +-1
    rng = np.random.default_rng(14)
    vals = np.array([0.0, -0.0, 1.0, -1.0])
    a, b = vals[rng.integers(0, 4, (2, 8, 5000))]
    got = oc.mul_cols(a, b)
    assert np.array_equal(_bits(got), _bits(oc._mul_raw(a.T, b.T).T))
    zeros = got[got == 0.0]
    assert zeros.size and not np.signbit(zeros).any()
    # an all -0 column times anything finite is +0 in every coefficient
    a[:, 0] = -0.0
    assert _bits(oc.mul_cols(a, b)[:, 0]).tolist() == [0] * 8


def test_mul_cols_inf_column_fails_closed():
    rng = np.random.default_rng(15)
    a, b = rng.standard_normal((2, 8, 4097))
    a[2, 4096] = np.inf
    got = oc.mul_cols(a, b)
    finite = np.isfinite(got).all(axis=0)
    assert not finite[4096]
    assert finite.sum() == 4096


@pytest.mark.parametrize("a_shape, b_shape", [
    ((8, 5), (8, 4)),
    ((5, 8), (5, 8)),
    ((8,), (8,)),
    ((2, 8, 5), (2, 8, 5)),
])
def test_mul_cols_rejects_other_shapes(a_shape, b_shape):
    with pytest.raises(ValueError) as err:
        oc.mul_cols(np.ones(a_shape), np.ones(b_shape))
    assert str(a_shape) in str(err.value) and str(b_shape) in str(err.value)


def test_inversion_floor_is_zero_eps():
    # |a|^2 a factor 2 on either side of the fixed floor
    below = Octonion.basis(1) * math.sqrt(0.5 * oc.ZERO_EPS)
    above = Octonion.basis(1) * math.sqrt(2.0 * oc.ZERO_EPS)
    assert below.norm_sq() < oc.ZERO_EPS < above.norm_sq()
    for refuse in (oc.inverse, lambda a: oc.power(a, -1)):
        with pytest.raises(ZeroDivisor):
            refuse(below)
    assert oc.inverse(above).allclose(Octonion.basis(1) * -1.0
                                      / math.sqrt(2.0 * oc.ZERO_EPS), 1e-3)
    assert oc.power(above, -1).allclose(oc.inverse(above), 1e-3)


def test_imaginary_threshold_is_imag_eps():
    # Re/|a| a factor 2 on either side of the fixed relative threshold,
    # at |a| = 1 and at |a| = 1e6
    for scale in (1.0, 1e6):
        for ratio, imaginary in ((2.0 * oc.IMAG_EPS, False),
                                 (0.5 * oc.IMAG_EPS, True)):
            imag = np.zeros(7)
            imag[2] = math.sqrt(1.0 - ratio ** 2)
            a = Octonion.from_parts(ratio, imag) * scale
            assert a.is_imaginary() is imaginary
            if imaginary:
                assert oc.exponential(a).norm() == pytest.approx(1.0, 1e-12)
            else:
                with pytest.raises(NotImaginary):
                    oc.exponential(a)
