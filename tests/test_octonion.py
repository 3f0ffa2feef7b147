"""Octonion arithmetic: multiplication table, involutions, exponential,
powers, translation matrices, and the algebra identity pack."""

import math
from fractions import Fraction

import numpy as np
import pytest

from g2lab import octonion as oc
from g2lab.errors import NotImaginary, ZeroDivisor

E = np.eye(8)
ONE = E[0]
TABLE = oc.basis_table()


def close(a, b, tol):
    return bool(np.max(np.abs(a - b)) <= tol)


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
    a = rng.standard_normal(8)
    assert close(oc.mul(ONE, a), a, 0)
    assert close(oc.mul(a, ONE), a, 0)


def test_cycle_products():
    assert close(oc.mul(E[1], E[2]), E[3], 0)
    assert close(oc.mul(E[1], E[4]), E[5], 0)
    assert close(oc.mul(E[6], E[2]), E[4], 0)
    assert close(oc.mul(E[2], E[4]), E[6], 0)
    assert close(oc.mul(E[4], E[6]), E[2], 0)


def test_imaginary_units_square_to_minus_one():
    for k in range(1, 8):
        assert close(oc.mul(E[k], E[k]), -ONE, 0)


def test_conjugation():
    assert close(oc.conj(ONE), ONE, 0)
    assert close(oc.conj(E[5]), -E[5], 0)
    a = np.r_[3.0, 2.0 * np.eye(7)[0]]
    assert close(oc.conj(a), np.r_[3.0, -2.0 * np.eye(7)[0]], 0)
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 8))
    assert close(oc.conj(oc.conj(x)), x, 0)
    assert close(oc.conj(oc.mul(x, y)), oc.mul(oc.conj(y), oc.conj(x)),
                 1e-13)
    # A conj(A) = |A|^2
    assert close(oc.mul(x, oc.conj(x)), oc.dot(x, x) * ONE, 1e-12)


def test_inverse():
    assert close(oc.inverse(E[1]), -E[1], 0)
    assert close(oc.inverse(2.0 * ONE), 0.5 * ONE, 0)
    rng = np.random.default_rng(2)
    u = oc.random_octonions(rng, 1, unit=True)[0]
    assert close(oc.mul(u, oc.inverse(u)), ONE, 1e-14)
    assert close(oc.mul(oc.inverse(u), u), ONE, 1e-14)
    with pytest.raises(ZeroDivisor):
        oc.inverse(np.zeros(8))


def test_commutator_and_associator_units():
    assert close(oc.commutator(E[1], E[2]), 2.0 * E[3], 0)
    assert close(oc.associator(E[1], E[2], E[3]), np.zeros(8), 0)
    # sign fixed by the brute-force table
    assert close(oc.associator(E[1], E[2], E[4]), -2.0 * E[7], 0)
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
    x, y, z = oc.random_octonions(rng, 3, imaginary=True)
    assert abs(oc.commutator(x, y)[0]) < 1e-14
    assert abs(oc.associator(x, y, z)[0]) < 1e-14


def test_exponential():
    assert close(oc.exponential(np.zeros(8)), ONE, 0)
    assert close(oc.exponential(math.pi * E[1]), -ONE, 1e-15)
    assert close(oc.exponential(math.pi / 2 * E[3]), E[3], 1e-15)
    # series branch near zero
    small = 1e-8 * E[2]
    got = oc.exponential(small)
    assert abs(got[0] - 1.0) < 1e-15
    assert abs(got[2] - 1e-8) < 1e-22
    with pytest.raises(NotImaginary):
        oc.exponential(np.r_[0.5, np.ones(7)])


def test_exponential_vs_power_series_oracle():
    rng = np.random.default_rng(4)
    a = 0.3 * oc.random_octonions(rng, 1, imaginary=True)[0]
    series = ONE
    term = ONE
    for k in range(1, 30):
        term = oc.mul(term, a) * (1.0 / k)
        series = series + term
    assert close(oc.exponential(a), series, 1e-14)


def test_power():
    assert close(oc.power(E[1], 2), -ONE, 1e-15)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(8)
    assert close(oc.power(a, 1), a, 1e-14)
    u = oc.random_octonions(rng, 1, unit=True)[0]
    assert close(oc.power(u, 3), oc.mul(oc.mul(u, u), u), 1e-13)
    assert close(oc.power(u, -2), oc.inverse(oc.mul(u, u)), 1e-13)
    assert close(oc.power(a, 0), ONE, 0)
    with pytest.raises(ZeroDivisor):
        oc.power(np.zeros(8), -1)


def test_translation_matrices():
    assert np.max(np.abs(oc.left_matrix(ONE) - np.eye(8))) == 0
    got = oc.left_matrix(E[1]) @ E[2]
    assert np.max(np.abs(got - E[3])) == 0
    rng = np.random.default_rng(6)
    b, a, c = rng.standard_normal((3, 8))
    assert np.max(np.abs(oc.left_matrix(b) @ a - oc.mul(b, a))) < 1e-14
    assert np.max(np.abs(oc.right_matrix(b) @ a - oc.mul(a, b))) < 1e-14
    lhs = (oc.left_matrix(b) @ a) @ c
    rhs = a @ (oc.left_matrix(oc.conj(b)) @ c)
    assert abs(lhs - rhs) < 1e-12


def test_exact_rational_table_mode():
    a = tuple(Fraction(x) for x in (1, 2, 0, 0, 3, 0, 0, 0))
    b = tuple(Fraction(x) for x in (0, 1, -1, 0, 0, 0, 0, 2))
    exact = mul_exact(a, b)
    floats = oc.mul(np.array([float(x) for x in a]),
                    np.array([float(x) for x in b]))
    assert all(float(e) == f for e, f in zip(exact, floats))
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
    x, y, z = oc.random_octonions(rng, 3, imaginary=True)
    jac = (oc.commutator(x, oc.commutator(y, z))
           + oc.commutator(y, oc.commutator(z, x))
           + oc.commutator(z, oc.commutator(x, y)))
    assert close(jac, -6.0 * oc.associator(x, y, z), 1e-12)


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
        single = oc.mul(a[r].copy(), b[r].copy())
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
        single = oc.mul(a[:, c].copy(), b[:, c].copy())
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
    below = E[1] * math.sqrt(0.5 * oc.ZERO_EPS)
    above = E[1] * math.sqrt(2.0 * oc.ZERO_EPS)
    assert oc.dot(below, below) < oc.ZERO_EPS < oc.dot(above, above)
    for refuse in (oc.inverse, lambda a: oc.power(a, -1)):
        with pytest.raises(ZeroDivisor):
            refuse(below)
    assert close(oc.inverse(above),
                 -E[1] / math.sqrt(2.0 * oc.ZERO_EPS), 1e-3)
    assert close(oc.power(above, -1), oc.inverse(above), 1e-3)


def test_imaginary_threshold_is_imag_eps():
    # Re/|a| a factor 2 on either side of the fixed relative threshold,
    # at |a| = 1 and at |a| = 1e6
    for scale in (1.0, 1e6):
        for ratio, imaginary in ((2.0 * oc.IMAG_EPS, False),
                                 (0.5 * oc.IMAG_EPS, True)):
            imag = np.zeros(7)
            imag[2] = math.sqrt(1.0 - ratio ** 2)
            a = np.r_[ratio, imag] * scale
            assert oc.is_imaginary(a) == imaginary
            if imaginary:
                assert (np.linalg.norm(oc.exponential(a))
                        == pytest.approx(1.0, 1e-12))
            else:
                with pytest.raises(NotImaginary):
                    oc.exponential(a)


def test_stacked_rows_get_one_octonion_bits():
    # a stack of rows, real and zero rows among them, through every
    # function that takes one: each row has the bits of its one-row call
    rng = np.random.default_rng(22)
    rows = oc.random_octonions(rng, 6)
    rows[1, 1:] = 0.0
    rows[2] = 0.0
    imag = oc.random_octonions(rng, 6, imaginary=True)
    imag[3] = 0.0
    one = [r.copy() for r in rows]

    def same(stacked, single):
        got = np.asarray(stacked)
        want = np.array(list(single))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    same(oc.mul(rows, rows[::-1]), [oc.mul(a, b)
                                    for a, b in zip(one, one[::-1])])
    same(oc.conj(rows), map(oc.conj, one))
    same(oc.dot(rows, rows[::-1]), [oc.dot(a, b)
                                    for a, b in zip(one, one[::-1])])
    for k in (0, 1, 2, 3, 5):
        same(oc.power(rows, k), [oc.power(a, k) for a in one])
    same(oc.left_matrix(rows), map(oc.left_matrix, one))
    same(oc.right_matrix(rows), map(oc.right_matrix, one))
    same(oc.exponential(imag), [oc.exponential(r.copy()) for r in imag])
    same(oc.is_imaginary(imag), [oc.is_imaginary(r.copy()) for r in imag])
    nonzero = np.delete(rows, 2, axis=0)
    same(oc.inverse(nonzero), [oc.inverse(r.copy()) for r in nonzero])
    same(oc.power(nonzero, -2), [oc.power(r.copy(), -2) for r in nonzero])
    with pytest.raises(ZeroDivisor):
        oc.inverse(rows)
    with pytest.raises(NotImaginary):
        oc.exponential(rows)


def test_functions_leave_read_only_rows_unchanged():
    # every public function that takes octonion rows accepts read-only
    # ones and writes none of its operands
    import inspect
    from g2lab import clifford as cl
    from g2lab import deform as df
    from g2lab import field as fld
    from g2lab import g2linear as g2
    rng = np.random.default_rng(23)
    a, b, c = oc.random_octonions(rng, 3)
    u, v = oc.random_octonions(rng, 2, unit=True)
    w, x = oc.random_octonions(rng, 2, imaginary=True)
    stack = oc.random_octonions(rng, 4)
    imag = oc.random_octonions(rng, 4, imaginary=True)
    cols = rng.standard_normal((2, 8, 5))
    operands = (a, b, c, u, v, w, x, stack, imag, cols)
    for op in operands:
        op.setflags(write=False)
    before = [op.tobytes() for op in operands]
    data0 = g2.metric_from_3form(g2.PHI0)
    calls = {
        oc: {
            "associator": lambda: oc.associator(a, stack, c),
            "dot": lambda: (oc.dot(a, b), oc.dot(stack, stack)),
            "is_imaginary": lambda: (oc.is_imaginary(w),
                                     oc.is_imaginary(stack)),
            "mul": lambda: (oc.mul(a, b), oc.mul(stack, a)),
            "conj": lambda: (oc.conj(a), oc.conj(stack)),
            "inverse": lambda: (oc.inverse(a), oc.inverse(stack)),
            "commutator": lambda: oc.commutator(a, stack),
            "exponential": lambda: (oc.exponential(w), oc.exponential(imag)),
            "power": lambda: (oc.power(a, 3), oc.power(stack, -2)),
            "left_matrix": lambda: oc.left_matrix(stack),
            "right_matrix": lambda: oc.right_matrix(a),
            "mul_cols": lambda: oc.mul_cols(cols[0], cols[1]),
            "norm_batch": lambda: oc.norm_batch(stack),
        },
        df: {
            "bundle_mul": lambda: df.bundle_mul(stack, a, data0),
            "bundle_norm_sq": lambda: df.bundle_norm_sq(a, data0),
            "bundle_inverse": lambda: df.bundle_inverse(stack, data0),
            "ad": lambda: df.ad(u, a),
            "ad_matrix7": lambda: df.ad_matrix7(u, data0),
            "sigma": lambda: df.sigma(u, data0),
            "deformed_mul": lambda: df.deformed_mul(a, b, u),
            "conjugation_pullback_residual":
                lambda: df.conjugation_pullback_residual(u, data0),
            "composition_residual":
                lambda: df.composition_residual(u, v, data0),
            "adjoint_product_residuals":
                lambda: df.adjoint_product_residuals(u, a, b),
        },
        cl: {
            "enveloping_residual": lambda: (cl.enveloping_residual(w, x),
                                            cl.enveloping_residual(imag,
                                                                   imag)),
            "clifford_action": lambda: cl.clifford_action(w, stack),
            "j_map": lambda: cl.j_map(stack, u),
            "j_inverse": lambda: cl.j_inverse(a, u),
            "reference_structure": lambda: cl.reference_structure(u, data0),
        },
        fld: {
            "leibniz_defect": lambda: fld.leibniz_defect(
                fld.sigma_warp_field(), np.zeros(7), a, b, 1e-3),
        },
    }
    # octonion and deform take rows in every public function but these
    takes_no_rows = {"basis_table", "random_octonions"}
    for module in (oc, df):
        public = {name for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and fn.__module__
                  == module.__name__ and not name.startswith("_")}
        assert public - takes_no_rows == set(calls[module]), module.__name__
    for module, by_name in calls.items():
        for name, call in by_name.items():
            call()
            assert [op.tobytes() for op in operands] == before, name
