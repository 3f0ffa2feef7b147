"""Octonion arithmetic over the standard basis {1, e1, ..., e7}.

The imaginary-unit products are generated from the seven oriented cycles
(123), (145), (167), (246), (275), (374), (365): each cycle (ijk) sets
c_ijk = +1 and the full rank-3 tensor c is its total antisymmetrization.
Every sign-sensitive constant downstream (the rank-4 tensor, the model
3-form, the Fano table) is derived from this single list.
"""

from __future__ import annotations

import numpy as np

from .errors import NotImaginary, ZeroDivisor
from .exterior import AltTensor

ZERO_EPS = 1e-24   # squared-norm floor below which inversion is refused
IMAG_EPS = 1e-12   # relative real-part tolerance for "pure imaginary"

STRUCTURE_CYCLES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
                    (2, 7, 5), (3, 7, 4), (3, 6, 5))

C3 = sum(AltTensor.basis_form(7, tuple(k - 1 for k in cycle)).comps
         for cycle in STRUCTURE_CYCLES)
C3.setflags(write=False)


def _build_mul_tensor() -> np.ndarray:
    # m[k, i, j] is the e_k coefficient of e_i e_j
    m = np.zeros((8, 8, 8))
    m[0, 0, 0] = 1.0
    for i in range(1, 8):
        m[i, 0, i] = 1.0
        m[i, i, 0] = 1.0
        m[0, i, i] = -1.0
    m[1:, 1:, 1:] = C3
    return m


MUL_TENSOR = _build_mul_tensor()
MUL_TENSOR.setflags(write=False)


def basis_table() -> list[list[tuple[int, int]]]:
    """Exact 8x8 table: entry [i][j] = (k, sign) with e_i e_j = sign * e_k."""
    table = []
    for i in range(8):
        row = []
        for j in range(8):
            col = MUL_TENSOR[:, i, j]
            (k,) = np.nonzero(col)[0]
            row.append((int(k), int(col[k])))
        table.append(row)
    return table


_BASIS_TABLE = basis_table()


def _build_c4() -> np.ndarray:
    # [e_j, e_k, e_l] = 2 c4_ijkl e_i, resolved by brute force over the table
    # rather than copied from any printed cycle list: one associator
    # broadcast over every triple of imaginary units.
    e = np.eye(8)[1:]
    assoc = associator(e[:, None, None], e[None, :, None], e[None, None])
    # the associator of imaginary units is imaginary: component 0 drops
    return np.ascontiguousarray(np.moveaxis(0.5 * assoc[..., 1:], -1, 0))


def _mul_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("kij,...i,...j->...k", MUL_TENSOR, a, b)


def associator(a, b, c):
    return _mul_raw(_mul_raw(a, b), c) - _mul_raw(a, _mul_raw(b, c))


C4 = _build_c4()
C4.setflags(write=False)


class Octonion:
    """Eight real coefficients, held read-only, whose * is mul.  The
    package passes octonions as (8,) rows and (..., 8) stacks; the class
    remains only for perfbench's alias test, which multiplies one."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=float).copy()
        if arr.shape != (8,):
            raise ValueError(f"octonion needs 8 coefficients, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Octonion is immutable")

    def __mul__(self, other):
        return mul(self, other)


# Each function below takes one (8,) coefficient row, or a (..., 8) stack
# of rows that it works on row by row; every row of a stack gets the bits
# that its one-row call gives it.


def dot(a, b):
    """Euclidean inner product: of two (n,) rows as a scalar, or of each
    pair of rows of two (..., n) stacks as a (...) array, with the bits of
    the one-row product a @ b (a BLAS dot).  A row must be contiguous: the
    dot of a strided row, such as a column of mul_cols output read
    through .T, may sum in another order."""
    if a.ndim == 1:
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def is_imaginary(a):
    """|Re a| <= IMAG_EPS |a|: a bool for one row, a (...) bool array for
    a stack."""
    return np.abs(a[..., 0]) <= IMAG_EPS * np.maximum(np.sqrt(dot(a, a)),
                                                      1e-300)


def mul(a, b):
    """Octonion product from the structure-constant tensor; an Octonion
    operand gives an Octonion."""
    if isinstance(a, Octonion):
        return Octonion(_mul_raw(a.coeffs, b.coeffs))
    return _mul_raw(a, b)


def conj(a):
    out = a.astype(float)
    out[..., 1:] *= -1.0
    return out


def inverse(a):
    n2 = dot(a, a)
    if (n2 < ZERO_EPS).any():
        raise ZeroDivisor("cannot invert octonion with |a|^2 = "
                          f"{np.min(n2):.3e}")
    return conj(a) / n2[..., None]


def commutator(a, b):
    return mul(a, b) - mul(b, a)


def exponential(a):
    """exp of a pure imaginary octonion: cos|a| + a sin|a|/|a|."""
    if not is_imaginary(a).all():
        raise NotImaginary("exponential needs Re = 0, got |Re| up to "
                           f"{np.max(np.abs(a[..., 0])):.3e}")
    im = a[..., 1:]
    r = np.sqrt(dot(im, im))
    small = r < 1e-6
    if small.any():
        # the 4th-order Taylor polynomial of sin(r)/r around the
        # removable zero
        s = np.where(small, 1.0 - r**2 / 6.0 + r**4 / 120.0,
                     np.sin(r) / np.where(small, 1.0, r))
    else:
        s = np.sin(r) / r
    out = a * s[..., None]
    out[..., 0] = np.cos(r)
    return out


def power(b, k: int):
    """Integer power, well defined because two elements generate an
    associative subalgebra: |b|^k (cos k theta + sin k theta beta/|beta|)
    for b = Re b + beta, with theta = arctan2(|beta|, Re b), and the plain
    real power where beta = 0."""
    n2 = dot(b, b)
    if k < 0 and (n2 < ZERO_EPS).any():
        raise ZeroDivisor("negative power of a (near) zero octonion")
    out = np.zeros(b.shape)
    if k == 0:
        out[..., 0] = 1.0
        return out
    beta = b[..., 1:]
    r = np.sqrt(dot(beta, beta))
    real = r == 0.0
    # float_power runs the C library's pow, as the ** of a float64 scalar
    # does; np.power may round otherwise (SVML code on AVX-512 hosts)
    scale = np.float_power(np.sqrt(n2), k)
    k_theta = k * np.arctan2(r, b[..., 0])
    out[..., 0] = scale * np.cos(k_theta)
    out[..., 1:] = ((scale * np.sin(k_theta))[..., None] * beta
                    / np.where(real, 1.0, r)[..., None])
    if real.any():
        out[..., 0] = np.where(real, np.float_power(b[..., 0], k),
                               out[..., 0])
        out[..., 1:] = np.where(real[..., None], 0.0, out[..., 1:])
    return out


def left_matrix(b) -> np.ndarray:
    """8x8 matrix of A -> bA acting on coefficient vectors."""
    return np.einsum("kij,...i->...kj", MUL_TENSOR, b)


def right_matrix(b) -> np.ndarray:
    """8x8 matrix of A -> Ab acting on coefficient vectors."""
    return np.einsum("kij,...j->...ki", MUL_TENSOR, b)


# -- batched helpers on (8, m) columns and (N, 8) rows ----------------------

# Rows per block of the octonion suite's draws and checks; every product
# runs through mul_cols on columns this wide, and the clifford suite's
# blocks hold _BLOCK_ROWS // 128 trials.  With the draws on a one-thread
# pool, on a 2-core host at N = 1e5 (tracemalloc peak in brackets, the
# five draws being 32 MB of it), the suite takes 85.2 ms in 2048-row
# blocks [33.3 MB], 72.7 ms in 4096-row blocks [34.0 MB] and 69.0 ms in
# 8192-row blocks [35.5 MB].  8192 rows would save 3 % of the
# octonion-batch benchmark's wall time for 1.5 MB more peak RSS, and
# would double the clifford blocks with them.
_BLOCK_ROWS = 4096


def _gather_terms() -> tuple:
    # terms[k] lists (i, j, add or subtract) with e_i e_j = +-e_k, in
    # increasing i: the order in which the einsum of _mul_raw sums them
    terms = [[] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            k, sign = _BASIS_TABLE[i][j]
            terms[k].append((i, j, np.add if sign > 0 else np.subtract))
    return tuple(tuple(t) for t in terms)


_GATHER_TERMS = _gather_terms()


def mul_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise octonion products of two (8, m) column stacks, as an
    (8, m) array.

    Column c of the result equals ``mul`` of column c of a and column c
    of b, bitwise, the sign of a zero included: each basis product is a
    signed permutation e_i e_j = +-e_k, so output k sums the 8 signed
    terms a_i b_j in the order of the dense einsum, whose other 448
    terms are zeros.  Each of the 120 ufuncs runs over one coefficient
    row of m values, so the rows are best contiguous.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != 8 or a.shape != b.shape:
        raise ValueError("mul_cols needs two (8, m) arrays with the same "
                         f"m, got {a.shape} and {b.shape}")
    out = np.empty(a.shape)
    term = np.empty(a.shape[1])
    # one view per coefficient row, made once rather than per term; the
    # ufuncs take their output positionally, which parses faster
    a_rows, b_rows = list(a), list(b)
    for ok, ((i, j, _), *rest) in zip(out, _GATHER_TERMS):
        np.multiply(a_rows[i], b_rows[j], ok)
        for i, j, accumulate in rest:
            np.multiply(a_rows[i], b_rows[j], term)
            accumulate(ok, term, ok)
    # + 0.0 turns a -0 into the +0 of the einsum's zero-started sum
    return np.add(out, 0.0, out=out)


def norm_batch(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ni,ni->n", a, a))


def random_octonions(rng: np.random.Generator, n: int,
                     unit: bool = False, imaginary: bool = False) -> np.ndarray:
    """(n, 8) array of Gaussian octonions, optionally unit / pure imaginary."""
    out = np.empty((n, 8))
    _fill_octonions(rng, out, imaginary)
    if unit:
        out /= norm_batch(out)[:, None]
    return out


def _fill_octonions(rng: np.random.Generator, out: np.ndarray,
                    imaginary: bool) -> None:
    """Fill out, C-contiguous (m, 8) rows, with Gaussian octonions, pure
    imaginary if asked.  Row blocks filled in turn from one generator get
    the bits of one fill over all their rows."""
    rng.standard_normal(out=out)
    if imaginary:
        out[:, 0] = 0.0
