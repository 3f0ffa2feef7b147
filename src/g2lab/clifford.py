"""Blade-based Clifford algebras Cl(p, q) for p + q <= 8, the enveloping
Clifford relation of octonion left translations, and the pointwise
spinor <-> octonion dictionary relative to a unit reference.  An
element of Cl(p, q) is a row of 2^(p+q) blade coefficients (bitmask
index), or a (..., 2^(p+q)) stack of rows, each row with the bits of its
one-row call; the functions that need the signature take p, q first.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import BadConfig, NotImaginary, ZeroReference
from .exterior import AltTensor
from .g2linear import G2MetricData
from .octonion import dot, inverse, is_imaginary, left_matrix, mul

MAX_GENERATORS = 8


def _blade_count(p, q) -> int:
    """2^(p+q), the blade count of Cl(p, q), once the signature is known
    to be p, q >= 0 with p + q <= MAX_GENERATORS; else a BadConfig,
    before anything is allocated."""
    if not (isinstance(p, Integral) and isinstance(q, Integral)
            and 0 <= p and 0 <= q and p + q <= MAX_GENERATORS):
        raise BadConfig(f"Cl(p, q) needs integers p, q >= 0 with p + q <= "
                        f"{MAX_GENERATORS}, got Cl({p}, {q})")
    return 1 << (p + q)


@lru_cache(maxsize=None)
def _tables(p: int, q: int):
    """Dense product tables over blade masks, read-only: result[a, b] =
    a ^ b and sign[a, b], plus the signed gather index of clifford_mul:
    gather[a, c] = (a ^ c) + dim where sign[a, a ^ c] = -1, else a ^ c,
    so that blade a times blade a ^ c is (y, -y)[gather[a, c]] times
    blade c.  The sign is the one of merging two blades, for all pairs at
    once: the parity of the merge transpositions, popcount((a >> k) & b)
    over k >= 1, plus the shared negative-square generators (bits
    p .. p + q - 1)."""
    dim = _blade_count(p, q)
    pop = _grades(dim)
    a = np.arange(dim)[:, None]
    b = np.arange(dim)[None, :]
    flips = pop[a & b & (dim - (1 << p))]
    for k in range(1, p + q):
        flips = flips + pop[(a >> k) & b]
    res = a ^ b
    sgn = 1 - 2 * (flips & 1)
    gather = res + dim * (np.take_along_axis(sgn, res, axis=1) < 0)
    for table in (res, sgn, gather):
        table.setflags(write=False)
    return res, sgn, gather


@lru_cache(maxsize=None)
def _grades(dim: int) -> np.ndarray:
    """Grade (popcount) of every blade mask below dim, read-only."""
    g = np.array([bin(m).count("1") for m in range(dim)])
    g.setflags(write=False)
    return g


def scalar(p: int, q: int, value=1.0) -> np.ndarray:
    """value times the unit; a (...) array of values gives a stack."""
    value = np.asarray(value, dtype=float)
    out = np.zeros(value.shape + (_blade_count(p, q),))
    out[..., 0] = value
    return out


def vector(p: int, q: int, comps) -> np.ndarray:
    """sum_i comps_i e_i over the p + q generators; (..., p + q)
    components give a stack."""
    dim = _blade_count(p, q)
    comps = np.asarray(comps, dtype=float)
    if comps.shape[-1:] != (p + q,):
        raise BadConfig(f"a vector of Cl({p}, {q}) has {p + q} "
                        f"components, got shape {comps.shape}")
    out = np.zeros(comps.shape[:-1] + (dim,))
    out[..., 1 << np.arange(p + q)] = comps
    return out


def clifford_mul(p: int, q: int, x, y) -> np.ndarray:
    """Geometric product in Cl(p, q) as one dense gather over the blades
    of x: of two rows, or row by row of two stacks of the same shape.

    Output blade c sums x_a sign(a, a ^ c) y_(a ^ c) over a in increasing
    order: one take through the gather index of _tables reads every
    signed y_(a ^ c) from (y, -y), the terms are multiplied by x_a and
    summed over a.  When y is finite, a blade of x that is zero in every
    row adds only signed zeros and is left out; the sum starts from +0,
    so the other blades give it the same bits.  Against a non-finite y
    every blade is kept, so a zero times an inf or NaN coefficient gives
    NaN and the product fails closed.  The terms take dim^2 doubles per
    row of dense x (128 KB at Cl(0, 7)), so a caller with many rows
    multiplies them in blocks.  Rows of another width, or two shapes, are
    a BadConfig before anything is allocated.
    """
    dim = _blade_count(p, q)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape[-1:] != (dim,) or x.shape != y.shape:
        raise BadConfig(f"Cl({p}, {q}) needs {dim} blade coefficients a "
                        f"row, x and y of one shape: {x.shape}, {y.shape}")
    _, _, gather = _tables(p, q)
    used = x.reshape(-1, dim).any(axis=0)
    if not used.all() and np.isfinite(y).all():
        gather, x = gather[used], x[..., used]
    signed = np.concatenate((y, -y), axis=-1)
    terms = signed.take(gather, axis=-1)
    terms *= x[..., :, None]
    return terms.sum(axis=-2)


# the reversion sign (-1)^(k(k-1)/2) of a grade-k blade, by k mod 4
_REVERSION_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def reversion(x) -> np.ndarray:
    """The anti-automorphism that reverses the generators of every blade:
    a grade-k blade changes sign when k = 2 or 3 mod 4.  The grades are
    read from the row width, 2^n blades with n <= MAX_GENERATORS."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1] if x.ndim else 0
    if dim & (dim - 1) or not 0 < dim <= 1 << MAX_GENERATORS:
        raise BadConfig(f"a Clifford row has 2^n blades with n <= "
                        f"{MAX_GENERATORS}, got shape {x.shape}")
    return x * _REVERSION_SIGNS[_grades(dim) % 4]


def vector_inner(p: int, q: int, u, v):
    """The quadratic form g(u, v) of the signature: a float, or one per
    pair of rows of two (..., p + q) stacks."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    signs = np.concatenate([np.ones(p), -np.ones(q)])
    g = np.sum(signs * u * v, axis=-1)
    return float(g) if g.ndim == 0 else g


def basis_mul_table(p: int, q: int) -> list[list[dict]]:
    """Full basis-blade multiplication table (for the table emitter)."""
    dim = _blade_count(p, q)
    res, sgn, _ = _tables(p, q)
    return [[{"mask": int(res[a, b]), "sign": int(sgn[a, b])}
             for b in range(dim)] for a in range(dim)]


# -- enveloping algebra of left translations ----------------------------------

ENVELOPING_KAPPA = 2.0
"""Constant in L_A L_B + L_B L_A = -kappa <A, B> Id for imaginary A, B.

Some printed accounts of the enveloping identity carry kappa = 1; the
matrix oracle and the polarized square-norm identity both give 2.
"""


def enveloping_residual(a, b):
    """Max-abs residual of the Clifford relation for left translations:
    a scalar for two (8,) rows, one per row for two (..., 8) stacks."""
    if not (np.all(is_imaginary(a)) and np.all(is_imaginary(b))):
        raise NotImaginary("enveloping relation needs imaginary octonions")
    la, lb = left_matrix(a), left_matrix(b)
    anti = la @ lb + lb @ la
    kappa_ab = ENVELOPING_KAPPA * dot(a, b)
    return np.max(np.abs(anti + kappa_ab[..., None, None] * np.eye(8)),
                  axis=(-2, -1))


# -- pointwise spinor <-> octonion dictionary ----------------------------------

# A spinor at a point is 8 components, identified with an octonion through
# a unit reference spinor xi.  The maps below take one (8,) row of each,
# or (..., 8) stacks mapped row by row into a stack.

def clifford_action(v, eta):
    """Action of an octonion (vector when imaginary) on a spinor via
    left translation; satisfies the Cl(0, 7) relation on vectors."""
    return (left_matrix(v) @ eta[..., None])[..., 0]


def j_map(eta, xi):
    """j_xi(eta): the octonion A with eta = A . xi; equals eta xi^-1."""
    if np.any(dot(xi, xi) < 1e-24):
        raise ZeroReference("reference spinor must be nonzero")
    return mul(eta, inverse(xi))


def j_inverse(a, xi):
    if np.any(dot(xi, xi) < 1e-24):
        raise ZeroReference("reference spinor must be nonzero")
    return mul(a, xi)


def reference_structure(xi: np.ndarray, data0: G2MetricData) -> AltTensor:
    """The 3-form associated with a unit reference spinor,
    phi_xi = sigma_xi(phi0), with data0 the G2-structure of phi0."""
    from .deform import sigma
    return sigma(xi, data0)
