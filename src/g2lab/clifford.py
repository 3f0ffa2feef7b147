"""Blade-based Clifford algebras Cl(p, q) for p + q <= 8, the enveloping
Clifford relation of octonion left translations, and the pointwise
spinor <-> octonion dictionary relative to a unit reference.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import BadConfig, NotImaginary, SignatureMismatch, ZeroReference
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


class CliffordElement:
    """Element of Cl(p, q) as 2^(p+q) blade coefficients (bitmask index),
    or a stack of elements as (..., 2^(p+q)) coefficient rows.  Every
    operation below acts row by row, and a row of a stack gets the bits
    that the one-element call gives it."""

    __slots__ = ("p", "q", "coeffs")

    def __init__(self, p: int, q: int, coeffs=None) -> None:
        dim = _blade_count(p, q)
        self.p = p
        self.q = q
        if coeffs is None:
            coeffs = np.zeros(dim)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1:] != (dim,):
            raise ValueError(f"need {dim} blade coefficients")
        self.coeffs = coeffs.copy()

    @classmethod
    def scalar(cls, p: int, q: int, value=1.0) -> "CliffordElement":
        """value times the unit; a (...) array of values gives a stack."""
        value = np.asarray(value, dtype=float)
        out = cls(p, q, np.zeros(value.shape + (_blade_count(p, q),)))
        out.coeffs[..., 0] = value
        return out

    @classmethod
    def vector(cls, p: int, q: int, comps) -> "CliffordElement":
        """sum_i comps_i e_i over the p + q generators; (..., p + q)
        components give a stack."""
        dim = _blade_count(p, q)
        comps = np.asarray(comps, dtype=float)
        if comps.shape[-1:] != (p + q,):
            raise BadConfig(f"a vector of Cl({p}, {q}) has {p + q} "
                            f"components, got shape {comps.shape}")
        out = cls(p, q, np.zeros(comps.shape[:-1] + (dim,)))
        out.coeffs[..., 1 << np.arange(p + q)] = comps
        return out

    def _check(self, other: "CliffordElement") -> None:
        if (self.p, self.q) != (other.p, other.q):
            raise SignatureMismatch(
                f"Cl({self.p},{self.q}) vs Cl({other.p},{other.q})")

    def __add__(self, other):
        self._check(other)
        return CliffordElement(self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return CliffordElement(self.p, self.q, self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return clifford_mul(self, other)
        return CliffordElement(self.p, self.q, self.coeffs * float(other))

    __rmul__ = lambda self, other: CliffordElement(self.p, self.q,
                                                   self.coeffs * float(other))

    def __neg__(self):
        return CliffordElement(self.p, self.q, -self.coeffs)

    def grades(self) -> np.ndarray:
        return _grades(self.coeffs.shape[-1])

    def max_abs(self):
        """The largest coefficient magnitude: a float, or one per row of a
        stack."""
        m = np.max(np.abs(self.coeffs), axis=-1)
        return float(m) if m.ndim == 0 else m

    def __repr__(self) -> str:
        return f"CliffordElement(p={self.p}, q={self.q})"


def clifford_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Geometric product as one dense gather over all blade pairs: of two
    elements, or row by row of two stacks of the same shape.

    Output blade c sums x_a sign(a, a ^ c) y_(a ^ c) over a in increasing
    order: one take through the gather index of _tables reads every
    signed y_(a ^ c) from (y, -y), the terms are multiplied by x_a and
    summed over a.  Zero coefficients are not skipped, so a zero times an
    inf or NaN coefficient gives NaN: a non-finite operand makes the
    product non-finite and fails closed.  The terms take dim^2 doubles
    per row (128 KB at Cl(0, 7)), so a caller with many rows multiplies
    them in blocks.
    """
    x._check(y)
    _, _, gather = _tables(x.p, x.q)
    signed = np.concatenate((y.coeffs, -y.coeffs), axis=-1)
    terms = signed.take(gather, axis=-1)
    terms *= x.coeffs[..., :, None]
    return CliffordElement(x.p, x.q, terms.sum(axis=-2))


# the reversion sign (-1)^(k(k-1)/2) of a grade-k blade, by k mod 4
_REVERSION_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def reversion(x: CliffordElement) -> CliffordElement:
    """The anti-automorphism that reverses the generators of every blade:
    a grade-k blade changes sign when k = 2 or 3 mod 4."""
    return CliffordElement(x.p, x.q,
                           x.coeffs * _REVERSION_SIGNS[x.grades() % 4])


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
