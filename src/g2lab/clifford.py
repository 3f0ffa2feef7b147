"""Blade-based Clifford algebras Cl(p, q) for p + q <= 8, the enveloping
Clifford relation of octonion left translations, and the pointwise
spinor <-> octonion dictionary relative to a unit reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotImaginary, SignatureMismatch, ZeroReference
from .exterior import AltTensor
from .g2linear import G2MetricData
from .octonion import Octonion, inverse, left_matrix, mul


@lru_cache(maxsize=None)
def _tables(p: int, q: int):
    """Dense product tables over blade masks, read-only: result[a, b] =
    a ^ b and sign[a, b], plus the gather signs s2[a, c] = sign[a, a ^ c]
    as floats, so that blade a times blade a ^ c is s2[a, c] * blade c.
    The sign is the one of merging two blades, for all pairs at once: the
    parity of the merge transpositions, popcount((a >> k) & b) over
    k >= 1, plus the shared negative-square generators (bits
    p .. p + q - 1)."""
    dim = 1 << (p + q)
    pop = _grades(dim)
    a = np.arange(dim)[:, None]
    b = np.arange(dim)[None, :]
    flips = pop[a & b & (dim - (1 << p))]
    for k in range(1, p + q):
        flips = flips + pop[(a >> k) & b]
    res = a ^ b
    sgn = 1 - 2 * (flips & 1)
    s2 = np.take_along_axis(sgn, res, axis=1).astype(float)
    for table in (res, sgn, s2):
        table.setflags(write=False)
    return res, sgn, s2


@lru_cache(maxsize=None)
def _grades(dim: int) -> np.ndarray:
    """Grade (popcount) of every blade mask below dim, read-only."""
    g = np.array([bin(m).count("1") for m in range(dim)])
    g.setflags(write=False)
    return g


class CliffordElement:
    """Element of Cl(p, q) as 2^(p+q) blade coefficients (bitmask index)."""

    __slots__ = ("p", "q", "coeffs")

    def __init__(self, p: int, q: int, coeffs=None) -> None:
        dim = 1 << (p + q)
        self.p = p
        self.q = q
        if coeffs is None:
            coeffs = np.zeros(dim)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (dim,):
            raise ValueError(f"need {dim} blade coefficients")
        self.coeffs = coeffs.copy()

    @classmethod
    def scalar(cls, p: int, q: int, value: float = 1.0) -> "CliffordElement":
        out = cls(p, q)
        out.coeffs[0] = value
        return out

    @classmethod
    def vector(cls, p: int, q: int, comps) -> "CliffordElement":
        out = cls(p, q)
        for i, c in enumerate(comps):
            out.coeffs[1 << i] = c
        return out

    @classmethod
    def blade(cls, p: int, q: int, indices,
              value: float = 1.0) -> "CliffordElement":
        mask = 0
        for i in indices:
            mask |= 1 << i
        out = cls(p, q)
        out.coeffs[mask] = value
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
        return _grades(self.coeffs.size)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def allclose(self, other, tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self) -> str:
        return f"CliffordElement(p={self.p}, q={self.q})"


def clifford_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Geometric product as one dense gather over all blade pairs.

    Output blade c sums x_a sign(a, a ^ c) y_(a ^ c) over a in increasing
    order.  Zero coefficients are not skipped, so a zero times an inf or
    NaN coefficient gives NaN: a non-finite operand makes the product
    non-finite and fails closed.
    """
    x._check(y)
    res, _, s2 = _tables(x.p, x.q)
    terms = (x.coeffs[:, None] * s2) * y.coeffs[res]
    return CliffordElement(x.p, x.q, terms.sum(axis=0))


def reversion(x: CliffordElement) -> CliffordElement:
    k = x.grades()
    return CliffordElement(x.p, x.q,
                           x.coeffs * (-1.0) ** (k * (k - 1) // 2))


def vector_inner(p: int, q: int, u, v) -> float:
    """The quadratic form g(u, v) of the signature."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    signs = np.concatenate([np.ones(p), -np.ones(q)])
    return float(np.sum(signs * u * v))


def basis_mul_table(p: int, q: int) -> list[list[dict]]:
    """Full basis-blade multiplication table (for the table emitter)."""
    dim = 1 << (p + q)
    res, sgn, _ = _tables(p, q)
    return [[{"mask": int(res[a, b]), "sign": int(sgn[a, b])}
             for b in range(dim)] for a in range(dim)]


# -- enveloping algebra of left translations ----------------------------------

ENVELOPING_KAPPA = 2.0
"""Constant in L_A L_B + L_B L_A = -kappa <A, B> Id for imaginary A, B.

Some printed accounts of the enveloping identity carry kappa = 1; the
matrix oracle and the polarized square-norm identity both give 2.
"""


def enveloping_residual(a: Octonion, b: Octonion) -> float:
    """Max-abs residual of the Clifford relation for left translations."""
    if not a.is_imaginary() or not b.is_imaginary():
        raise NotImaginary("enveloping relation needs imaginary octonions")
    la, lb = left_matrix(a), left_matrix(b)
    anti = la @ lb + lb @ la
    return float(np.max(np.abs(anti + ENVELOPING_KAPPA * a.dot(b)
                               * np.eye(8))))


# -- pointwise spinor <-> octonion dictionary ----------------------------------

class SpinorPoint:
    """An 8-component spinor value at a point, identified with an
    octonion through a unit reference spinor."""

    __slots__ = ("comps",)

    def __init__(self, comps) -> None:
        comps = np.asarray(comps, dtype=float)
        if comps.shape != (8,):
            raise ValueError("spinor point needs 8 components")
        self.comps = comps.copy()


def clifford_action(v: Octonion, eta: SpinorPoint) -> SpinorPoint:
    """Action of an octonion (vector when imaginary) on a spinor via
    left translation; satisfies the Cl(0, 7) relation on vectors."""
    return SpinorPoint(left_matrix(v) @ eta.comps)


def j_map(eta: SpinorPoint, xi: SpinorPoint) -> Octonion:
    """j_xi(eta): the octonion A with eta = A . xi; equals eta xi^-1."""
    xi_oct = Octonion(xi.comps)
    if xi_oct.norm_sq() < 1e-24:
        raise ZeroReference("reference spinor must be nonzero")
    return mul(Octonion(eta.comps), inverse(xi_oct))


def j_inverse(a: Octonion, xi: SpinorPoint) -> SpinorPoint:
    xi_oct = Octonion(xi.comps)
    if xi_oct.norm_sq() < 1e-24:
        raise ZeroReference("reference spinor must be nonzero")
    return SpinorPoint(mul(a, xi_oct).coeffs)


def reference_structure(xi: SpinorPoint, data0: G2MetricData) -> AltTensor:
    """The 3-form associated with a unit reference spinor,
    phi_xi = sigma_xi(phi0), with data0 the G2-structure of phi0."""
    from .deform import sigma
    return sigma(Octonion(xi.comps), data0)
