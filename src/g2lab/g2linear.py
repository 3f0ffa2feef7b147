"""Pointwise G2 linear algebra on R^7.

The model 3-form, the metric-and-volume recovered from a positive
3-form, G2 elements from admissible triples, the vector cross product, the
six contraction identities linking phi and psi, and the 2-form / 3-form
splittings with their projections.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import BadTriple, NotPositive
from .exterior import (AltTensor, Metric, flat, form_inner, hodge, interior,
                       wedge)
from .octonion import C3

EIG_FLOOR = 1e-10
"""A 3-form is positive when its bilinear form's smallest eigenvalue
exceeds EIG_FLOOR times its largest in magnitude."""

G2_TOL = 1e-10
"""Max-abs tolerance of an admissible triple (orthonormality and
phi0(h1, h2, h4) = 0)."""

_EINSUM_PATHS: dict[tuple, list] = {}


def _einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """np.einsum(subscripts, *operands, optimize=True) with the contraction
    path searched once per subscripts and operand shapes, then reused; the
    same path gives the same bits."""
    key = (subscripts,) + tuple(np.shape(op) for op in operands)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize=True)[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(subscripts, *operands, optimize=path)


PHI0 = AltTensor(7, 3, C3)
_EUCLIDEAN7 = Metric.euclidean(7)


def psi0() -> AltTensor:
    return hodge(PHI0, _EUCLIDEAN7, +1)


class G2MetricData:
    """A G2-structure: the positive 3-form phi with the metric, volume
    scalar, orientation and 4-form psi it determines.  Every G2 operation
    takes this object alone, so phi and its metric cannot be mismatched;
    build it once with metric_from_3form."""

    __slots__ = ("phi", "g", "vol_scalar", "psi", "orientation")

    def __init__(self, phi: AltTensor, g: Metric, vol_scalar: float,
                 psi: AltTensor, orientation: int) -> None:
        self.phi = phi
        self.g = g
        self.vol_scalar = vol_scalar
        self.psi = psi
        self.orientation = orientation

    @property
    def vol(self) -> AltTensor:
        """vol_scalar dx^1 ^ ... ^ dx^7: one sorted component."""
        return AltTensor.basis_form(7, range(7)) * self.vol_scalar


def bilinear_7form(phi: AltTensor, eta: AltTensor) -> np.ndarray:
    """Coefficient matrix of (e_i . phi) ^ (e_j . phi) ^ eta on e^{1..7},

        B_ij = (1/4) phi_iab phi_jcd (star0 eta)^{abcd},

    from eps^{abcdefg} eta_efg = 6 (star0 eta)^{abcd}, where star0 is the
    Euclidean Hodge star, built from the 35 sorted components of eta.
    With eta = phi it is 6 g vol_scalar, which fixes the metric; divided
    by vol_scalar it is Bryant's j_phi(eta).  A non-finite or overflowing
    form gives a non-finite B without a numpy warning: metric_from_3form
    refuses it as NotPositive."""
    p = phi.comps
    with np.errstate(over="ignore", invalid="ignore"):
        star = hodge(eta, _EUCLIDEAN7).comps
        t = np.einsum("jcd,abcd->jab", p, star)
        return np.einsum("iab,jab->ij", p, t) / 4.0


def metric_from_3form(phi: AltTensor | np.ndarray) -> G2MetricData:
    """Recover the associated metric, volume form and 4-form of a
    positive 3-form."""
    if not isinstance(phi, AltTensor):
        phi = AltTensor(7, 3, phi)
    b = bilinear_7form(phi, phi)
    if not np.all(np.isfinite(b)):
        raise NotPositive("bilinear form is not finite")
    tr = np.trace(b)
    if tr == 0.0:
        raise NotPositive("bilinear form has zero trace")
    b_norm = b * np.sign(tr)
    eigvals = np.linalg.eigvalsh(b_norm)
    if eigvals[0] <= EIG_FLOOR * abs(eigvals[-1]):
        raise NotPositive(f"bilinear form not definite, eigs {eigvals[0]:.3e}"
                          f" .. {eigvals[-1]:.3e}")
    with np.errstate(over="ignore"):
        det_b = np.linalg.det(b)
    root9 = np.sign(det_b) * abs(det_b) ** (1.0 / 9.0)
    if not 0.0 < abs(root9) < np.inf:
        # det overflowed or underflowed, but its ninth root need not
        sign, logdet = np.linalg.slogdet(b)
        root9 = sign * np.exp(logdet / 9.0)
    g = Metric(6.0 ** (-2.0 / 9.0) / root9 * b)
    vol_scalar = 6.0 ** (-7.0 / 9.0) * root9
    orientation = int(np.sign(vol_scalar))
    psi = hodge(phi, g, orientation)
    return G2MetricData(phi, g, vol_scalar, psi, orientation)


def pullback_3form(t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(T* phi)(u, v, w) = phi(Tu, Tv, Tw), on raw components."""
    return _einsum("ijk,im,jn,kp->mnp", phi, t, t, t)


def cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vector cross product of the model form, phi0(X, Y, Z) = <X x Y, Z>."""
    return np.einsum("ijk,i,j->k", C3, x, y)


def random_admissible_triple(rng: np.random.Generator):
    """Orthonormal (h1, h2, h4) with phi0(h1, h2, h4) = 0, sampled
    uniformly from the S^6 x S^5 x S^3 construction."""
    h1 = rng.standard_normal(7)
    h1 /= np.linalg.norm(h1)
    h2 = rng.standard_normal(7)
    h2 -= (h2 @ h1) * h1
    h2 /= np.linalg.norm(h2)
    h3 = cross(h1, h2)
    h4 = rng.standard_normal(7)
    for u in (h1, h2, h3):
        h4 -= (h4 @ u) * u
    h4 /= np.linalg.norm(h4)
    return h1, h2, h4


def g2_from_triple(h1, h2, h4) -> np.ndarray:
    """G2 element with columns (h1, h2, h1xh2, h4, h1xh4, h2xh4, h4x(h1xh2))."""
    h1, h2, h4 = (np.asarray(v, dtype=float) for v in (h1, h2, h4))
    gram = np.array([[h1 @ h1, h1 @ h2, h1 @ h4],
                     [h2 @ h1, h2 @ h2, h2 @ h4],
                     [h4 @ h1, h4 @ h2, h4 @ h4]])
    if np.max(np.abs(gram - np.eye(3))) > G2_TOL:
        raise BadTriple("triple is not orthonormal")
    h3 = cross(h1, h2)
    if abs(h3 @ h4) > G2_TOL:
        raise BadTriple("phi0(h1, h2, h4) must vanish")
    cols = [h1, h2, h3, h4, cross(h1, h4), cross(h2, h4), cross(h4, h3)]
    return np.stack(cols, axis=1)


# -- the six contraction identities ------------------------------------------

def contraction_identity_residuals(data: G2MetricData) -> dict[str, float]:
    """Max-abs residual of each contraction identity, with the induced metric."""
    p = data.phi.comps
    q = data.psi.comps
    g = data.g.g
    gi = data.g.g_inv
    out = {}
    lhs = _einsum("ijk,abc,ck->ijab", p, p, gi)
    rhs = np.einsum("ia,jb->ijab", g, g) - np.einsum("ib,ja->ijab", g, g) \
        + q
    out["phiphi_c"] = float(np.max(np.abs(lhs - rhs)))
    lhs = _einsum("ijk,abc,bj,ck->ia", p, p, gi, gi)
    out["phiphi_bc"] = float(np.max(np.abs(lhs - 6.0 * g)))
    lhs = _einsum("ijk,abcd,dk->ijabc", p, q, gi)
    rhs = (- np.einsum("ia,jbc->ijabc", g, p)
           - np.einsum("ib,ajc->ijabc", g, p)
           - np.einsum("ic,abj->ijabc", g, p)
           + np.einsum("aj,ibc->ijabc", g, p)
           + np.einsum("bj,aic->ijabc", g, p)
           + np.einsum("cj,abi->ijabc", g, p))
    out["phipsi_d"] = float(np.max(np.abs(lhs - rhs)))
    lhs = _einsum("ijk,abcd,cj,dk->iab", p, q, gi, gi)
    out["phipsi_cd"] = float(np.max(np.abs(lhs - 4.0 * p)))
    lhs = _einsum("ijkl,abcd,ck,dl->ijab", q, q, gi, gi)
    rhs = 4.0 * np.einsum("ia,jb->ijab", g, g) \
        - 4.0 * np.einsum("ib,ja->ijab", g, g) + 2.0 * q
    out["psipsi_cd"] = float(np.max(np.abs(lhs - rhs)))
    lhs = _einsum("ijkl,abcd,bj,ck,dl->ia", q, q, gi, gi, gi)
    out["psipsi_bcd"] = float(np.max(np.abs(lhs - 24.0 * g)))
    return out


# -- 2-form splitting ---------------------------------------------------------

class FormSplit2:
    """Components of a 2-form in Omega^2_7 (+) Omega^2_14."""

    __slots__ = ("part7", "part14")

    def __init__(self, part7: AltTensor, part14: AltTensor) -> None:
        self.part7 = part7
        self.part14 = part14


def r_operator(beta: AltTensor, data: G2MetricData) -> AltTensor:
    """R(beta) = star(phi ^ beta), the Hodge star of the structure's metric
    and orientation.  R satisfies R^2 = 2 + R, so its eigenvalues are 2 on
    Omega^2_7 and -1 on Omega^2_14; in components it is the contraction
    (R(beta))_ab = 1/2 psi_abcd g^ci g^dj beta_ij."""
    return hodge(wedge(data.phi, beta), data.g, data.orientation)


def split2(beta: AltTensor, data: G2MetricData) -> FormSplit2:
    """Split a 2-form using P7 = (R + 1)/3, P14 = (2 - R)/3."""
    rb = r_operator(beta, data)
    return FormSplit2((rb + beta) / 3.0, (2.0 * beta - rb) / 3.0)


def r_operator_matrix(data: G2MetricData) -> np.ndarray:
    """R as a 21x21 matrix on the sorted-pair basis of 2-forms."""
    return np.stack([r_operator(AltTensor.basis_form(7, pair), data).vals
                     for pair in combinations(range(7), 2)], axis=1)


# -- 3-form splitting ---------------------------------------------------------

class FormSplit3:
    """A 3-form as f*phi + X . psi + traceless-symmetric part."""

    __slots__ = ("f", "x", "h0", "part1", "part7", "part27")

    def __init__(self, f, x, h0, part1, part7, part27) -> None:
        self.f = f
        self.x = x
        self.h0 = h0
        self.part1 = part1
        self.part7 = part7
        self.part27 = part27


def map_f(a: np.ndarray, data: G2MetricData) -> AltTensor:
    """Infinitesimal GL(7) action on phi: F(A) = d/dt|_0 exp(tA).phi,
    for a bilinear form A (first index lowered by g)."""
    a_mixed = data.g.g_inv @ np.asarray(a, dtype=float)   # A^l_m = g^{lk} A_km
    p = data.phi.comps
    comps = (np.einsum("lm,lnp->mnp", a_mixed, p)
             + np.einsum("ln,mlp->mnp", a_mixed, p)
             + np.einsum("lp,mnl->mnp", a_mixed, p))
    return AltTensor(7, 3, comps)


def split3(eta: AltTensor, data: G2MetricData) -> FormSplit3:
    """Recover (f, X, h0) with eta = f phi + X . psi + F(h0) in closed
    form (Bryant, arXiv:math/0305124 §2): j = j_phi(eta) is 6 f g + 4 h0
    and blind to Omega^3_7, so f = tr_g(j) / 42 and h0 = (j - 6 f g) / 4;
    X-flat = -star(phi ^ eta) / 4, which sees only the Omega^3_7 part."""
    g = data.g
    j = bilinear_7form(data.phi, eta) / data.vol_scalar
    f = float(np.einsum("ij,ij->", j, g.g_inv)) / 42.0
    h0 = (j - 6.0 * f * g.g) / 4.0
    x_flat = -hodge(wedge(data.phi, eta), g, data.orientation).vals / 4.0
    x = g.g_inv @ x_flat
    part1 = data.phi * f
    part7 = interior(x, data.psi)
    part27 = map_f(h0, data)
    return FormSplit3(f, x, h0, part1, part7, part27)


# -- random positive forms ----------------------------------------------------

def random_gl7(rng: np.random.Generator, cond_max: float = 10.0,
               det_positive: bool = True) -> np.ndarray:
    """Well-conditioned random GL(7) matrix."""
    q1, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    smax = cond_max ** 0.5
    sv = np.exp(rng.uniform(np.log(1.0 / smax), np.log(smax), 7))
    a = q1 @ np.diag(sv) @ q2
    if det_positive and np.linalg.det(a) < 0:
        a[:, 0] = -a[:, 0]
    return a


def random_positive_3form(rng: np.random.Generator,
                          cond_max: float = 10.0) -> AltTensor:
    """A* phi0 for a well-conditioned A; positivity is automatic."""
    a = random_gl7(rng, cond_max=cond_max)
    return AltTensor(7, 3, pullback_3form(a, C3))


# -- wedge-and-star identity pack ---------------------------------------------

def wedge_star_identity_residuals(data: G2MetricData, alpha: np.ndarray,
                       x: np.ndarray) -> dict[str, float]:
    """Residuals of the phi/psi wedge-and-star identities for a 1-form
    alpha and vector field X."""
    g, orient = data.g, data.orientation
    phi, psi, vol = data.phi, data.psi, data.vol
    al = AltTensor(7, 1, alpha)
    xb = AltTensor(7, 1, flat(x, g))
    a2 = float(form_inner(al, al, g))
    x2 = float(x @ (g.g @ x))
    st = lambda w: hodge(w, g, orient)
    out = {}
    out["norm_phi"] = abs(form_inner(phi, phi, g) - 7.0)
    out["norm_psi"] = abs(form_inner(psi, psi, g) - 7.0)
    wa, pa = wedge(phi, al), wedge(psi, al)
    out["norm_phi_wedge_1form"] = abs(form_inner(wa, wa, g) - 4.0 * a2)
    out["norm_psi_wedge_1form"] = abs(form_inner(pa, pa, g) - 3.0 * a2)
    out["double_star_phi"] = (st(wedge(phi, st(wa))) + 4.0 * al).max_abs()
    out["double_star_psi"] = (st(wedge(psi, st(pa))) - 3.0 * al).max_abs()
    out["psi_wedge_star_phi"] = wedge(psi, st(wa)).max_abs()
    out["phi_wedge_star_psi"] = (wedge(phi, st(pa)) - 2.0 * pa).max_abs()
    out["star_phi_flat"] = (st(wedge(phi, xb)) - interior(x, psi)).max_abs()
    out["star_psi_flat"] = (st(wedge(psi, xb)) - interior(x, phi)).max_abs()
    ixphi = interior(x, phi)
    out["phi_wedge_interior_phi"] = (wedge(phi, ixphi) - 2.0 * st(ixphi)).max_abs()
    out["psi_wedge_interior_phi"] = (wedge(psi, ixphi) - 3.0 * st(xb)).max_abs()
    out["phi_wedge_interior_psi"] = (wedge(phi, interior(x, psi)) + 4.0 * st(xb)).max_abs()
    out["psi_wedge_interior_psi"] = wedge(psi, interior(x, psi)).max_abs()
    out["double_interior_wedge"] = (wedge(wedge(ixphi, ixphi), phi) - 6.0 * x2 * vol).max_abs()
    return out
