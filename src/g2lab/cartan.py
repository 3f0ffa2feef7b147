"""The one-parameter family of parallelized 7-sphere geometries.

Torsion proportional to the octonion structure constants, the curvature
family in terms of it, the algebraic self-duality identity suite, and
the Campbell-Hausdorff route to the loop fundamental tensors.

The rank-4 constant tensor entering the self-duality identities is the
component tensor of the model 4-form (star of the model 3-form); the
brute-force associator table is its negative.
"""

from __future__ import annotations

import numpy as np

from .connection import _fundamental_tensors
from .exterior import antisymmetrize, levi_civita_symbol
from .g2linear import psi0
from .octonion import C3

__all__ = [
    "CsFamilyPoint", "cs_tensors", "self_duality_residuals",
    "ch_fundamental_tensors", "ch_beta_residual", "C4_SELFDUAL",
]

C4_SELFDUAL = psi0().comps


class CsFamilyPoint:
    """One member of the family: parameter, torsion scale, torsion and
    curvature tensors."""

    __slots__ = ("alpha_param", "k", "h", "S", "R")

    def __init__(self, alpha_param: float, k: float, h: float,
                 s: np.ndarray, r: np.ndarray) -> None:
        self.alpha_param = alpha_param
        self.k = k
        self.h = h
        self.S = s
        self.R = r


def cs_tensors(alpha_param: float) -> CsFamilyPoint:
    """Torsion S = k c with k = (1 - 2 a)/2 and the curvature
    R_ijkl = 4 a (1 - a) S_ij^m S_klm - 4 a (2 - 3 a) S_[ij^m S_kl]m."""
    a = alpha_param
    k = 0.5 * (1.0 - 2.0 * a)
    s = k * C3
    ss = np.einsum("ijm,klm->ijkl", s, s)
    r = (4.0 * a * (1.0 - a) * ss
         - 4.0 * a * (2.0 - 3.0 * a) * antisymmetrize(ss))
    h = np.inf if a == 0.5 else 1.0 / (1.0 - 2.0 * a)
    return CsFamilyPoint(a, k, h, s, r)


def self_duality_residuals(k_scale: float) -> dict[str, float]:
    """Residuals of the self-duality identities for alpha = k c3 and
    beta = k^2 c4.

    The epsilon contractions are taken in the slot order of the
    7-index symbol; the quadratic beta contraction scales as k^4 (the
    square of beta's own k^2 scale).
    """
    k = k_scale
    al = k * C3
    be = k * k * C4_SELFDUAL
    eps = levi_civita_symbol(7)
    out = {}
    lhs = k * np.einsum("npqlijk,ijk->npql", eps, al)
    out["eps_alpha"] = float(np.max(np.abs(lhs - 6.0 * be)))
    lhs = np.einsum("npqlijk,lijk->npq", eps, be)
    out["eps_beta"] = float(np.max(np.abs(lhs - 24.0 * k * al)))
    lhs = np.einsum("ijm,ijn->mn", al, al)
    out["alpha_alpha"] = float(np.max(np.abs(lhs - 6.0 * k * k * np.eye(7))))
    lhs = np.einsum("mijk,nijk->mn", be, be)
    out["beta_beta"] = float(np.max(np.abs(lhs - 24.0 * k**4 * np.eye(7))))
    lhs = np.einsum("jim,kjn,ikp->mnp", al, al, al)
    out["triple_alpha"] = float(np.max(np.abs(lhs - 3.0 * k * k * al)))
    return out


def ch_fundamental_tensors(alpha_param: float):
    """Loop Taylor tensors of the one-parameter family from the
    Campbell-Hausdorff series, as closed tensor algebra.

    Returns (lam, mu, nu, alpha, beta) in the conventions of the loop
    fit: mu symmetric in its first two lower slots, nu in its last two,
    beta = 1/2 (nu - mu + lam lam - lam lam).
    """
    a = alpha_param
    p = np.einsum("ijm,mkl->ijkl", C3, C3)
    lam = 0.5 * (1.0 - 2.0 * a) * C3
    q = 1.0 - 6.0 * a + 6.0 * a * a
    mu = (p + np.einsum("ikjl->ijkl", p)) / 12.0
    nu = q * (np.einsum("iklj->ijkl", p) + np.einsum("ilkj->ijkl", p)) / 12.0
    return _fundamental_tensors((lam, mu, nu))


def ch_beta_residual(alpha_param: float) -> float:
    """Max-abs residual of the closed form for -4 beta against the
    c-contraction combination

        -4 beta = a (1 - a) c_jm c_kl + (1 - 3 a + 3 a^2) c_m[j c_kl]

    (the linear coefficient appears with a plus sign in some printed
    accounts; the minus sign is the one the Campbell-Hausdorff algebra
    produces, and the two agree at a = 0)."""
    a = alpha_param
    p = np.einsum("ijm,mkl->ijkl", C3, C3)
    *_, beta = ch_fundamental_tensors(a)
    # c_m[j c_kl]: antisymmetrize the last three slots of each slice
    alt = np.array([antisymmetrize(p_i) for p_i in p])
    rhs = a * (1.0 - a) * p - (1.0 - 3.0 * a + 3.0 * a * a) * alt
    return float(np.max(np.abs(-4.0 * beta - rhs)))
