"""Isometric deformations of G2-structures by unit octonions.

The adjoint map V A V^-1, the deformed 3-form sigma_V(phi), the deformed
octonion product, and the conjugation / composition laws relating them.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroDivisor
from .exterior import AltTensor, interior, pullback, wedge
from .g2linear import G2MetricData, metric_from_3form
from .octonion import ZERO_EPS, associator, conj, dot, inverse, mul, power

_ID7 = np.eye(7)


def bundle_mul(a: np.ndarray, b: np.ndarray,
               data: G2MetricData) -> np.ndarray:
    """The octonion product on R (+) R^7 defined by a G2-structure's
    cross product.  At the model form, data = metric_from_3form(PHI0), it is
    the standard product up to rounding: |bundle_mul(a, b) - mul(a, b)|
    stays within 2e-15 |a| |b| in max norm (at most 4.5e-16 |a| |b| over
    2000 random pairs), since the recovered g is the identity only to
    one rounding and the two sums run in different orders.

    a and b may also be stacks of octonions, shape (..., 8), multiplied
    row by row with broadcasting; each row gets the bits a single call
    gives it."""
    g, gi, phi = data.g.g, data.g.g_inv, data.phi.comps
    a0, al = a[..., :1], a[..., 1:]
    b0, be = b[..., :1], b[..., 1:]
    cross = np.einsum("ijk,...i,...j->...k", phi, al, be)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., :1] = a0 * b0 - (al[..., None, :] @ (g @ be[..., None]))[..., 0]
    out[..., 1:] = a0 * be + b0 * al + (gi @ cross[..., None])[..., 0]
    return out


def bundle_norm_sq(a: np.ndarray, data: G2MetricData) -> float | np.ndarray:
    """a0^2 + g(a', a') of one octonion, shape (8,), as a float, or of
    every row of a (..., 8) stack, as a (...) array; each row gets the
    bits a single call gives it."""
    al = a[..., 1:]
    n2 = (a[..., 0] ** 2
          + (al[..., None, :] @ (data.g.g @ al[..., None]))[..., 0, 0])
    return float(n2) if n2.ndim == 0 else n2


def bundle_inverse(a: np.ndarray, data: G2MetricData) -> np.ndarray:
    """Inverse of one octonion, shape (8,), or of every row of a (..., 8)
    stack; refused if any row's squared norm is below ZERO_EPS."""
    n2 = bundle_norm_sq(a, data)
    if np.any(n2 < ZERO_EPS):
        raise ZeroDivisor("cannot invert near-zero octonion")
    return conj(a) / np.expand_dims(n2, -1)


# The functions below take octonions as (8,) coefficient rows.

def ad(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Adjoint map V A V^-1 (standard octonion product)."""
    return mul(mul(v, a), inverse(v))


def ad_matrix7(v: np.ndarray, data: G2MetricData) -> np.ndarray:
    """Restriction of Ad_V to imaginary octonions, from the index formula
    ((v0^2 - |v|^2) d^a_b - 2 v0 (v . phi)^a_b + 2 v^a v_b) / |V|^2."""
    v0, vi = v[0], v[1:]
    g, gi, phi = data.g.g, data.g.g_inv, data.phi.comps
    n2 = bundle_norm_sq(v, data)
    if n2 < ZERO_EPS:
        raise ZeroDivisor("Ad of a zero octonion")
    vphi = np.einsum("ac,m,mcb->ab", gi, vi, phi)
    return ((v0 ** 2 - vi @ (g @ vi)) * _ID7 - 2.0 * v0 * vphi
            + 2.0 * np.outer(vi, g @ vi)) / n2


def sigma(v: np.ndarray, data: G2MetricData) -> AltTensor:
    """Deformed 3-form of the structure data,
    sigma_V(phi) = ((v0^2 - |v|^2) phi - 2 v0 v . psi + 2 v-flat ^ (v . phi)) / |V|^2.

    v is unit-normalized internally; the result has the same associated
    metric as phi.
    """
    n2 = bundle_norm_sq(v, data)
    if n2 < ZERO_EPS:
        raise ZeroDivisor("sigma of a zero octonion")
    vc = v / np.sqrt(n2)
    v0, vi = vc[0], vc[1:]
    vb = AltTensor(7, 1, data.g.g @ vi)
    return (data.phi * (v0 ** 2 - vi @ vb.vals)
            - interior(vi, data.psi) * (2.0 * v0)
            + wedge(vb, interior(vi, data.phi)) * 2.0)


def deformed_mul(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A o_V B = (AV)(V^-1 B) = AB - [A, B, V] V^-1.

    The associator term carries the opposite sign from some printed
    accounts; the sign here is pinned by the two-route identity and by
    agreement with the product that sigma_V(phi) induces.
    """
    return mul(a, b) - mul(associator(a, b, v), inverse(v))


def conjugation_pullback_residual(v: np.ndarray,
                                  data: G2MetricData) -> float:
    """Max-abs residual of sigma_{V^3}(phi) = phi(Ad_{V^-1} ., ., .)."""
    v3 = power(v, 3)
    lhs = sigma(v3, data).comps
    m = ad_matrix7(inverse(v), data)
    rhs = pullback(data.phi.comps, m)
    return float(np.max(np.abs(lhs - rhs)))


def composition_residual(u: np.ndarray, v: np.ndarray,
                         data: G2MetricData) -> float:
    """Max-abs residual of sigma_U(sigma_V(phi)) = sigma_{UV}(phi), with UV
    the product defined by phi (the deformed product gives the same UV
    when the right factor is V)."""
    lhs = sigma(u, metric_from_3form(sigma(v, data))).comps
    rhs = sigma(bundle_mul(u, v, data), data).comps
    return float(np.max(np.abs(lhs - rhs)))


def adjoint_product_residuals(v: np.ndarray, a: np.ndarray,
                              b: np.ndarray) -> dict[str, float]:
    """Residuals of the adjoint/associator product identities (standard
    octonion product).

    Every associator term enters with the sign the two-route oracle
    resolves, which is opposite to some printed accounts:
      (V A)(B V^-1)  = Ad_V(AB) - [A,B,V^-1](V + conj V)
      (A V^-1)(V B)  = AB - [A,B,V^-1] V
      Ad_V(A) Ad_V(B) = Ad_V(AB) - [A,B,V^-1](V + conj V + V^3/|V|^2)
      Ad_{V^-1}(Ad_V(A) Ad_V(B)) = AB - [A,B,V^-3] V^3 = (A V^-3)(V^3 B)
    """
    vi = inverse(v)
    n2 = dot(v, v)
    assoc_inv = associator(a, b, vi)
    out = {}
    lhs = mul(mul(v, a), mul(b, vi))
    rhs = ad(v, mul(a, b)) - mul(assoc_inv, v + conj(v))
    out["split_translation_1"] = float(np.max(np.abs(lhs - rhs)))
    lhs = mul(mul(a, vi), mul(v, b))
    rhs = mul(a, b) - mul(assoc_inv, v)
    out["split_translation_2"] = float(np.max(np.abs(lhs - rhs)))
    lhs = mul(ad(v, a), ad(v, b))
    rhs = ad(v, mul(a, b)) - mul(assoc_inv,
                                 v + conj(v) + power(v, 3) * (1.0 / n2))
    out["adjoint_product"] = float(np.max(np.abs(lhs - rhs)))
    v3 = power(v, 3)
    assoc_v3inv = associator(a, b, inverse(v3))
    lhs = ad(inverse(v), mul(ad(v, a), ad(v, b)))
    rhs = mul(a, b) - mul(assoc_v3inv, v3)
    out["conjugated_product"] = float(np.max(np.abs(lhs - rhs)))
    rhs2 = mul(mul(a, inverse(v3)), mul(v3, b))
    out["cubed_translation"] = float(np.max(np.abs(lhs - rhs2)))
    return out
