"""G2-structures as fields on a coordinate chart.

Pointwise metric from the 3-form, finite-difference Levi-Civita and
covariant derivative of phi, the full torsion 2-tensor with its
four-part splitting, the octonion covariant derivative, and the torsion
transformation law under the isometric deformations.

All manifold derivatives are second-order central differences along
every coordinate axis at once: a derivative of an octonion field returns
row m for axis m.  Every function takes its finite-difference step.  A
field computes in its one memo its 3-form once per point, its metric
data once per distinct 3-form, and its Levi-Civita symbol, nabla phi and
torsion once per point and step.
"""

from __future__ import annotations

import numpy as np

from .connection import (_domain_box, _require_inside, central_diff,
                         levi_civita)
from .deform import bundle_inverse, bundle_mul, bundle_norm_sq, sigma
from .errors import NormDrift
from .exterior import AltTensor, antisymmetrize, pullback
from .g2linear import G2MetricData, PHI0, _einsum, metric_from_3form, split2
from .octonion import exponential

NORM_TOL = 1e-10
"""How far |V|^2 may drift from 1 in the torsion transformation law."""


class PhiField:
    """A positive 3-form field over an axis-aligned box, with one memo of
    the quantities computed at its points; the metric data, a function of
    phi alone, is kept once per distinct 3-form."""

    def __init__(self, phi_at, domain, name: str) -> None:
        self._phi_at = phi_at
        self.domain = _domain_box(domain, 7)
        self.name = name
        self._memo: dict[tuple, object] = {}

    def memo(self, quantity: str, at: np.ndarray, fd_step, compute):
        """compute(), evaluated once per (quantity, at, fd_step) and kept
        until the memo outgrows 4096 entries; at is a point, or the 3-form
        for the metric data.  compute makes the arrays it returns
        read-only, so that no caller can change a kept value."""
        key = (quantity, at.tobytes(), fd_step)
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) > 4096:
                self._memo.clear()
            hit = compute()
            self._memo[key] = hit
        return hit

    def check_inside(self, x: np.ndarray) -> None:
        _require_inside(self.domain, x, self.name)

    def phi(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)

        def compute():
            # a read-only view: the array phi_at returned keeps its flags
            p = np.asarray(self._phi_at(x), dtype=float).view()
            p.setflags(write=False)
            return p

        return self.memo("phi", x, None, compute)

    def data(self, x: np.ndarray) -> G2MetricData:
        p = self.phi(x)

        def compute():
            data = metric_from_3form(p)
            for a in (data.phi.vals, data.g.g, data.g.g_inv, data.psi.vals):
                a.setflags(write=False)
            return data

        return self.memo("data", p, None, compute)

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self.data(x).g.g

    def psi(self, x: np.ndarray) -> np.ndarray:
        return self.data(x).psi.comps


def levi_civita_at(field: PhiField, x: np.ndarray,
                   fd_step: float) -> np.ndarray:
    """Christoffel symbols of the induced metric by central differences."""
    x = np.asarray(x, dtype=float)

    def metric_inside(y):
        field.check_inside(y)
        return field.metric(y)

    def compute():
        gam = levi_civita(metric_inside, x, fd_step)
        gam.setflags(write=False)
        return gam

    return field.memo("levi_civita", x, fd_step, compute)


def nabla_phi(field: PhiField, x: np.ndarray, fd_step: float) -> np.ndarray:
    """Covariant derivative of the 3-form field, nabla_m phi_ijk."""
    x = np.asarray(x, dtype=float)

    def compute():
        gam = levi_civita_at(field, x, fd_step)
        p = field.phi(x)
        out = (central_diff(field.phi, x, fd_step)
               - np.einsum("lmi,ljk->mijk", gam, p)
               - np.einsum("lmj,ilk->mijk", gam, p)
               - np.einsum("lmk,ijl->mijk", gam, p))
        out.setflags(write=False)
        return out

    return field.memo("nabla_phi", x, fd_step, compute)


class G2Torsion:
    """Full torsion 2-tensor of a G2-structure field with its four-part
    splitting and the residual of the defining relation."""

    __slots__ = ("T", "t1", "t0", "t7", "t14", "defining_residual")

    def __init__(self, t, t1, t0, t7, t14, defining_residual) -> None:
        self.T = t
        self.t1 = t1
        self.t0 = t0
        self.t7 = t7
        self.t14 = t14
        self.defining_residual = defining_residual


def g2_torsion(field: PhiField, x: np.ndarray, fd_step: float) -> G2Torsion:
    """T_mn = (1/48) nabla_m phi_ijk psi_n^ijk, with the residual of
    nabla_m phi = 2 T_m^q psi_q... reported alongside."""
    x = np.asarray(x, dtype=float)

    def compute():
        data = field.data(x)
        nphi = nabla_phi(field, x, fd_step)
        gi = data.g.g_inv
        psi_raised = _einsum("nabc,ia,jb,kc->nijk", data.psi.comps,
                             gi, gi, gi)
        t = np.einsum("mijk,nijk->mn", nphi, psi_raised) / 48.0
        recon = 2.0 * _einsum("mp,pq,qijk->mijk", t, gi, data.psi.comps)
        residual = float(np.max(np.abs(nphi - recon)))
        trace = float(np.einsum("mn,mn->", t, gi))
        t1 = trace / 7.0 * data.g.g
        sym = 0.5 * (t + t.T) - t1
        parts = split2(AltTensor(7, 2, 0.5 * (t - t.T)), data)
        # the split's parts are read-only already
        for a in (t, t1, sym):
            a.setflags(write=False)
        return G2Torsion(t, t1, sym, parts.part7.comps, parts.part14.comps,
                         residual)

    return field.memo("torsion", x, fd_step, compute)


def torsion_octonions(t: np.ndarray, data: G2MetricData) -> np.ndarray:
    """T(e_m) for every axis m as pure imaginary octonions, the rows of
    t g^-1: T(e_m)^q = T_mp g^pq."""
    out = np.zeros((7, 8))
    out[:, 1:] = t @ data.g.g_inv
    return out


def covariant_octonion(field: PhiField, x: np.ndarray, a_field,
                       fd_step: float) -> np.ndarray:
    """Levi-Civita covariant derivative of an octonion field along every
    coordinate axis: row m is nabla_m A."""
    x = np.asarray(x, dtype=float)
    gam = levi_civita_at(field, x, fd_step)
    out = central_diff(a_field, x, fd_step)
    out[:, 1:] += np.einsum("imk,k->mi", gam, np.asarray(a_field(x))[1:])
    return out


def octonion_covariant_derivative(field: PhiField, x: np.ndarray, a_field,
                                  fd_step: float) -> np.ndarray:
    """D_m A = nabla_m A - A T(e_m) for every axis m, one row each, with
    the field's own torsion T at x."""
    data = field.data(x)
    na = covariant_octonion(field, x, a_field, fd_step)
    tx = torsion_octonions(g2_torsion(field, x, fd_step).T, data)
    return na - bundle_mul(np.asarray(a_field(x)), tx, data)


def leibniz_defect(field: PhiField, x: np.ndarray, a: np.ndarray,
                   b: np.ndarray,
                   fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Measured defect nabla_m(AB) - (nabla_m A)B - A(nabla_m B) for
    constant-coefficient octonions a and b, two (8,) rows, and its
    prediction [T(e_m), A, B], one row per axis m.

    The associator orientation of this structure-constant table makes
    the defect equal +[T(X), A, B]; the same identity with the 4-form's
    orientation reads -2 psi(T(X), ., ., .)-sharp."""
    nab_prod = covariant_octonion(
        field, x, lambda y: bundle_mul(a, b, field.data(y)), fd_step)
    # constant coefficients: nabla_m A has only the Gamma correction
    na = covariant_octonion(field, x, lambda y: a, fd_step)
    nb = covariant_octonion(field, x, lambda y: b, fd_step)
    data = field.data(x)
    defect = nab_prod - bundle_mul(na, b, data) - bundle_mul(a, nb, data)
    tx = torsion_octonions(g2_torsion(field, x, fd_step).T, data)
    pred = (bundle_mul(bundle_mul(tx, a, data), b, data)
            - bundle_mul(tx, bundle_mul(a, b, data), data))
    return defect, pred


def torsion_law_residual(field: PhiField, deformed: PhiField, v_field,
                         x: np.ndarray, fd_step: float) -> float:
    """Max-abs residual of the torsion transformation law along every
    coordinate axis: the torsion of deformed, the field sigma_V(phi) of
    field for unit-norm V, against T_V = -(DV) V^-1."""
    x = np.asarray(x, dtype=float)
    data = field.data(x)
    vx = np.asarray(v_field(x))
    n2 = bundle_norm_sq(vx, data)
    if abs(n2 - 1.0) > NORM_TOL:
        raise NormDrift(f"|V|^2 = {n2} drifts from 1 beyond {NORM_TOL}")
    lhs = torsion_octonions(g2_torsion(deformed, x, fd_step).T, data)
    dv = octonion_covariant_derivative(field, x, v_field, fd_step)
    rhs = -bundle_mul(dv, bundle_inverse(vx, data), data)
    return float(np.max(np.abs(lhs - rhs)[:, 1:]))


def exterior_derivative_at(form_at, x: np.ndarray,
                           fd_step: float) -> np.ndarray:
    """d of a form field by central differences, full components; the
    degree k + 1 of d is the rank of the stencil."""
    d = central_diff(form_at, x, fd_step)
    return d.ndim * antisymmetrize(d)


def closedness_probe(field: PhiField, x: np.ndarray,
                     fd_step: float) -> tuple[float, float]:
    """Max-abs finite-difference d(phi) and d(psi) at a point."""
    dphi = exterior_derivative_at(field.phi, x, fd_step)
    dpsi = exterior_derivative_at(field.psi, x, fd_step)
    return float(np.max(np.abs(dphi))), float(np.max(np.abs(dpsi)))


# -- shipped field catalog ----------------------------------------------------

def constant_field() -> PhiField:
    """phi(x) = c, the structure constants, on the box |x^i| <= 1."""
    from .octonion import C3
    c = C3.copy()
    return PhiField(lambda x: c, [[-1.0, 1.0]] * 7, name="constant")


def sigma_warp_field() -> PhiField:
    """phi(x) = sigma_{V(x)}(phi0) with V(x) = exp(0.1 x[0] e_1), on the
    box |x^i| <= 1."""
    data0 = metric_from_3form(PHI0)
    e1 = np.eye(8)[1]

    def v_at(x):
        return exponential(0.1 * float(x[0]) * e1)

    def phi_at(x):
        return sigma(v_at(x), data0).comps

    field = PhiField(phi_at, [[-1.0, 1.0]] * 7, name="sigma_warp")
    field.v_at = v_at
    return field


def pullback_warp_field(strength: float = 0.05) -> PhiField:
    """phi(x) = A(x)* phi0 with A(x) = I + strength * sum_m x^m C_m for
    C_m drawn once from seed 2, on the box |x^i| <= 0.5."""
    from .octonion import C3
    rng = np.random.default_rng(2)
    cs = rng.standard_normal((7, 7, 7)) / np.sqrt(7)

    def phi_at(x):
        a = np.eye(7) + strength * np.einsum("m,mij->ij", x, cs)
        # a strength that overflows the pullback gives a non-finite form,
        # which metric_from_3form refuses as NotPositive
        with np.errstate(over="ignore", invalid="ignore"):
            return pullback(C3, a)

    return PhiField(phi_at, [[-0.5, 0.5]] * 7, name="pullback_warp")
