"""Parallelized 7-sphere family: torsion/curvature tensors and the
self-duality identity suite."""

import numpy as np

from g2lab import cartan as cs
from g2lab.connection import cartan_schouten_chart
from g2lab.exterior import antisymmetrize
from g2lab.g2linear import psi0
from g2lab.octonion import C3, C4


def test_family_points():
    _, r0 = cs.cs_tensors(0.0)
    assert np.max(np.abs(r0)) == 0.0
    _, r1 = cs.cs_tensors(1.0)
    assert np.max(np.abs(r1 - antisymmetrize(r1))) < 1e-12
    assert np.max(np.abs(r1)) > 0.5
    sh, _ = cs.cs_tensors(0.5)
    assert np.max(np.abs(sh)) == 0.0
    # torsion totally antisymmetric
    s, _ = cs.cs_tensors(0.2)
    assert np.max(np.abs(s + np.swapaxes(s, 0, 1))) == 0.0
    assert np.max(np.abs(s + np.swapaxes(s, 1, 2))) == 0.0


def test_rank4_tensor_resolution():
    # the self-duality tensor is the 4-form; the associator oracle is its
    # negative (the two printed cycle lists disagree by an overall sign)
    assert np.max(np.abs(cs.C4_SELFDUAL + C4)) == 0.0
    cycles = ((4, 5, 6, 7), (2, 3, 4, 5), (2, 3, 6, 7), (1, 3, 5, 7),
              (1, 3, 6, 4), (1, 2, 6, 5), (1, 2, 7, 4))
    for cyc in cycles:
        idx = tuple(c - 1 for c in cyc)
        assert cs.C4_SELFDUAL[idx] == 1.0


def test_self_duality_identities():
    for k in (1.0, 2.0):
        res = cs.self_duality_residuals(k)
        assert max(res.values()) < 1e-12, res


def test_self_duality_scaling_exponents():
    # measured k-exponents of the raw contractions
    def raw(k):
        al = k * C3
        be = k * k * cs.C4_SELFDUAL
        return (np.einsum("ijm,ijn->mn", al, al)[0, 0],
                np.einsum("mijk,nijk->mn", be, be)[0, 0],
                np.einsum("jim,kjn,ikp->mnp", al, al, al)[0, 1, 2])

    a1, b1, t1 = raw(1.0)
    a2, b2, t2 = raw(2.0)
    assert abs(np.log2(a2 / a1) - 2.0) < 1e-12
    assert abs(np.log2(b2 / b1) - 4.0) < 1e-12
    assert abs(np.log2(t2 / t1) - 3.0) < 1e-12


def test_ch_beta_closed_form():
    for a in (0.0, 0.25, 1.0):
        assert cs.ch_beta_residual(a) < 1e-12


def test_ch_alpha_linear_in_parameter():
    for a in (0.0, 0.25, 0.5, 1.0):
        *_, alpha, _ = cs.ch_fundamental_tensors(a)
        assert np.max(np.abs(2.0 * alpha - (1.0 - 2.0 * a) * C3)) < 1e-14


def test_cross_module_contraction_constants():
    psi = psi0().comps
    assert np.max(np.abs(np.einsum("ijk,ajk->ia", C3, C3)
                         - 6.0 * np.eye(7))) == 0.0
    assert np.max(np.abs(np.einsum("ijkl,ajkl->ia", psi, psi)
                         - 24.0 * np.eye(7))) == 0.0


def test_cs_chart_feeds_connection_lab():
    chart = cartan_schouten_chart(0.25)
    assert np.max(np.abs(chart.gamma(np.zeros(7)) - 0.25 * C3)) == 0.0
    assert np.max(np.abs(chart.dgamma(np.zeros(7)))) == 0.0
