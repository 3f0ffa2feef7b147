"""Negative controls: each row named here must fail on a planted defect.

An entry is (suite, row, mutation).  A mutation is a monkeypatch of one
``src`` function; it runs the suite through ``run_suite`` at a few trials
and expects the named row to fail.  A row that passes with its defect
planted checks nothing the defect touches.  The same rows pass with no
defect at the same seed and trials, so each failure is the mutation's.

Every row of every suite is in ``CONTROLS`` or in ``EXEMPT``, which gives
the reason it has no control yet; a row in both is a stale exemption.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import g2lab
from g2lab import cli
from g2lab import clifford as cl
from g2lab import connection as cn
from g2lab import deform as df
from g2lab import exterior as ext
from g2lab import field as fld
from g2lab import octonion as oc

SEED = 42
TRIALS = 3

MODULES = [importlib.import_module(f"g2lab.{info.name}")
           for info in pkgutil.iter_modules(g2lab.__path__)]


def _patch_everywhere(monkeypatch, module, name, fake):
    """Rebind the module's name in every g2lab module that holds it: the
    callers bind it at import, so patching the module alone misses them."""
    real = getattr(module, name)
    patched = [mod for mod in MODULES if getattr(mod, name, None) is real]
    for mod in patched:
        monkeypatch.setattr(mod, name, fake)
    return patched


def pull_back_by_transpose(monkeypatch):
    real = ext.pullback
    patched = _patch_everywhere(monkeypatch, ext, "pullback",
                                lambda comps, t: real(comps, t.T))
    # every 3-form pullback of the package goes through one of these
    assert {mod.__name__ for mod in patched} >= {
        "g2lab.exterior", "g2lab.g2linear", "g2lab.deform", "g2lab.field"}


def scale_the_raise(monkeypatch):
    real = ext._raised
    _patch_everywhere(monkeypatch, ext, "_raised",
                      lambda a, g: 1.001 * real(a, g))


def fit_at_the_wrong_scale(monkeypatch):
    # what a split handing each scale another scale's rows does: the rows
    # shot at h are differenced as if shot at 2h
    real = cn._fit_jets
    monkeypatch.setattr(cn, "_fit_jets",
                        lambda mus, n, h: real(mus, n, 2.0 * h))


def transpose_the_frame(monkeypatch):
    # the parallel frame read with its indices swapped: the transport's
    # first-order term changes, and with it the loop's bilinear term alpha
    real = cn.geodesic_with_frame

    def transposed(*args):
        x, v, frame = real(*args)
        return x, v, np.swapaxes(frame, -1, -2)

    monkeypatch.setattr(cn, "geodesic_with_frame", transposed)


def flip_the_sphere_dgamma(monkeypatch):
    # one closed-form derivative of the sphere's symbols, d_theta
    # G^phi_theta phi, with its sign flipped: curvature_data reads it, the
    # loop fit does not
    real = cn._sphere2_dgamma

    def flipped(x):
        d = real(x)
        d[..., 0, 1, 0, 1] *= -1.0
        return d

    monkeypatch.setattr(cn, "_sphere2_dgamma", flipped)


def scale_the_torsion(monkeypatch):
    # every torsion read through field.g2_torsion, its splitting parts
    # and defining residual left as they are
    real = fld.g2_torsion

    def scaled(*args):
        t = real(*args)
        return fld.G2Torsion(1.001 * t.T, t.t1, t.t0, t.t7, t.t14,
                             t.defining_residual)

    monkeypatch.setattr(fld, "g2_torsion", scaled)


def stale_metric(monkeypatch):
    # the metric data keyed by nothing: every point of a field reads the
    # structure of the first point it was asked about
    real = fld.PhiField.data
    first = {}

    def stale(self, x):
        if self not in first:
            first[self] = real(self, x)
        return first[self]

    monkeypatch.setattr(fld.PhiField, "data", stale)


def invert_without_conjugating(monkeypatch):
    def unconjugated(a):
        return a / oc.dot(a, a)[..., None]

    _patch_everywhere(monkeypatch, oc, "inverse", unconjugated)


def raise_one_power_higher(monkeypatch):
    real = oc.power
    _patch_everywhere(monkeypatch, oc, "power",
                      lambda b, k: real(b, k + 1))


def scale_the_product(monkeypatch):
    # mul and the associator, both read through _mul_raw at call time;
    # mul_cols and the left matrices are untouched
    real = oc._mul_raw
    monkeypatch.setattr(oc, "_mul_raw", lambda a, b: (1 + 1e-9) * real(a, b))


def scale_the_column_product(monkeypatch):
    real = oc.mul_cols
    _patch_everywhere(monkeypatch, oc, "mul_cols",
                      lambda a, b: (1 + 1e-9) * real(a, b))


def flip_a_column_product_sign(monkeypatch):
    # e1 e2 = -e3 in mul_cols alone, so that e1 e2 = e2 e1: the algebra is
    # no longer alternative (swapping every product's operands would give
    # the opposite algebra, an octonion algebra again)
    terms = [list(t) for t in oc._GATHER_TERMS]
    terms[3] = [(i, j, np.subtract if (i, j) == (1, 2) else acc)
                for i, j, acc in terms[3]]
    monkeypatch.setattr(oc, "_GATHER_TERMS", tuple(map(tuple, terms)))


def flip_a_structure_constant(monkeypatch):
    # the same sign defect in the tensor behind mul and left_matrix
    tensor = oc.MUL_TENSOR.copy()
    tensor[3, 1, 2] = -1.0
    monkeypatch.setattr(oc, "MUL_TENSOR", tensor)


def flip_the_grade2_reversion(monkeypatch):
    monkeypatch.setattr(cl, "_REVERSION_SIGNS", np.array([1.0, 1.0, 1.0,
                                                          -1.0]))


def take_kappa_one(monkeypatch):
    monkeypatch.setattr(cl, "ENVELOPING_KAPPA", 1.0)


def _tables_patched(monkeypatch, edit):
    real = cl._tables
    monkeypatch.setattr(cl, "_tables", lambda p, q: edit(p, q, real))


def drop_the_negative_squares(monkeypatch):
    # every Cl(p, q) multiplied as Cl(p + q, 0)
    _tables_patched(monkeypatch, lambda p, q, real: real(p + q, 0))


def flip_one_blade_product(monkeypatch):
    # e1 e2 = -e12 wherever there are two generators
    def flipped(p, q, real):
        res, sgn, gather = real(p, q)
        dim = len(res)
        if dim >= 4:
            gather = gather.copy()
            gather[1, 3] = (gather[1, 3] + dim) % (2 * dim)
        return res, sgn, gather

    _tables_patched(monkeypatch, flipped)


def map_by_xi_not_its_inverse(monkeypatch):
    def by_xi(eta, xi):
        return oc.mul(eta, xi)

    _patch_everywhere(monkeypatch, cl, "j_map", by_xi)


def flip_the_associator_term(monkeypatch):
    def flipped(a, b, v):
        return oc.mul(a, b) + oc.mul(oc.associator(a, b, v), oc.inverse(v))

    _patch_everywhere(monkeypatch, df, "deformed_mul", flipped)


CONTROLS = [
    ("g2linear", "equivariance", pull_back_by_transpose),
    ("deform", "conjugation_pullback", pull_back_by_transpose),
    ("exterior", "hodge2", scale_the_raise),
    ("g2linear", "phi0_norm", scale_the_raise),
    ("akivis", "cs_r1_at_h", fit_at_the_wrong_scale),
    ("akivis", "torsionless_r2", fit_at_the_wrong_scale),
    ("akivis", "torsionless_r2", flip_the_sphere_dgamma),
    ("akivis", "torsionless_alpha", transpose_the_frame),
    ("akivis", "torsionless_alpha_rate", transpose_the_frame),
    ("g2field", "torsion_law", scale_the_torsion),
    ("g2field", "torsion_law_rate", scale_the_torsion),
    ("g2field", "torsion_split", scale_the_torsion),
    ("g2field", "leibniz_defect", scale_the_torsion),
    ("g2field", "leibniz_defect", stale_metric),
    ("g2field", "defining_rate", stale_metric),
    ("g2linear", "psi0_norm", scale_the_raise),
    ("g2linear", "phi_wedge_psi", scale_the_raise),
    ("g2linear", "metric_of_phi0", scale_the_raise),
    ("g2linear", "r_spectrum", scale_the_raise),
    ("g2linear", "contraction_suite", scale_the_raise),
    ("g2linear", "split2", scale_the_raise),
    ("g2linear", "split3_recon", scale_the_raise),
    ("g2linear", "f_map", scale_the_raise),
    ("g2linear", "wedge_star_pack", scale_the_raise),
    ("deform", "composition_law", scale_the_raise),
    ("deform", "isometry", scale_the_raise),
    ("deform", "ad_so7", scale_the_raise),
    ("cartan", "cross_module_contractions", scale_the_raise),
    ("clifford", "spinor_sigma_composition", scale_the_raise),
    ("akivis", "cs_r1_rate", fit_at_the_wrong_scale),
    ("akivis", "cs_r2_at_h", fit_at_the_wrong_scale),
    ("akivis", "cs_table_decreasing", fit_at_the_wrong_scale),
    ("cartan", "fit_alpha_param0", transpose_the_frame),
    ("octonion", "inverse_exp_power_adjoint", invert_without_conjugating),
    ("octonion", "inverse_exp_power_adjoint", raise_one_power_higher),
    ("octonion", "inverse_exp_power_adjoint", scale_the_product),
    ("octonion", "norm_multiplicativity", scale_the_column_product),
    ("octonion", "moufang_adjacent", scale_the_column_product),
    ("octonion", "product_expansion", scale_the_column_product),
    ("octonion", "cross_norm_law", scale_the_column_product),
    ("octonion", "double_cross", scale_the_column_product),
    ("octonion", "alternativity", flip_a_column_product_sign),
    ("octonion", "generalized_jacobi", flip_a_column_product_sign),
    ("clifford", "small_models", drop_the_negative_squares),
    ("clifford", "clifford_identity", drop_the_negative_squares),
    ("clifford", "clifford_identity", flip_one_blade_product),
    ("clifford", "associativity", flip_one_blade_product),
    ("clifford", "reversion", flip_the_grade2_reversion),
    ("clifford", "orth_anticommutator", flip_a_structure_constant),
    ("clifford", "kappa_residual", take_kappa_one),
    ("clifford", "kappa_residual", flip_a_structure_constant),
    ("clifford", "j_isometry", scale_the_product),
    ("clifford", "j_equivariance", invert_without_conjugating),
    ("clifford", "j_equivariance", map_by_xi_not_its_inverse),
    ("clifford", "j_equivariance", flip_the_associator_term),
]


def _open(reason, *rows):
    return dict.fromkeys(rows, reason)


NO_MUTATION = "no mutation in CONTROLS fails it yet"

EXEMPT = {
    "clifford": _open(
        NO_MUTATION + "; it fails only on an associative octonion product, "
        "and every sign or scale defect of the product keeps it "
        "non-associative",
        "octonion_nonassoc_contrast"),
    "flat-loop": _open(
        NO_MUTATION + "; Gamma is 0 on the flat chart, so the parallel "
        "frame stays the identity and transpose_the_frame changes nothing",
        "linear", "commutative", "associative", "units"),
    "exterior": _open(
        NO_MUTATION + "; the raise and pullback mutations leave it passing",
        "wedge", "defining", "interior", "musical", "interior_star",
        "vol_scale", "antisym_proj"),
    "g2linear": _open(
        NO_MUTATION + "; the raise and pullback mutations leave it passing",
        "split3_orth", "g2_from_triple"),
    "deform": _open(
        NO_MUTATION + "; the raise and pullback mutations leave it passing",
        "routes", "adjoint_ids", "v6_sweep_fixed", "v6_sweep_moved"),
    "akivis": _open(
        NO_MUTATION + "; it reads exp_map's order on the sphere, which no "
        "mutation of the fit or the frame reaches",
        "integrator_order_low"),
    "cartan": _open(
        NO_MUTATION + "; its closed forms wait for an independent "
        "reference, the S^7 chart",
        "self_duality", "ch_beta_closed_form", "family_points", "fit_ratio"),
    "g2field": {
        **_open(NO_MUTATION + "; it reads the constant field, whose "
                "torsion, d(phi) and d(psi) vanish identically",
                "constant_torsion", "closedness_constant"),
        **_open(NO_MUTATION + "; a Gamma defect on one axis fails it in "
                "test_field.py::test_g2field_rows_read_every_axis",
                "vector_part_only", "d_metric_compat"),
        **_open(NO_MUTATION + "; its signal sits about ten digits above "
                "the floor it is measured against, so a small defect passes",
                "closedness_warp_signal")},
}


def _rows(suite):
    report = cli.run_suite(suite, cli.RunConfig(seed=SEED, trials=TRIALS))
    return {row["name"]: row for row in report["checks"]}


@pytest.mark.parametrize("suite,row,mutation", CONTROLS,
                         ids=[f"{s}.{r}-{m.__name__}" for s, r, m in CONTROLS])
def test_planted_defect_fails_its_row(monkeypatch, suite, row, mutation):
    mutation(monkeypatch)
    assert _rows(suite)[row]["pass"] is False


@pytest.mark.parametrize("suite", sorted({s for s, _, _ in CONTROLS}))
def test_controlled_rows_pass_without_the_defect(suite):
    rows = _rows(suite)
    assert all(rows[row]["pass"] for s, row, _ in CONTROLS if s == suite)


def _suite_rows():
    """Every (suite, row) the registered suites report: their pinned
    tolerances, with akivis's cs_table_floor, which feeds the row of
    fixed tolerance cs_table_decreasing, replaced by that row.
    test_cli.py::test_declared_tolerances_are_the_rows checks the keys
    against a run of each suite."""
    rows = {(suite, row) for suite, (_, pinned) in cli.SUITES.items()
            for row in pinned}
    return (rows - {("akivis", "cs_table_floor")}
            | {("akivis", "cs_table_decreasing")})


def test_every_row_is_controlled_or_exempt():
    rows = _suite_rows()
    controlled = {(s, r) for s, r, _ in CONTROLS}
    exempt = {(s, r) for s, table in EXEMPT.items() for r in table}
    assert controlled - rows == set()
    assert exempt - rows == set()
    # a stale exemption: the row has a control now
    assert controlled & exempt == set()
    assert rows - controlled - exempt == set()
    assert all(reason for table in EXEMPT.values()
               for reason in table.values())
