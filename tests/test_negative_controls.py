"""Negative controls: each row named here must fail on a planted defect.

An entry is (suite, row, mutation).  A mutation is a monkeypatch of one
``src`` function; it runs the suite through ``run_suite`` at a few trials
and expects the named row to fail.  A row that passes with its defect
planted checks nothing the defect touches.  The same rows pass with no
defect at the same seed and trials, so each failure is the mutation's.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import g2lab
from g2lab import cli
from g2lab import connection as cn
from g2lab import exterior as ext
from g2lab import field as fld

SEED = 42
TRIALS = 3

MODULES = [importlib.import_module(f"g2lab.{info.name}")
           for info in pkgutil.iter_modules(g2lab.__path__)]


def _patch_everywhere(monkeypatch, name, fake):
    """Rebind exterior's name in every g2lab module that holds it: the
    callers bind it at import, so patching exterior alone misses them."""
    real = getattr(ext, name)
    patched = [mod for mod in MODULES if getattr(mod, name, None) is real]
    for mod in patched:
        monkeypatch.setattr(mod, name, fake)
    return patched


def pull_back_by_transpose(monkeypatch):
    real = ext.pullback
    patched = _patch_everywhere(monkeypatch, "pullback",
                                lambda comps, t: real(comps, t.T))
    # every 3-form pullback of the package goes through one of these
    assert {mod.__name__ for mod in patched} >= {
        "g2lab.exterior", "g2lab.g2linear", "g2lab.deform", "g2lab.field"}


def scale_the_raise(monkeypatch):
    real = ext._raised
    _patch_everywhere(monkeypatch, "_raised",
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


def scale_the_torsion(monkeypatch):
    # every torsion read through field.g2_torsion, its splitting parts
    # and defining residual left as they are
    real = fld.g2_torsion

    def scaled(*args):
        t = real(*args)
        return fld.G2Torsion(1.001 * t.T, t.t1, t.t0, t.t7, t.t14,
                             t.defining_residual)

    monkeypatch.setattr(fld, "g2_torsion", scaled)


CONTROLS = [
    ("g2linear", "equivariance", pull_back_by_transpose),
    ("deform", "conjugation_pullback", pull_back_by_transpose),
    ("exterior", "hodge2", scale_the_raise),
    ("g2linear", "phi0_norm", scale_the_raise),
    ("akivis", "cs_r1_at_h", fit_at_the_wrong_scale),
    ("akivis", "torsionless_r2", fit_at_the_wrong_scale),
    ("akivis", "torsionless_alpha", transpose_the_frame),
    ("akivis", "torsionless_alpha_rate", transpose_the_frame),
    ("g2field", "torsion_law", scale_the_torsion),
    ("g2field", "torsion_law_rate", scale_the_torsion),
    ("g2field", "torsion_split", scale_the_torsion),
    ("g2field", "leibniz_defect", scale_the_torsion),
]


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
