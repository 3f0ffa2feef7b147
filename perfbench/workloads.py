"""The benchmark's workloads and the correctness gate applied to their output.

Each workload is a fixed sequence of steps.  A step calls a verification
suite in process through ``g2lab.cli.run_suite``, or one study through the
public function the suite calls, and returns its check rows,
``{name, max_residual, tolerance, pass}``.  One *repeat* of a workload runs
all of its steps once with one seed.
"""

from __future__ import annotations

import math


class SuiteStep:
    """One ``g2lab verify <suite>`` report, produced in process.

    ``seed``, when given, replaces the workload seed for this step.
    """

    def __init__(self, suite: str, trials: int | None = None,
                 seed: int | None = None) -> None:
        self.suite = suite
        self.trials = trials
        self.seed = seed

    @property
    def label(self) -> str:
        trials = "default" if self.trials is None else self.trials
        seed = "" if self.seed is None else f", seed={self.seed}"
        return f"suite {self.suite} (trials={trials}{seed})"

    def run(self, seed: int) -> list[dict]:
        from g2lab.cli import RunConfig, run_suite
        if self.seed is not None:
            seed = self.seed
        report = run_suite(self.suite, RunConfig(seed=seed,
                                                 trials=self.trials))
        rows = [dict(row, name=f"{self.suite}.{row['name']}")
                for row in report["checks"]]
        if not report["pass"] and all(row["pass"] for row in rows):
            rows.append({"name": f"{self.suite}.report_pass",
                         "max_residual": 1.0, "tolerance": 0.0,
                         "pass": False})
        return rows


class AkivisStep:
    """The sphere2 half of the ``akivis`` suite's convergence study.

    It runs the suite's own call and checks the three ``torsionless_*``
    residuals against the suite's default tolerances.  The study has no
    random input, so the seed is unused.
    """

    label = ("akivis_check(sphere2_chart(), [1.2, 0.3], (1e-2, 5e-3), "
             "h_ode=1/16)")

    def run(self, seed: int) -> list[dict]:
        import numpy as np
        from g2lab.connection import akivis_check, sphere2_chart
        rep = akivis_check(sphere2_chart(), np.array([1.2, 0.3]),
                           (1e-2, 5e-3), h_ode=1.0 / 16)
        alpha = rep["alpha_norm"]
        return [_row("akivis.torsionless_alpha", alpha[0], 0.05),
                _row("akivis.torsionless_alpha_rate",
                     alpha[1] / max(alpha[0], 1e-300), 1.0 / 1.8),
                _row("akivis.torsionless_r2", rep["r2"][0], 1e-3)]


def _row(name: str, residual: float, tolerance: float) -> dict:
    residual = float(residual)
    return {"name": name, "max_residual": residual, "tolerance": tolerance,
            "pass": bool(residual <= tolerance)}


# The exterior suite draws each trial's dimension from 3..7, and a
# 7-dimensional trial costs about ten times the others, so at a few trials
# its time would follow the seed more than the code.  Its seed is fixed to
# one whose five trials take each dimension once.
EXTERIOR_SEED = 56

# workload name -> the steps of one repeat
WORKLOADS = {
    "loop-fit": (SuiteStep("cartan"),),
    "loop-serial": (SuiteStep("flat-loop", 10), AkivisStep()),
    "forms": (SuiteStep("exterior", 5, seed=EXTERIOR_SEED),
              SuiteStep("g2linear", 10), SuiteStep("deform", 20),
              SuiteStep("g2field")),
    "octonion-batch": (SuiteStep("octonion", 100000), SuiteStep("clifford")),
}


def row_failed(row: dict) -> bool:
    """A check fails when the report says so, when its residual is not a
    finite number, or when the residual exceeds the tolerance."""
    value = row["max_residual"]
    return (row["pass"] is not True or not math.isfinite(value)
            or not value <= row["tolerance"])


HEADROOM_CAP = 16.0


def headroom_digits(rows) -> float:
    """min over checks of log10(tolerance / max_residual), capped at 16."""
    out = HEADROOM_CAP
    for row in rows:
        value, tol = row["max_residual"], row["tolerance"]
        if not math.isfinite(value) or (value > 0.0 and tol <= 0.0):
            return -HEADROOM_CAP
        if value > 0.0:
            out = min(out, math.log10(tol / value))
    return out
