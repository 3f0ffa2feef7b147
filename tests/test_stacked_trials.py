"""The octonion suite's sample and the clifford suite's trial rows run as
stacked rows: every trial draws from its own trial_rng stream as a
one-trial loop would, and each per-trial residual has the bits that loop
gives it.  The loops below are the suites' former one-trial code on
(8,) rows, kept here as oracles."""

import tracemalloc

import numpy as np
import pytest

from g2lab import cli
from g2lab import clifford as cl
from g2lab import deform as df
from g2lab import octonion as oc
from g2lab.octonion import left_matrix

# trials per block of the clifford suite
BLOCK = oc._BLOCK_ROWS // 128
COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1]
ONE = np.eye(8)[0]


def norm(a):
    return np.sqrt(a @ a)


def sample_one_trial(rng) -> dict:
    from g2lab.octonion import (conj, exponential, inverse, left_matrix, mul,
                                power)
    u = oc.random_octonions(rng, 1, unit=True)[0]
    r1 = np.max(np.abs(mul(u, inverse(u)) - ONE))
    w = oc.random_octonions(rng, 1, imaginary=True)[0]
    r = np.linalg.norm(w)
    expect = np.cos(r) * ONE + np.sin(r) / r * w
    r2 = np.max(np.abs(exponential(w) - expect))
    r3 = np.max(np.abs(power(u, 3) - mul(mul(u, u), u)))
    bq, aq, cq = oc.random_octonions(rng, 3)
    r4 = abs((left_matrix(bq) @ aq) @ cq
             - aq @ (left_matrix(conj(bq)) @ cq))
    r4 /= norm(bq) * norm(aq) * norm(cq)
    return {"inverse": r1, "exponential": r2, "power": r3, "adjoint": r4}


def clifford_one_trial(rng) -> dict:
    u = rng.standard_normal(7)
    v = rng.standard_normal(7)
    cu = cl.CliffordElement.vector(0, 7, u)
    cv = cl.CliffordElement.vector(0, 7, v)
    anti = cl.clifford_mul(cu, cv) + cl.clifford_mul(cv, cu)
    ident = (anti - cl.CliffordElement.scalar(
        0, 7, 2 * cl.vector_inner(0, 7, u, v))).max_abs()
    x = cl.CliffordElement(0, 7, rng.standard_normal(128))
    y = cl.CliffordElement(0, 7, rng.standard_normal(128))
    z = cl.CliffordElement(0, 7, rng.standard_normal(128))
    sc = x.max_abs() * y.max_abs() * z.max_abs()
    assoc = (cl.clifford_mul(cl.clifford_mul(x, y), z)
             - cl.clifford_mul(x, cl.clifford_mul(y, z))).max_abs() / sc
    rev = (cl.reversion(cl.clifford_mul(x, y))
           - cl.clifford_mul(cl.reversion(y),
                             cl.reversion(x))).max_abs() \
        / (x.max_abs() * y.max_abs())
    q1 = rng.standard_normal(7)
    q1 /= np.linalg.norm(q1)
    q2 = rng.standard_normal(7)
    q2 -= (q2 @ q1) * q1
    q2 /= np.linalg.norm(q2)
    l1 = left_matrix(np.r_[0.0, q1])
    l2 = left_matrix(np.r_[0.0, q2])
    anticomm = np.max(np.abs(l1 @ l2 + l2 @ l1))
    kappa = cl.enveloping_residual(
        oc.random_octonions(rng, 1, imaginary=True)[0],
        oc.random_octonions(rng, 1, imaginary=True)[0])
    xi = oc.random_octonions(rng, 1, unit=True)[0]
    n1 = rng.standard_normal(8)
    n2 = rng.standard_normal(8)
    j_iso = abs(n1 @ n2 - cl.j_map(n1, xi) @ cl.j_map(n2, xi))
    big_v = oc.random_octonions(rng, 1)[0]
    equi = np.max(np.abs(
        cl.j_map(cl.clifford_action(big_v, n1), xi)
        - df.deformed_mul(big_v, cl.j_map(n1, xi), xi)))
    return {"clifford_identity": ident, "associativity": assoc,
            "reversion": rev, "orth_anticommutator": anticomm,
            "kappa_residual": kappa, "j_isometry": j_iso,
            "j_equivariance": equi}


def looped(one_trial, suite, seed, trials) -> dict:
    """The oracle's residuals, one array per key in trial order."""
    rows = [one_trial(cli.trial_rng(seed, suite, t)) for t in trials]
    return {key: np.array([r[key] for r in rows]) for key in rows[0]}


def bits(values: dict) -> dict:
    return {key: np.asarray(v, dtype=float).view(np.int64).tolist()
            for key, v in values.items()}


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("n", COUNTS + [200])
def test_sample_rows_are_the_loop_bits(seed, n):
    config = cli.RunConfig(seed=seed)
    trials = range(1, n + 1)
    want = looped(sample_one_trial, "octonion", seed, trials)
    assert bits(cli._octonion_sample(config, trials)) == bits(want)
    # the same rows at the clifford block width
    stacked = cli.stack_trials(cli._sample_check, cli._sample_draw, trials,
                               BLOCK, config, "octonion")
    assert bits(stacked) == bits(want)


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("n", COUNTS + [100])
def test_clifford_rows_are_the_loop_bits(seed, n):
    got = cli._clifford_trials(cli.RunConfig(seed=seed), range(n))
    assert list(got) == list(cli.SUITES["clifford"][1])[1:8]
    assert bits(got) == bits(looped(clifford_one_trial, "clifford", seed,
                                    range(n)))


def test_sample_streams_skip_the_bulk_stream(monkeypatch):
    # stream 0 draws the suite's bulk rows; the sample takes 1..m
    streams = []
    real = cli.trial_rng

    def recorded(seed, suite, trial):
        streams.append((suite, trial))
        return real(seed, suite, trial)

    monkeypatch.setattr(cli, "trial_rng", recorded)
    cli.run_suite("octonion", cli.RunConfig(seed=42, trials=300))
    assert streams == [("octonion", t) for t in range(201)]


@pytest.mark.parametrize("t", [0, BLOCK - 1, BLOCK, 2 * BLOCK + 1])
def test_a_trial_replays_alone(t):
    config = cli.RunConfig(seed=7)
    whole = cli._clifford_trials(config, range(3 * BLOCK))
    alone = cli._clifford_trials(config, [t])
    assert bits(alone) == bits({k: v[t:t + 1] for k, v in whole.items()})
    whole = cli._octonion_sample(config, range(1, 201))
    alone = cli._octonion_sample(config, [t + 1])
    assert bits(alone) == bits({k: v[t:t + 1] for k, v in whole.items()})


def test_nan_in_a_middle_block_fails_its_rows(monkeypatch):
    # a NaN spinor n1 in trial 40, in the second of three blocks, reaches
    # the two rows of the j map and no other
    real = cli._clifford_draw
    drawn = []

    def planted(rng):
        out = list(real(rng))
        if len(drawn) == BLOCK + 8:
            out[10] = np.full(8, np.nan)
        drawn.append(out)
        return tuple(out)

    monkeypatch.setattr(cli, "_clifford_draw", planted)
    report = cli.run_suite("clifford", cli.RunConfig(seed=3,
                                                     trials=3 * BLOCK))
    rows = {row["name"]: row for row in report["checks"]}
    assert len(drawn) == 3 * BLOCK
    failed = {name for name, row in rows.items() if not row["pass"]}
    assert failed == {"j_isometry", "j_equivariance"}
    assert np.isnan(rows["j_isometry"]["max_residual"])
    assert report["pass"] is False


def test_nan_in_the_sample_fails_its_row(monkeypatch):
    real = cli._sample_draw
    drawn = []

    def planted(rng):
        out = list(real(rng))
        if len(drawn) == 100:
            out[0] = np.full(8, np.nan)
        drawn.append(out)
        return tuple(out)

    monkeypatch.setattr(cli, "_sample_draw", planted)
    report = cli.run_suite("octonion", cli.RunConfig(seed=3, trials=300))
    rows = {row["name"]: row for row in report["checks"]}
    assert np.isnan(rows["inverse_exp_power_adjoint"]["max_residual"])
    assert [name for name, row in rows.items() if not row["pass"]] == [
        "inverse_exp_power_adjoint"]


def _clifford_peak(n: int) -> int:
    tracemalloc.start()
    try:
        cli.run_suite("clifford", cli.RunConfig(seed=1, trials=n))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_clifford_peak_memory_stays_at_one_block():
    # about 5 MB at any trial count, 4 MB of it one block's product terms
    _clifford_peak(1)
    assert _clifford_peak(3 * BLOCK) <= 1.2 * _clifford_peak(BLOCK)
