"""The octonion suite's batched identity checks run over row blocks: the
same residuals as whole-array arithmetic, bit for bit, and a NaN or inf in
any block fails its rows."""

import tracemalloc

import numpy as np
import pytest

from g2lab import cli
from g2lab import octonion as oc

BATCH_ROWS = ("norm_multiplicativity", "alternativity", "moufang_adjacent",
              "product_expansion", "cross_norm_law", "double_cross",
              "generalized_jacobi")


def whole_array_residuals(seed: int, n: int) -> dict:
    """The batched rows of the octonion suite over all n rows at once."""
    nb = oc.norm_batch

    def mb(a, b):
        # rows in C order, as whole-array code holds them: einsum may sum
        # a row in another order when its terms are strided
        return np.ascontiguousarray(oc.mul_cols(a.T, b.T).T)

    rng = cli.trial_rng(seed, "octonion", 0)
    a = oc.random_octonions(rng, n)
    b = oc.random_octonions(rng, n)
    ai, bi, ci = (oc.random_octonions(rng, n, imaginary=True)
                  for _ in range(3))
    out = {}
    rhs = nb(a) * nb(b)
    out["norm_multiplicativity"] = np.max(np.abs(nb(mb(a, b)) - rhs) / rhs)
    alt1 = mb(mb(a, a), b) - mb(a, mb(a, b))
    alt2 = mb(mb(a, b), b) - mb(a, mb(b, b))
    out["alternativity"] = cli._worst((
        np.max(np.abs(alt1) / (nb(a) ** 2 * nb(b))[:, None]),
        np.max(np.abs(alt2) / (nb(a) * nb(b) ** 2)[:, None])))
    dots = np.einsum("nk,nk->n", ai, bi)
    nscale = (nb(ai) * nb(bi) * nb(ci))[:, None]
    moufang = (mb(ai, mb(bi, ci)) + mb(bi, mb(ai, ci))
               + 2.0 * dots[:, None] * ci)
    out["moufang_adjacent"] = np.max(np.abs(moufang) / nscale)
    assoc = mb(mb(ai, bi), ci) - mb(ai, mb(bi, ci))
    one = np.zeros((n, 8))
    one[:, 0] = 1.0
    expansion = (mb(ai, mb(bi, ci)) + 0.5 * assoc
                 + np.einsum("nk,nk->n", mb(ai, bi), ci)[:, None] * one
                 + np.einsum("nk,nk->n", bi, ci)[:, None] * ai
                 - np.einsum("nk,nk->n", ai, ci)[:, None] * bi
                 + dots[:, None] * ci)
    out["product_expansion"] = np.max(np.abs(expansion) / nscale)
    ab_cross, bc_cross, ca_cross = mb(ai, bi), mb(bi, ci), mb(ci, ai)
    for cross in (ab_cross, bc_cross, ca_cross):
        cross[:, 0] = 0.0
    norm_law = (np.einsum("nk,nk->n", ab_cross, ab_cross)
                - nb(ai) ** 2 * nb(bi) ** 2 + dots ** 2)
    out["cross_norm_law"] = np.max(np.abs(norm_law)
                                   / (nb(ai) * nb(bi)) ** 2)
    double = mb(ai, bc_cross)
    double[:, 0] = 0.0
    double_rhs = (-dots[:, None] * ci
                  + np.einsum("nk,nk->n", ai, ci)[:, None] * bi - 0.5 * assoc)
    out["double_cross"] = np.max(np.abs(double - double_rhs) / nscale)
    jac = mb(ai, bc_cross * 2) - mb(bc_cross * 2, ai)
    jac += mb(bi, ca_cross * 2) - mb(ca_cross * 2, bi)
    jac += mb(ci, ab_cross * 2) - mb(ab_cross * 2, ci)
    out["generalized_jacobi"] = np.max(np.abs(jac + 6.0 * assoc) / nscale)
    return {name: float(r) for name, r in out.items()}


def same_float(x: float, y: float) -> bool:
    return x == y or (np.isnan(x) and np.isnan(y))


def batch_rows(report: dict) -> dict:
    return {c["name"]: c["max_residual"] for c in report["checks"]
            if c["name"] in BATCH_ROWS}


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
def test_blocks_give_whole_array_bits(n):
    assert oc._BLOCK_ROWS == 4096
    got = batch_rows(cli.run_suite("octonion", cli.RunConfig(seed=7,
                                                             trials=n)))
    ref = whole_array_residuals(7, n)
    assert list(got) == list(BATCH_ROWS)
    assert {k: v.hex() for k, v in got.items()} == \
        {k: v.hex() for k, v in ref.items()}


@pytest.mark.parametrize("draw", range(5))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_in_second_block_fails(monkeypatch, draw, bad):
    n = 8193
    real = oc.random_octonions
    seen = []

    def planted(rng, size, **kwargs):
        out = real(rng, size, **kwargs)
        if size == n:
            if len(seen) % 5 == draw:
                out[5000, 3] = bad
            seen.append(size)
        return out

    monkeypatch.setattr(oc, "random_octonions", planted)
    with np.errstate(all="ignore"):
        report = cli.run_suite("octonion", cli.RunConfig(seed=3, trials=n))
        ref = whole_array_residuals(3, n)
    got = batch_rows(report)
    assert len(seen) == 10
    assert all(same_float(got[k], ref[k]) for k in BATCH_ROWS), (got, ref)
    assert not all(np.isfinite(list(got.values())))
    assert report["pass"] is False


def test_fold_keeps_inf_and_nan_across_blocks(monkeypatch):
    # an inf in block 2 over finite values reads inf, as np.max does; a
    # NaN in any block reads NaN whatever the other blocks hold
    real = cli._octonion_block
    plant = {1: {0: np.inf, 3: np.nan}, 2: {3: np.inf, 5: np.nan}}
    blocks = []

    def planted(*draws):
        worst = real(*draws)
        for k, value in plant.get(len(blocks), {}).items():
            worst[k] = value
        blocks.append(len(draws[0]))
        return worst

    monkeypatch.setattr(cli, "_octonion_block", planted)
    report = cli.run_suite("octonion", cli.RunConfig(seed=3, trials=8193))
    assert blocks == [4096, 4096, 1]
    got = batch_rows(report)
    assert got["norm_multiplicativity"] == np.inf
    assert np.isnan(got["moufang_adjacent"])
    assert np.isnan(got["cross_norm_law"])
    assert np.isfinite(got["product_expansion"])
    assert report["pass"] is False


def test_suite_peak_memory_is_bounded():
    # the five draws take 32 MB at 1e5 trials; every other array lives
    # for one 4096-row block
    config = cli.RunConfig(seed=1, trials=10 ** 5)
    tracemalloc.start()
    try:
        cli.run_suite("octonion", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6
