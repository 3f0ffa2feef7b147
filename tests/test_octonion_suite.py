"""The octonion suite's batched identity checks run over row blocks: the
same residuals as whole-array arithmetic, bit for bit, and a NaN or inf in
any block fails its rows.  A producer thread draws the rows: it leaves no
thread behind, hands its failures to the caller unchanged, and calls no
public octonion function."""

import inspect
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from g2lab import cli
from g2lab import octonion as oc

# rows per block of the suite's draws and checks
W = oc._BLOCK_ROWS
BATCH_ROWS = ("norm_multiplicativity", "alternativity", "moufang_adjacent",
              "product_expansion", "cross_norm_law", "double_cross",
              "generalized_jacobi")


def oracle_draws(seed: int, n: int) -> list:
    """The suite's five (n, 8) draws, a and b general and ai, bi, ci pure
    imaginary, each drawn whole from stream 0."""
    rng = cli.trial_rng(seed, "octonion", 0)
    return [oc.random_octonions(rng, n, imaginary=k >= 2) for k in range(5)]


def whole_array_residuals(draws: list) -> dict:
    """The batched rows of the octonion suite over all rows at once."""
    nb = oc.norm_batch
    a, b, ai, bi, ci = draws
    n = len(a)

    def mb(a, b):
        # rows in C order, as whole-array code holds them: einsum may sum
        # a row in another order when its terms are strided
        return np.ascontiguousarray(oc.mul_cols(a.T, b.T).T)

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


def on_producer() -> bool:
    """Whether the caller is the suite's draw worker; the sample's draws
    on the calling thread go through oc._fill_octonions too."""
    return threading.current_thread().name.startswith("g2lab-octonion-draws")


def same_float(x: float, y: float) -> bool:
    return x == y or (np.isnan(x) and np.isnan(y))


def batch_rows(report: dict) -> dict:
    return {c["name"]: c["max_residual"] for c in report["checks"]
            if c["name"] in BATCH_ROWS}


# W // 2 + 1: an odd count that ends inside the first block
@pytest.mark.parametrize("n", [1, W // 2 + 1, W - 1, W, W + 1, 2 * W + 1])
def test_blocks_give_whole_array_bits(n):
    got = batch_rows(cli.run_suite("octonion", cli.RunConfig(seed=7,
                                                             trials=n)))
    ref = whole_array_residuals(oracle_draws(7, n))
    assert list(got) == list(BATCH_ROWS)
    assert {k: v.hex() for k, v in got.items()} == \
        {k: v.hex() for k, v in ref.items()}


@pytest.mark.parametrize("draw", range(5))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_in_second_block_fails(monkeypatch, draw, bad):
    # the producer fills draw after draw in blocks of W, W and 1 rows, so
    # its call 3 draw + 1 fills rows W..2W-1 of that draw
    n, row = 2 * W + 1, W + 904
    draws = oracle_draws(3, n)
    draws[draw][row, 3] = bad
    real = oc._fill_octonions
    seen = []

    def planted(rng, out, imaginary):
        real(rng, out, imaginary)
        if not on_producer():
            return
        if len(seen) == 3 * draw + 1:
            out[row - W, 3] = bad
        seen.append(len(out))

    monkeypatch.setattr(oc, "_fill_octonions", planted)
    with np.errstate(all="ignore"):
        report = cli.run_suite("octonion", cli.RunConfig(seed=3, trials=n))
        ref = whole_array_residuals(draws)
    got = batch_rows(report)
    assert seen == [W, W, 1] * 5
    assert all(same_float(got[k], ref[k]) for k in BATCH_ROWS), (got, ref)
    assert not all(np.isfinite(list(got.values())))
    assert report["pass"] is False


def test_fold_keeps_inf_and_nan_across_blocks(monkeypatch):
    # an inf in block 2 over finite values reads inf, as np.max does; a
    # NaN in any block reads NaN whatever the other blocks hold.  The keys
    # index the suite's eight batched residuals, the first three from
    # _general_laws and the other five from _imaginary_laws.
    plant = {1: {0: np.inf, 3: np.nan}, 2: {3: np.inf, 5: np.nan}}
    blocks = {"_general_laws": [], "_imaginary_laws": []}

    def planter(name, offset):
        real = getattr(cli, name)

        def planted(*draws):
            worst = real(*draws)
            for k, value in plant.get(len(blocks[name]), {}).items():
                if 0 <= k - offset < len(worst):
                    worst[k - offset] = value
            blocks[name].append(len(draws[0]))
            return worst
        return planted

    monkeypatch.setattr(cli, "_general_laws", planter("_general_laws", 0))
    monkeypatch.setattr(cli, "_imaginary_laws",
                        planter("_imaginary_laws", 3))
    report = cli.run_suite("octonion",
                           cli.RunConfig(seed=3, trials=2 * W + 1))
    assert blocks == {"_general_laws": [W, W, 1],
                      "_imaginary_laws": [W, W, 1]}
    got = batch_rows(report)
    assert got["norm_multiplicativity"] == np.inf
    assert np.isnan(got["moufang_adjacent"])
    assert np.isnan(got["cross_norm_law"])
    assert np.isfinite(got["product_expansion"])
    assert report["pass"] is False


def test_suite_peak_memory_is_bounded():
    # the five draws take 32 MB at 1e5 trials; every other array lives
    # for one 8192-row block.  The peak measured 35.54 MB (all five draws
    # and one block of the general pair's pass); 40 MB leaves 4.4 MB.
    config = cli.RunConfig(seed=1, trials=10 ** 5)
    tracemalloc.start()
    try:
        report = cli.run_suite("octonion", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6
    # at this size the checks wait on the producer, so a block read
    # before it is filled would fail the report
    assert report["pass"] is True


class Boom(Exception):
    pass


def run_on_a_thread(config: cli.RunConfig):
    """run_suite("octonion", config) on a caller thread joined with a
    timeout, so that a lost wake-up fails the test instead of hanging it;
    returns the report, or the exception that left run_suite, and the
    caller thread."""
    out = []

    def call():
        try:
            out.append(cli.run_suite("octonion", config))
        except BaseException as exc:
            out.append(exc)

    # a daemon, so that a caller that never returns cannot hold the
    # interpreter open after the test has failed
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    return out[0], caller


def test_suite_leaves_no_thread_behind():
    before = threading.enumerate()
    report = cli.run_suite("octonion", cli.RunConfig(seed=1, trials=8193))
    assert report["pass"] is True
    assert threading.enumerate() == before


@pytest.mark.parametrize("where", [(cli, "_general_laws"),
                                   (oc, "_fill_octonions")],
                         ids=lambda where: where[1])
def test_failure_leaves_run_suite_unchanged(monkeypatch, where):
    # a check on the caller's thread fails at its second block, or the
    # producer's draw fails at the second block of ai, its eighth call,
    # late enough that the caller is waiting on that block
    module, where = where
    boom = Boom(where)
    real = getattr(module, where)
    threads = []

    def failing(*args):
        if where == "_fill_octonions" and not on_producer():
            return real(*args)
        threads.append(threading.current_thread())
        if len(threads) == 2 and where == "_general_laws":
            raise boom
        if len(threads) == 8:
            time.sleep(0.05)
            raise boom
        return real(*args)

    monkeypatch.setattr(module, where, failing)
    before = threading.enumerate()
    got, caller = run_on_a_thread(cli.RunConfig(seed=1, trials=3 * W))
    assert got is boom
    assert threading.enumerate() == before
    # the checks ran on the caller, the bulk draws on the producer
    assert {t is caller for t in threads} == {where == "_general_laws"}


def test_producer_stops_after_a_failed_check(monkeypatch):
    # the first check fails while the producer is held in its fill of b's
    # second block (its fifth call at three blocks a draw); released, it
    # finishes that block and draws no other
    boom, failed = Boom(), threading.Event()
    real = oc._fill_octonions
    calls = []

    def held(rng, out, imaginary):
        real(rng, out, imaginary)
        if not on_producer():
            return
        calls.append(len(out))
        if len(calls) == 5:
            failed.wait(timeout=10)
            time.sleep(0.05)

    def failing(a, b):
        failed.set()
        raise boom

    monkeypatch.setattr(oc, "_fill_octonions", held)
    monkeypatch.setattr(cli, "_general_laws", failing)
    got, _ = run_on_a_thread(cli.RunConfig(seed=1, trials=3 * W))
    assert got is boom
    assert calls == [W] * 5


def test_public_octonion_functions_run_on_the_calling_thread(monkeypatch):
    seen = {}

    def recorded(name, fn):
        def call(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.current_thread())
            return fn(*args, **kwargs)
        return call

    for name, fn in list(vars(oc).items()):
        if (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == oc.__name__):
            monkeypatch.setattr(oc, name, recorded(name, fn))
    report = cli.run_suite("octonion", cli.RunConfig(seed=2, trials=8193))
    assert report["pass"] is True
    assert {"mul_cols", "norm_batch", "mul", "random_octonions"} <= set(seen)
    assert set().union(*seen.values()) == {threading.main_thread()}


def test_concurrent_suites_keep_their_bits():
    # more threads than cores, switching every microsecond: each caller's
    # producer fills its own draws, and every report keeps the bits of the
    # whole-array oracle
    n = 4097
    ref = {seed: whole_array_residuals(oracle_draws(seed, n))
           for seed in (1, 2, 3)}
    got = {}

    def call(seed):
        for _ in range(2):
            rows = batch_rows(cli.run_suite(
                "octonion", cli.RunConfig(seed=seed, trials=n)))
            got.setdefault(seed, []).append(rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(seed,))
                   for seed in ref]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed, rows in ref.items():
        want = {k: v.hex() for k, v in rows.items()}
        assert [{k: v.hex() for k, v in r.items()} for r in got[seed]] \
            == [want, want]
