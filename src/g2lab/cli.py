"""Command-line harness: randomized identity suites, convergence studies,
and cross-module consistency checks with seeded randomness and JSON
reports.

Per-trial random streams are counter-based (Philox keyed by a digest of
seed, suite and trial index), so trial t of a suite can be replayed alone
from ``trial_rng(seed, suite, t)``.  Residuals are folded across trials so
that a NaN or inf in any trial fails the report.  The octonion suite's
sample and the deform and clifford suites' trials are drawn one trial at
a time and checked as stacked rows (``stack_trials``); each trial's
residual has the bits a one-trial loop gives it.  The octonion suite's
bulk rows come from one stream, drawn block by block into reused slots
by a one-thread pool while the calling thread checks the blocks that
have landed; a fill in blocks has the bits of one fill, so no residual
depends on the timing.

Each suite declares its pinned tolerances once, where it is registered,
and every check row is built in one place, ``RunConfig.row``.
"""

from __future__ import annotations

import hashlib
import sys
import time
from math import inf
from pathlib import Path

import numpy as np

from .errors import BadConfig, G2LabError, IoError, UnknownSuite

SCHEMA_VERSION = 1

# Largest trial count a run accepts (the octonion benchmark runs 1e5).
MAX_TRIALS = 10 ** 5

# Trials per block of the stacked rows: the clifford suite's blocks hold
# 4 MB of product terms at Cl(0, 7), and the octonion sample's 512 trials
# cover its 200 in one block.  A deform block's stacked rows cost 0.6 ms
# plus 50 us a trial (0.6 ms a trial looped), so 32 trials lose little.
_CLIFFORD_BLOCK = 32
_SAMPLE_BLOCK = 512
_DEFORM_BLOCK = 32


def trial_rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:{suite}:{trial}".encode(),
                             digest_size=16).digest()
    return np.random.Generator(np.random.Philox(
        key=int.from_bytes(digest, "little")))


class RunConfig:
    """Seed, trial count, tolerance overrides, and the pinned tolerances
    of the suite being run, set by run_suite.  An override must be a
    finite number >= 0 (a NaN fails the comparison) or is a BadConfig."""

    def __init__(self, seed: int = 42, trials: int | None = None,
                 tolerances: dict | None = None) -> None:
        if trials is not None and not 1 <= trials <= MAX_TRIALS:
            raise BadConfig(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
        self.seed = int(seed)
        self.trials = trials
        self.tolerances = dict(tolerances or {})
        for key, tol in self.tolerances.items():
            if not 0.0 <= tol < inf:
                raise BadConfig(f"tolerance {key} must be finite and >= 0, "
                                f"got {tol}")
        self.pinned = {}

    def n_trials(self, default: int) -> int:
        return int(self.trials if self.trials is not None else default)

    def row(self, name: str, residuals) -> dict:
        """The check row of name against its pinned tolerance: a scalar
        residual as it is, an iterable of residuals folded by _worst."""
        if not np.isscalar(residuals):
            residuals = _worst(residuals)
        return _check(name, residuals, self.pinned[name])


def _check(name: str, max_residual: float, tol: float) -> dict:
    return {"name": name, "max_residual": float(max_residual),
            "tolerance": float(tol), "pass": bool(max_residual <= tol)}


def _worst(values) -> float:
    """The largest residual, or NaN when any residual is not finite.

    Python's max drops a NaN that does not come first, and min keeps inf
    over NaN, so either would let a broken trial pass its check.  Rates
    divide by _worst((den, 1e-300)): an infinite den gives NaN, not 0.
    """
    vals = np.fromiter(values, dtype=float)
    return float(vals.max()) if np.isfinite(vals).all() else float("nan")


def _max_abs(rows):
    return np.max(np.abs(rows), axis=-1)


def map_trials(fn, n: int, config: RunConfig, suite: str) -> list:
    """Evaluate fn(rng, trial) over the per-trial streams of a suite."""
    return [fn(trial_rng(config.seed, suite, t), t) for t in range(n)]


def stack_trials(check, draw, trials, block: int, config: RunConfig,
                 suite: str) -> dict:
    """check(*draws) over the given trials of a suite in blocks of at
    most block trials, as one array per key of residuals in trial order.

    Trial t draws draw(trial_rng(seed, suite, t)), a tuple of arrays, as
    a one-trial loop would; each block stacks its trials' draws into
    (T, ...) rows, and check returns a dict of (T,) residual arrays.
    """
    blocks = []
    for start in range(0, len(trials), block):
        drawn = [draw(trial_rng(config.seed, suite, t))
                 for t in trials[start:start + block]]
        blocks.append(check(*map(np.stack, zip(*drawn))))
    return {key: np.concatenate([b[key] for b in blocks])
            for key in blocks[0]}


def _fold(rows, config: RunConfig) -> list[dict]:
    """One row per key of the per-trial dicts, in their order: the worst
    value of that key over the trials."""
    return [config.row(key, (r[key] for r in rows)) for key in rows[0]]


# -- suites -------------------------------------------------------------------

SUITES = {}


def _suite(name: str, **tolerances: float):
    """Register a suite under name with its pinned tolerances, the keys
    that --tol may override."""
    def register(fn):
        SUITES[name] = (fn, tolerances)
        return fn
    return register


def _max_ratio(x, scale) -> float:
    """max |x| / scale, overwriting x."""
    np.abs(x, out=x)
    x /= scale
    return np.max(x)


def _general_laws(a, b) -> list:
    """The worst residual over one row block of norm multiplicativity and
    the two alternativity laws; a and b are (m, 8) blocks of general
    octonions.

    The products run on (8, m) columns, copied once per block.  Norms and
    dots take (m, 8) rows, contiguous as the draws are, so that einsum sums
    each row in one order whatever the layout of the products; the same
    holds in _imaginary_laws."""
    from .octonion import mul_cols, norm_batch
    na, nb = norm_batch(a), norm_batch(b)
    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    ab = mul_cols(a, b)
    rhs = na * nb
    worst = [np.max(np.abs(norm_batch(ab.T.copy()) - rhs) / rhs)]
    alt = mul_cols(mul_cols(a, a), b)
    alt -= mul_cols(a, ab)
    worst.append(_max_ratio(alt, na ** 2 * nb))
    alt = mul_cols(ab, b)
    alt -= mul_cols(a, mul_cols(b, b))
    worst.append(_max_ratio(alt, na * nb ** 2))
    return worst


def _imaginary_laws(ai, bi, ci) -> list:
    """The worst residual over one row block of Moufang, the product
    expansion, the cross product norm law, the double cross product and
    generalized Jacobi; ai, bi and ci are (m, 8) blocks of pure imaginary
    octonions."""
    from .octonion import mul_cols, norm_batch
    nai, nbi = norm_batch(ai), norm_batch(bi)
    nscale = nai * nbi * norm_batch(ci)
    ab_dot = np.einsum("nk,nk->n", ai, bi)
    ac_dot = np.einsum("nk,nk->n", ai, ci)
    bc_dot = np.einsum("nk,nk->n", bi, ci)
    ci_rows = ci
    ai, bi, ci = (np.ascontiguousarray(d.T) for d in (ai, bi, ci))
    aibi = mul_cols(ai, bi)
    bici = mul_cols(bi, ci)
    ai_bici = mul_cols(ai, bici)
    moufang = ai_bici + mul_cols(bi, mul_cols(ai, ci)) + 2.0 * ab_dot * ci
    worst = [_max_ratio(moufang, nscale)]
    # expansion of A(BC) for imaginary triples; <AB, C> is real, so it
    # enters row 0 alone, in the same place of the sum
    assoc = mul_cols(aibi, ci)
    assoc -= ai_bici
    aibi_rows = aibi.T.copy()
    expansion = ai_bici
    expansion += 0.5 * assoc
    expansion[0] += np.einsum("nk,nk->n", aibi_rows, ci_rows)
    expansion += bc_dot * ai
    expansion -= ac_dot * bi
    expansion += ab_dot * ci
    worst.append(_max_ratio(expansion, nscale))
    # cross product laws; the full products are not read again
    ab_cross, bc_cross = aibi, bici
    ab_cross[0] = bc_cross[0] = aibi_rows[:, 0] = 0.0
    norm_law = (np.einsum("nk,nk->n", aibi_rows, aibi_rows)
                - nai ** 2 * nbi ** 2 + ab_dot ** 2)
    worst.append(np.max(np.abs(norm_law) / (nai * nbi) ** 2))
    # generalized Jacobi, sum_cyc [x,[y,z]] = -6 [x,y,z], with each cross
    # product doubled outside: x (2y) = 2 (x y) exactly, so the double
    # cross product is its first term
    double = mul_cols(ai, bc_cross)
    jac = double - mul_cols(bc_cross, ai)
    double[0] = 0.0
    double -= -ab_dot * ci + ac_dot * bi - 0.5 * assoc
    worst.append(_max_ratio(double, nscale))
    ca_cross = mul_cols(ci, ai)
    ca_cross[0] = 0.0
    jac += mul_cols(bi, ca_cross) - mul_cols(ca_cross, bi)
    jac += mul_cols(ci, ab_cross) - mul_cols(ab_cross, ci)
    jac *= 2.0
    jac += 6.0 * assoc
    worst.append(_max_ratio(jac, nscale))
    return worst


@_suite("octonion", norm_multiplicativity=1e-12, alternativity=1e-13,
        moufang_adjacent=1e-12, product_expansion=1e-12,
        cross_norm_law=1e-12, double_cross=1e-12, generalized_jacobi=1e-12,
        inverse_exp_power_adjoint=1e-13)
def suite_octonion(config: RunConfig) -> list[dict]:
    """The octonion identities over --trials rows drawn from stream 0, then
    the inverse, exponential, power and adjointness on a stacked sample of up
    to 200 trials, streams 1..m.

    The five (n, 8) draws, a and b general, then ai, bi and ci pure
    imaginary, are filled in stream order, one task per block of
    _BLOCK_ROWS rows, by a one-thread pool, whose worker runs its tasks in
    turn.  numpy's Generator releases the GIL while it fills, so the
    draws run beside this thread's checks, and a fill in blocks gives the
    bits of one fill.  No draw is held whole: each block is filled into a
    free slot of its phase's ring, allocated once per run, nb + 4 slots
    for a and b and 2 nb + 4 for ai, bi and ci, with nb blocks a draw.
    A slot is free again as soon as the check that reads its block
    returns; the refill then hands the pool the next blocks in stream
    order and stops at the first whose ring has no free slot.  The pair
    ring holds all of a and b's first block, and the triple ring all of
    ai and bi and ci's first block, so every check's blocks get filled.
    This thread runs the sample first, while a is drawn; then the laws of
    the general pair on each block as it lands, and drops the pair ring;
    then the laws of the imaginary triple.  At 1e5 trials the rings take
    24.6 MB where the whole draws took 32 MB, and the suite's tracemalloc
    peak is 28.2 MB.  A failed draw is raised here unchanged by its
    block's result(); on any exit the pool cancels the blocks not yet
    begun and joins its worker.  The worker calls no public g2lab
    function, because perfbench's tracer keeps one span stack for one
    thread."""
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor
    from .octonion import _BLOCK_ROWS, _fill_octonions
    n = config.n_trials(10000)
    rng = trial_rng(config.seed, "octonion", 0)
    sizes = [min(_BLOCK_ROWS, n - start)
             for start in range(0, n, _BLOCK_ROWS)]
    nb = len(sizes)
    # draw k fills ring k >= 2: ring 0 holds blocks of a and b, ring 1
    # blocks of ai, bi and ci.  Only this thread reads or changes the
    # free slots and the blocks handed to the pool.
    rings = [np.empty((slots, sizes[0], 8)) for slots in (nb + 4, 2 * nb + 4)]
    free = [list(range(len(ring))) for ring in rings]
    # the blocks not yet handed to the pool, (draw, block), in stream order
    stream = deque((k, i) for k in range(5) for i in range(nb))
    landed = {}
    pool = ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="g2lab-octonion-draws")

    def refill():
        while stream and free[stream[0][0] >= 2]:
            k, i = stream.popleft()
            slot = free[k >= 2].pop()
            rows = rings[k >= 2][slot, :sizes[i]]
            landed[k, i] = slot, pool.submit(_fill_octonions, rng, rows,
                                             k >= 2)

    def block_laws(laws, i, draws):
        """laws on block i of the given draws, once filled; their slots
        are free again when laws returns."""
        held = [landed.pop((k, i)) for k in draws]
        for _, fill in held:
            fill.result()
        ring = draws[0] >= 2
        worst = laws(*(rings[ring][slot, :sizes[i]] for slot, _ in held))
        free[ring] += [slot for slot, _ in held]
        refill()
        return worst

    try:
        refill()
        # trial 0's stream draws the rows, so the sample starts at 1
        sample = _octonion_sample(config, range(1, min(200, n) + 1))
        # np.maximum keeps a NaN, and an inf over finite values, as one
        # np.max over all rows does
        general = np.full(3, -np.inf)
        for i in range(nb):
            general = np.maximum(general,
                                 block_laws(_general_laws, i, (0, 1)))
        rings[0] = None
        imaginary = np.full(5, -np.inf)
        for i in range(nb):
            imaginary = np.maximum(imaginary,
                                   block_laws(_imaginary_laws, i, (2, 3, 4)))
    finally:
        pool.shutdown(cancel_futures=True)
    norm_mult, alt1, alt2 = general
    checks = [config.row("norm_multiplicativity", norm_mult),
              config.row("alternativity", (alt1, alt2))]
    checks += [config.row(name, r) for name, r in zip(
        ("moufang_adjacent", "product_expansion", "cross_norm_law",
         "double_cross", "generalized_jacobi"), imaginary)]
    return checks + [config.row("inverse_exp_power_adjoint",
                                np.concatenate(list(sample.values())))]


def _sample_draw(rng) -> tuple:
    """One trial of the octonion suite's sample, in draw order: a unit u,
    an imaginary w, then b, a and c."""
    from .octonion import random_octonions
    return (random_octonions(rng, 1, unit=True)[0],
            random_octonions(rng, 1, imaginary=True)[0],
            *random_octonions(rng, 3))


def _sample_check(u, w, b, a, c) -> dict:
    """Per-trial residuals of u u^-1 = 1, of exp(w) against its closed
    form, of u^3 = (u u) u, and of the adjointness <bA, C> = <A, conj(b) C>
    of left translations, each row a trial."""
    from .octonion import (conj, dot, exponential, inverse, left_matrix,
                           mul, power)
    one = np.eye(8)[0]
    r = np.sqrt(dot(w, w))
    expect = np.cos(r)[:, None] * one + (np.sin(r) / r)[:, None] * w
    adjoint = np.abs(dot((left_matrix(b) @ a[..., None])[..., 0], c)
                     - dot(a, (left_matrix(conj(b)) @ c[..., None])[..., 0]))
    adjoint /= np.sqrt(dot(b, b)) * np.sqrt(dot(a, a)) * np.sqrt(dot(c, c))
    return {"inverse": _max_abs(mul(u, inverse(u)) - one),
            "exponential": _max_abs(exponential(w) - expect),
            "power": _max_abs(power(u, 3) - mul(mul(u, u), u)),
            "adjoint": adjoint}


def _octonion_sample(config: RunConfig, trials) -> dict:
    """The octonion suite's sample residuals of the given trials, each
    drawn from its own trial_rng(seed, "octonion", t), in blocks of
    _SAMPLE_BLOCK trials."""
    return stack_trials(_sample_check, _sample_draw, trials,
                        _SAMPLE_BLOCK, config, "octonion")


@_suite("exterior", wedge=1e-12, hodge2=1e-11, defining=1e-11,
        interior=1e-13, musical=1e-12, interior_star=1e-11, vol_scale=1e-12,
        antisym_proj=1e-15)
def suite_exterior(config: RunConfig) -> list[dict]:
    from . import exterior as ext
    n_tr = config.n_trials(50)

    def one_trial(rng, t):
        n = int(rng.integers(3, 8))
        a_mat = rng.standard_normal((n, n))
        sym = 0.5 * (a_mat + a_mat.T)
        g = ext.Metric(np.eye(n) + 0.3 * sym / max(1.0,
                                                   np.linalg.norm(sym, 2)))
        worst = {"wedge": 0.0, "hodge2": 0.0, "defining": 0.0,
                 "interior": 0.0, "musical": 0.0, "interior_star": 0.0,
                 "vol_scale": 0.0, "antisym_proj": 0.0}
        p = int(rng.integers(1, min(3, n - 1) + 1))
        q = int(rng.integers(1, min(3, n - p) + 1))
        a = ext.random_form(rng, n, p)
        b = ext.random_form(rng, n, q)
        sc = max(a.max_abs() * b.max_abs(), 1e-30)
        worst["wedge"] = (ext.wedge(a, b)
                          - ((-1.0) ** (p * q)) * ext.wedge(b, a)).max_abs() / sc
        if p + q + 1 <= n:
            c = ext.random_form(rng, n, 1)
            assoc = (ext.wedge(ext.wedge(c, a), b)
                     - ext.wedge(c, ext.wedge(a, b))).max_abs()
            worst["wedge"] = _worst((worst["wedge"],
                                     assoc / max(sc * c.max_abs(), 1e-30)))
        hodge2, defining = [], []
        for k in range(0, n + 1):
            w = ext.random_form(rng, n, k)
            hh = ext.hodge(ext.hodge(w, g), g)
            hodge2.append((hh - ((-1.0) ** (k * (n - k))) * w).max_abs()
                          / max(w.max_abs(), 1e-30))
            al = ext.random_form(rng, n, k)
            lhs = ext.form_inner(w, al, g) * ext.volume_form(g)
            rhs = ext.wedge(w, ext.hodge(al, g))
            defining.append((lhs - rhs).max_abs()
                            / max(w.max_abs() * al.max_abs(), 1e-30))
        worst["hodge2"] = _worst(hodge2)
        worst["defining"] = _worst(defining)
        x = rng.standard_normal(n)
        a3 = ext.random_form(rng, n, min(3, n))
        worst["interior"] = ext.interior(
            x, ext.interior(x, a3)).max_abs() / max(a3.max_abs(), 1e-30)
        w1 = rng.standard_normal(n)
        worst["musical"] = np.max(np.abs(
            ext.flat(ext.sharp(w1, g), g) - w1))
        worst["interior_star"] = ext.interior_star_residual(x, a3, g) \
            / max(a3.max_abs(), 1e-30)
        cpos = float(rng.uniform(0.5, 2.0))
        v1 = ext.volume_form(ext.Metric(cpos * g.g))
        v2 = cpos ** (n / 2.0) * ext.volume_form(g)
        worst["vol_scale"] = (v1 - v2).max_abs() / v2.max_abs()
        raw = rng.standard_normal((n,) * 3)
        once = ext.antisymmetrize(raw)
        worst["antisym_proj"] = np.max(np.abs(ext.antisymmetrize(once)
                                              - once))
        return worst

    return _fold(map_trials(one_trial, n_tr, config, "exterior"), config)


@_suite("g2linear", phi0_norm=1e-13, psi0_norm=1e-13, phi_wedge_psi=1e-13,
        metric_of_phi0=1e-13, r_spectrum=1e-10, equivariance=1e-10,
        contraction_suite=1e-10, split2=1e-11, split3_recon=1e-10,
        split3_orth=1e-11, f_map=1e-11, g2_from_triple=1e-10,
        wedge_star_pack=1e-10)
def suite_g2linear(config: RunConfig) -> list[dict]:
    from . import g2linear as g2
    from .exterior import (AltTensor, Metric, form_inner, pullback,
                           volume_form, wedge)
    data0 = g2.metric_from_3form(g2.PHI0)
    id7 = Metric.euclidean(7)
    psi = g2.psi0()
    checks = [
        config.row("phi0_norm", abs(form_inner(g2.PHI0, g2.PHI0, id7) - 7.0)),
        config.row("psi0_norm", abs(form_inner(psi, psi, id7) - 7.0))]
    vol0 = volume_form(id7)
    checks.append(config.row("phi_wedge_psi",
                             (wedge(g2.PHI0, psi) - 7.0 * vol0).max_abs()))
    checks.append(config.row("metric_of_phi0", (
        np.max(np.abs(data0.g.g - np.eye(7))),
        (data0.vol - vol0).max_abs(),
        (data0.psi - psi).max_abs())))
    mat = g2.r_operator_matrix(data0)
    eig = np.sort(np.linalg.eigvalsh(0.5 * (mat + mat.T)))
    checks.append(config.row("r_spectrum", (np.max(np.abs(eig[:14] + 1.0)),
                                            np.max(np.abs(eig[14:] - 2.0)))))

    n_forms = config.n_trials(100)

    def form_trial(rng, t):
        a = g2.random_gl7(rng)
        phi = AltTensor(7, 3, pullback(g2.PHI0.comps, a))
        data = g2.metric_from_3form(phi)
        equiv = np.max(np.abs(data.g.g - a.T @ a)) / np.max(np.abs(a.T @ a))
        t_suite = _worst(g2.contraction_identity_residuals(data).values())
        beta = AltTensor(7, 2, rng.standard_normal((7, 7)))
        sp = g2.split2(beta, data)
        idem = _worst(((g2.split2(sp.part7, data).part14).max_abs(),
                       (g2.split2(sp.part14, data).part7).max_abs(),
                       (sp.part7 + sp.part14 - beta).max_abs()))
        eta = AltTensor(7, 3, rng.standard_normal((7, 7, 7)))
        s3 = g2.split3(eta, data)
        recon = (s3.part1 + s3.part7 + s3.part27 - eta).max_abs()
        ortho = _worst((abs(form_inner(s3.part1, s3.part7, data.g)),
                        abs(form_inner(s3.part1, s3.part27, data.g)),
                        abs(form_inner(s3.part7, s3.part27, data.g))))
        fmap = _worst((
            (g2.map_f(data.g.g, data) - 3.0 * data.phi).max_abs(),
            g2.map_f(sp.part14.comps, data).max_abs()))
        return {"equivariance": equiv, "contraction_suite": t_suite, "split2": idem,
                "split3_recon": recon,
                "split3_orth": ortho / max(eta.max_abs(), 1e-30),
                "f_map": fmap}

    checks += _fold(map_trials(form_trial, n_forms, config, "g2linear"),
                    config)

    n_triples = config.n_trials(1000)

    def triple_trial(rng, t):
        h1, h2, h4 = g2.random_admissible_triple(rng)
        mat = g2.g2_from_triple(h1, h2, h4)
        member = np.max(np.abs(pullback(g2.PHI0.comps, mat) - g2.PHI0.comps))
        return _worst((member, abs(np.linalg.det(mat) - 1.0)))

    checks.append(config.row("g2_from_triple", map_trials(
        triple_trial, n_triples, config, "g2linear-triples")))

    rng = trial_rng(config.seed, "g2linear-lemma", 0)
    return checks + [config.row("wedge_star_pack", (
        r for _ in range(10)
        for r in g2.wedge_star_identity_residuals(
            data0, rng.standard_normal(7), rng.standard_normal(7)).values()))]


@_suite("deform", conjugation_pullback=1e-11, composition_law=1e-10,
        isometry=1e-10, routes=1e-13, adjoint_ids=1e-12, ad_so7=1e-10,
        v6_sweep_fixed=1e-12, v6_sweep_moved=1.0)
def suite_deform(config: RunConfig) -> list[dict]:
    from . import deform as df
    from . import g2linear as g2
    from .octonion import exponential, power
    data0 = g2.metric_from_3form(g2.PHI0)
    n = config.n_trials(100)
    checks = [config.row(key, values) for key, values in stack_trials(
        lambda *rows: _deform_check(data0, *rows), _deform_draw, range(n),
        _DEFORM_BLOCK, config, "deform").items()]
    # fixed-product sweep: sigma_{V^3}(phi0) = phi0 exactly when V^3 real
    fixed, moved = [], []
    for theta, fixes in ((0.0, True), (np.pi / 3, True), (np.pi / 2, False),
                         (2 * np.pi / 3, True), (np.pi, True)):
        vv = exponential(theta * np.eye(8)[1])
        r = (df.sigma(power(vv, 3), data0) - g2.PHI0).max_abs()
        (fixed if fixes else moved).append(r)
    # the smallest move as a negated max, so a non-finite move fails too
    least_move = -_worst(-r for r in moved)
    return checks + [config.row("v6_sweep_fixed", fixed),
                     config.row("v6_sweep_moved", 1.0 / least_move)]


def _deform_draw(rng) -> tuple:
    """One trial of the deform suite, in draw order: units v and u, the
    dense components of a positive 3-form, then a and b."""
    from .g2linear import random_positive_3form
    from .octonion import random_octonions
    v, u = random_octonions(rng, 2, unit=True)
    return (v, u, random_positive_3form(rng).comps, *random_octonions(rng, 2))


def _deform_check(data0, v, u, phi, a, b) -> dict:
    """Per-trial residuals of the deform suite, each row a trial: the four
    G2 rows one trial at a time, as sigma and metric_from_3form take one
    form, then the product routes and adjoint identities stacked."""
    from . import deform as df
    from . import g2linear as g2
    from .octonion import dot, inverse, mul
    g2_rows = []
    for vt, ut, phit in zip(v, u, phi):
        dp = g2.metric_from_3form(phit)
        iso = np.max(np.abs(g2.metric_from_3form(df.sigma(vt, dp)).g.g
                            - dp.g.g)) / np.max(np.abs(dp.g.g))
        m = df.ad_matrix7(vt, data0)
        g2_rows.append((df.conjugation_pullback_residual(vt, data0),
                        df.composition_residual(ut, vt, data0), iso,
                        _worst((np.max(np.abs(m.T @ m - np.eye(7))),
                                abs(np.linalg.det(m) - 1.0)))))
    pullback, composition, isometry, so7 = np.array(g2_rows).T
    routes = df.deformed_mul(a, b, v) - mul(mul(a, v), mul(inverse(v), b))
    scale = np.maximum(np.sqrt(dot(a, a)) * np.sqrt(dot(b, b)), 1e-30)
    # np.max keeps a NaN of any identity
    adjoint = np.max(np.stack(list(
        df.adjoint_product_residuals(v, a, b).values())), axis=0)
    return {"conjugation_pullback": pullback, "composition_law": composition,
            "isometry": isometry, "routes": _max_abs(routes) / scale,
            "adjoint_ids": adjoint / scale, "ad_so7": so7}


@_suite("flat-loop", linear=1e-12, commutative=1e-12, associative=1e-12,
        units=1e-12)
def suite_flat_loop(config: RunConfig) -> list[dict]:
    from .connection import flat_chart, loop_product
    n, h = 4, 1e-2
    chart = flat_chart(n)

    def draw(rng, t):
        e = rng.uniform(-0.5, 0.5, n)
        return np.vstack([e, e + rng.uniform(-0.5, 0.5, (3, n))])

    e, x, y, z = np.stack(map_trials(draw, config.n_trials(100), config,
                                     "flat-loop"), axis=1)
    # the seven products of every trial in two batched calls: those of
    # the trial points, then those of the first products
    xy, yx, yz, xe, ey = np.split(loop_product(
        chart, np.tile(e, (5, 1)), np.concatenate([x, y, y, x, e]),
        np.concatenate([y, x, z, e, y]), h), 5)
    xy_z, x_yz = np.split(loop_product(
        chart, np.tile(e, (2, 1)), np.concatenate([xy, x]),
        np.concatenate([z, yz]), h), 2)
    return [config.row(key, np.max(np.abs(d), axis=1)) for key, d in (
        ("linear", xy - (x + y - e)), ("commutative", xy - yx),
        ("associative", xy_z - x_yz),
        ("units", np.concatenate([xe - x, ey - y], axis=1)))]


# cs_table_floor is the noise floor of the cs_table_decreasing row, whose
# own 0.5 only separates its 0/1 verdict
@_suite("akivis", cs_r1_at_h=0.05, cs_r1_rate=1.0 / 1.8, cs_r2_at_h=0.05,
        cs_table_floor=1e-8, torsionless_alpha=0.05,
        torsionless_alpha_rate=1.0 / 1.8, torsionless_r2=1e-3,
        integrator_order_low=1.0)
def suite_akivis(config: RunConfig) -> list[dict]:
    from .connection import (akivis_check, cartan_schouten_chart, exp_map,
                             sphere2_chart)
    h_list = (1e-2, 5e-3, 2.5e-3)
    rep = akivis_check(cartan_schouten_chart(0.0), np.zeros(7), h_list,
                       1.0 / 16)
    checks = [config.row("cs_r1_at_h", rep["r1"][0]),
              config.row("cs_r1_rate",
                         rep["r1"][1] / _worst((rep["r1"][0], 1e-300))),
              config.row("cs_r2_at_h", rep["r2"][0])]
    # the three-step table decreases down to the solver noise floor
    floor = config.pinned["cs_table_floor"]
    table_ok = all(rep["r1"][i + 1] <= _worst((rep["r1"][i], floor))
                   and rep["r2"][i + 1] <= _worst((rep["r2"][i], floor))
                   for i in range(len(h_list) - 1))
    checks.append(_check("cs_table_decreasing", 0.0 if table_ok else 1.0,
                         0.5))
    sp = sphere2_chart()
    rep_s = akivis_check(sp, np.array([1.2, 0.3]), h_list[:2], 1.0 / 16)
    checks += [config.row("torsionless_alpha", rep_s["alpha_norm"][0]),
               config.row("torsionless_alpha_rate",
                          rep_s["alpha_norm"][1]
                          / _worst((rep_s["alpha_norm"][0], 1e-300))),
               config.row("torsionless_r2", rep_s["r2"][0])]
    # integrator order on the sphere oracle
    x0 = np.array([1.1, 0.4])
    v0 = np.array([0.3, 0.5])

    def endpoint_error(h):
        end = exp_map(sp, x0, v0, h)
        def embed(t, p):
            return np.array([np.sin(t) * np.cos(p),
                             np.sin(t) * np.sin(p), np.cos(t)])
        eth = np.array([np.cos(x0[0]) * np.cos(x0[1]),
                        np.cos(x0[0]) * np.sin(x0[1]), -np.sin(x0[0])])
        eph = np.array([-np.sin(x0[0]) * np.sin(x0[1]),
                        np.sin(x0[0]) * np.cos(x0[1]), 0.0])
        vec = v0[0] * eth + v0[1] * eph
        s = np.linalg.norm(vec)
        exact = np.cos(s) * embed(*x0) + np.sin(s) * vec / s
        return np.linalg.norm(embed(*end) - exact)

    errs = [endpoint_error(h) for h in h_list]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    return checks + [config.row("integrator_order_low",
                                (4.5 - o for o in orders))]


@_suite("cartan", self_duality=1e-12, ch_beta_closed_form=1e-12,
        family_points=1e-12, cross_module_contractions=1e-12, fit_ratio=0.05,
        fit_alpha_param0=0.05)
def suite_cartan(config: RunConfig) -> list[dict]:
    from . import cartan as cs
    from .exterior import antisymmetrize
    from .g2linear import psi0
    from .octonion import C3
    checks = [
        config.row("self_duality",
                   (r for k in (1.0, 2.0)
                    for r in cs.self_duality_residuals(k).values())),
        config.row("ch_beta_closed_form",
                   (cs.ch_beta_residual(a) for a in (0.0, 0.25, 1.0)))]
    _, r0 = cs.cs_tensors(0.0)
    _, r1 = cs.cs_tensors(1.0)
    sh, _ = cs.cs_tensors(0.5)
    checks.append(config.row("family_points", (
        np.max(np.abs(r0)), np.max(np.abs(r1 - antisymmetrize(r1))),
        np.max(np.abs(sh)))))
    psi = psi0().comps
    checks.append(config.row("cross_module_contractions", (
        np.max(np.abs(np.einsum("ijk,ajk->ia", C3, C3) - 6.0 * np.eye(7))),
        np.max(np.abs(np.einsum("ijkl,ajkl->ia", psi, psi)
                      - 24.0 * np.eye(7))))))
    # chart fit ratio between two family parameters
    from .connection import cartan_schouten_chart, fit_alpha
    reps = {a: fit_alpha(cartan_schouten_chart(a), np.zeros(7), 1e-2,
                         1.0 / 16)
            for a in (0.0, 0.25)}
    mask = np.abs(C3) > 0.5
    ratio = reps[0.25][mask] / reps[0.0][mask]
    expect = (1.0 - 2 * 0.25) / (1.0 - 2 * 0.0)
    return checks + [
        config.row("fit_ratio",
                   float(np.max(np.abs(ratio - expect))) / expect),
        config.row("fit_alpha_param0",
                   float(np.max(np.abs(2 * reps[0.0] - C3))))]


@_suite("g2field", constant_torsion=1e-9, torsion_law=1e-6,
        torsion_law_rate=0.4, defining_rate=0.4, torsion_split=1e-10,
        vector_part_only=1e-7, leibniz_defect=1e-6, d_metric_compat=1e-6,
        closedness_constant=1e-10, closedness_warp_signal=1.0)
def suite_g2field(config: RunConfig) -> list[dict]:
    from . import field as fld
    from .connection import central_diff
    from .g2linear import split3
    from .exterior import AltTensor
    x = np.array([0.05, -0.1, 0.2, 0.0, 0.1, -0.05, 0.15])
    cf = fld.constant_field()
    flat = fld.g2_torsion(cf, x, 1e-3)
    checks = [config.row("constant_torsion", np.max(np.abs(flat.T)))]
    sw = fld.sigma_warp_field()
    res1 = fld.torsion_law_residual(cf, sw, sw.v_at, x, 1e-3)
    res2 = fld.torsion_law_residual(cf, sw, sw.v_at, x, 5e-4)
    checks += [config.row("torsion_law", res1),
               config.row("torsion_law_rate", res2 / _worst((res1, 1e-300)))]
    pw = fld.pullback_warp_field(strength=0.05)
    xs = 0.5 * x
    ta = fld.g2_torsion(pw, xs, 1e-3)
    tb = fld.g2_torsion(pw, xs, 5e-4)
    checks.append(config.row("defining_rate",
                             tb.defining_residual
                             / _worst((ta.defining_residual, 1e-300))))
    data = sw.data(x)
    gi = data.g.g_inv
    warped = fld.g2_torsion(sw, x, 1e-3)
    parts = [warped.t1, warped.t27, warped.t7, warped.t14]
    ortho = _worst(abs(np.einsum("ij,kl,ik,jl->", parts[i], parts[j], gi, gi))
                   for i in range(4) for j in range(i + 1, 4))
    split_sum = np.max(np.abs(sum(parts) - warped.T))
    checks.append(config.row("torsion_split", (ortho, split_sum)))
    # the field derivatives below are checked along all seven axes
    s3 = [split3(AltTensor(7, 3, row), data)
          for row in fld.nabla_phi(sw, x, 1e-3)]
    checks.append(config.row("vector_part_only",
                             [r for s in s3
                              for r in (abs(s.f), np.max(np.abs(s.h0)))]))
    rng = trial_rng(config.seed, "g2field", 0)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    defect, pred = fld.leibniz_defect(sw, x, a, b, 1e-3)
    checks.append(config.row("leibniz_defect",
                             float(np.max(np.abs(defect - pred)))))
    # metric compatibility of D on the warp field
    afield = lambda y: a + 0.3 * y[1] * np.eye(8)[3]
    bfield = lambda y: b + 0.2 * y[0] * np.eye(8)[5]
    da = fld.octonion_covariant_derivative(sw, x, afield, 1e-3)
    db = fld.octonion_covariant_derivative(sw, x, bfield, 1e-3)

    def inner(u, v, dat):
        return u[0] * v[0] + u[1:] @ (dat.g.g @ v[1:])

    lhs = central_diff(lambda y: inner(afield(y), bfield(y), sw.data(y)),
                       x, 1e-3)
    checks.append(config.row("d_metric_compat", [
        abs(lhs[m] - inner(da[m], bfield(x), data)
            - inner(afield(x), db[m], data)) for m in range(7)]))
    # closedness probes across the catalog
    dphi0, dpsi0_ = fld.closedness_probe(cf, x, 1e-3)
    dphi1, dpsi1 = fld.closedness_probe(sw, x, 1e-3)
    floor = _worst((dphi0, dpsi0_, 1e-12))
    return checks + [config.row("closedness_constant", (dphi0, dpsi0_)),
                     config.row("closedness_warp_signal",
                                floor * 10.0 / _worst((dphi1, dpsi1)))]


@_suite("clifford", small_models=1e-14, clifford_identity=1e-13,
        associativity=1e-12, reversion=1e-13, orth_anticommutator=1e-13,
        kappa_residual=1e-13, j_isometry=1e-12, j_equivariance=1e-12,
        octonion_nonassoc_contrast=10.0, spinor_sigma_composition=1e-10)
def suite_clifford(config: RunConfig) -> list[dict]:
    """Small-signature models, then seven rows over --trials trials of
    Cl(0, 7) algebra, left translations and the spinor map j, stacked in
    blocks of _CLIFFORD_BLOCK trials, then the octonion contrast and the
    sigma composition of spinors."""
    from . import clifford as cl
    from . import deform as df
    from . import g2linear as g2
    from . import octonion as oc
    from .octonion import mul
    # small-signature structural checks
    e1 = cl.vector(0, 1, [1.0])
    c_model = _max_abs(cl.clifford_mul(0, 1, e1, e1) + cl.scalar(0, 1))
    a1, a2 = cl.vector(0, 2, [[1, 0], [0, 1]])
    e12 = cl.clifford_mul(0, 2, a1, a2)
    quat = _worst((_max_abs(cl.clifford_mul(0, 2, e12, e12)
                            + cl.scalar(0, 2)),
                   _max_abs(cl.clifford_mul(0, 2, a2, e12) - a1),
                   _max_abs(cl.clifford_mul(0, 2, e12, a1) - a2)))
    checks = [config.row("small_models", (c_model, quat))]
    n = config.n_trials(100)
    checks += [config.row(key, values) for key, values
               in _clifford_trials(config, range(n)).items()]
    # octonion associator is generically nonzero (paired contrast)
    rng = trial_rng(config.seed, "clifford-contrast", 0)
    a, b, c = oc.random_octonions(rng, 3)
    assoc_oct = np.max(np.abs(oc.associator(a, b, c)))
    checks.append(config.row("octonion_nonassoc_contrast", 1.0 / assoc_oct))
    data0 = g2.metric_from_3form(g2.PHI0)
    u, w = oc.random_octonions(rng, 2, unit=True)
    comp = (df.sigma(u, g2.metric_from_3form(df.sigma(w, data0)))
            - df.sigma(mul(u, w), data0)).max_abs()
    return checks + [config.row("spinor_sigma_composition", comp)]


def _clifford_draw(rng) -> tuple:
    """One trial of the clifford suite, in draw order: u and v in R^7;
    x, y and z in Cl(0, 7); the pair q1, q2 that the check makes
    orthonormal; imaginary ka and kb; a unit reference xi; spinors n1
    and n2; an octonion big_v."""
    from .octonion import random_octonions
    normal = rng.standard_normal
    return (normal(7), normal(7), normal(128), normal(128), normal(128),
            normal(7), normal(7),
            random_octonions(rng, 1, imaginary=True)[0],
            random_octonions(rng, 1, imaginary=True)[0],
            random_octonions(rng, 1, unit=True)[0],
            normal(8), normal(8), random_octonions(rng, 1)[0])


def _clifford_check(u, v, x, y, z, q1, q2, ka, kb, xi, n1, n2,
                    big_v) -> dict:
    """Per-trial residuals of the clifford suite's trial rows, each row a
    trial."""
    from . import clifford as cl
    from .deform import deformed_mul
    from .octonion import dot, left_matrix
    def mul(a, b):
        return cl.clifford_mul(0, 7, a, b)

    cu, cv = cl.vector(0, 7, u), cl.vector(0, 7, v)
    ident = _max_abs(mul(cu, cv) + mul(cv, cu)
                     - cl.scalar(0, 7, 2 * cl.vector_inner(0, 7, u, v)))
    xy = mul(x, y)
    assoc = _max_abs(mul(xy, z) - mul(x, mul(y, z))) \
        / (_max_abs(x) * _max_abs(y) * _max_abs(z))
    rev = _max_abs(cl.reversion(xy)
                   - mul(cl.reversion(y), cl.reversion(x))) \
        / (_max_abs(x) * _max_abs(y))
    # orthonormal imaginary pair: anticommutator of L-matrices vanishes
    q1 = q1 / np.sqrt(dot(q1, q1))[:, None]
    q2 = q2 - dot(q2, q1)[:, None] * q1
    q2 = q2 / np.sqrt(dot(q2, q2))[:, None]
    l1, l2 = (left_matrix(np.pad(q, ((0, 0), (1, 0)))) for q in (q1, q2))
    anticomm = np.max(np.abs(l1 @ l2 + l2 @ l1), axis=(-2, -1))
    # j map and composition
    j1 = cl.j_map(n1, xi)
    equi = _max_abs(cl.j_map(cl.clifford_action(big_v, n1), xi)
                    - deformed_mul(big_v, j1, xi))
    return {"clifford_identity": ident, "associativity": assoc,
            "reversion": rev, "orth_anticommutator": anticomm,
            "kappa_residual": cl.enveloping_residual(ka, kb),
            "j_isometry": np.abs(dot(n1, n2) - dot(j1, cl.j_map(n2, xi))),
            "j_equivariance": equi}


def _clifford_trials(config: RunConfig, trials) -> dict:
    """The clifford suite's per-trial residuals of the given trials, in
    blocks of _CLIFFORD_BLOCK trials."""
    return stack_trials(_clifford_check, _clifford_draw, trials,
                        _CLIFFORD_BLOCK, config, "clifford")


def run_suite(name: str, config: RunConfig) -> dict:
    """Run a registered suite and assemble its report.

    A --tol key the suite does not declare is refused before it runs;
    the others are laid over its pinned tolerances.
    """
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; have {sorted(SUITES)}")
    fn, pinned = SUITES[name]
    unknown = sorted(set(config.tolerances) - set(pinned))
    if unknown:
        raise BadConfig(f"suite {name!r} declares no tolerance named "
                        f"{', '.join(unknown)}")
    config.pinned = {key: float(config.tolerances.get(key, tol))
                     for key, tol in pinned.items()}
    start = time.monotonic()
    checks = fn(config)
    wall = time.monotonic() - start
    return {
        "schema": SCHEMA_VERSION,
        "suite": name,
        "seed": config.seed,
        "trials": config.trials,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "wall_time_s": wall,
    }


# -- table emission -----------------------------------------------------------

def emit_tables(out_dir) -> list[str]:
    """Write the octonion, resolved rank-4, and Cl(p,q) tables as JSON."""
    import json
    from . import clifford as cl
    from . import octonion as oc
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        table = oc.basis_table()
        path = out_dir / "octonion_table.json"
        path.write_text(json.dumps({
            "basis": "1,e1..e7",
            "entries": [[{"index": k, "sign": s} for (k, s) in row]
                        for row in table],
        }, indent=1, sort_keys=True))
        written.append(str(path))
        c4 = oc.C4
        nz = [{"ijkl": [int(a) + 1 for a in idx], "value": float(c4[idx])}
              for idx in zip(*np.nonzero(c4))]
        path = out_dir / "c4_table.json"
        path.write_text(json.dumps({
            "convention": "associator [e_j, e_k, e_l] = 2 c_ijkl e_i, "
                          "resolved by brute force over the product table; "
                          "the model 4-form's components are the negative",
            "entries": nz,
        }, indent=1, sort_keys=True))
        written.append(str(path))
        cls = {}
        for p in range(0, 5):
            for q in range(0, 5 - p):
                cls[f"cl_{p}_{q}"] = cl.basis_mul_table(p, q)
        path = out_dir / "clifford_tables.json"
        path.write_text(json.dumps(cls, sort_keys=True))
        written.append(str(path))
        return written
    except OSError as exc:
        raise IoError(str(exc)) from exc


# -- entry point --------------------------------------------------------------

def _parse_tol(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise BadConfig(f"--tol expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise BadConfig(f"bad tolerance value in {item!r}") from exc
    return out


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="g2lab",
        description="randomized verification suites for the octonion / "
                    "G2-structure / geodesic-loop laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("verify", help="run a verification suite")
    run.add_argument("suite")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--tol", action="append", metavar="key=val")
    run.add_argument("--out", default=None)
    tab = sub.add_parser("tables", help="emit multiplication tables")
    tab.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    import json
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            config = RunConfig(seed=args.seed, trials=args.trials,
                               tolerances=_parse_tol(args.tol))
            report = run_suite(args.suite, config)
            payload = json.dumps(report, indent=1, sort_keys=True)
            if args.out:
                try:
                    Path(args.out).write_text(payload + "\n")
                except OSError as exc:
                    raise IoError(str(exc)) from exc
            else:
                print(payload)
            for c in report["checks"]:
                status = "pass" if c["pass"] else "FAIL"
                print(f"[{status}] {c['name']}: "
                      f"{c['max_residual']:.3e} <= {c['tolerance']:.1e}",
                      file=sys.stderr)
            return 0 if report["pass"] else 1
        if args.command == "tables":
            for path in emit_tables(args.out):
                print(path)
            return 0
    except (UnknownSuite, BadConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except G2LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
