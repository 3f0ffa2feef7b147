"""Antisymmetric tensors: wedge, interior, musical maps, Hodge star."""

from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
import pytest

from g2lab import exterior as ext
from g2lab.errors import DegreeOverflow, DegreeUnderflow, SingularMetric
from g2lab.exterior import AltTensor, Metric


def _spd(rng, n, scale=0.3):
    a = rng.standard_normal((n, n))
    sym = 0.5 * (a + a.T)
    return Metric(np.eye(n) + scale * sym / max(1.0, np.linalg.norm(sym, 2)))


def _close(a, b, tol):
    """Every component of a - b within tol."""
    return (a - b).max_abs() <= tol


def test_basis_wedge():
    got = ext.wedge(AltTensor.basis_form(7, (0,)), AltTensor.basis_form(7, (1,)))
    assert got.comps[0, 1] == 1.0
    assert got.comps[1, 0] == -1.0
    assert _close(got, AltTensor.basis_form(7, (0, 1)), 0)


def test_wedge_self_vanishes():
    rng = np.random.default_rng(0)
    a = AltTensor(7, 3, rng.standard_normal((7, 7, 7)))
    assert ext.wedge(a, a).max_abs() < 1e-13 * a.max_abs() ** 2


def test_degree_overflow():
    a = AltTensor(3, 2, np.random.default_rng(1).standard_normal((3, 3)))
    with pytest.raises(DegreeOverflow):
        ext.wedge(a, a)


def test_interior_examples():
    e1 = np.eye(7)[0]
    assert _close(ext.interior(e1, AltTensor.basis_form(7, (0, 1))),
                  AltTensor.basis_form(7, (1,)), 0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(7)
    a = AltTensor(7, 4, rng.standard_normal((7,) * 4))
    assert ext.interior(x, ext.interior(x, a)).max_abs() < 1e-12
    with pytest.raises(DegreeUnderflow):
        ext.interior(x, AltTensor(7, 0, 1.0))


def test_antisymmetrization_projection():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((6, 6, 6))
    once = ext.antisymmetrize(raw)
    assert np.array_equal(ext.antisymmetrize(once), once)


def test_musical_isomorphisms():
    rng = np.random.default_rng(4)
    g = _spd(rng, 5)
    assert np.allclose(ext.flat(np.eye(5)[0], Metric.euclidean(5)),
                       np.eye(5)[0])
    x = rng.standard_normal(5)
    assert np.max(np.abs(ext.sharp(ext.flat(x, g), g) - x)) < 1e-13
    a, b = rng.standard_normal((2, 5))
    lhs = ext.sharp(a, g) @ (g.g @ ext.sharp(b, g))
    rhs = a @ (g.g_inv @ b)
    assert abs(lhs - rhs) < 1e-13


def test_hodge_involution_and_defining_identity():
    rng = np.random.default_rng(5)
    for n in (3, 4, 7):
        g = _spd(rng, n)
        for k in range(n + 1):
            a = AltTensor(n, k, rng.standard_normal((n,) * k))
            hh = ext.hodge(ext.hodge(a, g), g)
            assert (hh - ((-1.0) ** (k * (n - k))) * a).max_abs() \
                < 1e-12 * max(a.max_abs(), 1.0)
            w = AltTensor(n, k, rng.standard_normal((n,) * k))
            lhs = ext.form_inner(w, a, g) * ext.volume_form(g).comps
            rhs = ext.wedge(w, ext.hodge(a, g)).comps
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(a.max_abs()
                                                           * w.max_abs(), 1.0)


def test_hodge_scalar_gives_volume():
    rng = np.random.default_rng(6)
    g = _spd(rng, 4)
    got = ext.hodge(AltTensor(4, 0, 1.0), g)
    assert _close(got, ext.volume_form(g), 1e-14)


def test_orientation_flag():
    g = Metric.euclidean(3)
    a = AltTensor.basis_form(3, (0,))
    plus = ext.hodge(a, g, +1)
    minus = ext.hodge(a, g, -1)
    assert (plus + minus).max_abs() == 0.0


def test_volume_scaling():
    rng = np.random.default_rng(7)
    g = _spd(rng, 6)
    c = 1.7
    v1 = ext.volume_form(Metric(c * g.g))
    v2 = c ** 3.0 * ext.volume_form(g)
    assert (v1 - v2).max_abs() < 1e-12 * v2.max_abs()


def test_interior_star_identity():
    rng = np.random.default_rng(8)
    g = _spd(rng, 7)
    assert ext.interior_star_residual(np.eye(7)[0],
                                   AltTensor.basis_form(7, (0, 1)),
                                   Metric.euclidean(7)) < 1e-14
    x = rng.standard_normal(7)
    a = AltTensor(7, 3, rng.standard_normal((7,) * 3))
    assert ext.interior_star_residual(x, a, g) < 1e-12
    # X . vol = star(X-flat)
    lhs = ext.interior(x, ext.volume_form(g))
    rhs = ext.hodge(AltTensor(7, 1, ext.flat(x, g)), g)
    assert (lhs - rhs).max_abs() < 1e-12


def test_wedge_graded_commutative_and_associative():
    rng = np.random.default_rng(9)
    for (p, q) in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 4)):
        a = AltTensor(7, p, rng.standard_normal((7,) * p))
        b = AltTensor(7, q, rng.standard_normal((7,) * q))
        sign = (-1.0) ** (p * q)
        assert (ext.wedge(a, b) - sign * ext.wedge(b, a)).max_abs() < 1e-12
    a = AltTensor(7, 1, rng.standard_normal(7))
    b = AltTensor(7, 2, rng.standard_normal((7, 7)))
    c = AltTensor(7, 2, rng.standard_normal((7, 7)))
    lhs = ext.wedge(ext.wedge(a, b), c)
    rhs = ext.wedge(a, ext.wedge(b, c))
    assert (lhs - rhs).max_abs() < 1e-12 * max(lhs.max_abs(), 1.0)


def test_metric_validation():
    with pytest.raises(SingularMetric):
        Metric(np.diag([1.0, -1.0]))
    with pytest.raises(SingularMetric):
        Metric(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_metric_fails_closed(bad):
    for g in (np.diag([1.0, bad, 1.0]), np.full((3, 3), bad)):
        with np.errstate(all="ignore"), pytest.raises(SingularMetric):
            Metric(g)


def _antisymmetrize_oracle(t):
    # mean of the k! signed transposes, the sign read off a determinant
    k = t.ndim
    out = np.zeros_like(t)
    for p in permutations(range(k)):
        out += round(np.linalg.det(np.eye(k)[list(p)])) * np.transpose(t, p)
    return out / factorial(k)


def test_antisymmetrize_matches_transpose_oracle():
    rng = np.random.default_rng(10)
    for k in range(2, 6):
        raw = rng.standard_normal((6,) * k)
        got = ext.antisymmetrize(raw)
        assert np.max(np.abs(got - _antisymmetrize_oracle(raw))) < 1e-15


def test_antisymmetrize_bitwise_idempotent():
    rng = np.random.default_rng(11)
    for k in (4, 7):
        once = ext.antisymmetrize(rng.standard_normal((7,) * k))
        assert np.array_equal(ext.antisymmetrize(once), once)


def test_basis_form_carries_sorting_sign():
    got = AltTensor.basis_form(7, (4, 1, 6))
    assert got.comps[4, 1, 6] == 1.0
    assert got.comps[1, 4, 6] == -1.0
    assert (got + AltTensor.basis_form(7, (1, 4, 6))).max_abs() == 0.0
    # one sorted component, carrying the sign of the sorting permutation
    rank = list(combinations(range(7), 3)).index((1, 4, 6))
    for indices, sign in (((1, 4, 6), 1.0), ((4, 1, 6), -1.0),
                          ((6, 4, 1), -1.0), ((4, 6, 1), 1.0)):
        vals = AltTensor.basis_form(7, indices).vals
        assert vals[rank] == sign and np.count_nonzero(vals) == 1
    assert AltTensor.basis_form(7, (2, 5, 2)).max_abs() == 0.0
    with pytest.raises(ValueError):
        AltTensor.basis_form(7, (0, 7))


def test_levi_civita_symbol_refuses_dim8():
    with pytest.raises(ValueError):
        ext.levi_civita_symbol(8)


def test_hodge_dim8():
    g = Metric.euclidean(8)
    got = ext.hodge(AltTensor.basis_form(8, (0, 1)), g)
    assert (got - AltTensor.basis_form(8, tuple(range(2, 8)))).max_abs() == 0.0
    rng = np.random.default_rng(12)
    g = _spd(rng, 8)
    for k in range(2, 7):
        a = AltTensor(8, k, rng.standard_normal((8,) * k))
        hh = ext.hodge(ext.hodge(a, g), g)
        assert (hh - ((-1.0) ** (k * (8 - k))) * a).max_abs() \
            < 1e-12 * a.max_abs()


# -- sorted storage ------------------------------------------------------------

def _dense_wedge_sorted(a, b):
    """Sorted components of the dense wedge product: a scalar times the
    other form, else C(p+q, p) antisymmetrize(a (x) b), the mean of the
    (p+q)! signed orderings of each sorted tuple, with the outer product
    read at those orderings instead of materialised (it has 8^8 entries
    at n = 8)."""
    n, p, k = a.n, a.k, a.k + b.k
    if p == 0 or k == p:
        return a.vals * b.vals
    perms = np.array(list(permutations(range(k))),
                     dtype=np.intp).reshape(factorial(k), k)
    signs = np.round(np.linalg.det(np.eye(k)[perms]))
    tuples = np.array(list(combinations(range(n), k)),
                      dtype=np.intp).reshape(comb(n, k), k)
    idx = tuples[:, perms]
    outer = (a.comps[tuple(np.moveaxis(idx[..., :p], -1, 0))]
             * b.comps[tuple(np.moveaxis(idx[..., p:], -1, 0))])
    # a C-ordered row sum is pairwise, as in the dense code; a strided
    # one is sequential and loses about three digits at k = 7
    terms = np.ascontiguousarray(outer * signs)
    return comb(k, p) * terms.sum(axis=-1) / factorial(k)


def test_wedge_matches_dense_antisymmetrized_outer_product():
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        for p in range(n + 1):
            for q in range(n - p + 1):
                a = AltTensor._from_vals(n, p, rng.standard_normal(comb(n, p)))
                b = AltTensor._from_vals(n, q, rng.standard_normal(comb(n, q)))
                got = ext.wedge(a, b).vals
                ref = _dense_wedge_sorted(a, b)
                scale = np.linalg.norm(a.vals) * np.linalg.norm(b.vals)
                assert np.max(np.abs(got - ref)) <= 1e-15 * scale, (n, p, q)


def test_sorted_operators_bitwise_match_dense():
    rng = np.random.default_rng(14)
    for n, k in ((3, 0), (5, 1), (7, 3), (7, 5), (8, 4)):
        a = AltTensor(n, k, rng.standard_normal((n,) * k))
        b = AltTensor(n, k, rng.standard_normal((n,) * k))
        assert np.array_equal((a + b).comps, a.comps + b.comps)
        assert np.array_equal((a - b).comps, a.comps - b.comps)
        assert np.array_equal((a * 1.7).comps, a.comps * 1.7)
        assert np.array_equal((-a).comps, -a.comps)
        assert a.max_abs() == float(np.max(np.abs(a.comps)))


def test_lazy_comps_is_the_scatter_of_vals():
    rng = np.random.default_rng(15)
    a = AltTensor(7, 3, rng.standard_normal((7,) * 3))
    b = AltTensor(7, 2, rng.standard_normal((7, 7)))
    w = ext.wedge(a, b)
    assert w._comps is None
    dense = w.comps
    assert np.array_equal(dense, ext._scatter(w.vals, 7, 5))
    assert w.comps is dense and not dense.flags.writeable
    assert np.array_equal(a.comps, ext.antisymmetrize(a.comps))
    # 0- and 1-forms are their own sorted components, copied
    v = rng.standard_normal(7)
    one = AltTensor(7, 1, v)
    assert np.array_equal(one.vals, v) and one.vals is not v
    assert AltTensor(7, 0, 2.5).vals.tolist() == [2.5]


def test_interior_matches_dense_contraction():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        for k in range(1, n + 1):
            a = AltTensor._from_vals(n, k, rng.standard_normal(comb(n, k)))
            x = rng.standard_normal(n)
            got = ext.interior(x, a)
            assert got.k == k - 1
            if k < n:
                err = np.max(np.abs(got.comps
                                    - np.tensordot(x, a.comps, axes=(0, 0))))
            else:
                # x _| c e^{0..n-1} holds (-1)^i x^i c at the complement of
                # i, and the sorted (n-1)-tuples list those complements in
                # reverse order; the dense n^n array is never built
                ref = ((-1.0) ** np.arange(n) * x * a.vals[0])[::-1]
                err = np.max(np.abs(got.vals - ref))
            assert err <= 1e-15 * np.linalg.norm(x) * a.max_abs(), (n, k)


def test_interior_builds_no_dense_array():
    import tracemalloc
    rng = np.random.default_rng(18)
    a = ext.wedge(AltTensor(7, 2, rng.standard_normal((7, 7))),
                  AltTensor(7, 3, rng.standard_normal((7,) * 3)))
    x = rng.standard_normal(7)
    ext.interior(x, a)  # builds the cached shuffle table
    tracemalloc.start()
    try:
        ext.interior(x, a).max_abs()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a._comps is None
    # the dense 4-form result alone would be 7^4 doubles, 19 kB
    assert peak < 8 * 7 ** 4


# -- the one raise -------------------------------------------------------------

def _cond100(rng, n):
    """A random metric whose eigenvalues span 0.1 .. 10, condition 100."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.permutation(np.geomspace(0.1, 10.0, n))
    g = (q * lam) @ q.T
    return Metric(0.5 * (g + g.T))


def _dense_raised(a, g):
    """Every index of the dense array raised by g^-1, read at the sorted
    tuples.  At k = n the dense array would hold 8^8 entries at n = 8, so
    the one component a^{1..n} = a_{1..n} / det g is taken instead."""
    n, k = a.n, a.k
    if k == n:
        return a.vals / np.linalg.det(g.g)
    comps = a.comps
    for _ in range(k):
        comps = np.tensordot(comps, g.g_inv, axes=(0, 0))
    return np.array([comps[i] for i in combinations(range(n), k)])


def _complement_sign(i, n):
    perm = list(i) + [j for j in range(n) if j not in i]
    return np.round(np.linalg.det(np.eye(n)[perm]))


def test_hodge_and_form_inner_match_dense_raise():
    rng = np.random.default_rng(19)
    worst = 0.0
    for n in range(2, 9):
        g = _cond100(rng, n)
        for k in range(n + 1):
            a = AltTensor._from_vals(n, k, rng.standard_normal(comb(n, k)))
            b = AltTensor._from_vals(n, k, rng.standard_normal(comb(n, k)))
            raised = _dense_raised(a, g)
            inner = b.vals @ raised
            got = ext.form_inner(b, a, g)
            err = abs(got - inner) / np.linalg.norm(b.vals * raised)
            signs = np.array([_complement_sign(i, n)
                              for i in combinations(range(n), k)])
            for orientation in (+1, -1):
                ref = (orientation * g.sqrt_det * signs * raised)[::-1]
                star = ext.hodge(a, g, orientation)
                assert star.k == n - k
                err = max(err, np.max(np.abs(star.vals - ref))
                          / np.max(np.abs(ref)))
            assert err <= 1e-13, (n, k, err)
            worst = max(worst, err)
    assert worst > 0.0


def test_hodge_and_form_inner_stay_below_half_degree_arrays():
    import tracemalloc
    rng = np.random.default_rng(20)
    cases = [(7, k) for k in range(4, 8)] + [(8, k) for k in range(5, 9)]
    forms = [(AltTensor._from_vals(n, k, rng.standard_normal(comb(n, k))),
              _cond100(rng, n)) for n, k in cases]
    for a, g in forms:  # builds the cached tables
        ext.hodge(a, g)
        ext.form_inner(a, a, g)
    tracemalloc.start()
    try:
        for a, g in forms:
            ext.hodge(a, g, -1)
            ext.form_inner(a, a, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(a._comps is None for a, _ in forms)
    # one dense 8^4 array alone would be 32 kB
    assert peak < 64_000


# -- the one dense pullback ----------------------------------------------------

def _tensordot_pullback(comps, t):
    for _ in range(comps.ndim):
        comps = np.tensordot(comps, t, axes=(0, 0))
    return comps


def _signed_zeros(rng, shape):
    """A normal draw with about a quarter of its entries +0.0 and a
    quarter -0.0."""
    comps = rng.standard_normal(shape)
    pick = rng.integers(0, 4, shape)
    comps[pick == 0] = 0.0
    comps[pick == 1] = -0.0
    return comps


def test_pullback_is_the_tensordot_loop():
    rng = np.random.default_rng(27)
    for n in range(2, 8):
        for k in range(5):
            comps = _signed_zeros(rng, (n,) * k)
            t = _signed_zeros(rng, (n, n))
            t[0, 1], t[1, 0] = 1.5, -0.5  # not symmetric
            got = ext.pullback(comps, t)
            ref = _tensordot_pullback(comps, t)
            assert got.shape == ref.shape == (n,) * k
            assert np.array_equal(got, ref), (n, k)
            assert np.array_equal(np.signbit(got), np.signbit(ref)), (n, k)


def test_pullback_of_a_3form_is_the_einsum():
    rng = np.random.default_rng(28)
    for _ in range(20):
        comps = _signed_zeros(rng, (7, 7, 7))
        t = rng.standard_normal((7, 7))
        ref = np.einsum("ijk,im,jn,kp->mnp", comps, t, t, t, optimize=True)
        assert np.array_equal(ext.pullback(comps, t), ref)


def test_pullback_keeps_the_non_finite_pattern():
    rng = np.random.default_rng(29)
    comps = _signed_zeros(rng, (7, 7, 7))
    comps[1, 2, 3] = np.inf
    t = rng.standard_normal((7, 7))
    t[1, 0] = 0.0  # inf * 0 is nan: the output mixes nan and +-inf
    with np.errstate(invalid="ignore"):
        got = ext.pullback(comps, t)
        ref = _tensordot_pullback(comps, t)
    assert np.isnan(got).any() and np.isinf(got).any()
    for test in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(test(got), test(ref))


# -- random forms --------------------------------------------------------------

@pytest.mark.parametrize("n, k", [(4, 0), (4, 1), (7, 0), (7, 1)])
def test_random_form_low_degree_is_the_dense_draw(n, k):
    dense = AltTensor(n, k, np.random.default_rng(9).standard_normal((n,) * k))
    drawn = ext.random_form(np.random.default_rng(9), n, k)
    assert (drawn.n, drawn.k) == (n, k)
    assert np.array_equal(drawn.vals, dense.vals)


@pytest.mark.parametrize("n, k", [(4, 2), (5, 3), (4, 4)])
def test_random_form_has_the_law_of_the_projected_dense_draw(n, k):
    # sqrt(k!) times each sorted component is N(0, 1), independent of the
    # others.  Over N samples the sample mean has standard deviation
    # 1/sqrt(N) and the sample variance sqrt(2/N), and over T draws a
    # correlation 1/sqrt(T); each is allowed five of those.
    draws = {"sorted": lambda rng: ext.random_form(rng, n, k),
             "dense": lambda rng: AltTensor(n, k,
                                            rng.standard_normal((n,) * k))}
    trials = 2000
    for name, draw in draws.items():
        rng = np.random.default_rng(10)
        z = np.sqrt(factorial(k)) * np.array([draw(rng).vals
                                              for _ in range(trials)])
        assert z.shape == (trials, comb(n, k)), name
        assert abs(z.mean()) <= 5 / np.sqrt(z.size), name
        assert abs(z.var() - 1.0) <= 5 * np.sqrt(2 / z.size), name
        if z.shape[1] > 1:
            corr = np.corrcoef(z, rowvar=False)
            off = corr[~np.eye(len(corr), dtype=bool)]
            assert np.max(np.abs(off)) <= 5 / np.sqrt(trials), name


def test_random_form_sizes_and_degree_range():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for k in range(n + 1):
            form = ext.random_form(rng, n, k)
            assert (form.n, form.k, form.vals.shape) == (n, k, (comb(n, k),))
    state = rng.bit_generator.state
    for k in (-1, 8):
        with pytest.raises(ValueError, match="outside"):
            AltTensor(7, k)
        with pytest.raises(ValueError, match="outside"):
            ext.random_form(rng, 7, k)
    # a refused degree draws nothing
    assert rng.bit_generator.state == state


def test_exterior_suite_draws_no_dense_form():
    import tracemalloc
    from g2lab import cli
    cli.run_suite("exterior", cli.RunConfig(seed=56, trials=5))  # warm caches
    tracemalloc.start()
    try:
        cli.run_suite("exterior", cli.RunConfig(seed=56, trials=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # seed 56 draws n = 7 in one trial, and a dense 7-form draw alone
    # would be 7^7 doubles, 6.6 MB
    assert peak < 256 * 1024
