"""Antisymmetric k-tensors over an n-dimensional fiber (n <= 8), stored
as their sorted components.

A k-form keeps its C(n, k) components w_I at the sorted index tuples
I = (i1 < ... < ik), in ``itertools.combinations`` order, as ``vals``.
The coefficient convention is w = (1/k!) w_{i1..ik} dx^{i1} ^ ... ^ dx^{ik},
that is w = sum over sorted I of w_I dx^I.  A dense (n,)*k array passed
to ``AltTensor`` is projected: each sorted component is the mean of its
k! signed orderings.  ``random_form`` draws a random form by its sorted
components directly, with the law of such a projected Gaussian draw but
none of its n^k numbers.  The dense ``comps``, with every index permutation
populated, is always the scatter of ``vals``, built on first read and
cached read-only, so it is exactly antisymmetric with exact zeros at
repeated indices.  Sums, scalings, ``max_abs``, the wedge product and the
interior product work on ``vals`` alone.  The form metric and the Hodge
star share one raise, ``_raised``, which lowers the complement above
degree n/2, so it builds no array of more than n^(n//2) entries.  It
raises through ``pullback``, the one dense pullback of the package.  This
is the only module that knows how a form is stored.

One cached table of signed permutations, ``_signed_perms``, drives every
antisymmetric index operation (antisymmetrization, basis forms, the
Levi-Civita symbol, the Hodge star) by gather and scatter, and one cached
table of signed shuffles per degree pair, ``_shuffle_table``, drives the
wedge product and, read backwards, the interior product.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, sqrt

import numpy as np

from .errors import DegreeOverflow, DegreeUnderflow, SingularMetric


def _index_rows(tuples, k: int) -> np.ndarray:
    rows = list(tuples)
    return np.array(rows, dtype=np.intp).reshape(len(rows), k)


def _flat(index_rows: np.ndarray, n: int) -> np.ndarray:
    """Row-major positions in an (n,)*k array of rows of k indices."""
    return index_rows @ (n ** np.arange(index_rows.shape[-1] - 1, -1, -1))


def _parity_signs(index_rows: np.ndarray) -> np.ndarray:
    """+-1 for rows of indices with an even or odd inversion count."""
    inversions = np.triu(index_rows[..., :, None] > index_rows[..., None, :],
                         1).sum((-2, -1))
    return 1.0 - 2.0 * (inversions % 2)


@lru_cache(maxsize=None)
def _signed_perms(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! permutations of range(k) in itertools order, as a (k!, k)
    array, and their signs."""
    perms = _index_rows(permutations(range(k)), k)
    return perms, _parity_signs(perms)


@lru_cache(maxsize=None)
def _slot_table(n: int, k: int) -> np.ndarray:
    """Row r: flat positions of the k! orderings of the r-th sorted
    k-tuple, in combinations and ``_signed_perms`` order."""
    perms, _ = _signed_perms(k)
    return _flat(_index_rows(combinations(range(n), k), k)[:, perms], n)


def _rank(index_rows: np.ndarray, n: int) -> np.ndarray:
    """Position in combinations order of each sorted index tuple (the
    last axis); the first column of ``_slot_table`` is ascending."""
    return np.searchsorted(_slot_table(n, index_rows.shape[-1])[:, 0],
                           _flat(index_rows, n))


def _sorted_components(comps: np.ndarray, n: int) -> np.ndarray:
    """The antisymmetrization of comps at the sorted index tuples: the
    mean of the k! signed orderings of each."""
    _, signs = _signed_perms(comps.ndim)
    vals = comps.reshape(-1)[_slot_table(n, comps.ndim)] * signs
    first = vals[:, 0]
    # antisymmetric input keeps its bits, so the projection is idempotent
    same = (vals == first[:, None]).all(axis=1)
    if same.all():
        return first.copy()
    return np.where(same, first, vals.sum(axis=1) / len(signs))


def _scatter(vals: np.ndarray, n: int, k: int) -> np.ndarray:
    """Dense antisymmetric (n,)*k array with sorted components vals."""
    _, signs = _signed_perms(k)
    out = np.zeros(n ** k)
    # + 0.0 turns the -0.0 of a zero component or sign into +0.0
    out[_slot_table(n, k)] = vals[:, None] * signs + 0.0
    return out.reshape((n,) * k)


@lru_cache(maxsize=None)
def levi_civita_symbol(n: int) -> np.ndarray:
    """Dense n-index Levi-Civita symbol, read-only and cached. Refused
    above n = 7, where it would take 134 MB."""
    if n > 7:
        raise ValueError("dense symbol only kept up to n = 7")
    eps = _scatter(np.ones(1), n, n)
    eps.setflags(write=False)
    return eps


def antisymmetrize(comps: np.ndarray) -> np.ndarray:
    """Full antisymmetrization (a projection): gather the k! signed
    orderings of each sorted index tuple, average, scatter back."""
    if comps.ndim <= 1:
        return comps.copy()
    n = comps.shape[0]
    return _scatter(_sorted_components(comps, n), n, comps.ndim)


class AltTensor:
    """Fully antisymmetric k-tensor (k-form) on an n-dimensional fiber,
    held as its C(n, k) sorted components ``vals``."""

    __slots__ = ("n", "k", "vals", "_comps")

    def __init__(self, n: int, k: int, comps=None):
        if not 0 <= k <= n:
            raise ValueError(f"degree {k} outside 0..{n}")
        self.n = n
        self.k = k
        self._comps = None
        if comps is None:
            self.vals = np.zeros(comb(n, k))
            return
        comps = np.asarray(comps, dtype=float)
        if comps.shape != (n,) * k:
            raise ValueError(f"expected shape {(n,) * k}, got {comps.shape}")
        # a 0- or 1-form is its own sorted components
        self.vals = (comps.reshape(-1).copy() if k <= 1
                     else _sorted_components(comps, n))

    @classmethod
    def _from_vals(cls, n: int, k: int, vals: np.ndarray) -> "AltTensor":
        """The k-form with sorted components vals, taken as given."""
        out = cls.__new__(cls)
        out.n, out.k, out.vals, out._comps = n, k, vals, None
        return out

    @property
    def comps(self) -> np.ndarray:
        """The dense (n,)*k component array, scattered on first read and
        then cached read-only, so that it cannot drift from vals."""
        if self._comps is None:
            self._comps = _scatter(self.vals, self.n, self.k)
            self._comps.setflags(write=False)
        return self._comps

    @classmethod
    def basis_form(cls, n: int, indices) -> "AltTensor":
        """dx^{i1} ^ ... ^ dx^{ik} for 0-based indices: the sign of the
        sorting permutation at the sorted tuple, zero for a repeated index."""
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        if idx.size and not (0 <= idx.min() and idx.max() < n):
            raise ValueError(f"indices {tuple(indices)} outside 0..{n - 1}")
        out = cls(n, len(idx))
        if len(set(idx.tolist())) == len(idx):
            out.vals[_rank(np.sort(idx), n)] = _parity_signs(idx)
        return out

    def __add__(self, other: "AltTensor") -> "AltTensor":
        self._check_match(other)
        return AltTensor._from_vals(self.n, self.k, self.vals + other.vals)

    def __sub__(self, other: "AltTensor") -> "AltTensor":
        self._check_match(other)
        return AltTensor._from_vals(self.n, self.k, self.vals - other.vals)

    def __mul__(self, scalar) -> "AltTensor":
        return AltTensor._from_vals(self.n, self.k, self.vals * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "AltTensor":
        return AltTensor._from_vals(self.n, self.k, self.vals / float(scalar))

    def __neg__(self) -> "AltTensor":
        return self * -1.0

    def _check_match(self, other: "AltTensor") -> None:
        if self.n != other.n or self.k != other.k:
            raise ValueError("mismatched fiber dimension or degree")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.vals)))

    def __repr__(self) -> str:
        return f"AltTensor(n={self.n}, k={self.k})"


def random_form(rng: np.random.Generator, n: int, k: int) -> AltTensor:
    """A random k-form with the law of the projected dense draw
    AltTensor(n, k, rng.standard_normal((n,) * k)), drawn as its C(n, k)
    sorted components.  Each projected component is the mean of k!
    independent signed N(0, 1) entries, so N(0, 1/k!), and distinct
    sorted tuples read disjoint entries; for k <= 1 the bits are those of
    the dense draw."""
    out = AltTensor(n, k)  # refuses a degree outside 0..n before drawing
    out.vals = rng.standard_normal(comb(n, k)) / sqrt(factorial(k))
    return out


class Metric:
    """Symmetric positive-definite bilinear form with cached inverse."""

    __slots__ = ("g", "g_inv", "sqrt_det")

    def __init__(self, g) -> None:
        g = np.asarray(g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("metric must be a square matrix")
        if not np.all(np.isfinite(g)):
            raise SingularMetric("metric is not finite")
        if np.max(np.abs(g - g.T)) > 1e-12 * max(np.max(np.abs(g)), 1.0):
            raise SingularMetric("metric is not symmetric")
        eigvals = np.linalg.eigvalsh(g)
        if eigvals[0] <= 0:
            raise SingularMetric(f"metric not positive definite, min eig {eigvals[0]:.3e}")
        self.g = 0.5 * (g + g.T)
        self.g_inv = np.linalg.inv(self.g)
        with np.errstate(over="ignore"):
            self.sqrt_det = float(np.sqrt(np.linalg.det(self.g)))
        if not 0.0 < self.sqrt_det < np.inf:
            # det overflowed or underflowed, but its square root need not
            self.sqrt_det = float(np.exp(np.linalg.slogdet(self.g)[1] / 2))

    @classmethod
    def euclidean(cls, n: int) -> "Metric":
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return self.g.shape[0]


@lru_cache(maxsize=None)
def _shuffle_signs(n: int, k: int) -> np.ndarray:
    """Sign of (I, J) as a permutation, J the sorted complement of I, for
    each sorted k-tuple I in combinations order: (I, J) has sum_r (I_r - r)
    inversions."""
    return np.array([(-1.0) ** (sum(i) - k * (k - 1) // 2)
                     for i in combinations(range(n), k)])


@lru_cache(maxsize=None)
def _shuffle_table(n: int, p: int, q: int):
    """For each sorted (p+q)-tuple J in combinations order, its C(p+q, p)
    splits into sorted I and K with I u K = J: the ranks of I among the
    sorted p-tuples and of K among the sorted q-tuples, each a
    (C(n, p+q), C(p+q, p)) array, and the signs of (I, K) as permutations
    of J."""
    joint = _index_rows(combinations(range(n), p + q), p + q)
    firsts = _index_rows(combinations(range(p + q), p), p)
    # the complements of the sorted p-subsets, in combinations order, are
    # the sorted q-subsets in reverse combinations order
    rests = _index_rows(combinations(range(p + q), q), q)[::-1]
    return (_rank(joint[:, firsts], n), _rank(joint[:, rests], n),
            _shuffle_signs(p + q, p))


def wedge(a: AltTensor, b: AltTensor) -> AltTensor:
    """Wedge product in the (1/k!)-component convention:
    (a ^ b)_J = sum over the splits (I, K) of J of sign(I, K) a_I b_K."""
    if a.n != b.n:
        raise ValueError("mismatched fiber dimensions")
    p, q = a.k, b.k
    if p + q > a.n:
        raise DegreeOverflow(f"degree {p}+{q} exceeds fiber dimension {a.n}")
    first, rest, signs = _shuffle_table(a.n, p, q)
    vals = (signs * a.vals[first] * b.vals[rest]).sum(axis=1)
    return AltTensor._from_vals(a.n, p + q, vals)


def interior(x: np.ndarray, a: AltTensor) -> AltTensor:
    """Interior product (X . a)(...) = a(X, ...): the (1, k-1) shuffle
    table read backwards, (X . a)_K = sum over i not in K of
    sign(i, K) X^i a_{i u K}, accumulated in increasing i."""
    if a.k < 1:
        raise DegreeUnderflow("interior product needs degree >= 1")
    x = np.asarray(x, dtype=float)
    first, rest, signs = _shuffle_table(a.n, 1, a.k - 1)
    # the rank of a 1-tuple (i,) is i
    terms = signs * x[first] * a.vals[:, None]
    vals = np.bincount(rest.reshape(-1), weights=terms.reshape(-1),
                       minlength=comb(a.n, a.k - 1))
    return AltTensor._from_vals(a.n, a.k - 1, vals)


def pullback(comps: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(T* w)_{m..p} = w_{i..k} T^i_m ... T^k_p on a dense component array.
    Each pass contracts the first axis by one BLAS product and appends the
    new index last, so after k passes the axes are back in order."""
    for _ in range(comps.ndim):
        comps = np.dot(comps.reshape(len(t), -1).T, t).reshape(
            comps.shape[1:] + t.shape[1:])
    return comps


def _raised(a: AltTensor, g: Metric) -> np.ndarray:
    """The sorted components of a with every index raised by g^-1, with
    no dense array above n^(n//2) entries.  Above degree n/2 it lowers
    the complement: star a is the g-lowering of the (n-k)-form holding
    sign(I, J) a_I / sqrt(det g) at the complement J of I."""
    n, k = a.n, a.k
    if 2 * k <= n:
        return _sorted_components(pullback(a.comps, g.g_inv), n)
    signs = _shuffle_signs(n, k)
    # the complements of the sorted k-tuples, in combinations order, are
    # the sorted (n-k)-tuples in reverse combinations order
    complement = _scatter((signs * a.vals)[::-1], n, n - k)
    lowered = _sorted_components(pullback(complement, g.g), n)
    return signs * lowered[::-1] / g.sqrt_det ** 2


def form_inner(a: AltTensor, b: AltTensor, g: Metric) -> float:
    """Metric on k-forms, the sum over sorted I of a_I b^I."""
    a._check_match(b)
    return float(a.vals @ _raised(b, g))


def flat(x: np.ndarray, g: Metric) -> np.ndarray:
    """Lower the index of a vector."""
    return g.g @ np.asarray(x, dtype=float)


def sharp(w: np.ndarray, g: Metric) -> np.ndarray:
    """Raise the index of a covector."""
    return g.g_inv @ np.asarray(w, dtype=float)


def volume_form(g: Metric) -> AltTensor:
    """sqrt(det g) dx^1 ^ ... ^ dx^n."""
    n = g.n
    vol = AltTensor.basis_form(n, tuple(range(n)))
    return vol * g.sqrt_det


def hodge(a: AltTensor, g: Metric, orientation: int = +1) -> AltTensor:
    """Hodge star defined by <w, a> vol = w ^ (star a): component J is
    sqrt(det g) sign(I, J) times the raised component at the complement I."""
    n, k = a.n, a.k
    scale = orientation * g.sqrt_det
    vals = scale * _shuffle_signs(n, k) * _raised(a, g)
    # the complements of the sorted k-tuples, in combinations order, are
    # the sorted (n-k)-tuples in reverse combinations order
    return AltTensor._from_vals(n, n - k, vals[::-1])


def interior_star_residual(x: np.ndarray, a: AltTensor,
                           g: Metric) -> float:
    """Max-abs residual of star(X . w) = (-1)^(k+1) (X-flat ^ star w)."""
    if a.k < 1:
        raise DegreeUnderflow("identity needs degree >= 1")
    lhs = hodge(interior(x, a), g)
    xb = AltTensor(a.n, 1, flat(x, g))
    rhs = wedge(xb, hodge(a, g)) * ((-1.0) ** (a.k + 1))
    return (lhs - rhs).max_abs()
