"""Ground truth from the separable side.

Explicit product states and mixtures generate datasets whose separability is
known by construction; a variational maximizer over product states probes the
tightness of witness bounds from below.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .corrdata import AXES, CorrelationDataset, parse_label
from .errors import BadKey, NotNormalized

DEFAULT_RESTARTS = 1000
# Site-wise sweeps of every restart, then at most this many Newton steps.
SWEEPS = 20
NEWTON_STEPS = 6


def make_rng(seed) -> np.random.Generator:
    """Counter-based RNG (Philox) so runs are reproducible and streams are
    cheap to split; pass through an existing Generator unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class ProductState:
    """Pure product state given by one unit Bloch vector per site."""

    bloch: np.ndarray  # shape (n_sites, 3)

    def __post_init__(self):
        b = np.asarray(self.bloch, dtype=float)
        if b.ndim != 2 or b.shape[1] != 3:
            raise BadKey(f"bloch array must have shape (n, 3), got {b.shape}")
        norms = np.linalg.norm(b, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise NotNormalized(f"Bloch vectors must be unit length (worst deviation {worst:.2e})")
        object.__setattr__(self, "bloch", b)

    @property
    def n_sites(self) -> int:
        return self.bloch.shape[0]


@dataclass(frozen=True)
class SeparableMixture:
    """Statistical mixture of product states."""

    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) != len(self.states):
            raise BadKey("weights and states must have equal length")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise NotNormalized("mixture weights must be nonnegative and sum to 1")
        n = {s.n_sites for s in self.states}
        if len(n) != 1:
            raise BadKey("all mixture components must share n_sites")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def n_sites(self) -> int:
        return self.states[0].n_sites


def mixture_of(state: ProductState) -> SeparableMixture:
    return SeparableMixture(np.array([1.0]), (state,))


def dataset_of(mixture) -> CorrelationDataset:
    """Full one- and two-body dataset of a product state or mixture.

    C_i^a = sum_k p_k b_k[i, a]; C_ij^ab = sum_k p_k b_k[i, a] b_k[j, b].
    """
    if isinstance(mixture, ProductState):
        mixture = mixture_of(mixture)
    b = np.stack([s.bloch for s in mixture.states])  # (K, n, 3)
    p = mixture.weights
    n = mixture.n_sites
    one_arr = np.einsum("k,kia->ia", p, b)
    two_arr = np.einsum("k,kia,kjb->iajb", p, b, b)
    # Guard against roundoff drifting a hair past +-1.
    one_arr = np.clip(one_arr, -1.0, 1.0)
    two_arr = np.clip(two_arr, -1.0, 1.0)
    one = {(i, a): float(one_arr[i, a]) for i in range(n) for a in AXES}
    two = {
        (i, j, a, b_): float(two_arr[i, a, j, b_])
        for i in range(n) for j in range(i + 1, n) for a in AXES for b_ in AXES
    }
    return CorrelationDataset(n, one, two)


def random_product_state(n: int, seed) -> ProductState:
    """Product state with each Bloch vector uniform on the unit sphere."""
    rng = make_rng(seed)
    v = rng.normal(size=(int(n), 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # A zero draw has probability 0; renormalize defensively anyway.
    norms[norms == 0.0] = 1.0
    return ProductState(v / norms)


def random_separable_mixture(n: int, n_components: int, seed) -> SeparableMixture:
    rng = make_rng(seed)
    w = rng.random(int(n_components))
    w /= w.sum()
    states = tuple(random_product_state(n, rng) for _ in range(int(n_components)))
    return SeparableMixture(w, states)


# -- variational maximization over product states ---------------------------


# A run of correlator labels joined by newlines; sites take at most nine
# digits, so the parse below stays within int64.
_LABEL = r"[XYZ]\[[0-9]{1,9}\]|[XYZ][XYZ]\[[0-9]{1,9},[0-9]{1,9}\]"
_LABEL_LINES = re.compile(rf"(?:{_LABEL})(?:\n(?:{_LABEL}))*")


def _bad_label(label, why):
    parse_label(label)  # raises the parser's own error where it has one
    raise BadKey(f"witness label {label!r} {why}")


class _WitnessTerms:
    """Dense quadratic form of a witness over product-state coordinates.

    With x flattened to (site, axis) coordinates, the witness value is
    0.5 x^T W x + v.x for the symmetric two-body matrix W and one-body
    vector v, so batched values and gradients are single matrix products.
    W has no entry between two axes of one site.

    The labels are parsed in one pass over their joined bytes, and the
    coefficients added in label order, as a loop over ``parse_label`` adds
    them.
    """

    def __init__(self, witness, n: int):
        n = int(n)
        labels = list(witness.coefficients)
        text = "\n".join(labels)
        if not _LABEL_LINES.fullmatch(text):
            _bad_label(next(lbl for lbl in labels if not _LABEL_LINES.fullmatch(lbl)),
                       "is not a correlator label with sites below 10^9")
        chars = np.frombuffer(text.encode(), np.uint8)
        start = np.r_[0, np.flatnonzero(chars == ord("\n")) + 1]
        two = chars[start + 1] != ord("[")
        a = chars[start].astype(np.intp) - ord("X")
        b = np.where(two, chars[start + 1], ord("X")).astype(np.intp) - ord("X")
        # Each run of digits is one site: sum of digit * 10^(digits after it).
        pos = np.flatnonzero((chars >= ord("0")) & (chars <= ord("9")))
        first = np.r_[True, pos[1:] != pos[:-1] + 1]
        last = np.flatnonzero(np.r_[first[1:], True])
        after = last[np.cumsum(first) - 1] - np.arange(len(pos))
        sites = np.add.reduceat((chars[pos] - ord("0")) * 10 ** after, np.flatnonzero(first))
        k = np.cumsum(1 + two) - (1 + two)
        i, j = sites[k], sites[k + two]
        if np.any(two & (i == j)):
            _bad_label(labels[np.argmax(two & (i == j))], "names one site twice")
        # canonical order i < j, as parse_label gives it
        swap = i > j
        i, j = np.where(swap, j, i), np.where(swap, i, j)
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        if np.any(j >= n):
            bad = int(np.argmax(j >= n))
            raise BadKey(f"witness label {labels[bad]} references site {j[bad]} >= n={n}")
        w = np.array(list(witness.coefficients.values()), dtype=float)
        self.wvec = np.zeros(3 * n)
        np.add.at(self.wvec, 3 * i[~two] + a[~two], w[~two])
        r, c, w = 3 * i[two] + a[two], 3 * j[two] + b[two], w[two]
        self.wmat = np.zeros((3 * n, 3 * n))
        # the entries and their mirrors are disjoint, since i < j
        np.add.at(self.wmat, (np.r_[r, c], np.r_[c, r]), np.r_[w, w])

    def value(self, flat):
        """Values and Euclidean gradients for a batch of flattened states,
        shape (B, 3n): the gradient is the product the value already needs,
        plus the one-body vector."""
        half = flat @ self.wmat
        return 0.5 * np.einsum("bs,bs->b", flat, half) + flat @ self.wvec, half + self.wvec


def _tangent_basis(x):
    """Two orthonormal tangent vectors at each unit vector of x (..., 3),
    as the columns of an (..., 3, 2) array."""
    axis = np.zeros_like(x)
    np.put_along_axis(axis, np.argmin(np.abs(x), axis=-1)[..., None], 1.0, axis=-1)
    t1 = np.cross(x, axis)
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    return np.stack((t1, np.cross(x, t1)), axis=-1)


def _newton_candidates(terms, x, grad):
    """Riemannian Newton step on the product of spheres from each state of x
    (B, n, 3), with Euclidean gradients ``grad`` (B, 3n), each site
    renormalized (Absil, Mahony & Sepulchre, Optimization Algorithms on
    Matrix Manifolds, 2008, ch. 6).

    On the tangent basis T the Hessian is T^T W T - diag(x_i . grad_i) and
    the gradient T^T grad.  A tiny shift of the Hessian keeps the solve
    defined where a site has neither coupling nor field.  The Hessians are
    built a chunk of restarts at a time, a few MB each.
    """
    B, n = x.shape[:2]
    # column block j of W, (n, 3n, 3)
    wcols = terms.wmat.reshape(3 * n, n, 3).transpose(1, 0, 2)
    shift = 1e-13 * (1.0 + np.abs(terms.wmat).sum(axis=1).max())
    diag = np.arange(2 * n)
    out = np.empty_like(x)
    chunk = max(1, 2 ** 19 // (6 * n * n))
    for lo in range(0, B, chunk):
        xs, gs = x[lo:lo + chunk], grad[lo:lo + chunk].reshape(-1, n, 3)
        c = len(xs)
        t = _tangent_basis(xs)
        # W T by column blocks, regrouped by row site: (c, n, 3, 2n)
        wt = np.matmul(wcols, t).reshape(c, n, n, 3, 2).transpose(0, 2, 3, 1, 4)
        h = np.matmul(t.transpose(0, 1, 3, 2), wt.reshape(c, n, 3, 2 * n)).reshape(c, 2 * n, -1)
        h[:, diag, diag] -= np.repeat(np.einsum("bia,bia->bi", xs, gs), 2, axis=1) + shift
        gt = np.matmul(gs[:, :, None, :], t).reshape(c, -1, 1)
        step = np.linalg.solve(h, -gt).reshape(c, n, 2, 1)
        cand = xs + np.matmul(t, step)[..., 0]
        out[lo:lo + chunk] = cand / np.linalg.norm(cand, axis=2, keepdims=True)
    return out


def max_over_product_states(witness, n: int, restarts: int = DEFAULT_RESTARTS, seed=0):
    """Best local maximum of a witness functional over pure product states.

    From ``restarts`` random starts in one batch, ``SWEEPS`` sweeps of exact
    site-wise ascent, then Riemannian Newton steps.  The witness is linear
    in each site's Bloch vector, so x_i <- grad_i / |grad_i| maximizes it
    over site i exactly (x_i stays where grad_i = 0), and each sweep is
    monotone; the gradient is kept current by a rank-3 update per site.
    Then at most ``NEWTON_STEPS`` Newton steps are taken, a restart's step
    kept only if its value rises; the steps stop when no restart rises, a
    restart that did not rise being at the same point as before.  Pure
    products suffice: the maximum of a linear functional over the (convex)
    separable set is attained at an extreme point.

    Returns ``(best_value, best_state)``: the value is evaluated afresh at
    the returned, normalized state; ties break by restart index via argmax.
    """
    if int(restarts) < 1 or int(n) < 1:
        raise BadKey(f"need restarts >= 1 and n >= 1, got restarts={restarts}, n={n}")
    rng = make_rng(seed)
    terms = _WitnessTerms(witness, n)
    B = int(restarts)
    x = rng.normal(size=(B, n, 3))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    flat = x.reshape(B, -1)  # a view: the sweeps move x
    grad = terms.value(flat)[1]
    rows = terms.wmat.reshape(n, 3, -1)
    for _ in range(SWEEPS):
        for i in range(n):
            site = slice(3 * i, 3 * i + 3)
            g = grad[:, site]
            norm = np.sqrt(np.einsum("ba,ba->b", g, g))[:, None]
            new = np.where(norm > 0.0, g / np.where(norm > 0.0, norm, 1.0), flat[:, site])
            grad += (new - flat[:, site]) @ rows[i]
            flat[:, site] = new
    val, grad = terms.value(flat)
    live = np.arange(B)
    for _ in range(NEWTON_STEPS):
        cand = _newton_candidates(terms, x[live], grad[live])
        cand_val, cand_grad = terms.value(cand.reshape(len(live), -1))
        rose = cand_val > val[live]
        if not rose.any():
            break
        live = live[rose]
        x[live], val[live], grad[live] = cand[rose], cand_val[rose], cand_grad[rose]
    best = x[int(np.argmax(val))]
    state = ProductState(best / np.linalg.norm(best, axis=1, keepdims=True))
    return float(terms.value(state.bloch.reshape(1, -1))[0][0]), state
