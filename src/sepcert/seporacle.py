"""Ground truth from the separable side.

Explicit product states and mixtures generate datasets whose separability is
known by construction; a variational maximizer over product states probes the
tightness of witness bounds from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrdata import AXES, CorrelationDataset, parse_label
from .errors import BadKey, NotNormalized

DEFAULT_RESTARTS = 1000
GRAD_TOL = 1e-10


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


class _WitnessTerms:
    """Dense quadratic form of a witness over product-state coordinates.

    With x flattened to (site, axis) coordinates, the witness value is
    0.5 x^T W x + v.x for the symmetric two-body matrix W and one-body
    vector v, so batched values and gradients are single matrix products.
    """

    def __init__(self, witness, n: int):
        self.n = int(n)
        self.wmat = np.zeros((3 * n, 3 * n))
        self.wvec = np.zeros(3 * n)
        for label, w in witness.coefficients.items():
            key = parse_label(label)
            if len(key) == 2:
                i, a = key
                if i >= n:
                    raise BadKey(f"witness label {label} references site {i} >= n={n}")
                self.wvec[3 * i + int(a)] += float(w)
            else:
                i, j, a, b = key
                if j >= n:
                    raise BadKey(f"witness label {label} references site {j} >= n={n}")
                self.wmat[3 * i + int(a), 3 * j + int(b)] += float(w)
                self.wmat[3 * j + int(b), 3 * i + int(a)] += float(w)

    def value(self, flat):
        """Values and Euclidean gradients for a batch of flattened states,
        shape (B, 3n): the gradient is the product the value already needs,
        plus the one-body vector."""
        half = flat @ self.wmat
        return 0.5 * np.einsum("bs,bs->b", flat, half) + flat @ self.wvec, half + self.wvec

    def grad(self, flat):
        """Euclidean gradients for a batch of flattened states, shape (B, 3n)."""
        return flat @ self.wmat + self.wvec


def _retire(keep, live, x, val, xl, vl, *rows):
    """Write the restarts that ``keep`` drops back into the full ``x`` and
    ``val``; return ``live``, ``xl``, ``vl`` and ``rows`` cut to the kept ones."""
    drop = ~keep
    x[live[drop]] = xl[drop]
    val[live[drop]] = vl[drop]
    return (live[keep], xl[keep], vl[keep]) + tuple(r[keep] for r in rows)


def max_over_product_states(witness, n: int, restarts: int = DEFAULT_RESTARTS,
                            seed=0, max_iter: int = 4000, grad_tol: float = GRAD_TOL,
                            stall_window: int = 64, stall_tol: float = 1e-9):
    """Best local maximum of a witness functional over pure product states.

    Projected gradient ascent on the product of unit spheres, run from
    ``restarts`` random starts in one vectorized batch.  The step is halved
    on non-improvement; a restart stops once its Riemannian gradient norm
    drops below ``grad_tol``, its step underflows, or its value has gained
    less than ``stall_tol`` over the last ``stall_window`` iterations (these
    landscapes develop nearly flat ridges along which strict ascent crawls
    indefinitely).  Pure products suffice: the maximum of a linear functional
    over the (convex) separable set is attained at an extreme point.

    The live restarts are kept as compact arrays, cut only when a restart
    drops out.  An iteration makes one matrix product: a restart's
    gradient is the one its value was computed with, kept until a candidate
    is accepted, and taken again for every live restart after one drops
    out.  The per-site sums over the three Bloch components are written
    out left to right, the order ``np.sum`` takes over a length-3 axis, so
    every iterate is what a per-iteration gather with a fresh gradient and
    ``np.sum`` / ``np.linalg.norm`` gives, bit for bit.

    Returns ``(best_value, best_state)``; ties break by restart index via
    argmax.
    """
    if int(restarts) < 1 or int(n) < 1:
        raise BadKey(f"need restarts >= 1 and n >= 1, got restarts={restarts}, n={n}")
    if int(stall_window) < 1:
        raise BadKey(f"need stall_window >= 1, got {stall_window}")
    rng = make_rng(seed)
    terms = _WitnessTerms(witness, n)
    B = int(restarts)
    x = rng.normal(size=(B, n, 3))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    val, gl = terms.value(x.reshape(B, -1))
    # State, value, Euclidean gradient, step and stall checkpoint of each
    # live restart, in the order of ``live``.
    live = np.arange(B)
    xl, vl = x.copy(), val.copy()
    step = np.full(B, 0.5)
    checkpoint = vl
    stale = False
    for it in range(1, int(max_iter) + 1):
        if len(live) == 0:
            break
        if stale:
            # BLAS may round a row of a matrix product differently in a
            # batch of another size (numpy takes another routine for one
            # row, OpenBLAS another kernel for a few), so once restarts
            # drop out every gradient is taken again, in the new batch.
            gl = terms.grad(xl.reshape(len(live), -1))
            stale = False
        # Riemannian gradient: project out the radial component per site.
        g = gl.reshape(-1, n, 3)
        p = g * xl
        g = (g - (p[..., 0] + p[..., 1] + p[..., 2])[..., None] * xl).reshape(len(live), -1)
        gsq = np.add.reduce(g * g, axis=1)
        # sqrt is monotone and correctly rounded, so it commutes with min.
        if not (math.sqrt(gsq.min()) > grad_tol and step.min() > 1e-16):
            keep = (np.sqrt(gsq) > grad_tol) & (step > 1e-16)
            live, xl, vl, gl, g, step, checkpoint = _retire(
                keep, live, x, val, xl, vl, gl, g, step, checkpoint)
            stale = True
            if len(live) == 0:
                break
        cand = xl + step[:, None, None] * g.reshape(-1, n, 3)
        c2 = cand * cand
        cand /= np.sqrt(c2[..., 0] + c2[..., 1] + c2[..., 2])[..., None]
        cand_val, cand_grad = terms.value(cand.reshape(len(live), -1))
        # Strict ascent only: at a local maximum every candidate fails, the
        # step halves geometrically and the restart drops out.
        improved = cand_val > vl
        np.copyto(xl, cand, where=improved[:, None, None])
        np.copyto(gl, cand_grad, where=improved[:, None])
        vl = np.where(improved, cand_val, vl)
        step = step * np.where(improved, 1.2, 0.5)
        if it % stall_window == 0:
            moving = vl - checkpoint > stall_tol
            if not moving.all():
                live, xl, vl, gl, step = _retire(moving, live, x, val, xl, vl, gl, step)
                stale = True
            checkpoint = vl
    x[live] = xl
    val[live] = vl
    best = int(np.argmax(val))
    return float(val[best]), ProductState(x[best] / np.linalg.norm(x[best], axis=1, keepdims=True))
