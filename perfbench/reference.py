"""Computations made apart from the library, used to check its outputs.

Nothing here calls into ``sepcert``: every value is computed from the
physics or the documented formats with numpy and scipy directly.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.special import jv

AXIS_NAMES = "XYZ"
_LABEL = re.compile(r"^([XYZ])\[(\d+)\]$|^([XYZ])([XYZ])\[(\d+),(\d+)\]$")


def quench_amplitudes(n: int, t: float) -> np.ndarray:
    """phi_i(t) of a single flip at site 0 of an n-site XX ring, from Bessel
    functions: phi_i = sum_l i^(ln - i) J_(ln - i)(t), the Jacobi-Anger sum
    with its images around the ring (only l = 0 matters before the wave wraps
    around)."""
    i = np.arange(n)
    return sum((1j) ** (l * n - i) * jv(l * n - i, t) for l in range(-3, 4))


def best_pair_noise_robustness(phi: np.ndarray) -> float:
    """Largest white-noise fraction at which some pair of the single-flip
    state keeps concurrence, from the closed-form X-state root.

    The pair state is an X-state with rho_03 = 0; its concurrence vanishes
    at the smaller root of A l^2 - B l + C = 0 with A = a^2 + q/4 - 1/16,
    B = 2a^2 + q/4, C = a^2, a = |phi_i phi_j|, q = 1 - |phi_i|^2 - |phi_j|^2.
    """
    p = np.abs(phi) ** 2
    iu = np.triu_indices(len(phi), 1)
    a2 = np.outer(p, p)[iu]
    q = 1.0 - p[iu[0]] - p[iu[1]]
    qa, qb = a2 + q / 4.0 - 1.0 / 16.0, 2.0 * a2 + q / 4.0
    return float(np.max(2.0 * a2 / (qb + np.sqrt(qb * qb - 4.0 * qa * a2))))


def label_values(ds) -> dict:
    """Correlator label -> value, with labels written by the documented
    format (``Z[3]``, ``XY[0,2]``)."""
    out = {f"{AXIS_NAMES[int(a)]}[{i}]": v for (i, a), v in ds.one_items()}
    out.update({f"{AXIS_NAMES[int(a)]}{AXIS_NAMES[int(b)]}[{i},{j}]": v
                for (i, j, a, b), v in ds.two_items()})
    return out


def witness_dot(coefficients: dict, values: dict) -> float:
    """sum_r w_r C_r in exactly rounded summation."""
    return math.fsum(w * values[label] for label, w in coefficients.items())


def witness_form(coefficients: dict, n: int):
    """(W, v) with witness value 0.5 x^T W x + v.x over Bloch coordinates
    x[3 i + a]."""
    wmat = np.zeros((3 * n, 3 * n))
    wvec = np.zeros(3 * n)
    for label, w in coefficients.items():
        m = _LABEL.match(label)
        if m.group(1):
            wvec[3 * int(m.group(2)) + AXIS_NAMES.index(m.group(1))] += w
        else:
            r = 3 * int(m.group(5)) + AXIS_NAMES.index(m.group(3))
            c = 3 * int(m.group(6)) + AXIS_NAMES.index(m.group(4))
            wmat[r, c] += w
            wmat[c, r] += w
    return wmat, wvec


def random_bloch(rng, count: int, n: int) -> np.ndarray:
    """``count`` product states of n sites, Bloch vectors uniform on the sphere."""
    x = rng.normal(size=(count, n, 3))
    return x / np.linalg.norm(x, axis=2, keepdims=True)


def witness_on_products(coefficients: dict, bloch: np.ndarray) -> np.ndarray:
    """Witness value for each product state in a (count, n, 3) batch."""
    wmat, wvec = witness_form(coefficients, bloch.shape[1])
    flat = bloch.reshape(bloch.shape[0], -1)
    return 0.5 * np.einsum("bs,st,bt->b", flat, wmat, flat) + flat @ wvec


def product_correlators(bloch: np.ndarray):
    """One- and two-body correlators of one pure product state."""
    return bloch, np.einsum("ia,jb->iajb", bloch, bloch)


_PAULI = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
          np.array([[0.0, -1.0j], [1.0j, 0.0]]),
          np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def _apply_pauli(tensor, site, axis):
    """Apply one Pauli matrix to the ``site`` axis of a (2,)*n + (m,) tensor."""
    return np.moveaxis(np.tensordot(_PAULI[axis], tensor, axes=([1], [site])), 0, site)


def state_correlators(psi: np.ndarray, n: int) -> dict:
    """<P_i^a> and <P_i^a P_j^b> (i < j) of a pure n-qubit state, keyed
    (i, a) and (i, j, a, b)."""
    vec = psi.reshape((2,) * n + (1,))
    out = {}
    for i in range(n):
        for a in range(3):
            pi = _apply_pauli(vec, i, a)
            out[(i, a)] = float(np.vdot(vec, pi).real)
            for j in range(i + 1, n):
                for b in range(3):
                    out[(i, j, a, b)] = float(np.vdot(vec, _apply_pauli(pi, j, b)).real)
    return out


def _bits(n):
    """z[i, s] = +1 or -1: Z eigenvalue of site i in basis state s, with
    site 0 the most significant bit."""
    s = np.arange(2 ** n)
    return 1 - 2 * ((s[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1)


def chain_hamiltonian(kind: str, n: int, g: float = 0.0) -> np.ndarray:
    """Periodic chain, as documented on ``ModelSpec`` with J = 1, as a dense
    real matrix: Heisenberg (1/4) sum_i sum_a P_i^a P_(i+1)^a, transverse-field
    Ising -(1/4) sum_i [Z_i Z_(i+1) + g X_i].  Built from bit flips on the
    computational basis: X_i X_j and Y_i Y_j flip bits i and j, the latter
    with the sign -z_i z_j."""
    dim = 2 ** n
    z = _bits(n)
    s = np.arange(dim)
    h = np.zeros((dim, dim))
    for i in range(n):
        k = (i + 1) % n
        zz = z[i] * z[k]
        flip = s ^ (1 << (n - 1 - i)) ^ (1 << (n - 1 - k))
        if kind == "heisenberg":
            h[s, s] += 0.25 * zz
            h[flip, s] += 0.25 * (1.0 - zz)  # XX + YY
        else:
            h[s, s] -= 0.25 * zz
            h[s ^ (1 << (n - 1 - i)), s] -= 0.25 * g
    return h


def thermal_bond_correlators(kind: str, n: int, temperature: float, g: float = 0.0) -> dict:
    """<P_i^a P_(i+1)^a> of the Gibbs state for every ring bond and axis,
    keyed (min(i, i+1), max(i, i+1), a), by dense diagonalization.

    Expectations are weighted sums over eigenvectors, so no 2^n x 2^n
    density matrix is formed beside the eigenvectors.
    """
    evals, evecs = np.linalg.eigh(chain_hamiltonian(kind, n, g))
    w = np.exp(-(evals - evals[0]) / temperature)
    w /= w.sum()
    z = _bits(n)
    s = np.arange(2 ** n)
    out = {}
    for i in range(n):
        k = (i + 1) % n
        zz = z[i] * z[k]
        flip = s ^ (1 << (n - 1 - i)) ^ (1 << (n - 1 - k))
        pair = evecs[flip] * evecs  # <s^flip|v><v|s> per state s and eigenvector
        key = (min(i, k), max(i, k))
        out[key + (0,)] = float(pair.sum(axis=0) @ w)
        out[key + (1,)] = float(-(zz @ pair) @ w)
        out[key + (2,)] = float((zz @ evecs ** 2) @ w)
    return out
