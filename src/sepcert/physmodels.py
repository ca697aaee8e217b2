"""Dataset generators for desk-reproducible physical scenarios.

Covers the noisy-singlet (Werner) pair, the single-flip quench on an XX ring,
thermal states of small Heisenberg / transverse-field Ising chains by dense
exact diagonalization, structure factors, and two-qubit concurrence
diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corrdata import AXES, CorrelationDataset, PauliAxis, two_body_label
from .errors import (BadKey, BadNoiseLevel, MissingData, NotDensity,
                     NotNormalized, TooLarge)

ED_SITE_CAP = 14           # dense 2^n diagonalization cap
ED_TEMPERATURE_FLOOR = 1e-3
_CLEAN_TOL = 1e-13         # ED values below this are rounded to exact zero

_PAULI = {
    PauliAxis.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    PauliAxis.Y: np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    PauliAxis.Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
}


class ModelKind(str, enum.Enum):
    HEISENBERG = "heisenberg"
    TRANSVERSE_ISING = "ising"


@dataclass(frozen=True)
class ModelSpec:
    """Periodic spin-chain Hamiltonian specification.

    Heisenberg: H = (J/4) sum_i [X_i X_{i+1} + Y_i Y_{i+1} + Z_i Z_{i+1}];
    transverse-field Ising: H = -(J/4) sum_i [Z_i Z_{i+1} + g X_i].
    """

    kind: ModelKind
    n: int
    g: float = 0.0
    J: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if self.n < 2:
            raise BadKey(f"chain length must be >= 2, got {self.n}")
        if self.n > ED_SITE_CAP:
            raise TooLarge(f"exact diagonalization capped at n <= {ED_SITE_CAP}, got {self.n}")


# -- Werner pair -------------------------------------------------------------


def werner_dataset(lam: float) -> CorrelationDataset:
    """Singlet mixed with white noise: diagonal two-body entries -(1-lam)."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise BadNoiseLevel(f"noise fraction {lam} outside [0, 1]")
    v = -(1.0 - lam)
    return CorrelationDataset(2, two_body={(0, 1, a, a): v for a in AXES})


def sum_triple_dataset(c: float) -> CorrelationDataset:
    """Two-site dataset encoding only the combination
    c = C^XX + C^YY + C^ZZ, stored as three equal entries c/3."""
    c = float(c)
    if abs(c) > 3.0:
        raise BadKey(f"|c| must be <= 3, got {c}")
    return CorrelationDataset(2, two_body={(0, 1, a, a): c / 3.0 for a in AXES})


# -- single-flip quench on an XX ring ----------------------------------------


@dataclass(frozen=True)
class QuenchAmplitudes:
    """Single-excitation amplitudes phi_r(t) on an n-site ring.

    ``phi[i]`` is the amplitude for the flipped spin to sit at site ``i``;
    the flip starts at site 0 and site indices live on a ring, so plots use
    the signed coordinate r in (-n/2, n/2] from :func:`ring_coordinates`.
    """

    n: int
    t: float
    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        if phi.shape != (self.n,):
            raise BadKey(f"phi must have shape ({self.n},)")
        norm = float(np.sum(np.abs(phi) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise NotNormalized(f"sum |phi|^2 = {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "phi", phi)


def ring_coordinates(n: int) -> np.ndarray:
    """Signed ring coordinate per site: r in (-n/2, n/2], flip at r = 0."""
    r = np.arange(n)
    return np.where(r <= n // 2, r, r - n)


def quench_amplitudes(n: int, t: float) -> QuenchAmplitudes:
    """phi_r(t) = n^-1 sum_k exp[2 pi i k r / n + i t cos(2 pi k / n)]."""
    n = int(n)
    if n < 2:
        raise BadKey(f"ring length must be >= 2, got {n}")
    t = float(t)
    if t < 0:
        raise BadKey(f"time must be >= 0, got {t}")
    k = np.arange(n)
    r = np.arange(n)
    phase = 2j * np.pi * np.outer(r, k) / n + 1j * t * np.cos(2 * np.pi * k / n)
    phi = np.exp(phase).sum(axis=1) / n
    return QuenchAmplitudes(n=n, t=t, phi=phi)


def quench_dataset(amps: QuenchAmplitudes) -> CorrelationDataset:
    """Correlators of the single-excitation state with amplitudes phi.

    C_i^Z = 1 - 2|phi_i|^2, C_ij^ZZ = 1 - 2(|phi_i|^2 + |phi_j|^2), and the
    transverse correlators C_ij^XX = C_ij^YY = 2 Re(phi_i* phi_j), so that
    their average (C^XX + C^YY)/2 equals 2 Re(phi_i* phi_j) as well.
    """
    phi = amps.phi
    n = amps.n
    p = np.abs(phi) ** 2
    perp = 2.0 * np.real(np.conj(phi)[:, None] * phi[None, :])
    one = {(i, PauliAxis.Z): float(np.clip(1.0 - 2.0 * p[i], -1.0, 1.0)) for i in range(n)}
    two = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = float(np.clip(perp[i, j], -1.0, 1.0))
            two[(i, j, PauliAxis.X, PauliAxis.X)] = v
            two[(i, j, PauliAxis.Y, PauliAxis.Y)] = v
            two[(i, j, PauliAxis.Z, PauliAxis.Z)] = float(
                np.clip(1.0 - 2.0 * (p[i] + p[j]), -1.0, 1.0))
    return CorrelationDataset(n, one, two)


# -- exact diagonalization of thermal chains ---------------------------------


def _site_op(n: int, i: int, local: np.ndarray) -> sp.csr_matrix:
    return sp.kron(sp.kron(sp.identity(2 ** i, format="csr"), sp.csr_matrix(local),
                           format="csr"),
                   sp.identity(2 ** (n - i - 1), format="csr"), format="csr")


def _pair_op(n: int, i: int, j: int, ax_i: PauliAxis, ax_j: PauliAxis) -> sp.csr_matrix:
    return _site_op(n, i, _PAULI[ax_i]) @ _site_op(n, j, _PAULI[ax_j])


def hamiltonian(spec: ModelSpec) -> sp.csr_matrix:
    """Sparse periodic-chain Hamiltonian (real for both supported models)."""
    n = spec.n
    h = sp.csr_matrix((2 ** n, 2 ** n))
    if spec.kind is ModelKind.HEISENBERG:
        for i in range(n):
            j = (i + 1) % n
            for a in AXES:
                h = h + _pair_op(n, min(i, j), max(i, j), a, a)
        return (spec.J / 4.0) * h.real
    for i in range(n):
        j = (i + 1) % n
        h = h + _pair_op(n, min(i, j), max(i, j), PauliAxis.Z, PauliAxis.Z)
        h = h + spec.g * _site_op(n, i, _PAULI[PauliAxis.X])
    return (-spec.J / 4.0) * h.real


def thermal_density(spec: ModelSpec, temperature: float) -> np.ndarray:
    """Gibbs state exp(-H/T)/Z as a dense real matrix.

    Temperatures below the 1e-3 floor are raised to it, standing in for the
    T -> 0 limit without ground-state degeneracy branches.
    """
    if temperature <= 0:
        raise BadNoiseLevel(f"temperature must be > 0, got {temperature}")
    T = max(float(temperature), ED_TEMPERATURE_FLOOR)
    h = hamiltonian(spec).toarray()
    evals, evecs = np.linalg.eigh(h)
    w = np.exp(-(evals - evals[0]) / T)
    w /= w.sum()
    return (evecs * w) @ evecs.T


def _clean(v) -> float:
    v = float(np.clip(v, -1.0, 1.0))
    return 0.0 if abs(v) < _CLEAN_TOL else v


def _correlators(state: np.ndarray, n: int):
    """Every one- and two-body correlator of a state vector or density matrix
    on n sites, as (one, two) dicts of cleaned values.

    The site operators are real stand-ins, X, ytil and Z with Y = i * ytil;
    each expectation value is multiplied by i^(number of Y factors) and its
    real part kept.  For a real density matrix every correlator with an odd
    number of Y factors therefore comes out as exact zero.
    """
    ytil = np.array([[0.0, -1.0], [1.0, 0.0]])
    site = {(i, a): _site_op(n, i, ytil if a is PauliAxis.Y else _PAULI[a].real)
            for i in range(n) for a in AXES}
    if state.ndim == 1:
        def expval(op):
            return np.vdot(state, op @ state)
    else:
        def expval(op):  # Tr[rho op], summed in tocoo() order without building a COO matrix
            rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
            return np.sum(op.data * state[op.indices, rows])

    def value(op, n_y):
        return _clean(np.real((1, 1j, -1)[n_y] * expval(op)))

    one = {(i, a): value(site[(i, a)], a is PauliAxis.Y) for i in range(n) for a in AXES}
    two = {}
    for i in range(n):
        for j in range(i + 1, n):
            for a in AXES:
                for b in AXES:
                    two[(i, j, a, b)] = value(site[(i, a)] @ site[(j, b)],
                                              (a is PauliAxis.Y) + (b is PauliAxis.Y))
    return one, two


def thermal_dataset_ed(spec: ModelSpec, temperature: float) -> CorrelationDataset:
    """All one- and two-body correlators of the Gibbs state.

    Both Hamiltonians are real, so every correlator with an odd number of Y
    factors vanishes identically and is stored as exact zero.  Values below
    1e-13 are rounded to zero and, for the SU(2)-symmetric Heisenberg chain,
    the three same-axis correlators are averaged to exact equality so the
    emitted dataset carries the model symmetry exactly.
    """
    n = spec.n
    one, two = _correlators(thermal_density(spec, temperature), n)
    if spec.kind is ModelKind.HEISENBERG:
        for i in range(n):
            for j in range(i + 1, n):
                avg = _clean(np.mean([two[(i, j, a, a)] for a in AXES]))
                for a in AXES:
                    two[(i, j, a, a)] = avg
    return CorrelationDataset(n, one, two)


def state_dataset(state: np.ndarray, n_sites=None) -> CorrelationDataset:
    """All one- and two-body correlators of an arbitrary pure state vector or
    density matrix on 2^n dimensions (general complex path; used as oracle)."""
    state = np.asarray(state).astype(complex)
    dim = state.shape[0]
    if state.ndim == 1:
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-10:
            raise NotNormalized(f"state vector norm {nrm!r} is not 1")
    n = int(np.round(np.log2(dim))) if n_sites is None else int(n_sites)
    if 2 ** n != dim:
        raise BadKey(f"state dimension {dim} is not 2^{n}")
    if n > ED_SITE_CAP:
        raise TooLarge(f"correlator extraction capped at n <= {ED_SITE_CAP}")
    return CorrelationDataset(n, *_correlators(state, n))


# -- structure factors --------------------------------------------------------


@dataclass(frozen=True)
class StructureFactorValue:
    k: float
    axis: PauliAxis
    value: float


@dataclass(frozen=True)
class OptimalStructureWitness:
    """Per-axis argmin wavevectors and the summed minimal structure factor."""

    k_x: float
    k_y: float
    k_z: float
    value: float
    bound: float = 2.0

    @property
    def entangled(self) -> bool:
        return self.value < self.bound - 1e-9


def _same_axis_matrix(ds: CorrelationDataset, axis: PauliAxis) -> np.ndarray:
    n = ds.n_sites
    c = np.eye(n)
    missing = []
    for i in range(n):
        for j in range(i + 1, n):
            v = ds.get_two(i, j, axis, axis)
            if v is None:
                missing.append(two_body_label(i, j, axis, axis))
            else:
                c[i, j] = c[j, i] = v
    if missing:
        raise MissingData(
            f"structure factor along {axis} needs {len(missing)} absent correlators "
            f"(first few: {missing[:6]})", missing)
    return c


def structure_factor(ds: CorrelationDataset, k: float, axis: PauliAxis,
                     positions=None) -> StructureFactorValue:
    """S_k^a = n^-1 sum_{j,j'} exp[i k (r_j' - r_j)] C_jj'^aa with the
    diagonal term C_jj^aa = 1 included."""
    axis = PauliAxis.coerce(axis)
    n = ds.n_sites
    r = np.arange(n, dtype=float) if positions is None else np.asarray(positions, dtype=float)
    if r.shape[0] != n:
        raise BadKey(f"positions must have length {n}")
    c = _same_axis_matrix(ds, axis)
    if r.ndim == 1:
        phases = np.exp(1j * float(k) * r)
    else:
        phases = np.exp(1j * (r @ np.asarray(k, dtype=float)))
    value = float(np.real(np.conj(phases) @ c @ phases)) / n
    return StructureFactorValue(k=k, axis=axis, value=value)


def commensurate_grid(n: int) -> np.ndarray:
    """Chain wavevectors k = 2 pi m / n for m = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


def structure_factor_curve(ds: CorrelationDataset, k_grid, axis: PauliAxis,
                           positions=None) -> np.ndarray:
    """S_k^a for every k in the grid in one vectorized pass (chain geometry)."""
    axis = PauliAxis.coerce(axis)
    n = ds.n_sites
    r = np.arange(n, dtype=float) if positions is None else np.asarray(positions, dtype=float)
    c = _same_axis_matrix(ds, axis)
    ks = np.asarray(list(k_grid), dtype=float)
    phases = np.exp(1j * np.outer(r, ks))  # (n, nk)
    return np.real(np.einsum("ik,ij,jk->k", phases.conj(), c, phases)) / n


def optimal_structure_witness(ds: CorrelationDataset, k_grid,
                              positions=None) -> OptimalStructureWitness:
    """Per-axis argmin of S_k^a over the grid; entangled iff the sum < 2."""
    k_grid = list(k_grid)
    if not k_grid:
        raise BadKey("k_grid must be nonempty")
    best_k, best_v = [], []
    for axis in AXES:
        vals = structure_factor_curve(ds, k_grid, axis, positions)
        idx = int(np.argmin(vals))
        best_k.append(k_grid[idx])
        best_v.append(float(vals[idx]))
    return OptimalStructureWitness(k_x=best_k[0], k_y=best_k[1], k_z=best_k[2],
                                   value=float(sum(best_v)))


# -- two-qubit densities and concurrence --------------------------------------


def check_two_qubit_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotDensity(f"two-qubit density matrix must be 4x4, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise NotDensity("density matrix is not Hermitian to 1e-12")
    if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
        raise NotDensity("density matrix trace is not 1 to 1e-12")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise NotDensity("density matrix has an eigenvalue below -1e-10")
    return rho


def pair_density_from_quench(amps: QuenchAmplitudes, i: int, j: int,
                             lam_noise: float = 0.0) -> np.ndarray:
    """Reduced two-site state of the single-excitation state, then admixed
    with lam_noise * identity/4 (the pair marginal of global white noise).

    Site indices may be given as signed ring coordinates; they are reduced
    modulo n.  Basis order is (up,up), (up,down), (down,up), (down,down).
    """
    lam_noise = float(lam_noise)
    if not 0.0 <= lam_noise <= 1.0:
        raise BadNoiseLevel(f"noise fraction {lam_noise} outside [0, 1]")
    n = amps.n
    i, j = int(i) % n, int(j) % n
    if i == j:
        raise BadKey("pair density needs two distinct sites")
    phi_i, phi_j = amps.phi[i], amps.phi[j]
    p_rest = max(0.0, 1.0 - abs(phi_i) ** 2 - abs(phi_j) ** 2)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = p_rest
    # Coherent block spanned by |down_i up_j> and |up_i down_j>.
    v = np.array([phi_j, phi_i])  # (|01>, |10>) amplitudes in the pair basis
    block = np.outer(v, v.conj())
    rho[1:3, 1:3] = block
    rho = (1.0 - lam_noise) * rho + lam_noise * np.eye(4) / 4.0
    return check_two_qubit_density(rho)


_YY = np.kron(_PAULI[PauliAxis.Y], _PAULI[PauliAxis.Y])


def wootters_concurrence(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4) with l_k the sorted square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).

    Computed as the singular values of sqrt(rho) (Y x Y) sqrt(rho)*, which
    shares its spectrum-squares with the product above but keeps absolute
    (not squared) floating-point accuracy near zero.
    """
    rho = check_two_qubit_density(rho)
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    lams = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def concurrence_noise_robustness(amps: QuenchAmplitudes, tol: float = 1e-10) -> float:
    """Largest white-noise fraction at which some pair still has positive
    concurrence, maximized over all pairs (bisection per pair).

    Along the ray toward identity/4 the entangled stretch is an interval
    (convexity of the separable set), so bisection is exact and a pair whose
    concurrence already vanishes at the current record cannot improve on it.
    """
    n = amps.n
    absphi = np.abs(amps.phi)
    order = sorted(
        ((2.0 * absphi[i] * absphi[j], i, j) for i in range(n) for j in range(i + 1, n)),
        reverse=True)
    best = 0.0
    for c0, i, j in order:
        if c0 <= 1e-12:
            break
        if wootters_concurrence(pair_density_from_quench(amps, i, j, best)) <= 0:
            continue
        lo, hi = best, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if wootters_concurrence(pair_density_from_quench(amps, i, j, mid)) > 0:
                lo = mid
            else:
                hi = mid
        best = lo
    return best
