"""Shared independent oracles and generators for the test suite.

Everything here recomputes expectations through a different route than the
code under test: explicit classical averages over mixtures, dense quantum
states, or brute-force evaluation.
"""

import ctypes
import functools

import numpy as np
import numpy.linalg._umath_linalg
import scipy.linalg._flapack

import sepcert as sc
from sepcert.seporacle import make_rng


def mixture_moment(mixture, monomial) -> float:
    """Classical expectation of a Bloch-variable monomial under a mixture:
    the direct weighted product over components."""
    total = 0.0
    for p, state in zip(mixture.weights, mixture.states):
        term = 1.0
        for site, comp in monomial.factors:
            term *= state.bloch[site, comp]
        total += p * term
    return total


def haar_state(n: int, rng) -> np.ndarray:
    rng = make_rng(rng)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def quench_state_vector(amps) -> np.ndarray:
    """Full 2^n state vector of the single-excitation quench state: the
    amplitude phi_i sits on the basis state with one down spin (bit set) at
    site i, site 0 being the most significant qubit."""
    n = amps.n
    psi = np.zeros(2 ** n, dtype=complex)
    for i in range(n):
        psi[1 << (n - 1 - i)] = amps.phi[i]
    return psi


def random_state_dataset(n: int, seed) -> sc.CorrelationDataset:
    """Full correlator set of a Haar-random pure state."""
    return sc.state_dataset(haar_state(n, seed))


def drop_entries(ds: sc.CorrelationDataset, frac: float, seed) -> sc.CorrelationDataset:
    """Remove a random fraction of the stored correlators."""
    rng = make_rng(seed)
    one = {k: v for k, v in ds.one_items() if rng.random() >= frac}
    two = {k: v for k, v in ds.two_items() if rng.random() >= frac}
    if not one and not two:
        two = dict(list(ds.two_items())[:1])
    return sc.CorrelationDataset(ds.n_sites, one, two)


def entangled_state_dataset(n: int, seed, min_lambda=1e-3):
    """A Haar-state dataset whose level-1 certification detects entanglement;
    retries the seed stream until one is found."""
    rng = make_rng(seed)
    for _ in range(60):
        ds = sc.state_dataset(haar_state(n, rng))
        sol, prob = sc.certify(ds)
        if sol.lambda_star > min_lambda:
            return ds, sol, prob
    raise AssertionError("no entangled Haar dataset found in 60 draws")


def x_state_noise_robustness(phi_i: complex, phi_j: complex) -> float:
    """White-noise robustness of the concurrence of one quench pair, in
    closed form instead of bisection on the Wootters spectrum.

    The pair state (1 - lam) rho + lam I/4 is an X-state with rho_03 = 0, so
    its concurrence is 2 max(0, |rho_12| - sqrt(rho_00 rho_33)).  It vanishes
    at the smaller root of A lam^2 - B lam + C = 0 with
        A = a^2 + q/4 - 1/16,  B = 2 a^2 + q/4,  C = a^2,
    a = |phi_i phi_j| and q = 1 - |phi_i|^2 - |phi_j|^2, taken in the
    cancellation-free form 2C / (B + sqrt(B^2 - 4AC)).
    """
    a2 = abs(phi_i * phi_j) ** 2
    q = 1.0 - abs(phi_i) ** 2 - abs(phi_j) ** 2
    qa, qb = a2 + q / 4.0 - 1.0 / 16.0, 2.0 * a2 + q / 4.0
    return 2.0 * a2 / (qb + np.sqrt(qb * qb - 4.0 * qa * a2))


def best_x_state_pair(amps):
    """(robustness, i, j) of the pair with the largest closed-form robustness,
    by brute force over all pairs."""
    n = amps.n
    return max((x_state_noise_robustness(amps.phi[i], amps.phi[j]), i, j)
               for i in range(n) for j in range(i + 1, n))


_DENSE_PAULI = {sc.PauliAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
                sc.PauliAxis.Y: np.array([[0, -1j], [1j, 0]]),
                sc.PauliAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex)}


def dense_pauli_string(n, factors):
    """Dense 2^n matrix of the Pauli string {site: axis}, site 0 the most
    significant qubit."""
    mats = [np.eye(2)] * n
    for site, axis in factors.items():
        mats[site] = _DENSE_PAULI[sc.PauliAxis.coerce(axis)]
    return functools.reduce(np.kron, mats)


def expm_thermal_correlator(spec, temperature, i, j, axis):
    """Second exact-diagonalization route: Gibbs state via the dense matrix
    exponential instead of the spectral decomposition, and the pair operator
    as a dense Kronecker product."""
    import scipy.linalg as sla
    from sepcert.physmodels import hamiltonian

    h = hamiltonian(spec).toarray()
    rho = sla.expm(-h / max(temperature, 1e-3))
    rho /= np.trace(rho)
    op = dense_pauli_string(spec.n, {i: axis, j: axis})
    return float(np.real(np.sum(rho.T * op)))


def _openblas_setters():
    setters = {}
    for ext in (numpy.linalg._umath_linalg, scipy.linalg._flapack):
        fn = getattr(ctypes.CDLL(ext.__file__), "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
            setters[ctypes.cast(fn, ctypes.c_void_p).value] = fn
    return list(setters.values())


OPENBLAS_SETTERS = _openblas_setters()


def blas_thread_counts():
    """Thread count of each OpenBLAS bundled by numpy and scipy, read through
    the setter the solver scopes with: set 1, take the previous value, put it
    back.  Call it inside a solve's scope or while no solve runs, since the
    count is process-wide and putting back a stale value would undo a
    restore made meanwhile."""
    counts = []
    for fn in OPENBLAS_SETTERS:
        prev = fn(1)
        fn(prev)
        counts.append(prev)
    return counts
