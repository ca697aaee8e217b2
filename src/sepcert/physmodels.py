"""Dataset generators for desk-reproducible physical scenarios.

Covers the noisy-singlet (Werner) pair, the single-flip quench on an XX ring,
thermal states of small Heisenberg / transverse-field Ising chains by exact
diagonalization per sector of translation and global spin flip (and S^z),
read off per sector without forming the 2^n x 2^n Gibbs state, structure
factors, and two-qubit concurrence diagnostics.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._blas import single_blas_thread
from .corrdata import AXES, SAME_AXIS, CorrelationDataset, PauliAxis
from .errors import BadKey, BadNoiseLevel, NotDensity, NotNormalized, TooLarge

ED_SITE_CAP = 14           # chain length cap: state_dataset reads dense 2^n arrays
ED_TEMPERATURE_FLOOR = 1e-3
_CLEAN_TOL = 1e-13         # state_dataset values below this are rounded to exact zero


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
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise BadKey(f"chain length must be an integer >= 2, got {self.n!r}")
        if self.n > ED_SITE_CAP:
            raise TooLarge(f"exact diagonalization capped at n <= {ED_SITE_CAP}, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("g", "J"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise BadKey(f"{name} must be a finite number, got {value!r}")
            # the spec keys the kept spectrum: equal specs give equal arrays
            object.__setattr__(self, name, float(value) + 0.0)  # -0.0 as 0.0


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
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
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
    if not (math.isfinite(t) and t >= 0):
        raise BadKey(f"time must be finite and >= 0, got {t}")
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
#
# Basis state x holds site i in bit n-1-i (site 0 the most significant bit),
# a set bit being spin down.  A Pauli string with Y replaced by its real
# stand-in ytil = -iY = XZ acts on basis states by bit operations: it maps
# x to x ^ flip, flip holding the X and Y sites, with the sign (-1) to the
# number of set Z and Y bits of x.  Its matrix has one +-1 entry per row.


def _site_signs(n: int) -> np.ndarray:
    """signs[i, x] = +1 if site i is up in basis state x, -1 if it is down."""
    x = np.arange(1 << n)
    return 1.0 - 2.0 * ((x >> np.arange(n - 1, -1, -1)[:, None]) & 1)


def _string_rows(n: int, factors: dict, signs: np.ndarray):
    """The real stand-in of the Pauli string {site: axis} as (cols, vals):
    row y has its one entry vals[y] at column cols[y] = y ^ flip."""
    flip = 0
    vals = np.ones(1 << n)
    for site, axis in factors.items():
        if axis is not PauliAxis.Z:
            flip |= 1 << (n - 1 - site)
        if axis is not PauliAxis.X:
            vals = vals * signs[site]
        if axis is PauliAxis.Y:  # the sign is read off the column, whose Y bit is flipped
            vals = -vals
    return np.arange(1 << n) ^ flip, vals


def _chain_terms(spec: ModelSpec):
    """(scale, [(weight, factors)]): H = scale * sum weight * string."""
    n = spec.n
    bonds = [(i, (i + 1) % n) for i in range(n)]  # n = 2 counts its one bond twice
    if spec.kind is ModelKind.HEISENBERG:
        return spec.J / 4.0, [(1.0, {i: a, j: a}) for i, j in bonds for a in AXES]
    return -spec.J / 4.0, ([(1.0, {i: PauliAxis.Z, j: PauliAxis.Z}) for i, j in bonds]
                           + [(spec.g, {i: PauliAxis.X}) for i in range(n)])


def hamiltonian(spec: ModelSpec) -> sp.csr_matrix:
    """Sparse periodic-chain Hamiltonian (real for both supported models),
    summed from the bit action of its Pauli strings."""
    n = spec.n
    signs = _site_signs(n)
    scale, terms = _chain_terms(spec)
    cols, data = [], []
    for weight, factors in terms:
        c, vals = _string_rows(n, factors, signs)
        n_y = sum(a is PauliAxis.Y for a in factors.values())  # even here: i^n_y = +-1
        cols.append(c)
        data.append(weight * (-1) ** (n_y // 2) * vals)
    rows = np.tile(np.arange(1 << n), len(terms))
    h = sp.csr_matrix((np.concatenate(data), (rows, np.concatenate(cols))),
                      shape=(1 << n, 1 << n))  # sums the entries strings share
    h.eliminate_zeros()  # XX + YY cancels where the two bits agree
    return scale * h


def _orbits(n: int):
    """The orbits of the group G generated by the ring translation T and the
    global flip P = prod_i X_i on the basis states.

    T moves every site one place round the ring and P complements every
    bit; both permute basis states without signs, and G = Z_n x Z_2 has
    2n elements T^m P^s.  Each orbit is represented by its smallest state.
    Returns (orbit, m, s, size, reps, stab): the orbit index of every state
    x, with x = T^-m P^s reps[orbit[x]], the size of each orbit and, per
    group element (rows s * n + m), whether it fixes each representative.
    """
    x = np.arange(1 << n)
    shift = np.arange(n)[:, None]
    rot = ((x << shift) | (x >> (n - shift))) & ((1 << n) - 1)
    images = np.concatenate([rot, (1 << n) - 1 - rot])   # row s * n + m: T^m P^s x
    first = images.argmin(axis=0)
    reps, orbit = np.unique(images[first, x], return_inverse=True)
    stab = images[:, reps] == reps
    return orbit, first % n, first // n, 2 * n // stab.sum(axis=0), reps, stab


@dataclass(frozen=True)
class _Spectrum:
    """Everything of one model's Gibbs states that does not depend on the
    temperature, built by ``_build_spectrum`` and kept by ``_spectrum``:

    - ``strings``: per computed correlator string, its key (r, a, b), the
      factor i^(number of Y factors) (+-1: odd counts are forced zeros),
      its real stand-in's values and the row of its flip mask;
    - ``phase``: the character values exp(i pi e / n), e = 0..2n-1;
    - ``sectors``: per diagonalized character, its weight (1 for a real
      character, 2 for a complex one standing in for its conjugate too), the
      eigenpairs of its blocks as (lo, hi, evals - e0, evecs) with e0 the
      ground-state energy, the flat index of rho[x ^ f, x]'s entry in the
      character's (d + 1) x (d + 1) Gibbs block (row and column d, zero,
      for the orbits outside the character) and the exponent e of its
      phase conj(chi(g_u)) chi(g_v);
    - ``u1_zero``: the entries S^z conservation holds at zero (Heisenberg);
    - ``w_u``, ``w_x``: the orbit-size weights of the row and the column.

    Every array is read-only, so concurrent readers may share one.
    """

    spec: ModelSpec
    strings: tuple
    phase: np.ndarray
    sectors: tuple
    u1_zero: np.ndarray | None
    w_u: np.ndarray
    w_x: np.ndarray


_kept_spectrum = None  # replaced whole, so a caller keeps the one it read


def _spectrum(spec: ModelSpec) -> _Spectrum:
    """The model's temperature-independent part, kept for the most recent
    model: a sweep over temperature diagonalizes once."""
    global _kept_spectrum
    kept = _kept_spectrum
    if kept is None or kept.spec != spec:
        kept = _kept_spectrum = _build_spectrum(spec)
    return kept


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@single_blas_thread()
def _build_spectrum(spec: ModelSpec) -> _Spectrum:
    """Diagonalize H per character of its symmetry group and lay out the
    gathers of the Gibbs state entries rho[x ^ f, x] that ``_gibbs_flips``
    reads off at each temperature.

    H commutes with the group G of ``_orbits``, so it is block diagonal over
    the characters chi(T^m P^s) = exp(2 pi i k m / n) p^s of G.  A
    representative r on whose stabilizer chi is trivial spans the state
    |r, chi> = O_r^-1/2 sum_y conj(chi(g_y)) |y> over its orbit, O_r the
    orbit size and g_y an element carrying r to y, and
        <a, chi|H|b, chi> = sqrt(O_b / O_a) sum_{y in orbit a} H[y, b] chi(g_y),
    so each block is read off H's columns at the representatives (Sandvik,
    AIP Conf. Proc. 1297, 135 (2010), sec. 4.1).  The Heisenberg chain also
    conserves S^z; P maps popcount c to n - c, so min(c, n - c) splits each
    character's block further.  At n = 10 the Ising chain splits into 20
    blocks of at most 56 and the Heisenberg chain into 102 blocks of at
    most 22, in place of one 1024 block.  Both Hamiltonians are real, so
    the block of -k is the conjugate of the block of k: only k = 0..n/2 is
    diagonalized (12 and 62 blocks at n = 10), and the other momenta enter
    as the conjugates of their contributions.

    The strings are those of ``thermal_dataset_ed``: <P_0^a> and
    <P_0^a P_r^b> for r <= n/2 (one order of the axes at r = n/2), less
    the ones the model holds at zero (see ``_forced_zero``).
    """
    n = spec.n
    signs = _site_signs(n)
    strings = {(0, a, a): {0: a} for a in AXES}
    strings.update({(r, a, b): {0: a, r: b} for r in range(1, n // 2 + 1)
                    for a in AXES for b in AXES if 2 * r < n or a <= b})
    strings = {key: factors for key, factors in strings.items()
               if not _forced_zero(spec, list(factors.values()))}
    rows = [_string_rows(n, factors, signs) for factors in strings.values()]
    flips, which = np.unique([cols[0] for cols, _ in rows], return_inverse=True)
    table = tuple((key, (1, 1j, -1)[sum(a is PauliAxis.Y for a in factors.values())],
                   _frozen(vals), f)
                  for (key, factors), (_, vals), f in zip(strings.items(), rows, which))

    orbit, shift, flip, size, reps, stab = _orbits(n)
    down = (signs < 0).sum(axis=0)
    heisenberg = spec.kind is ModelKind.HEISENBERG
    cls = np.minimum(down, n - down)[reps] if heisenberg else np.zeros(len(reps), dtype=int)
    # chi(g) = phase[e] with e = 2 k m + n s [p = -1] mod 2n; exact at +-1
    phase = np.exp(1j * np.pi * np.arange(2 * n) / n)
    phase[0], phase[n] = 1.0, -1.0
    g_m, g_s = np.arange(2 * n) % n, np.arange(2 * n) // n

    # Every entry H[y, r_b] of H's columns at the representatives (H is
    # symmetric, so column r_b is row r_b), with y in orbit a.
    cols = hamiltonian(spec)[reps].tocoo()
    col_b, y = cols.row, cols.col
    row_a = orbit[y]
    amp = cols.data * np.sqrt(size[col_b] / size[row_a])
    x = np.arange(1 << n)
    u = x ^ flips[:, None]

    blocks = []     # (k, q, position of each orbit in the block or d, eigenpairs)
    for k in range(n // 2 + 1):
        for q in (0, 1):
            fits = ~(((2 * k * g_m + n * q * g_s) % (2 * n) != 0)[:, None] & stab).any(axis=0)
            members = np.flatnonzero(fits)
            if len(members) == 0:
                continue
            members = members[np.argsort(cls[members], kind="stable")]
            pos = np.full(len(reps), -1)
            pos[members] = np.arange(len(members))
            keep = (pos[row_a] >= 0) & (pos[col_b] >= 0)
            chi = phase[(-2 * k * shift[y[keep]] + n * q * flip[y[keep]]) % (2 * n)]
            mat = np.zeros((len(members), len(members)), dtype=complex)
            np.add.at(mat, (pos[row_a[keep]], pos[col_b[keep]]), amp[keep] * chi)
            if 2 * k % n == 0:  # real characters
                mat = mat.real
            c = cls[members]
            edges = np.concatenate([[0], np.flatnonzero(np.diff(c)) + 1, [len(c)]])
            pos[pos < 0] = len(members)  # the zero row and column of the Gibbs block
            blocks.append((k, q, pos, [(lo, hi, *np.linalg.eigh(mat[lo:hi, lo:hi]))
                                       for lo, hi in zip(edges[:-1], edges[1:])]))

    e0 = min(evals[0] for *_, eigs in blocks for _, _, evals, _ in eigs)
    sectors = []
    for k, q, pos, eigs in blocks:
        e = (-2 * k * shift + n * q * flip) % (2 * n)
        width = eigs[-1][1] + 1
        gather = pos[orbit[u]] * width + pos[orbit[x]]
        sectors.append((1 if 2 * k % n == 0 else 2,
                        tuple((lo, hi, _frozen(evals - e0), _frozen(evecs))
                              for lo, hi, evals, evecs in eigs),
                        _frozen(gather.astype(np.min_scalar_type(width * width))),
                        _frozen(((e[x] - e[u]) % (2 * n)).astype(np.int8))))
    w = 1.0 / np.sqrt(size[orbit])
    return _Spectrum(spec, table, _frozen(phase), tuple(sectors),
                     _frozen(down[u] != down[x]) if heisenberg else None,
                     _frozen(w[u]), _frozen(w))


@single_blas_thread()
def _gibbs_flips(spectrum: _Spectrum, temperature: float) -> np.ndarray:
    """rho[x ^ f, x] of the Gibbs state exp(-H/T)/Z for every flip mask f of
    the spectrum's strings and every basis state x, as a (flips, 2^n) real
    array.

    With R_chi = V diag(w) V^dagger per block, w the Boltzmann weights over
    the whole spectrum,
        rho[u, v] = sum_chi R_chi[a_u, a_v] conj(chi(g_u)) chi(g_v) / sqrt(O_u O_v),
    gathered for u = x ^ f and v = x, so no 2^n x 2^n array is formed.
    """
    boltz = [[np.exp(-de / temperature) for _, _, de, _ in eigs]
             for _, eigs, *_ in spectrum.sectors]
    z = sum(weight * b.sum() for (weight, *_), bs in zip(spectrum.sectors, boltz) for b in bs)
    out = np.zeros(spectrum.w_u.shape)
    for (weight, eigs, gather, exps), bs in zip(spectrum.sectors, boltz):
        d = eigs[-1][1]
        r = np.zeros((d + 1, d + 1), dtype=eigs[0][3].dtype)  # row and column d: zero
        for (lo, hi, _, evecs), b in zip(eigs, bs):
            r[lo:hi, lo:hi] = (evecs * (b / z)) @ evecs.conj().T
        term = np.real(np.take(r, gather) * np.take(spectrum.phase, exps))
        out += term if weight == 1 else 2.0 * term
    if spectrum.u1_zero is not None:  # the pairing of c with n - c leaves rounding here
        out[spectrum.u1_zero] = 0.0
    return out * spectrum.w_u * spectrum.w_x


def _clean(v) -> float:
    v = float(np.clip(v, -1.0, 1.0))
    return 0.0 if abs(v) < _CLEAN_TOL else v


def _correlators(state: np.ndarray, n: int):
    """Every one- and two-body correlator of a state vector or density matrix
    on n sites, as (one, two) dicts of cleaned values.

    Each string acts through its real stand-in, with Y = i * ytil (see
    ``_string_rows``); each expectation value is multiplied by
    i^(number of Y factors) and its real part kept.  For a real density
    matrix every correlator with an odd number of Y factors therefore comes
    out as exact zero.
    """
    signs = _site_signs(n)
    rows = np.arange(1 << n)
    if state.ndim == 1:
        def expval(cols, vals):
            return np.vdot(state, vals * state[cols])
    else:
        def expval(cols, vals):  # Tr[rho op] = sum_y op[y, cols[y]] rho[cols[y], y]
            return np.sum(vals * state[cols, rows])

    def value(factors):
        n_y = sum(a is PauliAxis.Y for a in factors.values())
        return _clean(np.real((1, 1j, -1)[n_y] * expval(*_string_rows(n, factors, signs))))

    one = {(i, a): value({i: a}) for i in range(n) for a in AXES}
    two = {(i, j, a, b): value({i: a, j: b})
           for i in range(n) for j in range(i + 1, n) for a in AXES for b in AXES}
    return one, two


def _forced_zero(spec: ModelSpec, axes) -> bool:
    """Whether the model holds the correlator of a Pauli string with these
    axes at zero in every Gibbs state.

    Both Hamiltonians commute with the global flip prod_i X_i, which
    anticommutes with Y and Z, and are real, which makes a string with an
    odd number of Y factors imaginary.  SU(2) symmetry (Heisenberg) leaves
    only same-axis pairs, and a diagonal H (Ising at g = 0) Z strings.
    """
    if axes.count(PauliAxis.Y) % 2 or axes.count(PauliAxis.Z) % 2:
        return True
    if spec.kind is ModelKind.HEISENBERG:
        return len(axes) == 1 or axes[0] is not axes[1]
    return spec.g == 0 and axes.count(PauliAxis.Z) < len(axes)


def thermal_dataset_ed(spec: ModelSpec, temperature: float) -> CorrelationDataset:
    """All one- and two-body correlators of the Gibbs state.

    The state is translation invariant, so each correlator is read once, at
    site 0 and at the pairs (0, r) with r <= n/2, from the Gibbs state
    entries rho[x ^ flip, x] of ``_gibbs_flips`` through the strings' bit
    action (see ``_correlators``), and every translate is given that value:
    <P_i^a P_j^b> is the value of (0, j - i, a, b) or, past n/2, of
    (0, n - j + i, b, a), and at r = n/2 one order of the axes serves both.
    The correlators that the model's symmetries hold at zero (see
    ``_forced_zero``) are stored as exact zero without being computed; every
    other value is kept as computed.  For the SU(2)-symmetric Heisenberg
    chain the three same-axis correlators are averaged to exact equality so
    the emitted dataset carries the model symmetry exactly.

    The diagonalization and the string table depend on the model alone and
    are kept for the most recent model (``_spectrum``), so only the read-off
    runs per temperature.  Temperatures below the 1e-3 floor are raised to
    it, standing in for the T -> 0 limit without ground-state degeneracy
    branches.
    """
    if not (temperature > 0 and np.isfinite(temperature)):
        raise BadNoiseLevel(f"temperature must be finite and > 0, got {temperature}")
    spectrum = _spectrum(spec)
    rho = _gibbs_flips(spectrum, max(float(temperature), ED_TEMPERATURE_FLOOR))
    value = {key: float(np.clip(np.real(sign * (vals @ rho[f])), -1.0, 1.0))
             for key, sign, vals, f in spectrum.strings}
    n = spec.n
    if spec.kind is ModelKind.HEISENBERG:
        for r in range(1, n // 2 + 1):
            avg = float(np.mean([value[(r, a, a)] for a in AXES]))
            value.update({(r, a, a): avg for a in AXES})

    def pair(d, a, b):
        if 2 * d > n:
            d, a, b = n - d, b, a
        return value.get((d, a, b) if 2 * d < n or a <= b else (d, b, a), 0.0)

    one = {(i, a): value.get((0, a, a), 0.0) for i in range(n) for a in AXES}
    two = {(i, j, a, b): pair(j - i, a, b)
           for i in range(n) for j in range(i + 1, n) for a in AXES for b in AXES}
    return CorrelationDataset(n, one, two)


def state_dataset(state: np.ndarray) -> CorrelationDataset:
    """All one- and two-body correlators of an arbitrary pure state vector or
    density matrix on 2^n dimensions (general complex path; used as oracle).
    A density matrix must be Hermitian and of unit trace within 1e-10."""
    state = np.asarray(state).astype(complex)
    dim = state.shape[0]
    if state.ndim == 1:
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-10:
            raise NotNormalized(f"state vector norm {nrm!r} is not 1")
    elif state.shape != (dim, dim) or np.max(np.abs(state - state.conj().T)) > 1e-10:
        raise NotDensity(f"density matrix of shape {state.shape} is not Hermitian to 1e-10")
    elif abs(np.trace(state) - 1.0) > 1e-10:
        raise NotDensity(f"density matrix trace {np.trace(state).real!r} is not 1 to 1e-10")
    n = int(np.round(np.log2(dim)))
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


def structure_factor_curve(ds: CorrelationDataset, k_grid, axis: PauliAxis,
                           positions=None) -> np.ndarray:
    """S_k^a = n^-1 sum_{j,j'} exp[i k.(r_j' - r_j)] C_jj'^aa, with the
    diagonal term C_jj^aa = 1 included, for every k in the grid in one
    vectorized pass.  Positions of shape (n,) (default 0..n-1) take scalar
    wavevectors, positions of shape (n, d) take d-vectors."""
    axis = PauliAxis.coerce(axis)
    n = ds.n_sites
    r = np.arange(n, dtype=float) if positions is None else np.asarray(positions, dtype=float)
    ks = np.asarray(list(k_grid), dtype=float)
    if r.ndim == 1:  # a chain: scalar wavevectors
        r, ks = r[:, None], ks[:, None]
    if r.ndim != 2 or r.shape[0] != n or ks.ndim != 2 or ks.shape[1] != r.shape[1]:
        raise BadKey(f"positions must have shape ({n},) with scalar wavevectors or "
                     f"({n}, d) with d-vector wavevectors")
    ds.require(f"structure factor along {axis} needs every {axis}{axis} pair",
               two=SAME_AXIS & (np.arange(3) == axis)[:, None, None])
    c = np.where(np.eye(n, dtype=bool), 1.0, ds.arrays()[1][:, axis, :, axis])
    phases = np.exp(1j * (r @ ks.T))  # (n, nk)
    return np.real(np.einsum("ik,ij,jk->k", phases.conj(), c, phases)) / n


def structure_factor(ds: CorrelationDataset, k, axis: PauliAxis,
                     positions=None) -> StructureFactorValue:
    """S_k^a at one wavevector: the structure-factor curve at k alone."""
    value = structure_factor_curve(ds, [k], axis, positions)[0]
    return StructureFactorValue(k=k, axis=PauliAxis.coerce(axis), value=float(value))


def commensurate_grid(n: int) -> np.ndarray:
    """Chain wavevectors k = 2 pi m / n for m = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


def optimal_structure_witness(ds: CorrelationDataset, k_grid,
                              positions=None) -> OptimalStructureWitness:
    """Per-axis argmin of S_k^a over the grid; entangled iff the sum < 2."""
    k_grid = list(k_grid)
    if not k_grid:
        raise BadKey("k_grid must be nonempty")
    curves = np.array([structure_factor_curve(ds, k_grid, a, positions) for a in AXES])
    best = curves.argmin(axis=1)
    return OptimalStructureWitness(*(k_grid[i] for i in best),
                                   value=float(sum(curves[range(3), best].tolist())))


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


_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_Y, _Y)


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


def concurrence_noise_robustness(amps: QuenchAmplitudes) -> float:
    """Largest white-noise fraction at which some pair still has positive
    concurrence, maximized over all pairs.

    Each pair state (1 - lam) rho + lam I/4 is an X-state with rho_03 = 0,
    so its concurrence is 2 max(0, |rho_12| - sqrt(rho_00 rho_33)) and
    vanishes at the smaller root of A lam^2 - B lam + C = 0 with
        A = a^2 + q/4 - 1/16,  B = 2 a^2 + q/4,  C = a^2,
    a = |phi_i phi_j| and q = 1 - |phi_i|^2 - |phi_j|^2 (clipped at 0 as in
    ``pair_density_from_quench``).  The root is taken in the
    cancellation-free form 2C / (B + sqrt(B^2 - 4AC)), for every pair at
    once, where B^2 - 4AC = q^2/16 + a^2/4.  A pair whose noiseless
    concurrence 2a is at most 1e-12 gives 0: a = 0 would make the root 0/0,
    and at tJ = 0 the amplitudes off the flipped site are rounding of that
    size.
    """
    p = np.abs(amps.phi) ** 2
    i, j = np.triu_indices(amps.n, k=1)
    a2 = p[i] * p[j]
    q = np.maximum(0.0, 1.0 - p[i] - p[j])
    b = 2.0 * a2 + q / 4.0
    root = np.divide(2.0 * a2, b + np.sqrt(q * q / 16.0 + a2 / 4.0),
                     out=np.zeros_like(a2), where=2.0 * np.sqrt(a2) > 1e-12)
    return float(root.max(initial=0.0))
