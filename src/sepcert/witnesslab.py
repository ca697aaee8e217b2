"""Witness evaluation and the analytic witness families.

Every family is normalized to one of two orientations: an ``upper`` witness
is violated when its value exceeds the separable bound, a ``lower`` witness
when it falls below.  This keeps the mixed conventions of the phase,
structure-factor, bipartite, and dual-certificate families behind a single
interface.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corrdata import AXES, SAME_AXIS, CorrelationDataset
from .errors import (BadKey, BadSize, MissingData, ParseError, WrongSize)
from .physmodels import structure_factor
from .sdpcore import BlockSdp, InteriorPointSolver, SdpStatus, SolverOptions

FORMAT_VERSION = 1
VIOLATION_TOL = 1e-9

PROVENANCES = ("dual_certificate", "structure_factor", "bipartite",
               "phase_family", "spin_squeezing")


@dataclass(frozen=True)
class Witness:
    """Correlator-keyed linear functional with a separable bound."""

    coefficients: dict
    separable_bound: float
    orientation: str = "upper"          # 'upper': separable data satisfy value <= bound
    provenance: str = "dual_certificate"

    def __post_init__(self):
        if not self.coefficients:
            raise BadKey("witness must carry at least one coefficient")
        if self.orientation not in ("upper", "lower"):
            raise BadKey(f"unknown orientation {self.orientation!r}")
        if self.provenance not in PROVENANCES:
            raise BadKey(f"unknown provenance {self.provenance!r}")
        if not all(map(math.isfinite, [*self.coefficients.values(), self.separable_bound])):
            raise BadKey("witness coefficients and bound must be finite")


@dataclass(frozen=True)
class WitnessEvaluation:
    value: float
    bound: float
    orientation: str
    violated: bool
    margin: float  # positive by exactly the violation amount


def _verdict(value: float, bound: float, orientation: str) -> WitnessEvaluation:
    margin = value - bound if orientation == "upper" else bound - value
    return WitnessEvaluation(value=float(value), bound=float(bound),
                             orientation=orientation,
                             violated=margin > VIOLATION_TOL, margin=float(margin))


def eval_witness(witness: Witness, ds: CorrelationDataset) -> WitnessEvaluation:
    """sum_r w_r C_r against the witness bound; every label must be stored."""
    value = 0.0
    missing = []
    for label, w in witness.coefficients.items():
        try:
            value += w * ds.value(label)
        except MissingData:
            missing.append(label)
    if missing:
        raise MissingData(
            f"witness references {len(missing)} absent correlators "
            f"(first few: {missing[:6]})", missing)
    return _verdict(value, witness.separable_bound, witness.orientation)


# -- witness file IO -----------------------------------------------------------


def write_witness(witness: Witness, path, extra=None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "coefficients": [{"label": k, "value": v}
                         for k, v in sorted(witness.coefficients.items())],
        "bound": witness.separable_bound,
        "orientation": witness.orientation,
        "provenance": witness.provenance,
    }
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_witness(path) -> Witness:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from None
    try:
        coeffs = {rec["label"]: float(rec["value"]) for rec in doc["coefficients"]}
        return Witness(coefficients=coeffs, separable_bound=float(doc["bound"]),
                       orientation=doc.get("orientation", "upper"),
                       provenance=doc.get("provenance", "dual_certificate"))
    except (KeyError, TypeError, ValueError, BadKey) as exc:
        raise ParseError(f"{path}: malformed witness document ({exc})") from None


# -- general-phase family ------------------------------------------------------


def _phases_array(phases, n: int) -> np.ndarray:
    if phases is None:
        return np.zeros((n, 3))
    arr = np.asarray(phases, dtype=float)
    if arr.shape != (n, 3):
        raise BadKey(f"phases must have shape ({n}, 3), got {arr.shape}")
    return arr


def phase_witness_value(ds: CorrelationDataset, phases=None) -> WitnessEvaluation:
    """sum_a sum_{j != j'} e^{i[phi_a(j') - phi_a(j)]} C_jj'^aa, a real number
    bounded below by -n on separable states; arbitrary per-site, per-axis
    phases."""
    n = ds.n_sites
    phi = _phases_array(phases, n)
    ds.require("phase witness needs all same-axis pairs", two=SAME_AXIS)
    iu = np.triu_indices(n, 1)
    corr = np.diagonal(ds.arrays()[1], axis1=1, axis2=3)[iu]  # (pairs, 3)
    total = float(np.sum(2.0 * np.cos(phi[iu[1]] - phi[iu[0]]) * corr))
    return _verdict(total, -float(n), "lower")


# -- structure-factor family ---------------------------------------------------


def structure_witness_value(ds: CorrelationDataset, k_x, k_y, k_z,
                            positions=None) -> WitnessEvaluation:
    """S_{k_X}^X + S_{k_Y}^Y + S_{k_Z}^Z >= 2 on separable qubit data."""
    value = sum(structure_factor(ds, k, a, positions).value
                for k, a in zip((k_x, k_y, k_z), AXES))
    return _verdict(value, 2.0, "lower")


def spin_structure_factor_bound(n_sites: int, spin: float) -> float:
    """Separable bound n*s for the spin-s structure-factor witness written
    with spin-s operators and without the 1/n normalization; for s = 1/2 it
    reduces to the qubit bound 2 after dividing by n and rescaling spins to
    Pauli operators (factor 4)."""
    if n_sites < 1 or spin <= 0:
        raise BadKey("need n_sites >= 1 and spin > 0")
    return float(n_sites) * float(spin)


# -- bipartite interface family -------------------------------------------------


@dataclass(frozen=True)
class BipartiteKernel:
    """Interface kernel K_r = (2/n) sum_{k=-n/4+1}^{n/4-1} e^{2 pi i k r / n},
    defined for chains with n divisible by 4; K is even in r."""

    n: int
    values: np.ndarray = field(repr=False)

    def k(self, r: int) -> float:
        return float(self.values[abs(int(r))])


def bipartite_kernel(n: int) -> BipartiteKernel:
    n = int(n)
    if n % 4 != 0 or n < 4:
        raise BadSize(f"kernel needs n divisible by 4, got {n}")
    ks = np.arange(-(n // 4) + 1, n // 4)
    r = np.arange(n)
    vals = (2.0 / n) * np.cos(2.0 * np.pi * np.outer(r, ks) / n).sum(axis=1)
    return BipartiteKernel(n=n, values=vals)


def bipartite_kernel_closed_form(n: int, r: int) -> float:
    """Closed form (2/n)[sin(pi r/2)/tan(pi r/n) - cos(pi r/2)] for r != 0,
    with the odd-r simplification 2(-1)^((r-1)/2) / (n tan(pi r/n))."""
    n = int(n)
    if n % 4 != 0 or n < 4:
        raise BadSize(f"kernel needs n divisible by 4, got {n}")
    r = int(r)
    if r % n == 0:
        return 1.0 - 2.0 / n
    if r % 2 != 0:
        return 2.0 * (-1.0) ** ((abs(r) - 1) // 2) / (n * np.tan(np.pi * abs(r) / n))
    return (2.0 / n) * (np.sin(np.pi * r / 2.0) / np.tan(np.pi * r / n)
                        - np.cos(np.pi * r / 2.0))


def bipartite_witness_value(ds: CorrelationDataset, phases=None) -> WitnessEvaluation:
    """W = W_X + W_Y + W_Z >= -n/2 on fully separable data, with
    W_a = sum_{i in A, j in B} K_{j-i} C_ij^aa cos[phi_a(i) - phi_a(j)] over
    the even|odd bipartition; violation certifies bipartite entanglement."""
    n = ds.n_sites
    if n % 4 != 0:
        raise BadSize(f"bipartite interface witness needs n divisible by 4, got {n}")
    phi = _phases_array(phases, n)
    kernel = bipartite_kernel(n)
    site = np.arange(n)
    ds.require("bipartite witness needs all inter-partition same-axis pairs",
               two=SAME_AXIS & ((site[:, None] + site) % 2 == 1)[:, None, :, None])
    a_sites, b_sites = site[0::2], site[1::2]     # the even|odd bipartition
    corr = np.diagonal(ds.arrays()[1], axis1=1, axis2=3)[np.ix_(a_sites, b_sites)]
    k = kernel.values[np.abs(b_sites - a_sites[:, None])]
    total = float(np.sum(k[:, :, None] * corr
                         * np.cos(phi[a_sites, None] - phi[b_sites])))
    return _verdict(total, -n / 2.0, "lower")


# -- permutation-invariant (spin-squeezing) family -------------------------------


@dataclass(frozen=True)
class SpinSqueezingResult:
    index: int
    lhs: float
    satisfied: bool


def spin_squeezing_check(moments, n: int = None, tol: float = VIOLATION_TOL):
    """The eight permutation-invariant inequalities on collective moments.

    Each bounds a per-axis choice between c_aa and n m_a^2 - (n-1) c_aa by 1;
    any violation certifies entanglement.  ``moments`` is a CollectiveMoments;
    ``n`` overrides its n_sites (e.g. to probe the large-n limit).
    """
    n = int(moments.n_sites if n is None else n)
    m = np.asarray(moments.m)
    c = np.asarray(moments.c)

    def f_corr(a):
        return c[a]

    def f_mag(a):
        return n * m[a] ** 2 - (n - 1) * c[a]

    combos = [
        (f_corr, f_corr, f_corr),
        (f_corr, f_corr, f_mag),
        (f_mag, f_corr, f_corr),
        (f_corr, f_mag, f_corr),
        (f_corr, f_mag, f_mag),
        (f_mag, f_corr, f_mag),
        (f_mag, f_mag, f_corr),
        (f_mag, f_mag, f_mag),
    ]
    out = []
    for idx, (fx, fy, fz) in enumerate(combos, start=1):
        lhs = float(fx(0) + fy(1) + fz(2))
        out.append(SpinSqueezingResult(index=idx, lhs=lhs, satisfied=lhs <= 1.0 + tol))
    return out


# -- covariance-matrix criterion (three qubits) -----------------------------------


@dataclass(frozen=True)
class CmcResult:
    feasible: bool
    margin: float  # optimal slack; >= -tol means a feasible completion exists
    status: SdpStatus


def cmc_check(ds: CorrelationDataset, tol: float = 1e-8) -> CmcResult:
    """Three-qubit covariance-matrix criterion.

    Searches for symmetric unit-trace blocks rho_i >= 0 making the 9x9 block
    matrix of pair correlators dominate the outer product of the one-body
    vector.  Infeasibility certifies entanglement; feasibility is necessary
    for (and implied by) a PSD moment-matrix completion.
    """
    if ds.n_sites != 3:
        raise WrongSize(f"covariance-matrix criterion implemented for 3 qubits, "
                        f"got n={ds.n_sites}")
    ds.require("covariance-matrix criterion needs the full one- and two-body set",
               one=True, two=True)
    one, two = ds.arrays()
    cvec = one.ravel()
    cmat = np.nan_to_num(two.reshape(9, 9), nan=0.0)  # the i == j blocks are NaN

    # Feasibility as max-margin: maximize s with (big block - C C^T - s I) and
    # every (rho_i - s I) PSD.  Variables: s plus 5 per site (unit trace).
    nvars = 1 + 15
    c_obj = np.zeros(nvars)
    c_obj[0] = -1.0  # maximize s
    base = cmat - np.outer(cvec, cvec)
    const = [(0, r, cc, base[r, cc]) for r, cc in zip(*np.triu_indices(9)) if base[r, cc] != 0.0]
    coeffs = [(0, r, r, 0, -1.0) for r in range(18)]  # -s on every diagonal

    # One 18-row block: the 9x9 matrix, then rho_0, rho_1, rho_2 on its
    # diagonal, each parametrized by (d0, d1, o01, o02, o12), d2 = 1 - d0 - d1.
    for i in range(3):
        v0 = 1 + 5 * i
        for off in (3 * i, 9 + 3 * i):
            const.append((0, off + 2, off + 2, 1.0))
            coeffs += [(0, off + r, off + cc, v0 + v, x) for r, cc, v, x in (
                (0, 0, 0, 1.0), (2, 2, 0, -1.0), (1, 1, 1, 1.0), (2, 2, 1, -1.0),
                (0, 1, 2, 1.0), (0, 2, 3, 1.0), (1, 2, 4, 1.0))]

    initial = np.zeros(nvars)
    initial[0] = -(float(np.linalg.norm(base, 2)) + 1.0)
    for i in range(3):
        initial[1 + 5 * i] = initial[2 + 5 * i] = 1.0 / 3.0
    prob = BlockSdp(block_dims=[18], n_vars=nvars, c=c_obj, const=list(zip(*const)),
                    coeffs=list(zip(*coeffs)), initial_u=initial)
    res = InteriorPointSolver(SolverOptions(tol=1e-9, max_iter=100)).solve(prob)
    margin = -res.obj  # optimal s
    return CmcResult(feasible=margin >= -tol, margin=float(margin), status=res.status)
