"""Standard-form SDP assembly, a self-contained primal-dual interior-point
solver, and extraction of the dual entanglement certificate.

The noise-robustness program is

    min lambda  s.t.  X = diag(lambda, Gamma) >= 0,
                      Gamma[data position] = (1 - lambda) * C_alpha,
                      per-site quadratic (Pauli) rows,

solved internally in the reduced parametrization X(u) = F0 + sum_t u_t F_t
over the layout's independent unknowns u = (lambda, free moments).  The
exposed problem object and certificates are the standard conic form: data
rows A_alpha with right-hand side C_alpha, structural (Pauli) rows with
right-hand sides b_i, dual vectors (w_data, w_pauli), and the dual slack
identity  M - sum w_alpha A_alpha - sum w_i A_i^Pauli >= 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._blas import single_blas_thread
from .corrdata import CorrelationDataset
from .errors import NotEntangled, SolverFailure
from .momentmat import Data, MomentMatrixLayout, Monomial, layout_for

DETECTION_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98

    def __post_init__(self):
        if self.gap_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


class SdpStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    NUMERICAL_TROUBLE = "numerical_trouble"
    ITERATION_LIMIT = "iteration_limit"


# -- generic reduced-form block SDP ------------------------------------------


class BlockSdp:
    """min c.u  s.t.  G_b(u) = F0_b + sum_t u_t F_tb >= 0 for every block b.

    Matrices are stored as full symmetric triplet lists per block; ``kmat``
    maps u linearly onto the stacked matrix entries.
    """

    def __init__(self, block_dims, n_vars, c, initial_u=None):
        self.block_dims = [int(d) for d in block_dims]
        self.n_vars = int(n_vars)
        self.c = np.asarray(c, dtype=float)
        self.initial_u = None if initial_u is None else np.asarray(initial_u, dtype=float)
        self._f0 = [np.zeros((d, d)) for d in self.block_dims]
        self._trip = [([], [], [], []) for _ in self.block_dims]  # var, row, col, val
        self._finalized = False

    def add_const(self, block, r, c, value):
        f0 = self._f0[block]
        f0[r, c] += value
        if r != c:
            f0[c, r] += value

    def add_coeff(self, block, var, r, c, value):
        tv, tr, tc, tval = self._trip[block]
        tv.append(var)
        tr.append(r)
        tc.append(c)
        tval.append(value)
        if r != c:
            tv.append(var)
            tr.append(c)
            tc.append(r)
            tval.append(value)

    def finalize(self):
        self.f0 = self._f0
        self.kmat = []
        self.var_groups = []
        for b, d in enumerate(self.block_dims):
            tv = np.array(self._trip[b][0], dtype=int)
            tr = np.array(self._trip[b][1], dtype=int)
            tc = np.array(self._trip[b][2], dtype=int)
            tval = np.array(self._trip[b][3], dtype=float)
            order = np.argsort(tv, kind="stable")
            tv, tr, tc, tval = tv[order], tr[order], tc[order], tval[order]
            kmat = sp.csr_matrix((tval, (tr * d + tc, tv)), shape=(d * d, self.n_vars))
            self.kmat.append(kmat)
            present, starts = np.unique(tv, return_index=True)
            self.var_groups.append((tv, tr, tc, tval, present, starts))
        self.kmat_t = [k.T.tocsr() for k in self.kmat]
        # Gram matrix of the coefficient matrices, for certificate projection.
        gram = np.zeros((self.n_vars, self.n_vars))
        for k in self.kmat:
            gram += (k.T @ k).toarray()
        self.gram = gram
        self._finalized = True
        return self

    # -- linear maps --------------------------------------------------------

    def g_of(self, u):
        """G(u) per block."""
        out = []
        for b, d in enumerate(self.block_dims):
            m = self.f0[b].ravel() + self.kmat[b] @ u
            out.append(m.reshape(d, d))
        return out

    def apply_a(self, blocks):
        """A(Y)_t = <F_t, Y_b> summed over blocks."""
        out = np.zeros(self.n_vars)
        for b, y in enumerate(blocks):
            out += self.kmat_t[b] @ y.ravel()
        return out

    def apply_at(self, v):
        """A*(v) = sum_t v_t F_t, per block."""
        out = []
        for b, d in enumerate(self.block_dims):
            out.append((self.kmat[b] @ v).reshape(d, d))
        return out


@dataclass
class IpmResult:
    status: SdpStatus
    u: np.ndarray
    x_blocks: list          # certificate-side matrix (the standard-form dual slack source)
    s_blocks: list          # G(u) at the returned u
    obj: float              # c.u
    cert_obj: float         # -<F0, X>
    gap: float
    pinfeas: float
    dinfeas: float
    iterations: int
    trace: list


_POTRF, _POTRS, _TRTRI, _SYEVD = sla.get_lapack_funcs(
    ("potrf", "potrs", "trtri", "syevd"), dtype=np.float64)


def _lapack(name, result):
    """Outputs of a raw LAPACK call; a nonzero ``info`` becomes LinAlgError."""
    *out, info = result
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed with info={info}")
    return out


def _chol(mat):
    return _lapack("potrf", _POTRF(mat, lower=1))[0]


def _factor(mat):
    """Lower Cholesky factor L of a block and its inverse L^-1."""
    low = _chol(mat)
    return low, _lapack("trtri", _TRTRI(low, lower=1))[0]


def _max_step(dmat_blocks, linv_blocks):
    """Largest alpha with L L^T + alpha * dmat staying PSD, from the
    eigenvalues of L^-1 dmat L^-T."""
    alpha = np.inf
    for linv, dm in zip(linv_blocks, dmat_blocks):
        evals = _lapack("syevd", _SYEVD(linv @ dm @ linv.T, compute_v=0))[0]
        lam_min = float(evals[0])
        if lam_min < -1e-14:
            alpha = min(alpha, -1.0 / lam_min)
    return alpha


class InteriorPointSolver:
    """Primal-dual path-following interior-point method with Nesterov-Todd
    scaling and a Mehrotra-style adaptive centering parameter.

    The Schur complement system over the reduced variables is solved by a
    dense Cholesky factorization with one step of iterative refinement.
    """

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()

    @single_blas_thread()
    def solve(self, prob: BlockSdp, keep_trace: bool = False) -> IpmResult:
        opts = self.options
        if not prob._finalized:
            prob.finalize()
        dims = prob.block_dims
        n = prob.n_vars
        b_vec = prob.c  # right-hand side of the certificate-side constraints
        dtot = sum(dims)
        scale = max(1.0, float(np.sqrt(np.abs(b_vec).sum())))

        x = [np.eye(d) * scale for d in dims]
        if prob.initial_u is not None:
            u = prob.initial_u.copy()
            s = prob.g_of(u)
            try:
                for blk in s:
                    _chol(blk)
            except np.linalg.LinAlgError:
                u = np.zeros(n)
                s = [np.eye(d) * scale for d in dims]
        else:
            u = np.zeros(n)
            s = [np.eye(d) * scale for d in dims]
        y = -u

        f0_norm = 1.0 + math.sqrt(sum(float(np.sum(f * f)) for f in prob.f0))
        b_norm = 1.0 + float(np.linalg.norm(b_vec))
        trace = []
        status = SdpStatus.ITERATION_LIMIT
        it = 0

        for it in range(1, opts.max_iter + 1):
            rd = [prob.f0[b] + (prob.kmat[b] @ (-y)).reshape(dims[b], dims[b]) - s[b]
                  for b in range(len(dims))]
            rp = b_vec - prob.apply_a(x)
            mu = sum(float(np.sum(xb * sb)) for xb, sb in zip(x, s)) / dtot
            pobj = sum(float(np.sum(f * xb)) for f, xb in zip(prob.f0, x))
            dobj = float(b_vec @ y)
            relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            pinf = float(np.linalg.norm(rp)) / b_norm
            dinf = math.sqrt(sum(float(np.sum(r * r)) for r in rd)) / f0_norm
            if keep_trace:
                trace.append({"iter": it - 1, "mu": mu, "pinfeas": pinf,
                              "dinfeas": dinf, "relgap": relgap})
            # The raw LAPACK calls below do not reject NaN or inf input.
            if not (math.isfinite(mu) and math.isfinite(pinf) and math.isfinite(dinf)):
                status = SdpStatus.NUMERICAL_TROUBLE
                break
            if relgap <= opts.gap_tol and pinf <= opts.feas_tol and dinf <= opts.feas_tol:
                status = SdpStatus.OPTIMAL
                break
            if dobj > 1e10 * scale:
                status = SdpStatus.PRIMAL_INFEASIBLE
                break

            # The Cholesky factors of S and X and their inverses, computed once
            # per block, serve the scaling, S^-1 and all four step lengths.
            s_inv, w_blocks, linv_s, linv_x = [], [], [], []
            try:
                for blk_s, blk_x in zip(s, x):
                    low, linv = _factor(blk_s)
                    linv_s.append(linv)
                    linv_x.append(_factor(blk_x)[1])
                    t = low.T @ blk_x @ low
                    evals, evecs = _lapack("syevd", _SYEVD(0.5 * (t + t.T)))
                    if evals[0] <= 0:
                        raise np.linalg.LinAlgError("scaling matrix not PD")
                    sqrt_t = (evecs * np.sqrt(evals)) @ evecs.T
                    w = linv.T @ sqrt_t @ linv
                    sinv = linv.T @ linv
                    s_inv.append(0.5 * (sinv + sinv.T))
                    w_blocks.append(0.5 * (w + w.T))
            except np.linalg.LinAlgError:
                status = SdpStatus.NUMERICAL_TROUBLE
                break

            schur = self._schur(prob, w_blocks)
            try:
                schur_fac = _chol(schur + np.eye(n) * (1e-14 * (1 + np.trace(schur) / n)))
            except np.linalg.LinAlgError:
                schur_fac = None

            def solve_schur(rhs):
                if schur_fac is None:
                    return np.linalg.lstsq(schur, rhs, rcond=None)[0]
                sol = _lapack("potrs", _POTRS(schur_fac, rhs, lower=1))[0]
                sol += _lapack("potrs", _POTRS(schur_fac, rhs - schur @ sol, lower=1))[0]
                return sol

            wrdw = prob.apply_a([w @ r @ w for w, r in zip(w_blocks, rd)])

            # Predictor: pure affine step.
            rhs_aff = b_vec + wrdw
            dy_aff = solve_schur(rhs_aff)
            ds_aff = [r - m for r, m in zip(rd, prob.apply_at(dy_aff))]
            dx_aff = [-xb - w @ dsb @ w for xb, dsb, w in zip(x, ds_aff, w_blocks)]
            alpha_p = min(1.0, opts.step_fraction * _max_step(dx_aff, linv_x))
            alpha_d = min(1.0, opts.step_fraction * _max_step(ds_aff, linv_s))
            mu_aff = sum(
                float(np.sum((xb + alpha_p * dxb) * (sb + alpha_d * dsb)))
                for xb, dxb, sb, dsb in zip(x, dx_aff, s, ds_aff)) / dtot
            sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

            # Corrector: recentered step with the Mehrotra sigma.
            rhs = b_vec - sigma * mu * prob.apply_a(s_inv) + wrdw
            dy = solve_schur(rhs)
            ds = [r - m for r, m in zip(rd, prob.apply_at(dy))]
            dx = [sigma * mu * si - xb - w @ dsb @ w
                  for si, xb, dsb, w in zip(s_inv, x, ds, w_blocks)]
            dx = [0.5 * (m + m.T) for m in dx]
            alpha_p = min(1.0, opts.step_fraction * _max_step(dx, linv_x))
            alpha_d = min(1.0, opts.step_fraction * _max_step(ds, linv_s))

            x = [xb + alpha_p * dxb for xb, dxb in zip(x, dx)]
            s = [sb + alpha_d * dsb for sb, dsb in zip(s, ds)]
            y = y + alpha_d * dy
            if keep_trace:
                trace[-1].update({"sigma": sigma, "alpha_p": alpha_p, "alpha_d": alpha_d})

        u = -y
        s_final = prob.g_of(u)  # = F0 - A*(y), so s_final - s is the loop's rd
        pobj = sum(float(np.sum(f * xb)) for f, xb in zip(prob.f0, x))
        dobj = float(b_vec @ y)
        rp = b_vec - prob.apply_a(x)
        return IpmResult(
            status=status, u=u, x_blocks=x, s_blocks=s_final,
            obj=float(prob.c @ u), cert_obj=-pobj,
            gap=abs(pobj - dobj),
            pinfeas=float(np.linalg.norm(rp)) / b_norm,
            dinfeas=math.sqrt(sum(float(np.sum((sf - sb) ** 2))
                                  for sf, sb in zip(s_final, s))) / f0_norm,
            iterations=it, trace=trace)

    @staticmethod
    def _schur(prob: BlockSdp, w_blocks):
        """Schur matrix <F_t, W F_s W>, exploiting the few-entry structure of
        the coefficient matrices (W F_s W is a short sum of outer products)."""
        n = prob.n_vars
        schur = np.zeros((n, n))
        for b, w in enumerate(w_blocks):
            tv, tr, tc, tval, present, starts = prob.var_groups[b]
            if len(tv) == 0:
                continue
            npres = len(present)
            d = w.shape[0]
            tt = np.empty((npres, d, d))
            bounds = list(starts) + [len(tv)]
            for k in range(npres):
                lo, hi = bounds[k], bounds[k + 1]
                left = w[:, tr[lo:hi]] * tval[lo:hi]
                tt[k] = left @ w[tc[lo:hi], :]
            gathered = tt[:, tr, tc] * tval  # (npres, nnz)
            sums = np.add.reduceat(gathered, starts, axis=1)  # (npres, npres)
            schur[np.ix_(present, present)] += sums
        return 0.5 * (schur + schur.T)

    def certificate_projection(self, prob: BlockSdp, x_blocks):
        """Project the certificate matrix onto the affine set A(X) = b so the
        dual-feasibility identities hold to machine precision."""
        resid = prob.c - prob.apply_a(x_blocks)
        try:
            v = np.linalg.solve(prob.gram + 1e-14 * np.eye(prob.n_vars), resid)
        except np.linalg.LinAlgError:
            v = np.linalg.lstsq(prob.gram, resid, rcond=None)[0]
        corr = prob.apply_at(v)
        return [0.5 * (xb + xb.T) + cb for xb, cb in zip(x_blocks, corr)]


# -- moment-problem assembly ---------------------------------------------------


def uniform_sphere_moment(m: Monomial) -> float:
    """Moment of a monomial under independent uniform Bloch vectors."""
    exps = {}
    for site, comp in m.factors:
        exps.setdefault(site, [0, 0, 0])[comp] += 1
    out = 1.0
    for e in exps.values():
        if any(k % 2 for k in e):
            return 0.0
        num = 1.0
        for k in e:
            for j in range(k - 1, 0, -2):
                num *= j
        den = 1.0
        for j in range(sum(e) + 1, 0, -2):
            den *= j
        out *= num / den
    return out


@dataclass(frozen=True)
class DataRow:
    label: str
    position: tuple  # (r, c) in the Gamma block, r < c
    value: float


@dataclass
class SdpProblem:
    """Standard-form noise-robustness program for one layout.

    ``block_dims`` is [1, dim(Gamma)]; the objective matrix selects the
    scalar block.  ``data_rows`` carry one row per stored correlator entry
    position, ``pauli_rows`` the structural rows (unit entry, per-site
    quadratic rows, and higher-level substitution/tie rows).
    """

    layout: MomentMatrixLayout
    block_dims: list
    data_rows: list
    pauli_rows: list
    reduced: BlockSdp = field(repr=False)

    @property
    def gamma_dim(self) -> int:
        return self.block_dims[1]

    @property
    def data_values(self) -> np.ndarray:
        return np.array([row.value for row in self.data_rows])

    @property
    def pauli_rhs(self) -> np.ndarray:
        return np.array([row.rhs for row in self.pauli_rows])

    def dual_slack_blocks(self, w_data, w_pauli):
        """M - sum w_alpha A_alpha - sum w_k A_k^Pauli, per block."""
        g = np.zeros((self.gamma_dim, self.gamma_dim))
        for w, row in zip(w_data, self.data_rows):
            r, c = row.position
            g[r, c] -= 0.5 * w
            g[c, r] -= 0.5 * w
        for w, row in zip(w_pauli, self.pauli_rows):
            for (r, c), coeff in row.entries:
                if r == c:
                    g[r, r] -= coeff * w
                else:
                    g[r, c] -= 0.5 * coeff * w
                    g[c, r] -= 0.5 * coeff * w
        s0 = 1.0 - float(np.dot(w_data, self.data_values))
        return [np.array([[s0]]), g]


def assemble_primal(layout: MomentMatrixLayout) -> SdpProblem:
    """Standard-form program plus its reduced parametrization.

    The solver operates on the layout's facially reduced sub-basis (identical
    to the full basis at level 1).  The strictly feasible starting point is
    lambda = 1 with the free moments at their independent-uniform values,
    where every data coupling vanishes and Gamma is the uniform
    product-measure moment matrix.
    """
    d_solver = layout.solver_dim
    nvars = 1 + layout.free_var_count
    objective = np.zeros(nvars)
    objective[0] = 1.0  # minimize the noise variable
    reduced = BlockSdp(block_dims=[1, d_solver], n_vars=nvars, c=objective)
    reduced.add_coeff(0, 0, 0, 0, 1.0)  # scalar block carries lambda itself
    for (r, c), expr in sorted(layout.solver_exprs.items()):
        if expr.const:
            reduced.add_const(1, r, c, expr.const)
        for label, cval, coeff in expr.data:
            reduced.add_const(1, r, c, coeff * cval)
            reduced.add_coeff(1, 0, r, c, -coeff * cval)
        for var, coeff in expr.vars:
            reduced.add_coeff(1, 1 + var, r, c, coeff)
    data_rows = []
    for (r, c) in sorted(layout.entry_kind):
        kind = layout.entry_kind[(r, c)]
        if isinstance(kind, Data):
            expr = layout.exprs[(r, c)]
            data_rows.append(DataRow(label=kind.label, position=(r, c),
                                     value=expr.data[0][1]))
    initial_u = np.empty(nvars)
    initial_u[0] = 1.0
    for k, rep in enumerate(layout.var_reps):
        initial_u[1 + k] = uniform_sphere_moment(rep)
    reduced.initial_u = initial_u
    reduced.finalize()
    return SdpProblem(layout=layout, block_dims=[1, layout.dim], data_rows=data_rows,
                      pauli_rows=list(layout.pauli_constraints), reduced=reduced)


# -- solving and certificate extraction -----------------------------------------


@dataclass
class SdpSolution:
    status: SdpStatus
    lambda_star: float
    x_star: list
    w_data: np.ndarray
    w_pauli: np.ndarray
    duality_gap: float
    iterations: int
    w_dot_c: float
    dual_feas_residual: float
    strong_duality_residual: float
    min_eig_x: float
    pinfeas: float          # final relative primal and dual infeasibility of the IPM
    dinfeas: float
    trace: list = field(default_factory=list, repr=False)

    @property
    def entangled(self) -> bool:
        return self.status is SdpStatus.OPTIMAL and self.lambda_star > DETECTION_THRESHOLD


def _average_over_group(layout: MomentMatrixLayout, mat: np.ndarray) -> np.ndarray:
    group = layout.scheme.group_elements()
    if len(group) == 1:
        return mat
    out = np.zeros_like(mat)
    for perm, signs in group:
        tgt, sgn = layout.basis_action(perm, signs)
        out[np.ix_(tgt, tgt)] += (sgn[:, None] * sgn[None, :]) * mat
    return out / len(group)


def _extract_multipliers(problem: SdpProblem, zbar: np.ndarray):
    """Read the standard-form dual vector off the (group-averaged, projected)
    certificate matrix.

    At level 1 every row touches its own positions, so the multipliers are
    direct entry reads.  At higher levels the full-basis rows force a
    singular primal (no Slater point), so the dual vector is fit in the
    facially reduced space: each row matrix is pulled back through the
    normal-form expansion E and the system is solved by least squares.
    Returns (w_data, w_pauli, reduced_slack) with reduced_slack None at
    level 1.
    """
    layout = problem.layout
    if not layout.is_reduced:
        w_data = np.array([-2.0 * zbar[row.position] for row in problem.data_rows])
        w_pauli = np.empty(len(problem.pauli_rows))
        for k, row in enumerate(problem.pauli_rows):
            if row.tag == "unit":
                w_pauli[k] = -zbar[0, 0]
            else:  # per-site quadratic row: the three diagonal entries agree
                diag = [zbar[r, r] for (r, _), _ in row.entries]
                w_pauli[k] = -float(np.mean(diag))
        return w_data, w_pauli, None
    emat = layout.expansion_matrix()
    ds_dim = layout.solver_dim
    row_mats = []
    for row in problem.data_rows:
        r, c = row.position
        m = 0.5 * (np.outer(emat[r], emat[c]) + np.outer(emat[c], emat[r]))
        row_mats.append(m)
    for row in problem.pauli_rows:
        m = np.zeros((ds_dim, ds_dim))
        for (r, c), coeff in row.entries:
            m += 0.5 * coeff * (np.outer(emat[r], emat[c]) + np.outer(emat[c], emat[r]))
        row_mats.append(m)
    iu = np.triu_indices(ds_dim)
    amat = np.stack([m[iu] for m in row_mats], axis=1)
    rhs = -zbar[iu]
    sol, *_ = np.linalg.lstsq(amat, rhs, rcond=None)
    slack = -sum(w * m for w, m in zip(sol, row_mats))
    nd = len(problem.data_rows)
    return sol[:nd], sol[nd:], slack


@single_blas_thread()
def solve(problem: SdpProblem, options: SolverOptions | None = None,
          keep_trace: bool = False) -> SdpSolution:
    """Run the interior-point method and build verified certificates."""
    solver = InteriorPointSolver(options)
    res = solver.solve(problem.reduced, keep_trace=keep_trace)
    layout = problem.layout

    zc = solver.certificate_projection(problem.reduced, res.x_blocks)
    zbar = _average_over_group(layout, zc[1]) if not layout.is_reduced else zc[1]
    w_data, w_pauli, reduced_slack = _extract_multipliers(problem, zbar)

    if reduced_slack is None:
        slack = problem.dual_slack_blocks(w_data, w_pauli)
        min_eig_slack = min(float(slack[0][0, 0]),
                            float(np.linalg.eigvalsh(0.5 * (slack[1] + slack[1].T))[0]))
    else:
        s0 = 1.0 - float(np.dot(w_data, problem.data_values))
        min_eig_slack = min(
            s0, float(np.linalg.eigvalsh(0.5 * (reduced_slack + reduced_slack.T))[0]))
    dual_resid = max(0.0, -min_eig_slack)
    w_dot_c = float(np.dot(w_data, problem.data_values))
    dual_obj = w_dot_c + float(np.dot(w_pauli, problem.pauli_rhs))
    lambda_star = float(res.u[0])
    strong_resid = abs(lambda_star - dual_obj)

    x_star = res.s_blocks  # diag(lambda, Gamma(u)) in standard-form roles
    if layout.is_reduced:
        emat = layout.expansion_matrix()
        x_star = [x_star[0], emat @ x_star[1] @ emat.T]
    min_eig_x = min(float(np.linalg.eigvalsh(0.5 * (blk + blk.T))[0]) for blk in x_star)

    status = res.status
    if status is SdpStatus.OPTIMAL and (dual_resid > 1e-6 or strong_resid > 1e-4):
        status = SdpStatus.NUMERICAL_TROUBLE
    return SdpSolution(
        status=status, lambda_star=lambda_star, x_star=x_star,
        w_data=w_data, w_pauli=w_pauli,
        duality_gap=res.gap, iterations=res.iterations,
        w_dot_c=w_dot_c, dual_feas_residual=dual_resid,
        strong_duality_residual=strong_resid, min_eig_x=min_eig_x,
        pinfeas=res.pinfeas, dinfeas=res.dinfeas, trace=res.trace)


def certify(ds: CorrelationDataset, level: int = 1, scheme=None, extras=(),
            options: SolverOptions | None = None, keep_trace: bool = False):
    """Layout, assembly and solve in one call; returns (solution, problem)."""
    layout = layout_for(ds, level=level, scheme=scheme, extras=extras)
    problem = assemble_primal(layout)
    return solve(problem, options=options, keep_trace=keep_trace), problem


def extract_witness(solution: SdpSolution, problem: SdpProblem,
                    threshold: float = DETECTION_THRESHOLD):
    """Entanglement witness from the optimal dual vector.

    The coefficients are keyed by correlator label; all separable data
    satisfy  sum w_alpha C_alpha <= 1 - lambda_star, while the certified
    dataset attains  sum w_alpha C_alpha = 1.
    """
    from .witnesslab import Witness  # local import to avoid a module cycle

    if solution.status is not SdpStatus.OPTIMAL:
        raise SolverFailure(f"cannot extract a witness from status {solution.status.value}")
    if solution.lambda_star <= threshold:
        raise NotEntangled(
            f"lambda* = {solution.lambda_star:.3e} is below the detection "
            f"threshold {threshold:.0e}; the data are separable-compatible")
    coeffs = {}
    for w, row in zip(solution.w_data, problem.data_rows):
        coeffs[row.label] = coeffs.get(row.label, 0.0) + float(w)
    if abs(solution.w_dot_c - 1.0) > 1e-4:
        raise SolverFailure(
            f"dual certificate violates the normalization identity: "
            f"w.C = {solution.w_dot_c!r}")
    return Witness(coefficients=coeffs,
                   separable_bound=1.0 - solution.lambda_star,
                   orientation="upper", provenance="dual_certificate")
