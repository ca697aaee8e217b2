"""Assembly of the noise-robustness program, a self-contained primal-dual
interior-point solver, and extraction of the dual entanglement certificate.

The noise-robustness program is

    min lambda  s.t.  X = diag(lambda, Gamma) >= 0,
                      Gamma[data position] = (1 - lambda) * C_alpha,
                      Gamma a moment matrix of Bloch vectors on unit spheres,

solved in the reduced parametrization G(u) = F0 + sum_t u_t F_t over the
layout's independent unknowns u = (lambda, free moments), with the unit
sphere built into the entry expressions.

The certificate is the dual matrix X of the reduced problem, projected onto
<F_t, X> = c_t and averaged over the scheme group.  The witness reads one
multiplier per correlator label off the data terms of the entry expressions;
the dual residual and the dual objective come from X's blocks, by one
formula at every level.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._blas import single_blas_thread
from .corrdata import CorrelationDataset
from .errors import NotEntangled, SolverFailure
from .momentmat import MomentMatrixLayout, Monomial, layout_for

DETECTION_THRESHOLD = 1e-6
# Largest |1 - w.C| a detecting solve stops at.  1 - w.C is the lambda
# entry of the certificate X, about gap / lambda*, which the tolerance test
# does not bound: near the threshold it reached 1e-5.
NORMALIZATION_TOL = 1e-7
# Iterations a converged solve may add to meet NORMALIZATION_TOL.
NORMALIZATION_ITERS = 5
# Fraction of the largest feasible step length that each iteration takes.
STEP_FRACTION = 0.98
# Doubles in one chunk's (nb, d, d) stack of W F W products in the Schur
# build (1 MB): a chunk stays in cache between its product and its transpose.
SCHUR_CHUNK_DOUBLES = 2 ** 17
# Rows of one solver block that consecutive small blocks are packed into:
# below this size an iteration's cost is fixed work per block (LAPACK calls
# and Python), not arithmetic.
PACK_DIM = 48


@dataclass(frozen=True)
class SolverOptions:
    """``tol`` bounds the relative gap and the primal and dual infeasibility."""

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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

    Callers declare logical blocks (``block_dims``) and address entries by
    logical block.  The solver iterates over ``solver_dims``: consecutive
    logical blocks share one solver block, on its diagonal, while it stays
    within PACK_DIM rows, and a larger logical block is a solver block of its
    own.  ``pack[b]`` is the (solver block, row offset) of logical block b,
    and :meth:`unpack` returns the logical blocks of per-solver-block
    matrices.  Matrices are stored as full symmetric triplet lists per
    solver block; ``kmat`` maps u linearly onto the stacked matrix entries.
    """

    def __init__(self, block_dims, n_vars, c, initial_u=None):
        self.block_dims = [int(d) for d in block_dims]
        self.n_vars = int(n_vars)
        self.c = np.asarray(c, dtype=float)
        self.initial_u = None if initial_u is None else np.asarray(initial_u, dtype=float)
        self.solver_dims, self.pack = [], []
        for d in self.block_dims:
            if self.solver_dims and self.solver_dims[-1] + d <= PACK_DIM:
                self.pack.append((len(self.solver_dims) - 1, self.solver_dims[-1]))
                self.solver_dims[-1] += d
            else:
                self.pack.append((len(self.solver_dims), 0))
                self.solver_dims.append(d)
        self._f0 = [np.zeros((d, d)) for d in self.solver_dims]
        self._trip = [([], [], [], []) for _ in self.solver_dims]  # var, row, col, val
        self._finalized = False

    def unpack(self, blocks):
        """The logical blocks of per-solver-block matrices, in order."""
        return [blocks[sb][off:off + d, off:off + d]
                for (sb, off), d in zip(self.pack, self.block_dims)]

    def add_const(self, block, r, c, value):
        block, off = self.pack[block]
        r, c = r + off, c + off
        f0 = self._f0[block]
        f0[r, c] += value
        if r != c:
            f0[c, r] += value

    def add_coeff(self, block, var, r, c, value):
        block, off = self.pack[block]
        r, c = r + off, c + off
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
        self.schur_plan = []
        for b, d in enumerate(self.solver_dims):
            tv = np.array(self._trip[b][0], dtype=int)
            tr = np.array(self._trip[b][1], dtype=int)
            tc = np.array(self._trip[b][2], dtype=int)
            tval = np.array(self._trip[b][3], dtype=float)
            order = np.argsort(tv, kind="stable")
            tv, tr, tc, tval = tv[order], tr[order], tc[order], tval[order]
            kmat = sp.csr_matrix((tval, (tr * d + tc, tv)), shape=(d * d, self.n_vars))
            self.kmat.append(kmat)
            self.schur_plan.append(_schur_chunks(tv, tr, tc, tval, d))
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
        """G(u) per solver block."""
        out = []
        for b, d in enumerate(self.solver_dims):
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
        """A*(v) = sum_t v_t F_t, per solver block."""
        out = []
        for b, d in enumerate(self.solver_dims):
            out.append((self.kmat[b] @ v).reshape(d, d))
        return out


def _schur_chunks(tv, tr, tc, tval, d):
    """One block's coefficient matrices, in chunks for the Schur build.

    ``tv``, ``tr``, ``tc``, ``tval`` are the block's triplets sorted by
    variable.  A variable with more than d triplets is stored as its dense
    d x d matrix F (duplicate positions summed), whose W F W costs two GEMMs;
    every other variable keeps its m triplets, and the variables with equal m
    share one batched product.  Each chunk is (cols, r, c, v): the variables,
    then either None, None and the (nb, d, d) stack of F, or the (nb, m)
    row and column indices and the (nb, 1, m) values.
    """
    present, starts, counts = np.unique(tv, return_index=True, return_counts=True)
    nb = max(1, SCHUR_CHUNK_DOUBLES // (d * d))
    chunks = []
    dense = counts > d
    f = np.zeros((np.count_nonzero(dense), d, d))
    for k, (lo, m) in enumerate(zip(starts[dense], counts[dense])):
        np.add.at(f[k], (tr[lo:lo + m], tc[lo:lo + m]), tval[lo:lo + m])
    for lo in range(0, len(f), nb):
        chunks.append((present[dense][lo:lo + nb], None, None, f[lo:lo + nb]))
    for m in np.unique(counts[~dense]):
        sel = counts == m
        pos = starts[sel][:, None] + np.arange(m)
        for lo in range(0, len(pos), nb):
            p = pos[lo:lo + nb]
            chunks.append((present[sel][lo:lo + nb], tr[p], tc[p], tval[p][:, None, :]))
    return chunks


@dataclass
class IpmResult:
    status: SdpStatus
    u: np.ndarray
    x_blocks: list          # certificate-side X per solver block, the source of every certificate
    s_blocks: list          # G(u) at the returned u, per solver block
    obj: float              # c.u
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
    def solve(self, prob: BlockSdp, keep_trace: bool = False, accept=None) -> IpmResult:
        """Iterate until the tolerance test passes and ``accept(x_blocks, y)``,
        if given, holds; past the test, at most NORMALIZATION_ITERS iterations
        are added for it, and an iteration that fails in that stretch
        returns the last iterate that passed."""
        opts = self.options
        if not prob._finalized:
            prob.finalize()
        dims = prob.solver_dims
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
        passed = None   # (x, s, y, it) of the last iterate that passed the tolerance test
        extra = 0

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
            if relgap <= opts.tol and pinf <= opts.tol and dinf <= opts.tol:
                if accept is None or extra == NORMALIZATION_ITERS or accept(x, y):
                    status = SdpStatus.OPTIMAL
                    break
                passed = (x, s, y, it)
                extra += 1
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

            tic = time.perf_counter() if keep_trace else 0.0
            schur = self._schur(prob, w_blocks)
            if keep_trace:
                trace[-1]["schur_s"] = time.perf_counter() - tic
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
            alpha_p = min(1.0, STEP_FRACTION * _max_step(dx_aff, linv_x))
            alpha_d = min(1.0, STEP_FRACTION * _max_step(ds_aff, linv_s))
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
            alpha_p = min(1.0, STEP_FRACTION * _max_step(dx, linv_x))
            alpha_d = min(1.0, STEP_FRACTION * _max_step(ds, linv_s))

            x = [xb + alpha_p * dxb for xb, dxb in zip(x, dx)]
            s = [sb + alpha_d * dsb for sb, dsb in zip(s, ds)]
            y = y + alpha_d * dy
            if keep_trace:
                trace[-1].update({"sigma": sigma, "alpha_p": alpha_p, "alpha_d": alpha_d})

        if status is not SdpStatus.OPTIMAL and passed is not None:
            (x, s, y, it), status = passed, SdpStatus.OPTIMAL
        u = -y
        s_final = prob.g_of(u)  # = F0 - A*(y), so s_final - s is the loop's rd
        pobj = sum(float(np.sum(f * xb)) for f, xb in zip(prob.f0, x))
        dobj = float(b_vec @ y)
        rp = b_vec - prob.apply_a(x)
        return IpmResult(
            status=status, u=u, x_blocks=x, s_blocks=s_final,
            obj=float(prob.c @ u),
            gap=abs(pobj - dobj),
            pinfeas=float(np.linalg.norm(rp)) / b_norm,
            dinfeas=math.sqrt(sum(float(np.sum((sf - sb) ** 2))
                                  for sf, sb in zip(s_final, s))) / f0_norm,
            iterations=it, trace=trace)

    @staticmethod
    def _schur(prob: BlockSdp, w_blocks):
        """Schur matrix <F_t, W F_s W>, one chunk of variables s at a time.

        W F_s W is two GEMMs for a dense F_s and, for a few-entry F_s, a
        product over its m entries, batched across the chunk; its inner
        products with every F_t are one product with the sparse coefficient
        map (Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997).
        """
        n = prob.n_vars
        schur = np.zeros((n, n))
        for b, w in enumerate(w_blocks):
            for cols, r, c, v in prob.schur_plan[b]:
                if r is None:
                    t = w @ v @ w
                else:
                    t = np.matmul(np.swapaxes(w[:, r], 0, 1) * v, w[c, :])
                # Column s of the product holds <F_t, W F_s W> for every t.
                tt = np.ascontiguousarray(t.reshape(len(cols), -1).T)
                schur[:, cols] += prob.kmat_t[b] @ tt
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


@dataclass
class SdpProblem:
    """The noise-robustness program for one layout in its reduced form.

    The reduced problem declares Gamma as one block per connected component
    of its entry pattern, after the scalar block of lambda; ``gamma_blocks``
    holds each component's solver-basis indices.
    """

    layout: MomentMatrixLayout
    reduced: BlockSdp = field(repr=False)
    gamma_blocks: list = field(repr=False)

    def solver_gamma(self, blocks):
        """Solver-basis Gamma from the reduced problem's logical blocks, as
        ``reduced.unpack`` returns them (block 0, the scalar block, is not
        part of Gamma)."""
        d = self.layout.solver_dim
        gamma = np.zeros((d, d))
        for idx, blk in zip(self.gamma_blocks, blocks[1:]):
            gamma[np.ix_(idx, idx)] = blk
        return gamma


def _components(dim, edges):
    """Connected components of the graph on range(dim), each a sorted index
    list, ordered by their smallest index (union-find rooted at the minimum)."""
    root = list(range(dim))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for r, c in edges:
        a, b = find(r), find(c)
        if a != b:
            root[max(a, b)] = min(a, b)
    groups = {}
    for i in range(dim):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def assemble_primal(layout: MomentMatrixLayout) -> SdpProblem:
    """The reduced program of one layout.

    The solver operates on the layout's facially reduced sub-basis (identical
    to the full basis at level 1).  The strictly feasible starting point is
    lambda = 1 with the free moments at their independent-uniform values,
    where every data coupling vanishes and Gamma is the uniform
    product-measure moment matrix.

    Gamma has no entry between two connected components of its entry
    pattern, so each component is its own logical block of the reduced
    problem; the default start is block diagonal, and the iterates are those
    of one Gamma block, whether the solver packs components together or not.
    """
    nvars = 1 + layout.free_var_count
    objective = np.zeros(nvars)
    objective[0] = 1.0  # minimize the noise variable
    entries = [(key, expr) for key, expr in sorted(layout.solver_exprs.items())
               if expr.const or expr.data or expr.vars]
    gamma_blocks = _components(layout.solver_dim, (key for key, _ in entries))
    block_of, local = {}, {}
    for b, idx in enumerate(gamma_blocks, start=1):
        for k, i in enumerate(idx):
            block_of[i], local[i] = b, k
    reduced = BlockSdp(block_dims=[1] + [len(idx) for idx in gamma_blocks],
                       n_vars=nvars, c=objective)
    reduced.add_coeff(0, 0, 0, 0, 1.0)  # scalar block carries lambda itself
    for (r, c), expr in entries:
        b, r, c = block_of[r], local[r], local[c]
        if expr.const:
            reduced.add_const(b, r, c, expr.const)
        for label, cval, coeff in expr.data:
            reduced.add_const(b, r, c, coeff * cval)
            reduced.add_coeff(b, 0, r, c, -coeff * cval)
        for var, coeff in expr.vars:
            reduced.add_coeff(b, 1 + var, r, c, coeff)
    initial_u = np.empty(nvars)
    initial_u[0] = 1.0
    for k, rep in enumerate(layout.var_reps):
        initial_u[1 + k] = uniform_sphere_moment(rep)
    reduced.initial_u = initial_u
    reduced.finalize()
    return SdpProblem(layout=layout, reduced=reduced, gamma_blocks=gamma_blocks)


# -- solving and certificate extraction -----------------------------------------


@dataclass
class SdpSolution:
    """Optimal value, primal matrices and dual certificate of one solve.

    ``x_star`` is diag(lambda, Gamma) in the full basis.  ``w_data`` maps each
    correlator label to its multiplier, and ``w_dot_c`` is sum w_alpha
    C_alpha over the stored values.  ``dual_feas_residual`` is
    max(0, -lambda_min) over the blocks of the reduced dual matrix, and
    ``strong_duality_residual`` is |lambda* - (-<F0, X>)|.
    """

    status: SdpStatus
    lambda_star: float
    x_star: list
    w_data: dict
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
    actions = layout.group_actions
    if len(actions) == 1:
        return mat
    out = np.zeros_like(mat)
    for tgt, sgn in actions:
        out[np.ix_(tgt, tgt)] += (sgn[:, None] * sgn[None, :]) * mat
    return out / len(actions)


def _extract_multipliers(layout: MomentMatrixLayout, zbar: np.ndarray):
    """Witness multipliers read off the group-averaged, projected certificate
    matrix Z in the solver basis.

    Each correlator label gets w_alpha = -<D_alpha, Z> = -2 sum coeff Z[r, c],
    where D_alpha is the coefficient of C_alpha in the solver-basis entry
    expressions.  Returns (w_data, c_data): the multipliers and the values
    C_alpha, keyed by label in the same order.
    """
    # A correlator is odd in some Bloch component and a diagonal entry's
    # moment is even in all, so data terms sit off the diagonal only.
    z = zbar.tolist()
    w_data, c_data = {}, {}
    for (r, c), expr in layout.solver_exprs.items():
        for label, cval, coeff in expr.data:
            w_data[label] = w_data.get(label, 0.0) - 2.0 * coeff * z[r][c]
            c_data[label] = cval
    return w_data, c_data


@single_blas_thread()
def solve(problem: SdpProblem, options: SolverOptions | None = None,
          keep_trace: bool = False) -> SdpSolution:
    """Run the interior-point method and build verified certificates."""
    solver = InteriorPointSolver(options)
    layout = problem.layout
    unpack = problem.reduced.unpack

    def certificate(x_blocks):
        # The certificate is block diagonal over the logical blocks: entries
        # of a packed solver block between them could only be rounding, and
        # unpack drops them.
        xproj = unpack(solver.certificate_projection(problem.reduced, x_blocks))
        zbar = _average_over_group(layout, problem.solver_gamma(xproj))
        w_data, c_data = _extract_multipliers(layout, zbar)
        return xproj, w_data, float(np.dot(list(w_data.values()), list(c_data.values())))

    last = {}

    def normalized(x_blocks, y):
        if -y[0] <= DETECTION_THRESHOLD:  # no witness is drawn from it
            return True
        last["x"], last["cert"] = x_blocks, certificate(x_blocks)
        return abs(1.0 - last["cert"][2]) <= NORMALIZATION_TOL

    res = solver.solve(problem.reduced, keep_trace=keep_trace, accept=normalized)
    if last.get("x") is res.x_blocks:
        xproj, w_data, w_dot_c = last["cert"]
    else:
        xproj, w_data, w_dot_c = certificate(res.x_blocks)

    dual_resid = max(0.0, -min(float(np.linalg.eigvalsh(blk)[0]) for blk in xproj))
    dual_obj = -sum(float(np.sum(f * xb)) for f, xb in zip(unpack(problem.reduced.f0), xproj))
    lambda_star = float(res.u[0])
    strong_resid = abs(lambda_star - dual_obj)

    # diag(lambda, Gamma(u)), Gamma in the full basis
    emat = layout.expansion_matrix()
    s_blocks = unpack(res.s_blocks)
    x_star = [s_blocks[0], emat @ problem.solver_gamma(s_blocks) @ emat.T]
    min_eig_x = min(float(np.linalg.eigvalsh(0.5 * (blk + blk.T))[0]) for blk in x_star)

    status = res.status
    if status is SdpStatus.OPTIMAL and (dual_resid > 1e-6 or strong_resid > 1e-4):
        status = SdpStatus.NUMERICAL_TROUBLE
    return SdpSolution(
        status=status, lambda_star=lambda_star, x_star=x_star,
        w_data=w_data, duality_gap=res.gap, iterations=res.iterations,
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
    """Entanglement witness from the solution's multipliers.

    The coefficients are ``solution.w_data``, keyed by correlator label; all
    separable data satisfy  sum w_alpha C_alpha <= 1 - lambda_star, while the
    certified dataset attains  sum w_alpha C_alpha = 1.  ``problem`` is not
    read: the multipliers travel with the solution.
    """
    from .witnesslab import Witness  # local import to avoid a module cycle

    if solution.status is not SdpStatus.OPTIMAL:
        raise SolverFailure(f"cannot extract a witness from status {solution.status.value}")
    if solution.lambda_star <= threshold:
        raise NotEntangled(
            f"lambda* = {solution.lambda_star:.3e} is below the detection "
            f"threshold {threshold:.0e}; the data are separable-compatible")
    if abs(solution.w_dot_c - 1.0) > 1e-4:
        raise SolverFailure(
            f"dual certificate violates the normalization identity: "
            f"w.C = {solution.w_dot_c!r}")
    return Witness(coefficients=dict(solution.w_data),
                   separable_bound=1.0 - solution.lambda_star,
                   orientation="upper", provenance="dual_certificate")
