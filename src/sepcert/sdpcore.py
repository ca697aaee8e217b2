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
<F_t, X> = c_t.  The witness reads one multiplier per correlator label off
the data terms of the entry expressions and averages the multipliers over
the scheme group; the dual residual and the dual objective come from X's
blocks, by one formula at every level.  The witness is scaled so that its
stated bound 1 - lambda* is the bound X proves for separable data.
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
# Rows of one block that consecutive components of diag(lambda, Gamma) share:
# below this size an iteration's cost is fixed work per block (LAPACK calls
# and Python), not arithmetic.
PACK_DIM = 48


@dataclass(frozen=True)
class SolverOptions:
    """``tol`` bounds the relative gap and the primal and dual infeasibility."""

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
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

    ``const`` is the (block, row, col, value) arrays of F0 and ``coeffs`` the
    (block, row, col, var, value) arrays of the F_t, where an entry off the
    diagonal also stands for its mirror and entries at one position add up.
    ``f0`` holds F0 per block, and ``kmat`` maps u linearly onto each
    block's stacked matrix entries.
    """

    def __init__(self, block_dims, n_vars, c, const, coeffs, initial_u=None):
        self.block_dims = [int(d) for d in block_dims]
        self.n_vars = int(n_vars)
        self.c = np.asarray(c, dtype=float)
        self.initial_u = None if initial_u is None else np.asarray(initial_u, dtype=float)
        cb, cr, cc, take = _mirrored(*const[:3])
        cval = np.asarray(const[3], dtype=float)[take]
        vb, vr, vc, take = _mirrored(*coeffs[:3])
        tv = np.asarray(coeffs[3], dtype=np.intp)[take]
        vval = np.asarray(coeffs[4], dtype=float)[take]
        self.f0, self.kmat, self.schur_plan = [], [], []
        for b, d in enumerate(self.block_dims):
            f0, sel = np.zeros((d, d)), cb == b
            np.add.at(f0, (cr[sel], cc[sel]), cval[sel])
            self.f0.append(f0)
            sel = np.flatnonzero(vb == b)
            sel = sel[np.argsort(tv[sel], kind="stable")]
            t, r, c, v = tv[sel], vr[sel], vc[sel], vval[sel]
            self.kmat.append(sp.csr_matrix((v, (r * d + c, t)), shape=(d * d, self.n_vars)))
            self.schur_plan.append(_schur_chunks(t, r, c, v, d))
        self.kmat_t = [k.T.tocsr() for k in self.kmat]
        # Gram matrix of the coefficient matrices, for certificate projection.
        self.gram = sum((k.T @ k).toarray() for k in self.kmat)

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


def _mirrored(block, row, col):
    """Block, row and column of the given entries, each entry off the
    diagonal followed by its mirror, and the index of the given entry at
    every output position."""
    block, row, col = (np.asarray(a, dtype=np.intp) for a in (block, row, col))
    take = np.repeat(np.arange(len(row)), np.where(row != col, 2, 1))
    mirror = np.r_[False, take[1:] == take[:-1]]
    row, col = row[take], col[take]
    return block[take], np.where(mirror, col, row), np.where(mirror, row, col), take


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
    x_blocks: list          # certificate-side X per block, the source of every certificate
    s_blocks: list          # G(u) at the returned u, per block
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

    Index 0 of diag(lambda, Gamma) is lambda and index 1 + i the solver-basis
    element i; ``blocks`` holds the indices of each block of the reduced
    problem, in order.
    """

    layout: MomentMatrixLayout
    reduced: BlockSdp = field(repr=False)
    blocks: list = field(repr=False)

    def full(self, mats):
        """diag(lambda, Gamma) in the solver basis from per-block matrices."""
        d = 1 + self.layout.solver_dim
        out = np.zeros((d, d))
        for idx, blk in zip(self.blocks, mats):
            out[np.ix_(idx, idx)] = blk
        return out


def _components(dim, rows, cols):
    """Connected components of the graph on range(dim) with edges (rows[k],
    cols[k]), as sorted index arrays ordered by their smallest index.  Each
    index takes the smallest index it reaches, by lowering labels across the
    edges and jumping each label to its own label until nothing changes."""
    label = np.arange(dim)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            return [np.flatnonzero(label == k) for k in np.unique(label)]
        label = new


def assemble_primal(layout: MomentMatrixLayout) -> SdpProblem:
    """The reduced program of one layout.

    The solver operates on the layout's facially reduced sub-basis (identical
    to the full basis at level 1).  The strictly feasible starting point is
    lambda = 1 with the free moments at their independent-uniform values,
    where every data coupling vanishes and Gamma is the uniform
    product-measure moment matrix.

    Gamma has no entry between two connected components of its entry
    pattern.  lambda and the components, in order of their smallest index,
    share a block while it stays within PACK_DIM rows, and a larger
    component is a block of its own.  The default start is block diagonal
    over the components, and so are the iterates, up to rounding.
    """
    nvars = 1 + layout.free_var_count
    objective = np.zeros(nvars)
    objective[0] = 1.0  # minimize the noise variable
    c_row, c_col, c_val = layout.const_terms
    d_row, d_col, slot, coeff = layout.data_terms
    v_row, v_col, var, v_coeff = layout.var_terms
    blocks = [np.zeros(1, dtype=np.intp)]
    for idx in _components(layout.solver_dim, np.concatenate((c_row, d_row, v_row)),
                           np.concatenate((c_col, d_col, v_col))):
        if len(blocks[-1]) + len(idx) <= PACK_DIM:
            blocks[-1] = np.concatenate((blocks[-1], 1 + idx))
        else:
            blocks.append(1 + idx)
    block_of, local = np.empty((2, 1 + layout.solver_dim), dtype=np.intp)
    for b, idx in enumerate(blocks):
        block_of[idx], local[idx] = b, np.arange(len(idx))
    data = coeff * np.asarray(layout.values)[slot]
    row, col = 1 + np.concatenate((c_row, d_row)), 1 + np.concatenate((c_col, d_col))
    const = block_of[row], local[row], local[col], np.concatenate((c_val, data))
    # index 0 carries lambda itself; the data's (1 - lambda) factor and the
    # free moments follow in Gamma
    row, col = np.r_[0, 1 + d_row, 1 + v_row], np.r_[0, 1 + d_col, 1 + v_col]
    coeffs = (block_of[row], local[row], local[col],
              np.r_[0, np.zeros(len(d_row), dtype=np.intp), 1 + var], np.r_[1.0, -data, v_coeff])
    initial_u = np.array([1.0] + [uniform_sphere_moment(rep) for rep in layout.var_reps])
    reduced = BlockSdp(block_dims=[len(idx) for idx in blocks], n_vars=nvars,
                       c=objective, const=const, coeffs=coeffs, initial_u=initial_u)
    return SdpProblem(layout=layout, reduced=reduced, blocks=blocks)


# -- solving and certificate extraction -----------------------------------------


@dataclass
class SdpSolution:
    """Optimal value, primal matrices and dual certificate of one solve.

    ``x_star`` is diag(lambda, Gamma) in the full basis.  ``w_data`` maps each
    correlator label to its multiplier, and ``w_dot_c`` is sum w_alpha
    C_alpha over the stored values.  ``dual_feas_residual`` is
    max(0, -lambda_min) over the blocks of the reduced dual matrix, and
    ``strong_duality_residual`` is |lambda* - (-<F0, X>)|.  ``proved_bound``
    is the b of ``_proved_bound``: w_data . C' <= b for all separable C'.
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
    proved_bound: float
    min_eig_x: float
    pinfeas: float          # final relative primal and dual infeasibility of the IPM
    dinfeas: float
    trace: list = field(default_factory=list, repr=False)

    @property
    def entangled(self) -> bool:
        return self.status is SdpStatus.OPTIMAL and self.lambda_star > DETECTION_THRESHOLD


def _extract_multipliers(layout: MomentMatrixLayout, z: np.ndarray):
    """Witness multipliers read off the projected certificate matrix Z in the
    solver basis, averaged over the scheme group.

    Each correlator label gets w_alpha = -<D_alpha, Z> = -2 sum coeff Z[r, c],
    where D_alpha is the coefficient of C_alpha in the solver-basis entry
    expressions.  Returns w_data, keyed by label, and w.C over the layout's
    ``values``.
    """
    # A correlator is odd in some Bloch component and a diagonal entry's
    # moment is even in all, so data terms sit off the diagonal only.
    row, col, slot, coeff = layout.data_terms
    w = np.bincount(slot, weights=-2.0 * coeff * z[row, col])
    # Averaging w over the slots' signed images equals reading w off the
    # group-averaged Z only because each stored label is exactly one data
    # term with coefficient 1: _check_basis admits a scheme other than the
    # general one only at level 1 without extras, where that holds.
    total = w.astype(float)  # a copy; bincount of no terms is an integer array
    for image, sign in layout.slot_actions:
        total[image] += sign * w
    w = total / (1 + len(layout.slot_actions))
    keys = slot[np.sort(np.unique(slot, return_index=True)[1])]  # in order of first use
    w_data = dict(zip([layout.labels[k] for k in keys], w[keys].tolist()))
    return w_data, float(np.dot(w[keys], np.asarray(layout.values)[keys]))


def _proved_bound(problem: SdpProblem, xproj, z, dual_resid: float) -> float:
    """b = <K, Z> + sum_{t>=1} |<F_t, X>| + d * dual_resid, an upper bound on
    w . C' over all separable data C' for the multipliers read off X.

    Z is X's Gamma part in the solver basis (dimension d) and K the constant
    part of Gamma.  Separable data have a moment matrix G = K + sum C'_alpha
    D_alpha + sum u_t F_t >= 0, after averaging over the scheme group (which
    keeps them separable and leaves the averaged w . C' unchanged), where
    every u_t is a moment of unit vectors, so |u_t| <= 1, and tr G <= d.
    Hence w . C' = <K, Z> + sum u_t <F_t, X> - <G, Z> <= b: -<G, Z> is at
    most d times the shift that makes Z PSD, and dual_resid bounds that
    shift by interlacing (Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46,
    2007).  <F_t, X> = c_t = 0 for t >= 1 up to the projection's residual.
    """
    row, col, val = problem.layout.const_terms
    k_dot_z = float(np.dot(np.where(row == col, 1.0, 2.0) * val, z[row, col]))
    resid = float(np.abs(problem.reduced.apply_a(xproj)[1:]).sum())
    return k_dot_z + resid + problem.layout.solver_dim * dual_resid


@single_blas_thread()
def solve(problem: SdpProblem, options: SolverOptions | None = None,
          keep_trace: bool = False) -> SdpSolution:
    """Run the interior-point method and build verified certificates."""
    solver = InteriorPointSolver(options)
    layout = problem.layout

    def certificate(x_blocks):
        xproj = solver.certificate_projection(problem.reduced, x_blocks)
        z = problem.full(xproj)[1:, 1:]
        return (xproj, z, *_extract_multipliers(layout, z))

    last = {}

    def normalized(x_blocks, y):
        if -y[0] <= DETECTION_THRESHOLD:  # no witness is drawn from it
            return True
        last["x"], last["cert"] = x_blocks, certificate(x_blocks)
        return abs(1.0 - last["cert"][3]) <= NORMALIZATION_TOL

    res = solver.solve(problem.reduced, keep_trace=keep_trace, accept=normalized)
    cert = last["cert"] if last.get("x") is res.x_blocks else certificate(res.x_blocks)
    xproj, z, w_data, w_dot_c = cert

    dual_resid = max(0.0, -min(float(np.linalg.eigvalsh(blk)[0]) for blk in xproj))
    dual_obj = -sum(float(np.sum(f * xb)) for f, xb in zip(problem.reduced.f0, xproj))
    lambda_star = float(res.u[0])
    strong_resid = abs(lambda_star - dual_obj)

    # diag(lambda, Gamma(u)), Gamma in the full basis
    emat = layout.expansion_matrix()
    s_full = problem.full(res.s_blocks)
    x_star = [s_full[:1, :1].copy(), emat @ s_full[1:, 1:] @ emat.T]
    min_eig_x = min(float(np.linalg.eigvalsh(0.5 * (blk + blk.T))[0]) for blk in x_star)

    status = res.status
    if status is SdpStatus.OPTIMAL and (dual_resid > 1e-6 or strong_resid > 1e-4):
        status = SdpStatus.NUMERICAL_TROUBLE
    return SdpSolution(
        status=status, lambda_star=lambda_star, x_star=x_star,
        w_data=w_data, duality_gap=res.gap, iterations=res.iterations,
        w_dot_c=w_dot_c, dual_feas_residual=dual_resid,
        strong_duality_residual=strong_resid,
        proved_bound=_proved_bound(problem, xproj, z, dual_resid), min_eig_x=min_eig_x,
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

    The coefficients are ``solution.w_data``, keyed by correlator label,
    times kappa = (1 - lambda_star) / b for the certificate's proved bound
    b, so that all separable data provably satisfy
    sum w_alpha C_alpha <= 1 - lambda_star, the stated bound, while the
    certified dataset gives kappa * w.C = 1 up to about 1e-7.  A certificate
    whose b is not below w.C proves no detection and raises SolverFailure.
    ``problem`` is not read: the multipliers travel with the solution.
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
    bound = solution.proved_bound
    if not 0.0 < bound < solution.w_dot_c:
        raise SolverFailure(
            f"the bound {bound!r} the certificate proves for separable data is "
            f"not between 0 and w.C = {solution.w_dot_c!r}: no detection is proved")
    kappa = (1.0 - solution.lambda_star) / bound
    return Witness(coefficients={k: kappa * w for k, w in solution.w_data.items()},
                   separable_bound=1.0 - solution.lambda_star,
                   orientation="upper", provenance="dual_certificate")
