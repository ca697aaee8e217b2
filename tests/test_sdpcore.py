"""Assembly, interior-point solving, duality certificates, hierarchy."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import sepcert as sc
from sepcert._blas import single_blas_thread
from sepcert.errors import NotEntangled
from sepcert.momentmat import GENERAL_SCHEME, layout_for
from sepcert.sdpcore import (BlockSdp, InteriorPointSolver, SdpStatus, SolverOptions,
                             assemble_primal, solve)
from sepcert.seporacle import make_rng

from oracles import (OPENBLAS_SETTERS, blas_thread_counts, drop_entries,
                     entangled_state_dataset, random_state_dataset)

needs_openblas_setter = pytest.mark.skipif(
    not OPENBLAS_SETTERS, reason="no OpenBLAS exposes openblas_set_num_threads_local")


def test_werner_lambda_star():
    sol, _ = sc.certify(sc.werner_dataset(0.0))
    assert sol.status is SdpStatus.OPTIMAL
    assert abs(sol.lambda_star - 2.0 / 3.0) <= 1e-6


def test_werner_witness_coefficients():
    sol, prob = sc.certify(sc.werner_dataset(0.0))
    witness = sc.extract_witness(sol, prob)
    assert witness.orientation == "upper"
    assert abs(witness.separable_bound - 1.0 / 3.0) <= 1e-6
    for a in ("XX", "YY", "ZZ"):
        assert abs(witness.coefficients[f"{a}[0,1]"] - (-1.0 / 3.0)) <= 1e-6
    value = sum(w * sc.werner_dataset(0.0).value(lbl)
                for lbl, w in witness.coefficients.items())
    assert abs(value - 1.0) <= 1e-6


def test_two_qubit_analytic_threshold():
    # lambda* = max(0, 1 - 1/|c|) from the closed-form 2x2 block condition
    for c in np.linspace(-3.0, 3.0, 25):
        sol, _ = sc.certify(sc.sum_triple_dataset(c))
        expect = max(0.0, 1.0 - 1.0 / abs(c)) if c != 0 else 0.0
        assert abs(sol.lambda_star - expect) <= 1e-6, (c, sol.lambda_star)


def test_separable_data_feasible():
    rng = make_rng(20)
    for k in range(8):
        ds = sc.dataset_of(sc.random_product_state(4, rng))
        sol, _ = sc.certify(ds)
        assert sol.lambda_star <= 1e-7
        assert not sol.entangled
    mix = sc.random_separable_mixture(5, 7, rng)
    sol, _ = sc.certify(sc.dataset_of(mix))
    assert sol.lambda_star <= 1e-7


def test_empty_dataset_feasible():
    sol, prob = sc.certify(sc.new_dataset(3, {}))
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.lambda_star <= 1e-7
    assert prob.data_rows == []


def test_assemble_structure_quench():
    ds = sc.quench_dataset(sc.quench_amplitudes(8, 2.0))
    layout = layout_for(ds)
    prob = assemble_primal(layout)
    assert prob.block_dims == [1, 25]
    assert len(prob.data_rows) == ds.n_entries()
    tags = {row.tag for row in prob.pauli_rows}
    assert tags == {"unit", "site"}
    # reduced problem: lambda plus one tied square variable per site
    assert prob.reduced.n_vars == 1 + 8


def test_assemble_werner_constraints():
    prob = assemble_primal(layout_for(sc.werner_dataset(0.0)))
    assert len(prob.data_rows) == 3
    assert prob.reduced.n_vars == 1  # no free unknowns beyond the noise variable


def test_duality_identities_on_corpus():
    corpus = [
        sc.werner_dataset(0.0),
        sc.werner_dataset(0.3),
        sc.sum_triple_dataset(2.5),
        sc.quench_dataset(sc.quench_amplitudes(10, 3.0)),
        sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=6), 0.4),
        entangled_state_dataset(3, 31)[0],
    ]
    for ds in corpus:
        sol, prob = sc.certify(ds)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.entangled, "corpus instance should be entangled"
        # strong duality: primal and dual objectives coincide
        assert sol.duality_gap <= 1e-6
        assert sol.strong_duality_residual <= 1e-6
        # complementary slackness consequence: w.C = 1 when lambda* > 0
        assert abs(sol.w_dot_c - 1.0) <= 1e-6
        # dual feasibility of the extracted certificate, from the emitted
        # standard-form matrices directly
        slack = prob.dual_slack_blocks(sol.w_data, sol.w_pauli)
        assert slack[0][0, 0] >= -1e-8
        assert np.linalg.eigvalsh(0.5 * (slack[1] + slack[1].T))[0] >= -1e-8
        # bound identity: -sum b_k w_k^Pauli = 1 - lambda*
        assert abs(-float(sol.w_pauli @ prob.pauli_rhs) - (1.0 - sol.lambda_star)) <= 1e-6
        # the primal matrix is PSD and its lambda block equals lambda*
        assert sol.min_eig_x >= -1e-8
        assert abs(sol.x_star[0][0, 0] - sol.lambda_star) <= 1e-12


def test_dual_slack_complementarity():
    sol, prob = sc.certify(sc.werner_dataset(0.0))
    slack = prob.dual_slack_blocks(sol.w_data, sol.w_pauli)
    gamma = sol.x_star[1]
    assert abs(np.sum(slack[1] * gamma)) <= 1e-6  # <S, Gamma*> = 0


def test_monotonicity_under_data_removal():
    rng = make_rng(77)
    for seed in range(4):
        ds, sol, _ = entangled_state_dataset(3, 100 + seed)
        lam_full = sol.lambda_star
        smaller = drop_entries(ds, 0.3, rng)
        sol2, _ = sc.certify(smaller)
        assert sol2.lambda_star <= lam_full + 1e-7


def test_hierarchy_monotone_small():
    for seed in (0, 1, 2):
        ds, sol1, _ = entangled_state_dataset(3, 200 + seed)
        sol2, _ = sc.certify(ds, level=2)
        assert sol2.status is SdpStatus.OPTIMAL
        assert sol2.lambda_star >= sol1.lambda_star - 1e-7
        assert abs(sol2.w_dot_c - 1.0) <= 1e-5


def test_level2_tightens_partial_data():
    # with heavily pruned data the level-2 relaxation can strictly improve;
    # at minimum it must never fall below level 1
    ds, sol1, _ = entangled_state_dataset(3, 300)
    pruned = drop_entries(ds, 0.5, 5)
    l1, _ = sc.certify(pruned)
    l2, _ = sc.certify(pruned, level=2)
    assert l2.lambda_star >= l1.lambda_star - 1e-7


def test_hybrid_extras_monotone():
    from sepcert.momentmat import Monomial
    ds, sol1, _ = entangled_state_dataset(3, 400)
    extras = [Monomial(((0, 0), (1, 0), (2, 0)))]  # x0 x1 x2
    sol_h, _ = sc.certify(ds, extras=extras)
    assert sol_h.status is SdpStatus.OPTIMAL
    assert sol_h.lambda_star >= sol1.lambda_star - 1e-7


def test_pt_invariance():
    rng = make_rng(8)
    for seed in range(6):
        n = int(rng.integers(2, 5))
        ds = random_state_dataset(n, 500 + seed)
        if rng.random() < 0.5:
            ds = drop_entries(ds, 0.4, rng)
        subset = {int(s) for s in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                             replace=False)}
        sol_a, _ = sc.certify(ds)
        sol_b, _ = sc.certify(ds.partial_transpose(subset))
        assert abs(sol_a.lambda_star - sol_b.lambda_star) <= 1e-6


def test_scheme_matches_general():
    instances = [
        sc.quench_dataset(sc.quench_amplitudes(6, 1.5)),
        sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=4, g=1.0), 0.3),
        sc.werner_dataset(0.1),
    ]
    for ds in instances:
        auto, _ = sc.certify(ds)
        gen, _ = sc.certify(ds, scheme=GENERAL_SCHEME)
        assert abs(auto.lambda_star - gen.lambda_star) <= 1e-6


def test_noise_scaling_shifts_lambda():
    # lambda*((1-mu) C) = (lambda* - mu) / (1 - mu) for mu below lambda*
    sol0, _ = sc.certify(sc.werner_dataset(0.0))
    mu = 0.25
    sol1, _ = sc.certify(sc.werner_dataset(0.0).scale_noise(mu))
    expect = (sol0.lambda_star - mu) / (1.0 - mu)
    assert abs(sol1.lambda_star - expect) <= 1e-6


def test_extract_witness_not_entangled():
    sol, prob = sc.certify(sc.dataset_of(sc.random_product_state(3, 0)))
    with pytest.raises(NotEntangled):
        sc.extract_witness(sol, prob)


def test_solver_options_and_trace():
    opts = sc.SolverOptions(gap_tol=1e-9, feas_tol=1e-9, max_iter=100)
    sol, _ = sc.certify(sc.werner_dataset(0.0), options=opts, keep_trace=True)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.trace and {"iter", "mu", "pinfeas", "dinfeas", "relgap"} <= set(sol.trace[0])
    assert sol.trace[-1]["relgap"] <= 1e-9 or sol.trace[-1]["mu"] <= 1e-9


def test_iteration_limit_status():
    opts = sc.SolverOptions(max_iter=2)
    sol, _ = sc.certify(sc.quench_dataset(sc.quench_amplitudes(8, 2.0)), options=opts)
    assert sol.status in (SdpStatus.ITERATION_LIMIT, SdpStatus.NUMERICAL_TROUBLE)
    assert not sol.entangled  # non-optimal statuses never claim detection


def test_final_dual_infeasibility_reported():
    problem = assemble_primal(layout_for(sc.quench_dataset(sc.quench_amplitudes(8, 2.0))))
    opts = SolverOptions()
    res = InteriorPointSolver(opts).solve(problem.reduced, keep_trace=True)
    assert res.status is SdpStatus.OPTIMAL
    assert res.dinfeas <= opts.feas_tol
    assert res.dinfeas == res.trace[-1]["dinfeas"]
    # The default start is dual feasible, so its residual stays at rounding
    # level; from u = 0 the first two dual steps at level 2 are short of full
    # length and leave a residual far above the tolerance.
    problem = assemble_primal(layout_for(random_state_dataset(3, 601), level=2))
    problem.reduced.initial_u = None
    res = InteriorPointSolver(SolverOptions(max_iter=2)).solve(problem.reduced)
    assert res.status is SdpStatus.ITERATION_LIMIT
    assert res.dinfeas > opts.feas_tol


def test_solution_reports_final_infeasibilities():
    opts = SolverOptions()
    sol, _ = sc.certify(sc.werner_dataset(0.0), options=opts)
    assert sol.status is SdpStatus.OPTIMAL
    assert 0.0 <= sol.pinfeas <= opts.feas_tol
    assert 0.0 <= sol.dinfeas <= opts.feas_tol


def test_non_finite_data_end_as_numerical_trouble():
    # The solver's LAPACK calls do not reject NaN or inf; the finiteness test
    # on each iteration's mu and residuals has to stop the solve.
    prob = BlockSdp(block_dims=[2], n_vars=1, c=[1.0])
    prob.add_const(0, 0, 0, 1.0)
    prob.add_const(0, 0, 1, np.nan)
    prob.add_coeff(0, 0, 0, 0, 1.0)
    prob.add_coeff(0, 0, 1, 1, 1.0)
    res = InteriorPointSolver().solve(prob, keep_trace=True)
    assert res.status is SdpStatus.NUMERICAL_TROUBLE
    assert res.iterations <= 2
    assert not np.isfinite(res.trace[-1]["dinfeas"])


def test_indefinite_initial_point_falls_back_to_default_start():
    # A failed Cholesky (LAPACK info > 0) of G(initial_u) must send the solve
    # to the default start, which the solve without initial_u also takes.
    prob = assemble_primal(layout_for(sc.werner_dataset(0.0))).reduced
    prob.initial_u = None
    reference = InteriorPointSolver().solve(prob)
    prob.initial_u = np.array([-1.0])  # the scalar block G_0 = lambda = -1
    assert np.linalg.eigvalsh(prob.g_of(prob.initial_u)[0])[0] < 0
    res = InteriorPointSolver().solve(prob)
    assert res.status is SdpStatus.OPTIMAL
    assert abs(res.obj - 2.0 / 3.0) <= 1e-6
    assert res.iterations == reference.iterations
    assert np.array_equal(res.u, reference.u)


def test_bad_solver_options():
    with pytest.raises(ValueError):
        sc.SolverOptions(gap_tol=0.0)
    with pytest.raises(ValueError):
        sc.SolverOptions(step_fraction=1.0)


def test_lambda_star_range():
    rng = make_rng(4)
    for seed in range(3):
        ds = random_state_dataset(3, 600 + seed)
        sol, _ = sc.certify(ds)
        assert -1e-8 <= sol.lambda_star <= 1.0 + 1e-8


# -- BLAS threads during solves --------------------------------------------------


@needs_openblas_setter
def test_solves_run_on_one_blas_thread_and_restore(monkeypatch):
    before = blas_thread_counts()
    inside = []
    schur = InteriorPointSolver._schur

    def recording_schur(prob, w_blocks):
        inside.append(blas_thread_counts())
        return schur(prob, w_blocks)

    monkeypatch.setattr(InteriorPointSolver, "_schur", staticmethod(recording_schur))
    sc.certify(sc.werner_dataset(0.0))
    assert blas_thread_counts() == before
    sc.cmc_check(sc.dataset_of(sc.random_product_state(3, 5)))
    assert blas_thread_counts() == before
    assert inside and all(c == [1] * len(OPENBLAS_SETTERS) for c in inside)

    def failing_schur(prob, w_blocks):
        raise RuntimeError("injected Schur failure")

    monkeypatch.setattr(InteriorPointSolver, "_schur", staticmethod(failing_schur))
    with pytest.raises(RuntimeError, match="injected"):
        sc.certify(sc.werner_dataset(0.0))
    assert blas_thread_counts() == before


@needs_openblas_setter
def test_solve_on_worker_thread_leaves_main_count():
    before = blas_thread_counts()
    results = []
    worker = threading.Thread(
        target=lambda: results.append(sc.certify(sc.werner_dataset(0.0))[0].status))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert results == [SdpStatus.OPTIMAL]
    assert blas_thread_counts() == before


@needs_openblas_setter
def test_overlapping_scopes_restore_counts():
    # OpenBLAS's pthreads builds apply the setter process-wide, so a scope
    # that leaves while another is still inside must not restore the count.
    before = blas_thread_counts()
    one = [1] * len(OPENBLAS_SETTERS)
    errors = []

    def hammer():
        for _ in range(200):
            with single_blas_thread():
                time.sleep(0)  # let other threads enter and leave meanwhile
                if blas_thread_counts() != one:
                    errors.append(blas_thread_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert blas_thread_counts() == before


@needs_openblas_setter
def test_solve_matches_single_threaded_blas_bit_for_bit():
    code = ("import sepcert as sc\n"
            "sol, _ = sc.certify(sc.quench_dataset(sc.quench_amplitudes(32, 5.0)))\n"
            "print(sol.lambda_star.hex(), sol.w_data.tobytes().hex())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=300)
    lam_hex, w_hex = child.stdout.split()
    sol, _ = sc.certify(sc.quench_dataset(sc.quench_amplitudes(32, 5.0)))
    assert sol.lambda_star.hex() == lam_hex
    assert sol.w_data.tobytes().hex() == w_hex
