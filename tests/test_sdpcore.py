"""Assembly, interior-point solving, duality certificates, hierarchy."""

import dataclasses
import functools
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepcert as sc
from sepcert import sdpcore
from sepcert._blas import single_blas_thread
from sepcert.cli import _FORCED_SCHEMES
from sepcert.errors import NotEntangled, SolverFailure
from sepcert.momentmat import GENERAL_SCHEME, layout_for
from sepcert.sdpcore import (SCHUR_CHUNK_DOUBLES, BlockSdp, InteriorPointSolver, SdpStatus,
                             SolverOptions, assemble_primal, solve)
from sepcert.seporacle import make_rng

from oracles import (OPENBLAS_SETTERS, average_over_group, blas_thread_counts,
                     certificate_matrix, dense_schur, drop_entries, entangled_state_dataset,
                     entrywise_multipliers, entrywise_program, group_average,
                     lstsq_label_coefficients, random_state_dataset, single_block_problem,
                     standard_form_rows, standard_form_slack, union_find_components)

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
    assert sol.w_data == {}


def test_assemble_structure_quench():
    ds = sc.quench_dataset(sc.quench_amplitudes(8, 2.0))
    layout = layout_for(ds)
    prob = assemble_primal(layout)
    assert layout.dim == 25
    data_rows, pauli_rows = standard_form_rows(layout)
    assert len(data_rows) == ds.n_entries()
    assert {row.tag for row in pauli_rows} == {"unit", "site"}
    # reduced problem: lambda plus one tied square variable per site
    assert prob.reduced.n_vars == 1 + 8


def test_assemble_werner_constraints():
    prob = assemble_primal(layout_for(sc.werner_dataset(0.0)))
    assert len(standard_form_rows(prob.layout)[0]) == 3
    assert prob.reduced.n_vars == 1  # no free unknowns beyond the noise variable


def test_assembly_and_multipliers_match_entrywise_reference():
    ds3 = random_state_dataset(3, 601)
    layouts = [layout_for(sc.werner_dataset(0.3)),
               layout_for(sc.quench_dataset(sc.quench_amplitudes(8, 2.0))),
               layout_for(sc.dataset_of(sc.random_product_state(4, 1))),
               layout_for(ds3, level=2),
               layout_for(drop_entries(ds3, 0.3, 7), extras=[((0, 0), (1, 1), (2, 2))])]
    rng = make_rng(3)
    for layout in layouts:
        prob = assemble_primal(layout)
        want = entrywise_program(layout)
        for k in range(prob.reduced.n_vars + 1):  # F0, then each variable's F_t
            if k == 0:
                blocks = prob.reduced.f0
            else:
                blocks = prob.reduced.apply_at(np.eye(prob.reduced.n_vars)[k - 1])
            full = prob.full(blocks)
            assert full[0].tolist() == [float(k == 1)] + [0.0] * layout.solver_dim  # lambda
            assert np.array_equal(full[1:, 1:], want[k])
        z = rng.normal(size=(layout.solver_dim, layout.solver_dim))
        w_data, w_dot_c = sdpcore._extract_multipliers(layout, z)
        want_w, want_dot = entrywise_multipliers(layout, average_over_group(layout, z))
        assert list(w_data.items()) == list(want_w.items())  # values and key order
        assert w_dot_c == want_dot


@functools.lru_cache(maxsize=None)
def fixed_layout(name):
    """The Heisenberg n=10 or the quench n=32 layout, built once per session."""
    if name == "heisenberg":
        return layout_for(sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=10), 1.0))
    return layout_for(sc.quench_dataset(sc.quench_amplitudes(32, 5.0)))


@settings(max_examples=30)
@given(source=st.sampled_from(["axis", "transverse", "rotation", "heisenberg", "quench"]),
       n=st.integers(2, 4), seed=st.integers(0, 10 ** 6), drop=st.floats(0.0, 0.5))
def test_label_averaging_matches_group_averaged_matrix(source, n, seed, drop):
    # the multipliers averaged over their labels' images against the
    # multipliers read off Z averaged over the group as a whole matrix
    if source in ("heisenberg", "quench"):
        layout = fixed_layout(source)
    else:
        scheme = _FORCED_SCHEMES[source]
        ds = group_average(random_state_dataset(n, seed), scheme, drop, seed + 1)
        layout = layout_for(ds, scheme=scheme)
    assert len(layout.slot_actions) == len(layout.scheme.group_elements()) - 1
    z = make_rng(seed).normal(size=(layout.solver_dim, layout.solver_dim))
    z += z.T
    got, got_dot = sdpcore._extract_multipliers(layout, z)
    want, want_dot = entrywise_multipliers(layout, average_over_group(layout, z))
    assert list(got) == list(want)
    scale = max(map(abs, want.values()), default=0.0)
    assert max((abs(got[k] - want[k]) for k in want), default=0.0) <= 1e-15 * scale
    assert abs(got_dot - want_dot) <= 1e-15 * scale * len(want)


def term_positions(layout):
    """Rows and columns of every solver-basis term of the layout."""
    return (np.concatenate([terms[k] for terms in (layout.const_terms, layout.data_terms,
                                                   layout.var_terms)]) for k in (0, 1))


def test_gamma_splits_into_connected_blocks():
    # lambda and Gamma's components, in order, share a block up to PACK_DIM rows
    cases = [
        (layout_for(sc.quench_dataset(sc.quench_amplitudes(32, 4.0))),
         [1, 33, 32, 32], [34, 32, 32]),
        (layout_for(sc.werner_dataset(0.0)), [1, 1, 2, 2, 2], [8]),
    ]
    level2 = layout_for(random_state_dataset(3, 601), level=2)
    cases.append((level2, [1, level2.solver_dim], [1, level2.solver_dim]))
    for layout, comp_dims, dims in cases:
        comps = [np.arange(1)] + [1 + idx for idx in sdpcore._components(
            layout.solver_dim, *term_positions(layout))]
        assert [len(idx) for idx in comps] == comp_dims
        prob = assemble_primal(layout)
        assert prob.reduced.block_dims == dims
        assert np.array_equal(np.concatenate(prob.blocks), np.concatenate(comps))
        block_of = {i: b for b, idx in enumerate(prob.blocks) for i in idx}
        for r, c in zip(*term_positions(layout)):
            assert block_of[1 + r] == block_of[1 + c], (r, c)


@settings(max_examples=60)
@given(dim=st.integers(1, 40), data=st.data())
def test_components_match_union_find(dim, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                               max_size=2 * dim), label="edges")
    rows, cols = (np.array([e[k] for e in edges], dtype=np.intp) for k in (0, 1))
    got = sdpcore._components(dim, rows, cols)
    assert [idx.tolist() for idx in got] == union_find_components(dim, edges)


def test_split_solve_matches_single_block():
    for ds in (sc.quench_dataset(sc.quench_amplitudes(32, 4.0)),
               sc.quench_dataset(sc.quench_amplitudes(32, 10.0)),
               sc.werner_dataset(0.0)):
        layout = layout_for(ds)
        split = solve(assemble_primal(layout))
        one = solve(single_block_problem(layout))
        assert split.status is one.status is SdpStatus.OPTIMAL
        assert split.iterations == one.iterations
        assert abs(split.lambda_star - one.lambda_star) <= 1e-10
        assert split.w_data.keys() == one.w_data.keys()
        assert max(abs(split.w_data[k] - one.w_data[k]) for k in one.w_data) <= 1e-8
        assert np.max(np.abs(split.x_star[1] - one.x_star[1])) <= 1e-8


def test_packed_iterates_stay_block_diagonal(monkeypatch):
    # Every X and S iterate that the solver factors, and every projected
    # certificate, on the acceptance corpus and cmc_check's own problem: the
    # entries of a block between the components that share it stay at
    # rounding level.
    factored, projected = [], []
    factor, project = sdpcore._factor, InteriorPointSolver.certificate_projection

    def recording_factor(mat):
        factored.append(mat)
        return factor(mat)

    def recording_projection(self, prob, x_blocks):
        projected.append(project(self, prob, x_blocks))
        return projected[-1]

    monkeypatch.setattr(sdpcore, "_factor", recording_factor)
    monkeypatch.setattr(InteriorPointSolver, "certificate_projection", recording_projection)
    cases = []
    for ds in (sc.werner_dataset(0.0), sc.dataset_of(sc.random_product_state(4, 1)),
               sc.dataset_of(sc.random_product_state(8, 2)),
               sc.quench_dataset(sc.quench_amplitudes(16, 3.0)),
               sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=8), 0.4),
               random_state_dataset(3, 601)):
        layout = layout_for(ds)
        comp = np.empty(1 + layout.solver_dim, dtype=np.intp)
        comp[0] = -1  # lambda
        for k, idx in enumerate(sdpcore._components(layout.solver_dim,
                                                    *term_positions(layout))):
            comp[1 + idx] = k
        blocks = assemble_primal(layout).blocks
        cases.append((lambda ds=ds: sc.certify(ds), [comp[idx] for idx in blocks]))
    # cmc_check: the 9x9 matrix, then rho_0, rho_1 and rho_2, in one block
    cases.append((lambda: sc.cmc_check(sc.state_dataset(np.eye(8) / 8)),
                  [np.repeat(np.arange(4), [9, 3, 3, 3])]))
    packed = 0
    for run, labels in cases:
        factored.clear()
        projected.clear()
        run()
        cross = [lab[:, None] != lab[None, :] for lab in labels]
        packed += sum(m.any() for m in cross)
        # each iteration factors S, then X, of every block in turn
        mats = [(cross[k // 2 % len(cross)], m) for k, m in enumerate(factored)]
        mats += [(mask, m) for blocks in projected for mask, m in zip(cross, blocks)]
        for mask, mat in mats:
            assert np.max(np.abs(mat[mask]), initial=0.0) <= 1e-12 * np.max(np.abs(mat))
    assert packed == 7  # one block shared by several components per run


def test_schur_matches_dense_oracle(monkeypatch):
    # A split quench problem, a level-2 problem and cmc_check's own problem,
    # taken from the solver's first Schur call.
    cmc = []
    schur = InteriorPointSolver._schur

    def recording_schur(prob, w_blocks):
        cmc.append(prob)
        return schur(prob, w_blocks)

    monkeypatch.setattr(InteriorPointSolver, "_schur", staticmethod(recording_schur))
    sc.cmc_check(sc.dataset_of(sc.random_product_state(3, 5)))
    monkeypatch.undo()
    problems = [
        assemble_primal(layout_for(sc.quench_dataset(sc.quench_amplitudes(16, 3.0)))).reduced,
        assemble_primal(layout_for(random_state_dataset(3, 601), level=2)).reduced,
        cmc[0],
    ]
    assert problems[0].block_dims == [34, 16]
    assert problems[2].block_dims == [18]
    rng = make_rng(9)
    for prob in problems:
        w_blocks = []
        for d in prob.block_dims:
            a = rng.normal(size=(d, d))
            w_blocks.append(a @ a.T + d * np.eye(d))
        got = InteriorPointSolver._schur(prob, w_blocks)
        want = dense_schur(prob, w_blocks)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def random_block_sdp(dims, calls, seed):
    """A BlockSdp whose variable t gets calls[b][t] entries in block b (0
    leaves it out of the block), at positions drawn from a pool half that
    size so that (r, c) pairs repeat."""
    rng = make_rng(seed)
    coeffs = []
    for b, d in enumerate(dims):
        for t, k in enumerate(calls[b]):
            pool = rng.integers(0, d, size=(max(1, k // 2), 2))
            for r, c in pool[rng.integers(0, len(pool), size=k)]:
                coeffs.append((b, int(r), int(c), t, rng.uniform(-2.0, 2.0)))
    return BlockSdp(block_dims=dims, n_vars=len(calls[0]), c=np.zeros(len(calls[0])),
                    const=([], [], [], []), coeffs=list(zip(*coeffs)) or ([],) * 5)


@st.composite
def block_sdp_shapes(draw):
    dims = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
    n_vars = draw(st.integers(1, 8))
    # Up to 2d + 2 calls, each one or two triplets: from a single entry to
    # well above d, so both the dense and the grouped products run.
    calls = [[draw(st.integers(0, 2 * d + 2)) for _ in range(n_vars)] for d in dims]
    return dims, calls


# Twice a chunk's 2^17 / 30^2 variables, nearly all of one count group (a
# single off-diagonal entry, two triplets), next to an empty block.
_WIDE = 2 * (SCHUR_CHUNK_DOUBLES // 900 + 1)


@settings(max_examples=40)
@given(shape=block_sdp_shapes(), seed=st.integers(0, 2 ** 31))
@example(shape=([30, 4], [[1] * _WIDE + [45], [0] * (_WIDE + 1)]), seed=3)
def test_schur_matches_dense_oracle_on_generated_problems(shape, seed):
    prob = random_block_sdp(*shape, seed)
    rng = make_rng(seed + 1)
    w_blocks = []
    for d in prob.block_dims:
        a = rng.normal(size=(d, d))
        w_blocks.append(a @ a.T + d * np.eye(d))
    got = InteriorPointSolver._schur(prob, w_blocks)
    want = dense_schur(prob, w_blocks)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_solve_matches_dense_schur_oracle_path(monkeypatch):
    # A split quench problem and a level-2 problem, solved through the real
    # Schur build and through the dense oracle.
    for layout in (layout_for(sc.quench_dataset(sc.quench_amplitudes(16, 3.0))),
                   layout_for(random_state_dataset(3, 601), level=2)):
        problem = assemble_primal(layout)
        real = solve(problem)
        with monkeypatch.context() as m:
            m.setattr(InteriorPointSolver, "_schur", staticmethod(dense_schur))
            oracle = solve(problem)
        assert real.status is oracle.status is SdpStatus.OPTIMAL
        assert real.iterations == oracle.iterations
        assert abs(real.lambda_star - oracle.lambda_star) <= 1e-10
        assert real.w_data.keys() == oracle.w_data.keys()
        assert max(abs(real.w_data[k] - oracle.w_data[k]) for k in real.w_data) <= 1e-7


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
        # dual feasibility of the extracted certificate, from the
        # standard-form slack rebuilt around its multipliers
        slack, bound = standard_form_slack(prob, sol)
        assert slack[0][0, 0] >= -1e-8
        assert np.linalg.eigvalsh(0.5 * (slack[1] + slack[1].T))[0] >= -1e-8
        # bound identity: -sum b_k w_k^Pauli = 1 - lambda*
        assert abs(bound - (1.0 - sol.lambda_star)) <= 1e-6
        # the primal matrix is PSD and its lambda block equals lambda*
        assert sol.min_eig_x >= -1e-8
        assert abs(sol.x_star[0][0, 0] - sol.lambda_star) <= 1e-12


def test_dual_slack_complementarity():
    sol, prob = sc.certify(sc.werner_dataset(0.0))
    slack, _ = standard_form_slack(prob, sol)
    gamma = sol.x_star[1]
    assert abs(np.sum(slack[1] * gamma)) <= 1e-6  # <S, Gamma*> = 0


@settings(max_examples=30)
@given(n=st.integers(2, 4), seed=st.integers(0, 10 ** 6), frac=st.floats(0.05, 0.8))
def test_monotonicity_under_data_removal(n, seed, frac):
    ds = random_state_dataset(n, seed)
    sol, _ = sc.certify(ds)
    smaller = drop_entries(ds, frac, seed + 1)
    sol2, _ = sc.certify(smaller)
    assert sol2.lambda_star <= sol.lambda_star + 1e-7


@settings(max_examples=8)
@given(seed=st.integers(0, 10 ** 6), frac=st.floats(0.0, 0.5))
def test_hierarchy_monotone_small(seed, frac):
    ds = drop_entries(random_state_dataset(3, seed), frac, seed + 1)
    sol1, _ = sc.certify(ds)
    sol2, _ = sc.certify(ds, level=2)
    assert sol1.status is sol2.status is SdpStatus.OPTIMAL
    assert sol2.lambda_star >= sol1.lambda_star - 1e-7
    if sol2.entangled:
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


def test_extras_with_tie_rows_certify_optimal():
    # The extras add tie rows to the standard form, which has no certificate
    # there; the reduced dual matrix certifies, with residual zero.
    from sepcert.momentmat import Monomial
    extras = [Monomial(((0, 0), (1, 0), (2, 0))), Monomial(((0, 1), (1, 0), (2, 0))),
              Monomial(((0, 0), (1, 1), (2, 1)))]
    for seed in (400, 401):
        ds, sol1, _ = entangled_state_dataset(3, seed)
        sol, prob = sc.certify(ds, extras=extras)
        assert "tie" in {row.tag for row in standard_form_rows(prob.layout)[1]}
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.lambda_star - sol1.lambda_star) <= 1e-7
        assert sol.dual_feas_residual <= 1e-8


def test_label_coefficients_match_lstsq_oracle():
    datasets = [random_state_dataset(3, seed) for seed in (601, 602, 603, 604)]
    datasets.append(drop_entries(random_state_dataset(3, 605), 0.3, 605))
    for ds in datasets:
        problem = assemble_primal(layout_for(ds, level=2))
        want = lstsq_label_coefficients(problem, certificate_matrix(problem))
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL
        got = sol.w_data
        assert got.keys() == want.keys()
        assert max(abs(got[lbl] - want[lbl]) for lbl in want) <= 1e-10
        # the witness states the multipliers scaled to the proved bound
        kappa = (1.0 - sol.lambda_star) / sol.proved_bound
        wit = sc.extract_witness(sol, problem)
        assert wit.coefficients == {lbl: kappa * w for lbl, w in got.items()}
        assert sol.dual_feas_residual <= 1e-8
        assert sol.strong_duality_residual <= 1e-6
        assert abs(sol.w_dot_c - 1.0) <= 1e-6
    with pytest.raises(ValueError, match="unit and site"):
        standard_form_slack(problem, sol)


@settings(max_examples=30)
@given(n=st.integers(2, 4), seed=st.integers(0, 10 ** 6), frac=st.floats(0.0, 0.6),
       data=st.data())
def test_pt_invariance(n, seed, frac, data):
    ds = drop_entries(random_state_dataset(n, seed), frac, seed + 1)
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="subset")
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


@settings(max_examples=25)
@given(n=st.integers(2, 4), seed=st.integers(0, 10 ** 6),
       scheme=st.sampled_from(["axis", "transverse", "rotation"]), drop=st.floats(0.0, 0.5))
def test_auto_scheme_matches_general_on_generated_data(n, seed, scheme, drop):
    # a Haar state's correlators averaged over the scheme group, whole orbits dropped
    ds = group_average(random_state_dataset(n, seed), _FORCED_SCHEMES[scheme], drop, seed + 1)
    auto, _ = sc.certify(ds)
    gen, _ = sc.certify(ds, scheme=GENERAL_SCHEME)
    assert abs(auto.lambda_star - gen.lambda_star) <= 1e-6


@settings(max_examples=20)
@given(n=st.integers(2, 4), seed=st.integers(0, 10 ** 6), frac=st.floats(0.0, 0.6),
       above=st.booleans(), t=st.floats(0.0, 0.9))
def test_noise_scaling_shifts_lambda(n, seed, frac, above, t):
    # (1 - lambda)(1 - mu) C is compatible exactly when (1 - lambda*) C is,
    # so lambda*((1 - mu) C) = max(0, 1 - (1 - lambda*) / (1 - mu)), with
    # mu drawn below or above lambda*
    ds = drop_entries(random_state_dataset(n, seed), frac, seed + 1)
    sol0, _ = sc.certify(ds)
    lam = sol0.lambda_star
    mu = lam + t * (1.0 - lam) if above else t * lam
    sol1, _ = sc.certify(ds.scale_noise(mu))
    assert sol0.status is sol1.status is SdpStatus.OPTIMAL
    assert abs(sol1.lambda_star - max(0.0, 1.0 - (1.0 - lam) / (1.0 - mu))) <= 1e-6


def test_extract_witness_not_entangled():
    sol, prob = sc.certify(sc.dataset_of(sc.random_product_state(3, 0)))
    with pytest.raises(NotEntangled):
        sc.extract_witness(sol, prob)


@pytest.mark.parametrize("excess", [0.0, 1e-9, 1.0])
def test_extract_witness_needs_a_proved_detection(excess):
    # a certificate whose proved bound b is not below w.C proves no detection
    sol, prob = sc.certify(sc.werner_dataset(0.0))
    assert 0.0 < sol.proved_bound < sol.w_dot_c
    sc.extract_witness(sol, prob)
    bad = dataclasses.replace(sol, proved_bound=sol.w_dot_c + excess)
    with pytest.raises(SolverFailure, match="no detection is proved"):
        sc.extract_witness(bad, prob)


# Thermal n=10 chains just inside detection, from the thermal-chain
# benchmark sweeps, where the solve stops at |1 - w.C| between 1.3e-6 and
# 1.1e-5, and two at lambda* ~ 2e-6, where it stops at 4e-3 (Ising) and
# 1.6e-4 (Heisenberg): the stated witness is 1 on the data all the same.
NEAR_THRESHOLD_THERMAL = [("heisenberg", 0.0, 1.4313364544541236),
                          ("heisenberg", 0.0, 1.430980153449661),
                          ("ising", 1.0, 0.37636069561907265),
                          ("ising", 1.0, 0.3760552861632505),
                          ("ising", 1.0, 0.37641282850530927),
                          ("ising", 1.0, 0.376656634187296),
                          ("heisenberg", 0.0, 1.431380161695013)]


@pytest.mark.parametrize("kind, g, temp", NEAR_THRESHOLD_THERMAL)
def test_near_threshold_witness_is_normalized(kind, g, temp):
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind=kind, n=10, g=g), temp)
    sol, prob = sc.certify(ds)
    assert sol.status is SdpStatus.OPTIMAL and sol.entangled
    assert abs(sc.eval_witness(sc.extract_witness(sol, prob), ds).value - 1.0) <= 1e-7


def test_solver_options_and_trace():
    opts = sc.SolverOptions(tol=1e-9, max_iter=100)
    sol, _ = sc.certify(sc.werner_dataset(0.0), options=opts, keep_trace=True)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.trace and {"iter", "mu", "pinfeas", "dinfeas", "relgap"} <= set(sol.trace[0])
    assert all(row["schur_s"] >= 0.0 for row in sol.trace[:-1])
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
    assert res.dinfeas <= opts.tol
    assert res.dinfeas == res.trace[-1]["dinfeas"]
    # The default start is dual feasible, so its residual stays at rounding
    # level; from u = 0 the first two dual steps at level 2 are short of full
    # length and leave a residual far above the tolerance.
    problem = assemble_primal(layout_for(random_state_dataset(3, 601), level=2))
    problem.reduced.initial_u = None
    res = InteriorPointSolver(SolverOptions(max_iter=2)).solve(problem.reduced)
    assert res.status is SdpStatus.ITERATION_LIMIT
    assert res.dinfeas > opts.tol


def test_solution_reports_final_infeasibilities():
    opts = SolverOptions()
    sol, _ = sc.certify(sc.werner_dataset(0.0), options=opts)
    assert sol.status is SdpStatus.OPTIMAL
    assert 0.0 <= sol.pinfeas <= opts.tol
    assert 0.0 <= sol.dinfeas <= opts.tol


def test_non_finite_data_end_as_numerical_trouble():
    # The solver's LAPACK calls do not reject NaN or inf; the finiteness test
    # on each iteration's mu and residuals has to stop the solve.
    prob = BlockSdp(block_dims=[2], n_vars=1, c=[1.0],
                    const=([0, 0], [0, 0], [0, 1], [1.0, np.nan]),
                    coeffs=([0, 0], [0, 1], [0, 1], [0, 0], [1.0, 1.0]))
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
    for tol in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError):
            sc.SolverOptions(tol=tol)


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
    code = ("import numpy as np\n"
            "import sepcert as sc\n"
            "sol, _ = sc.certify(sc.quench_dataset(sc.quench_amplitudes(32, 5.0)))\n"
            "print(sol.lambda_star.hex(), np.array(list(sol.w_data.values())).tobytes().hex())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=300)
    lam_hex, w_hex = child.stdout.split()
    sol, _ = sc.certify(sc.quench_dataset(sc.quench_amplitudes(32, 5.0)))
    assert sol.lambda_star.hex() == lam_hex
    assert np.array(list(sol.w_data.values())).tobytes().hex() == w_hex
