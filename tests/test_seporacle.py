"""Separable-side ground truth: product datasets and variational tightness."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcert as sc
from sepcert import seporacle
from sepcert.errors import NotNormalized
from sepcert.seporacle import make_rng

from oracles import mixture_moment, reference_product_search


def test_product_state_validation():
    with pytest.raises(NotNormalized):
        sc.ProductState(np.array([[1.0, 1.0, 0.0]]))
    st = sc.ProductState(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    assert st.n_sites == 2


def test_mixture_validation():
    up = sc.ProductState(np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(NotNormalized):
        sc.SeparableMixture(np.array([0.5, 0.4]), (up, up))


def test_dataset_of_all_up():
    up = sc.ProductState(np.tile([0.0, 0.0, 1.0], (3, 1)))
    ds = sc.dataset_of(up)
    assert ds.one(1, "Z") == 1.0
    assert ds.one(1, "X") == 0.0
    assert ds.two(0, 2, "Z", "Z") == 1.0
    assert ds.two(0, 2, "X", "X") == 0.0


def test_dataset_of_updown_mixture():
    up = sc.ProductState(np.tile([0.0, 0.0, 1.0], (2, 1)))
    down = sc.ProductState(np.tile([0.0, 0.0, -1.0], (2, 1)))
    mix = sc.SeparableMixture(np.array([0.5, 0.5]), (up, down))
    ds = sc.dataset_of(mix)
    assert ds.one(0, "Z") == 0.0
    assert ds.two(0, 1, "Z", "Z") == 1.0  # classical correlation survives


def test_dataset_of_matches_direct_resummation():
    rng = make_rng(90)
    mix = sc.random_separable_mixture(5, 20, rng)
    ds = sc.dataset_of(mix)
    from sepcert.momentmat import Monomial
    for (i, a), v in ds.one_items():
        assert abs(v - mixture_moment(mix, Monomial.single(i, int(a)))) < 1e-12
    for (i, j, a, b), v in ds.two_items():
        mono = Monomial.single(i, int(a)) * Monomial.single(j, int(b))
        assert abs(v - mixture_moment(mix, mono)) < 1e-12


def test_dataset_of_linear_in_mixture():
    rng = make_rng(91)
    m1 = sc.random_separable_mixture(3, 3, rng)
    m2 = sc.random_separable_mixture(3, 2, rng)
    p = 0.3
    combined = sc.SeparableMixture(
        np.concatenate([p * m1.weights, (1 - p) * m2.weights]),
        m1.states + m2.states)
    ds = sc.dataset_of(combined)
    d1, d2 = sc.dataset_of(m1), sc.dataset_of(m2)
    for key, v in ds.two_items():
        assert abs(v - (p * d1.two_body[key] + (1 - p) * d2.two_body[key])) < 1e-12


def test_random_product_state_norms_and_determinism():
    a = sc.random_product_state(6, 123)
    b = sc.random_product_state(6, 123)
    assert np.array_equal(a.bloch, b.bloch)
    assert np.max(np.abs(np.linalg.norm(a.bloch, axis=1) - 1.0)) <= 1e-12


def test_random_product_state_isotropy():
    # 1e5 single-site samples: the mean Bloch vector contracts like n^-1/2
    rng = make_rng(7)
    samples = rng.normal(size=(100000, 3))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    assert np.linalg.norm(samples.mean(axis=0)) < 0.02
    # and the generator draws from the same construction
    st = sc.random_product_state(100, rng)
    assert np.max(np.abs(np.linalg.norm(st.bloch, axis=1) - 1.0)) <= 1e-12


def test_max_over_product_states_pair_witness():
    wit = sc.Witness(coefficients={"XX[0,1]": 1.0, "YY[0,1]": 1.0, "ZZ[0,1]": 1.0},
                     separable_bound=1.0)
    best, state = sc.max_over_product_states(wit, 2, restarts=64, seed=0)
    assert abs(best - 1.0) <= 1e-9
    # optimizer lands on anti/aligned bloch vectors
    dot = float(state.bloch[0] @ state.bloch[1])
    assert abs(dot - 1.0) <= 1e-6


def test_max_over_product_states_sign_symmetry():
    neg = sc.Witness(coefficients={"XX[0,1]": -1.0, "YY[0,1]": -1.0, "ZZ[0,1]": -1.0},
                     separable_bound=1.0)
    best, _ = sc.max_over_product_states(neg, 2, restarts=64, seed=0)
    assert abs(best - 1.0) <= 1e-9


def test_max_over_product_states_with_one_body_terms():
    wit = sc.Witness(coefficients={"Z[0]": 1.0, "Z[1]": 1.0, "ZZ[0,1]": 1.0},
                     separable_bound=3.0)
    best, state = sc.max_over_product_states(wit, 2, restarts=32, seed=2)
    assert abs(best - 3.0) <= 1e-9
    assert state.bloch[0, 2] > 0.999


def test_feasibility_closure():
    rng = make_rng(95)
    for k in range(5):
        mix = sc.random_separable_mixture(4, int(rng.integers(1, 6)), rng)
        sol, _ = sc.certify(sc.dataset_of(mix))
        assert sol.lambda_star <= 1e-7


def test_witness_soundness_against_bound():
    # the strongest cross-module check: no product state may beat the
    # certified separable bound
    corpus = [sc.werner_dataset(0.0), sc.sum_triple_dataset(2.2),
              sc.quench_dataset(sc.quench_amplitudes(8, 2.0))]
    for ds in corpus:
        sol, prob = sc.certify(ds)
        wit = sc.extract_witness(sol, prob)
        best, _ = sc.max_over_product_states(wit, ds.n_sites, restarts=200, seed=3)
        bound = 1.0 - sol.lambda_star
        assert best <= bound + 1e-4
        assert best >= bound - 1e-4  # and the bound is tight here


def test_max_over_product_states_bad_label():
    wit = sc.Witness(coefficients={"Z[5]": 1.0}, separable_bound=1.0)
    with pytest.raises(sc.BadKey):
        sc.max_over_product_states(wit, 3, restarts=4, seed=0)


@pytest.mark.parametrize("n, restarts", [(3, 0), (3, -2), (0, 4)])
def test_max_over_product_states_bad_sizes(n, restarts):
    wit = sc.Witness(coefficients={"Z[0]": 1.0}, separable_bound=1.0)
    with pytest.raises(sc.BadKey):
        sc.max_over_product_states(wit, n, restarts=restarts, seed=0)


@st.composite
def search_cases(draw):
    """A witness on n = 1..6 sites, sparse or on every label, with
    coefficients from a short list that holds 0 (a zero witness has zero
    gradient everywhere) or from an interval, the call's arguments, and an
    iteration cap and stall window small enough that restarts drop out by
    every route.  Dense witnesses are needed to tell a row of a matrix
    product in one batch size from the same row in another."""
    n = draw(st.integers(1, 6))
    labels = [sc.one_body_label(i, a) for i in range(n) for a in "XYZ"]
    labels += [sc.two_body_label(i, j, a, b) for i in range(n) for j in range(i + 1, n)
               for a in "XYZ" for b in "XYZ"]
    chosen = draw(st.one_of(
        st.lists(st.sampled_from(labels), min_size=1, max_size=12, unique=True),
        st.just(labels)))
    coeff = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                      st.floats(-2.0, 2.0, allow_nan=False))
    wit = sc.Witness(coefficients={lbl: draw(coeff) for lbl in chosen}, separable_bound=1.0)
    kw = dict(restarts=draw(st.integers(1, 32)), seed=draw(st.integers(0, 2 ** 16)))
    stops = dict(max_iter=draw(st.integers(1, 300)), stall_window=draw(st.integers(1, 100)))
    return wit, n, kw, stops


def test_search_bit_identical_to_reference(monkeypatch):
    """The search returns the value and state of its first form bit for bit,
    over draws that drop restarts at the gradient test, at step underflow,
    at a stall check, all at once, and down to a single restart."""
    events = collections.Counter()

    @settings(max_examples=150)
    @given(search_cases())
    def check(case):
        wit, n, kw, stops = case
        monkeypatch.setattr(seporacle, "MAX_ITER", stops["max_iter"])
        monkeypatch.setattr(seporacle, "STALL_WINDOW", stops["stall_window"])
        best, state = sc.max_over_product_states(wit, n, **kw)
        ref_best, ref_bloch = reference_product_search(wit, n, events=events, **kw, **stops)
        assert best == ref_best
        assert np.array_equal(state.bloch, ref_bloch)

    check()
    assert all(events[e] > 0 for e in ("gradient", "underflow", "stall", "all", "single")), events


# (tJ, search seed, best value minus 1 - lambda* where pinned) of the n=32
# quench ring with 16 restarts, as the benchmark runs it.
QUENCH_SEARCHES = [(4.0, 1, None), (6.0, 2, None), (8.0, 3, None), (10.0, 4, 8.2513e-10)]


@pytest.mark.parametrize("t, seed, margin", QUENCH_SEARCHES)
def test_search_bit_identical_on_quench_witnesses(t, seed, margin):
    sol, prob = sc.certify(sc.quench_dataset(sc.quench_amplitudes(32, t)))
    wit = sc.extract_witness(sol, prob)
    best, state = sc.max_over_product_states(wit, 32, restarts=16, seed=seed)
    ref_best, ref_bloch = reference_product_search(wit, 32, 16, seed=seed)
    assert best == ref_best
    assert np.array_equal(state.bloch, ref_bloch)
    if margin is not None:
        # the witness-bound fault margin the benchmark's 1e-9 check sees
        assert abs(best - (1.0 - sol.lambda_star) - margin) < 5e-15
