"""Separable-side ground truth: product datasets and variational tightness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcert as sc
from sepcert import seporacle
from sepcert.errors import NotNormalized
from sepcert.seporacle import make_rng

from oracles import (_ReferenceTerms, drop_entries, mixture_moment, random_state_dataset,
                     reference_product_search)


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
    gradient everywhere) or from an interval, and the call's arguments.
    Sparse witnesses leave sites with neither coupling nor field."""
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
    return wit, n, kw


@settings(max_examples=150)
@given(search_cases())
def test_search_value_is_its_state_and_beats_starts(case):
    """The returned value is the returned state's own, and no start of the
    search is better: site-wise ascent is monotone and Newton steps are kept
    only when they rise."""
    wit, n, kw = case
    best, state = sc.max_over_product_states(wit, n, **kw)
    terms = _ReferenceTerms(wit, n)
    assert abs(best - terms.value(state.bloch[None])[0]) <= 1e-12
    starts = make_rng(kw["seed"]).normal(size=(kw["restarts"], n, 3))
    starts /= np.linalg.norm(starts, axis=2, keepdims=True)
    assert best >= terms.value(starts).max() - 1e-12


@settings(max_examples=100)
@given(search_cases(), st.data())
def test_witness_terms_match_label_loop(case, data):
    """The array parse of the labels builds W and v bit for bit as a loop
    over parse_label does, two-body labels also written with their sites in
    reverse order, in place of or next to the canonical label (two labels
    of one correlator add up, in label order)."""
    wit, n, _ = case
    coeffs = {}
    for label, w in wit.coefficients.items():
        key = sc.parse_label(label)
        form = data.draw(st.sampled_from(["canonical", "reversed", "both"])) \
            if len(key) == 4 else "canonical"
        if form != "reversed":
            coeffs[label] = w
        if form != "canonical":
            i, j, a, b = key
            coeffs[f"{b}{a}[{j},{i}]"] = data.draw(st.floats(-2.0, 2.0))
    wit = sc.Witness(coefficients=coeffs, separable_bound=1.0)
    got, want = seporacle._WitnessTerms(wit, n), _ReferenceTerms(wit, n)
    assert np.array_equal(got.wmat, want.wmat) and np.array_equal(got.wvec, want.wvec)


@pytest.mark.parametrize("coefficients, n", [({"XX[1,1]": 1.0}, 3), ({"Q[1]": 1.0}, 3),
                                             ({"XY[0,7]": 1.0}, 3), ({"X[1234567890]": 1.0}, 3)])
def test_witness_terms_reject_bad_labels(coefficients, n):
    with pytest.raises(sc.BadKey):
        seporacle._WitnessTerms(sc.Witness(coefficients=coefficients, separable_bound=1.0), n)


# (tJ, search seed) of the n=32 quench ring with 16 restarts, as the
# benchmark runs it.
QUENCH_SEARCHES = [(4.0, 1), (6.0, 2), (8.0, 3), (10.0, 4)]


def check_against_reference(wit, n, restarts, seed):
    """The search reaches the projected-gradient baseline from the same
    starts within 1e-9, and no product state it finds exceeds the stated
    bound."""
    best, _ = sc.max_over_product_states(wit, n, restarts=restarts, seed=seed)
    ref_best, _ = reference_product_search(wit, n, restarts, seed=seed)
    assert best >= ref_best - 1e-9
    assert best <= wit.separable_bound + 1e-12


@pytest.mark.parametrize("t, seed", QUENCH_SEARCHES)
def test_search_reaches_reference_on_quench_witnesses(t, seed):
    sol, prob = sc.certify(sc.quench_dataset(sc.quench_amplitudes(32, t)))
    check_against_reference(sc.extract_witness(sol, prob), 32, 16, seed)


def test_search_reaches_reference_on_panel_witnesses():
    """The level-2 witnesses of ten Haar 3-qubit states with dropped
    correlators, drawn as the benchmark's partial-hierarchy panel draws
    them (seed 2024)."""
    rng = np.random.default_rng(2024)
    panel = []
    for k in range(10):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        frac = 0.1 + 0.3 * (k + rng.random()) / 10
        panel.append((psi / np.linalg.norm(psi), rng.random(36) >= frac))
    seeds = [int(rng.integers(2 ** 31)) for _ in panel]
    searched = 0
    for (psi, keep), seed in zip(panel, seeds):
        full = sc.state_dataset(psi)
        entries = sorted(full.one_items()) + sorted(full.two_items())
        kept = [e for e, k in zip(entries, keep) if k]
        partial = sc.CorrelationDataset(3, {k: v for k, v in kept if len(k) == 2},
                                        {k: v for k, v in kept if len(k) == 4})
        sol, prob = sc.certify(partial, level=2)
        if sol.entangled:
            check_against_reference(sc.extract_witness(sol, prob), 3, 16, seed)
            searched += 1
    assert searched == 10


_PAULI_EIGENSTATES = [np.array(v, dtype=complex) / np.linalg.norm(v)
                      for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])]


@st.composite
def soundness_datasets(draw):
    """Partial data of a Haar state, or boundary-valued data: a Pauli Bell
    pair on two random sites next to Pauli eigenstates or random pure
    states on the others, whose correlators include |C| = 1 and whose
    product part is rank-1 data C_ij = C_i C_j.  Either with a fraction of
    the correlators dropped; level 2 on some 3-site data."""
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        ds = random_state_dataset(n, seed)
    else:
        bell = np.zeros(4, dtype=complex)
        kind = draw(st.integers(0, 3))
        bell[[0, 3] if kind < 2 else [1, 2]] = [1.0, (-1.0) ** kind]
        psi = bell / np.sqrt(2.0)
        rng = make_rng(seed)
        for _ in range(n - 2):
            k = draw(st.integers(0, 6))
            site = (_PAULI_EIGENSTATES[k] if k < 6
                    else rng.normal(size=2) + 1j * rng.normal(size=2))
            psi = np.kron(psi, site / np.linalg.norm(site))
        order = draw(st.permutations(range(n)))
        psi = psi.reshape((2,) * n).transpose(order).ravel()
        ds = sc.state_dataset(psi)
    ds = drop_entries(ds, draw(st.sampled_from([0.0, 0.2, 0.4])), seed + 1)
    level = 2 if n == 3 and draw(st.integers(0, 3)) == 0 else 1
    return ds, level, seed


@settings(max_examples=40)
@given(soundness_datasets())
def test_no_product_state_above_the_stated_bound(case):
    """A witness's stated bound 1 - lambda* holds for every product state
    the search or random draws find, the scaled witness being bounded by the
    certificate's proved bound."""
    ds, level, seed = case
    sol, prob = sc.certify(ds, level=level)
    if not sol.entangled:
        return
    wit = sc.extract_witness(sol, prob)
    n = ds.n_sites
    best, state = sc.max_over_product_states(wit, n, restarts=32, seed=seed)
    draws = make_rng(seed + 2).normal(size=(512, n, 3))
    draws /= np.linalg.norm(draws, axis=2, keepdims=True)
    values = _ReferenceTerms(wit, n).value(np.concatenate((state.bloch[None], draws)))
    assert max(best, values.max()) <= wit.separable_bound + 1e-12
