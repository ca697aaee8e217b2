"""Witness families: evaluation, kernels, bounds, implications."""

import math
import re

import numpy as np
import pytest

import sepcert as sc
from sepcert.errors import BadKey, BadSize, MissingData, ParseError, WrongSize
from sepcert.seporacle import make_rng
from sepcert.witnesslab import bipartite_kernel_closed_form

from oracles import haar_state, random_state_dataset

# Kernel values for n=8 from the direct sum (1/4)(1 + 2 cos(pi r/4)):
# r=1: (1 + sqrt(2))/4, r=3: (1 - sqrt(2))/4.
KERNEL_N8_R1 = 0.6035533905932738
KERNEL_N8_R3 = -0.10355339059327377


def full_singlet():
    return sc.new_dataset(2, {**{(i, a): 0.0 for i in range(2) for a in "XYZ"},
                              **{(0, 1, a, a): -1.0 for a in "XYZ"},
                              **{(0, 1, a, b): 0.0 for a in "XYZ" for b in "XYZ"
                                 if a != b}})


# -- eval_witness -----------------------------------------------------------------


def test_eval_witness_on_generating_data():
    ds = sc.werner_dataset(0.0)
    sol, prob = sc.certify(ds)
    wit = sc.extract_witness(sol, prob)
    ev = sc.eval_witness(wit, ds)
    assert abs(ev.value - 1.0) <= 1e-6
    assert ev.violated
    assert ev.margin > 0


def test_eval_witness_zero_data():
    sol, prob = sc.certify(sc.werner_dataset(0.0))
    wit = sc.extract_witness(sol, prob)
    ev = sc.eval_witness(wit, sc.werner_dataset(1.0))
    assert ev.value == 0.0
    assert not ev.violated


def test_eval_witness_boundary_scaling():
    ds = sc.werner_dataset(0.0)
    sol, prob = sc.certify(ds)
    wit = sc.extract_witness(sol, prob)
    ev = sc.eval_witness(wit, ds.scale_noise(sol.lambda_star))
    # value = 1 - lambda* at the boundary, within tolerance: not a violation
    assert abs(ev.value - (1.0 - sol.lambda_star)) <= 1e-6
    assert abs(ev.margin) <= 1e-6


def test_eval_witness_missing():
    wit = sc.Witness(coefficients={"XX[0,1]": 1.0, "Z[0]": 0.5}, separable_bound=1.0)
    with pytest.raises(MissingData):
        sc.eval_witness(wit, sc.werner_dataset(0.0))


def test_witness_validation():
    with pytest.raises(BadKey):
        sc.Witness(coefficients={}, separable_bound=1.0)
    with pytest.raises(BadKey):
        sc.Witness(coefficients={"Z[0]": 1.0}, separable_bound=1.0, orientation="sideways")
    for coeff, bound in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(BadKey, match="finite"):
            sc.Witness(coefficients={"XX[0,1]": 1.0, "Z[0]": coeff}, separable_bound=bound)


@pytest.mark.parametrize("value, bound", [("NaN", "1.0"), ("-1.0", "Infinity")])
def test_read_witness_rejects_non_finite_numbers(tmp_path, value, bound):
    path = tmp_path / "w.json"
    path.write_text('{"format_version": 1, "coefficients": [{"label": "XX[0,1]", '
                    f'"value": {value}}}], "bound": {bound}}}', encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*finite"):
        sc.read_witness(path)


def test_witness_file_roundtrip(tmp_path):
    wit = sc.Witness(coefficients={"XX[0,1]": -1 / 3, "Z[0]": 0.125},
                     separable_bound=0.25, orientation="upper",
                     provenance="dual_certificate")
    path = tmp_path / "w.json"
    sc.write_witness(wit, path)
    back = sc.read_witness(path)
    assert back == wit
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    with pytest.raises(ParseError):
        sc.read_witness(tmp_path / "bad.json")


# -- phase family -------------------------------------------------------------------


def test_phase_witness_singlet():
    ev = sc.phase_witness_value(full_singlet())
    assert abs(ev.value - (-6.0)) < 1e-12
    assert ev.bound == -2.0
    assert ev.violated


def test_phase_witness_product_not_violated():
    n = 6
    entries = {(i, a): 0.0 for i in range(n) for a in "XY"}
    entries.update({(i, "Z"): 1.0 for i in range(n)})
    for i in range(n):
        for j in range(i + 1, n):
            for a in "XYZ":
                entries[(i, j, a, a)] = 1.0 if a == "Z" else 0.0
    ev = sc.phase_witness_value(sc.new_dataset(n, entries))
    assert abs(ev.value - n * (n - 1)) < 1e-12
    assert not ev.violated


def test_phase_witness_gauge_invariance():
    ds = random_state_dataset(4, 12)
    rng = make_rng(3)
    phases = rng.uniform(-np.pi, np.pi, size=(4, 3))
    base = sc.phase_witness_value(ds, phases).value
    shifted = phases + rng.uniform(-np.pi, np.pi, size=(1, 3))  # per-axis constant
    assert abs(sc.phase_witness_value(ds, shifted).value - base) <= 1e-12


def test_phase_witness_missing():
    ds = sc.new_dataset(3, {(0, 1, "X", "X"): 0.1})
    with pytest.raises(MissingData):
        sc.phase_witness_value(ds)


# -- structure family ----------------------------------------------------------------


def test_structure_witness_value_singlet():
    ev = sc.structure_witness_value(full_singlet(), 0.0, 0.0, 0.0)
    assert abs(ev.value) < 1e-12
    assert ev.violated and ev.bound == 2.0


def test_structure_witness_heisenberg():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=8), 0.5)
    ev = sc.structure_witness_value(ds, 0.0, 0.0, 0.0)
    assert ev.value < 2.0
    assert ev.violated
    # the SDP dominates its derived family: a violated family witness
    # implies a positive noise robustness
    sol, _ = sc.certify(ds)
    assert sol.entangled


def test_spin_structure_bound_consistency():
    # spin-1/2: bound n*s on the unnormalized spin-convention sum equals the
    # qubit bound 2 after dividing by n and rescaling spins to Paulis.
    n = 10
    assert sc.spin_structure_factor_bound(n, 0.5) * 4.0 / n == pytest.approx(2.0)
    with pytest.raises(BadKey):
        sc.spin_structure_factor_bound(0, 0.5)


# -- bipartite family ------------------------------------------------------------------


def test_kernel_frozen_values():
    kern = sc.bipartite_kernel(8)
    assert abs(kern.k(1) - KERNEL_N8_R1) < 1e-12
    assert abs(kern.k(3) - KERNEL_N8_R3) < 1e-12
    assert kern.k(-3) == kern.k(3)


def test_kernel_closed_form_matches_sum():
    for n in (8, 16, 64):
        kern = sc.bipartite_kernel(n)
        for r in range(-n + 1, n):
            if r % 2 == 0:
                continue
            assert abs(kern.k(r) - bipartite_kernel_closed_form(n, r)) <= 1e-12
        # generic closed form also covers even r
        for r in range(-n + 1, n):
            assert abs(kern.k(r) - bipartite_kernel_closed_form(n, r)) <= 1e-12


def test_kernel_bad_size():
    with pytest.raises(BadSize):
        sc.bipartite_kernel(6)
    with pytest.raises(BadSize):
        sc.bipartite_witness_value(random_state_dataset(3, 1))


def test_bipartite_product_states_respect_bound():
    rng = make_rng(21)
    n = 8
    worst = np.inf
    for _ in range(400):
        ds = sc.dataset_of(sc.random_product_state(n, rng))
        ev = sc.bipartite_witness_value(ds)
        worst = min(worst, ev.value)
        assert ev.value >= -n / 2.0 - 1e-9
        assert not ev.violated
    assert worst >= -n / 2.0 - 1e-9


def test_bipartite_heisenberg_low_temperature():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=8), 0.2)
    ev = sc.bipartite_witness_value(ds)
    assert ev.value < -4.0  # violation below -n/2
    assert ev.violated


def test_bipartite_random_phases_respect_bound():
    rng = make_rng(33)
    for _ in range(50):
        ds = sc.dataset_of(sc.random_product_state(4, rng))
        phases = rng.uniform(-np.pi, np.pi, size=(4, 3))
        assert sc.bipartite_witness_value(ds, phases).value >= -2.0 - 1e-9


def test_ising_phase_choice_is_grid_argmin():
    # the alternating-sign phase pattern for X and Z is the best choice on
    # the {0, pi} grid for the low-temperature Ising chain
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=8, g=1.0), 0.1)
    import itertools
    def pattern(bits):
        ph = np.zeros((8, 3))
        for a in range(3):
            if bits[a]:
                ph[1::2, a] = np.pi
        return ph
    vals = {bits: sc.bipartite_witness_value(ds, pattern(bits)).value
            for bits in itertools.product((0, 1), repeat=3)}
    assert min(vals, key=vals.get) == (1, 0, 1)


# -- spin squeezing ----------------------------------------------------------------------


def test_spin_squeezing_all_zero():
    cm = sc.CollectiveMoments(n_sites=4, m=(0.0, 0.0, 0.0), c=(0.0, 0.0, 0.0))
    results = sc.spin_squeezing_check(cm)
    assert len(results) == 8
    assert all(r.satisfied for r in results)


def test_spin_squeezing_polarized_boundary():
    for n in (2, 5, 40):
        cm = sc.CollectiveMoments(n_sites=n, m=(0.0, 0.0, 1.0), c=(0.0, 0.0, 1.0))
        results = sc.spin_squeezing_check(cm)
        # inequality 2 (corr, corr, mag) sits exactly on the boundary
        assert abs(results[1].lhs - 1.0) < 1e-12
        assert results[1].satisfied


def test_spin_squeezing_singlet_violation():
    cm = sc.CollectiveMoments(n_sites=2, m=(0.0, 0.0, 0.0), c=(-1.0, -1.0, -1.0))
    results = sc.spin_squeezing_check(cm)
    assert abs(results[0].lhs - (-3.0)) < 1e-12
    # inequality 8: n(sum m^2) - (n-1) sum c = 3 > 1, violated
    assert abs(results[7].lhs - 3.0) < 1e-12
    assert not results[7].satisfied


def test_spin_squeezing_feasible_implication():
    rng = make_rng(50)
    for k in range(15):
        mix = sc.random_separable_mixture(4, int(rng.integers(1, 6)), rng)
        cm = sc.dataset_of(mix).collective_moments()
        assert all(r.lhs <= 1.0 + 1e-8 for r in sc.spin_squeezing_check(cm))


# -- covariance-matrix criterion -------------------------------------------------------------


def test_cmc_product_feasible():
    rng = make_rng(60)
    for k in range(10):
        ds = sc.dataset_of(sc.random_product_state(3, rng))
        res = sc.cmc_check(ds)
        assert res.feasible
        assert res.margin >= -1e-8


def test_cmc_ghz():
    # GHZ one- and two-body correlators are classically reproducible (the
    # up/down mixture), so the criterion stays feasible and matches the
    # level-1 verdict
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[-1] = 1.0 / np.sqrt(2.0)
    ds = sc.state_dataset(ghz)
    res = sc.cmc_check(ds)
    assert res.feasible
    sol, _ = sc.certify(ds)
    assert not sol.entangled


def test_cmc_entangled_state_infeasible():
    # a random pure 3-qubit state detected at level 1 also fails the CMC when
    # the violation is strong enough; check consistency on a known instance
    rng = make_rng(70)
    found = False
    for _ in range(20):
        ds = sc.state_dataset(haar_state(3, rng))
        res = sc.cmc_check(ds)
        sol, _ = sc.certify(ds)
        if not res.feasible:
            found = True
            assert sol.entangled  # CMC infeasible implies level-1 detection
    assert found, "expected at least one CMC-infeasible random state"


def test_cmc_feasibility_implied_by_level1():
    rng = make_rng(80)
    for k in range(10):
        mix = sc.random_separable_mixture(3, int(rng.integers(1, 5)), rng)
        ds = sc.dataset_of(mix)
        sol, _ = sc.certify(ds)
        assert sol.lambda_star <= 1e-7
        assert sc.cmc_check(ds).feasible


# CMC margins of the mixed states p |psi><psi| + (1 - p) I/8 below, computed
# when cmc_check solved its [9, 3, 3, 3] blocks one by one.
CMC_MARGINS = (-0.17547994696660138, 0.08666250585369019, -0.3063399339386358,
               0.09788129100872656, -0.44375420174607794, -0.02510000189532911,
               -0.37984793840541276, -0.306283063988684, 0.06150331736860763,
               0.0023655900017037863)


def test_cmc_margins_pinned_on_mixed_states():
    for seed, want in enumerate(CMC_MARGINS):
        rng = np.random.default_rng(seed)
        psi = haar_state(3, rng)
        p = 0.2 + 0.8 * rng.random()
        rho = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(8) / 8
        res = sc.cmc_check(sc.state_dataset(rho))
        assert res.status is sc.SdpStatus.OPTIMAL
        assert res.feasible == (want >= 0.0)
        assert abs(res.margin - want) <= 1e-9, seed


def test_cmc_errors():
    with pytest.raises(WrongSize):
        sc.cmc_check(sc.werner_dataset(0.0))
    ds = sc.new_dataset(3, {(0, 1, "X", "X"): 0.5})
    with pytest.raises(MissingData):
        sc.cmc_check(ds)


# -- absent correlators, family by family ---------------------------------------------


def _two_absent(n):
    """Full product-state data on n sites with Y[1] and ZZ[0,1] absent."""
    ds = sc.dataset_of(sc.random_product_state(n, 21))
    return sc.CorrelationDataset(
        n, {k: v for k, v in ds.one_items() if k != (1, sc.PauliAxis.Y)},
        {k: v for k, v in ds.two_items() if k != (0, 1, sc.PauliAxis.Z, sc.PauliAxis.Z)})


@pytest.mark.parametrize("family, n, missing", [
    ("collective", 4, {"Y[1]", "ZZ[0,1]"}),
    ("phase", 4, {"ZZ[0,1]"}),
    ("bipartite", 4, {"ZZ[0,1]"}),
    ("structure_factor", 4, {"ZZ[0,1]"}),
    ("structure_curve", 4, {"ZZ[0,1]"}),
    ("optimal_structure", 4, {"ZZ[0,1]"}),
    ("structure_witness", 4, {"ZZ[0,1]"}),
    ("cmc", 3, {"Y[1]", "ZZ[0,1]"}),
])
def test_family_missing_labels(family, n, missing):
    ds = _two_absent(n)
    grid = sc.commensurate_grid(n)
    call = {
        "collective": lambda: ds.collective_moments(),
        "phase": lambda: sc.phase_witness_value(ds),
        "bipartite": lambda: sc.bipartite_witness_value(ds),
        "structure_factor": lambda: sc.structure_factor(ds, 0.5, "Z"),
        "structure_curve": lambda: sc.structure_factor_curve(ds, grid, "Z"),
        "optimal_structure": lambda: sc.optimal_structure_witness(ds, grid),
        "structure_witness": lambda: sc.structure_witness_value(ds, 0.0, 0.0, 0.0),
        "cmc": lambda: sc.cmc_check(ds),
    }[family]
    with pytest.raises(MissingData) as exc:
        call()
    assert set(exc.value.missing) == missing
    assert len(exc.value.missing) == len(missing)


def test_families_ignore_absent_entries_they_do_not_read():
    ds = _two_absent(4)
    assert sc.structure_factor(ds, 0.5, "X").value == pytest.approx(
        sc.structure_factor(sc.dataset_of(sc.random_product_state(4, 21)), 0.5, "X").value,
        abs=1e-12)
    sc.structure_factor_curve(ds, sc.commensurate_grid(4), "Y")
