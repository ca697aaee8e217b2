"""Physical dataset generators against exact-state and frozen oracles."""

import numpy as np
import pytest

import sepcert as sc
from sepcert.errors import BadKey, BadNoiseLevel, MissingData, NotDensity, TooLarge
from sepcert.seporacle import make_rng

from oracles import (best_x_state_pair, dense_pauli_string, expm_thermal_correlator,
                     haar_state, quench_state_vector)

# phi_0(n=8, t=1) computed once with 50-digit mpmath summation of
# (1/8) sum_k exp(i cos(2 pi k / 8)); imaginary part is exactly zero there.
PHI0_N8_T1 = 0.76519787500485

# Nearest-neighbour ZZ correlator of the n=8 Heisenberg chain at T=0.5,
# frozen after the first verified run and cross-checked against the expm
# route below.
HEIS_N8_T05_ZZ = -0.45761239876880017


# -- Werner ---------------------------------------------------------------------


def test_werner_singlet_sum():
    ds = sc.werner_dataset(0.0)
    c = sum(ds.two(0, 1, a, a) for a in sc.AXES)
    assert c == -3.0
    assert ds.one_body == {}


def test_werner_fully_mixed():
    ds = sc.werner_dataset(1.0)
    assert all(v == 0.0 for _, v in ds.two_items())


def test_werner_boundary():
    ds = sc.werner_dataset(2.0 / 3.0)
    c = sum(ds.two(0, 1, a, a) for a in sc.AXES)
    assert abs(c - (-1.0)) < 1e-15


def test_werner_bad_noise():
    with pytest.raises(BadNoiseLevel):
        sc.werner_dataset(-0.2)


# -- quench ------------------------------------------------------------------------


def test_quench_t0_is_delta():
    amps = sc.quench_amplitudes(64, 0.0)
    assert abs(amps.phi[0] - 1.0) < 1e-12
    assert np.max(np.abs(amps.phi[1:])) < 1e-12


def test_quench_normalization_sweep():
    for n in (8, 64, 256):
        for t in (0.5, 10.0, 50.0):
            amps = sc.quench_amplitudes(n, t)
            assert abs(np.sum(np.abs(amps.phi) ** 2) - 1.0) <= 1e-12


def test_quench_phi0_frozen_high_precision():
    amps = sc.quench_amplitudes(8, 1.0)
    assert abs(amps.phi[0].real - PHI0_N8_T1) < 1e-13
    assert abs(amps.phi[0].imag) < 1e-13


def test_quench_dataset_t0():
    ds = sc.quench_dataset(sc.quench_amplitudes(8, 0.0))
    assert abs(ds.one(0, "Z") + 1.0) < 1e-12
    for i in range(1, 8):
        assert abs(ds.one(i, "Z") - 1.0) < 1e-12
    assert abs(ds.two(0, 3, "Z", "Z") + 1.0) < 1e-12
    assert abs(ds.two(2, 5, "Z", "Z") - 1.0) < 1e-12


def test_quench_magnetization_sum_rule():
    for t in (0.0, 3.7, 12.0):
        ds = sc.quench_dataset(sc.quench_amplitudes(32, t))
        total = sum((1.0 - ds.one(i, "Z")) / 2.0 for i in range(32))
        assert abs(total - 1.0) <= 1e-10


def test_quench_dataset_matches_exact_state():
    # strongest oracle: build the 2^n single-excitation state and compare
    # every stored correlator with the dense quantum expectation values
    amps = sc.quench_amplitudes(8, 2.5)
    exact = sc.state_dataset(quench_state_vector(amps))
    model = sc.quench_dataset(amps)
    for (i, a), v in model.one_items():
        assert abs(v - exact.one(i, a)) < 1e-12
    for (i, j, a, b), v in model.two_items():
        assert abs(v - exact.two(i, j, a, b)) < 1e-12


def test_state_dataset_matches_dense_paulis():
    # a complex state, as a vector and as a density matrix: every correlator,
    # odd-Y ones included, against dense Kronecker-product Pauli strings
    psi = haar_state(3, 41)
    for ds in (sc.state_dataset(psi), sc.state_dataset(np.outer(psi, psi.conj()))):
        for (i, a), v in ds.one_items():
            assert abs(v - np.vdot(psi, dense_pauli_string(3, {i: a}) @ psi).real) < 1e-12
        for (i, j, a, b), v in ds.two_items():
            op = dense_pauli_string(3, {i: a, j: b})
            assert abs(v - np.vdot(psi, op @ psi).real) < 1e-12


def test_thermal_odd_y_exact_zero():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=4, g=0.6), 0.4)
    odd = [v for (_, a), v in ds.one_items() if a is sc.PauliAxis.Y]
    odd += [v for (_, _, a, b), v in ds.two_items()
            if (a is sc.PauliAxis.Y) != (b is sc.PauliAxis.Y)]
    assert len(odd) == 4 + 6 * 4 and all(v == 0.0 for v in odd)
    assert ds.two(0, 1, "Y", "Y") != 0.0


def test_ring_coordinates():
    r = sc.ring_coordinates(8)
    assert list(r) == [0, 1, 2, 3, 4, -3, -2, -1]


# -- thermal exact diagonalization ----------------------------------------------------


def test_heisenberg_two_site_ground_state():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=2), 1e-3)
    for a in sc.AXES:
        assert abs(ds.two(0, 1, a, a) + 1.0) < 1e-6  # singlet


def test_infinite_temperature():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=4, g=1.3), 1e6)
    assert all(abs(v) <= 1e-5 for _, v in ds.one_items())
    assert all(abs(v) <= 1e-5 for _, v in ds.two_items())


def test_heisenberg_frozen_regression_and_second_path():
    spec = sc.ModelSpec(kind="heisenberg", n=8)
    ds = sc.thermal_dataset_ed(spec, 0.5)
    zz = ds.two(0, 1, "Z", "Z")
    assert abs(zz - HEIS_N8_T05_ZZ) < 1e-10
    other = expm_thermal_correlator(spec, 0.5, 0, 1, sc.PauliAxis.Z)
    assert abs(zz - other) < 1e-9


def test_thermal_translation_invariance():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=6, g=0.7), 0.8)
    for d in (1, 2):
        ref = ds.two(0, d, "Z", "Z")
        for i in range(1, 6):
            j = (i + d) % 6
            assert abs(ds.two(min(i, j), max(i, j), "Z", "Z") - ref) < 1e-10


def test_heisenberg_su2_structure():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=6), 0.7)
    for (i, a), v in ds.one_items():
        assert v == 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            xx = ds.two(i, j, "X", "X")
            assert ds.two(i, j, "Y", "Y") == xx
            assert ds.two(i, j, "Z", "Z") == xx
            for a in sc.AXES:
                for b in sc.AXES:
                    if a != b:
                        assert ds.two(i, j, a, b) == 0.0


def test_ed_cap():
    with pytest.raises(TooLarge):
        sc.ModelSpec(kind="heisenberg", n=15)


# -- structure factors ------------------------------------------------------------------


def _all_up_dataset(n):
    entries = {(i, a): (1.0 if a == "Z" else 0.0) for i in range(n) for a in "XYZ"}
    for i in range(n):
        for j in range(i + 1, n):
            for a in "XYZ":
                entries[(i, j, a, a)] = 1.0 if a == "Z" else 0.0
    return sc.new_dataset(n, entries)


def test_structure_factor_ferromagnet():
    n = 8
    ds = _all_up_dataset(n)
    assert abs(sc.structure_factor(ds, 0.0, "Z").value - n) < 1e-12
    for m in range(1, n):
        k = 2 * np.pi * m / n
        assert abs(sc.structure_factor(ds, k, "X").value - 1.0) < 1e-12
        assert abs(sc.structure_factor(ds, k, "Z").value) < 1e-12


def test_structure_factor_singlet():
    full = sc.new_dataset(2, {**{(i, a): 0.0 for i in range(2) for a in "XYZ"},
                              **{(0, 1, a, a): -1.0 for a in "XYZ"},
                              **{(0, 1, a, b): 0.0 for a in "XYZ" for b in "XYZ" if a != b}})
    # direct two-site sum: (1/2)(1 + 1 - (-1) - (-1)) = 2
    assert abs(sc.structure_factor(full, np.pi, "Z").value - 2.0) < 1e-12
    assert abs(sc.structure_factor(full, 0.0, "Z").value) < 1e-12


def test_structure_factor_missing():
    ds = sc.new_dataset(3, {(0, 1, "Z", "Z"): 0.5})
    with pytest.raises(MissingData):
        sc.structure_factor(ds, 0.0, "Z")


def test_structure_factor_nonnegative_on_quantum_data():
    rng = make_rng(19)
    from oracles import random_state_dataset
    for trial in range(5):
        ds = random_state_dataset(4, rng)
        for k in sc.commensurate_grid(4):
            for a in sc.AXES:
                assert sc.structure_factor(ds, k, a).value >= -1e-9


def test_structure_factor_curve_matches_pointwise():
    from oracles import random_state_dataset
    ds = random_state_dataset(5, 3)
    grid = sc.commensurate_grid(5)
    curve = sc.structure_factor_curve(ds, grid, "Y")
    for k, v in zip(grid, curve):
        assert abs(v - sc.structure_factor(ds, k, "Y").value) < 1e-12


def test_optimal_structure_witness_product_saturates():
    ds = _all_up_dataset(8)
    opt = sc.optimal_structure_witness(ds, sc.commensurate_grid(8))
    assert abs(opt.value - 2.0) < 1e-12
    assert not opt.entangled


def test_optimal_structure_witness_singlet():
    full = sc.new_dataset(2, {**{(i, a): 0.0 for i in range(2) for a in "XYZ"},
                              **{(0, 1, a, a): -1.0 for a in "XYZ"},
                              **{(0, 1, a, b): 0.0 for a in "XYZ" for b in "XYZ" if a != b}})
    opt = sc.optimal_structure_witness(full, [0.0, np.pi])
    assert abs(opt.value) < 1e-12
    assert opt.entangled


def test_ising_argmins():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=8, g=1.0), 0.05)
    opt = sc.optimal_structure_witness(ds, sc.commensurate_grid(8))
    assert abs(opt.k_x - np.pi) < 1e-12
    assert abs(opt.k_y - 0.0) < 1e-12
    assert abs(opt.k_z - np.pi) < 1e-12


# -- pair densities and concurrence ---------------------------------------------------


def test_pair_density_t0():
    amps = sc.quench_amplitudes(8, 0.0)
    rho = sc.pair_density_from_quench(amps, 1, 2, 0.0)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0  # pure |up,up>
    assert np.max(np.abs(rho - expect)) < 1e-12


def test_pair_density_full_noise():
    amps = sc.quench_amplitudes(8, 1.0)
    rho = sc.pair_density_from_quench(amps, 2, 5, 1.0)
    assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-12


def test_pair_density_matches_partial_trace():
    amps = sc.quench_amplitudes(6, 1.7)
    psi = quench_state_vector(amps)
    full = np.outer(psi, psi.conj())
    t = full.reshape([2] * 12)
    for ax in (5, 4, 3, 0):  # trace out sites 0, 3, 4, 5 keeping (1, 2)
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    assert np.max(np.abs(t.reshape(4, 4) - sc.pair_density_from_quench(amps, 1, 2))) < 1e-12


def test_pair_density_signed_coordinates():
    amps = sc.quench_amplitudes(64, 10.0)
    rho = sc.pair_density_from_quench(amps, -10, 10, 0.0)
    c = sc.wootters_concurrence(rho)
    closed = 2.0 * abs(amps.phi[(-10) % 64]) * abs(amps.phi[10])
    assert abs(c - closed) < 1e-10


def test_pair_density_errors():
    amps = sc.quench_amplitudes(8, 1.0)
    with pytest.raises(BadKey):
        sc.pair_density_from_quench(amps, 3, 3)
    with pytest.raises(BadNoiseLevel):
        sc.pair_density_from_quench(amps, 0, 1, 1.5)


def test_wootters_singlet_and_mixed():
    singlet = np.zeros((4, 4), dtype=complex)
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    singlet = np.outer(v, v)
    assert abs(sc.wootters_concurrence(singlet) - 1.0) < 1e-12
    assert sc.wootters_concurrence(np.eye(4) / 4) == 0.0


def test_wootters_werner_half():
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = 0.5 * np.outer(v, v) + 0.5 * np.eye(4) / 4
    # analytic value (3(1-lam)-1)/2 at lam=0.5
    assert abs(sc.wootters_concurrence(rho) - 0.25) < 1e-12


def test_wootters_product_states_vanish():
    rng = make_rng(5)
    for _ in range(10):
        st = sc.random_product_state(2, rng)
        bloch = st.bloch
        rho = np.eye(4, dtype=complex)
        paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]]),
                  np.array([[1, 0], [0, -1]], dtype=complex)]
        r0 = 0.5 * (np.eye(2) + sum(bloch[0, a] * paulis[a] for a in range(3)))
        r1 = 0.5 * (np.eye(2) + sum(bloch[1, a] * paulis[a] for a in range(3)))
        rho = np.kron(r0, r1)
        assert sc.wootters_concurrence(rho) < 1e-10


def test_wootters_not_density():
    with pytest.raises(NotDensity):
        sc.wootters_concurrence(np.eye(4))
    with pytest.raises(NotDensity):
        sc.wootters_concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_concurrence_noise_robustness_monotone_pair():
    for n, t, r_best in [(16, 3.0, 2), (64, 10.0, 8)]:
        amps = sc.quench_amplitudes(n, t)
        rob = sc.concurrence_noise_robustness(amps)
        assert 0.0 < rob < 1.0
        # the bisection agrees with the closed-form X-state root of the best pair
        closed, i, j = best_x_state_pair(amps)
        assert abs(rob - closed) <= 1e-9, (n, t, rob, closed)
        assert sorted(sc.ring_coordinates(n)[[i, j]]) == [-r_best, r_best]
        # at the reported robustness the best pair is on the boundary
        below, above = (sc.pair_density_from_quench(amps, i, j, rob + d) for d in (-1e-6, 1e-6))
        assert sc.wootters_concurrence(below) > 0.0
        assert sc.wootters_concurrence(above) == 0.0
