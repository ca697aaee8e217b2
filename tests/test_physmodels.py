"""Physical dataset generators against exact-state and frozen oracles."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcert as sc
from sepcert import physmodels
from sepcert.errors import BadKey, BadNoiseLevel, MissingData, NotDensity, TooLarge
from sepcert.momentmat import SchemeKind
from sepcert.seporacle import make_rng

from oracles import (OPENBLAS_SETTERS, best_x_state_pair, bisection_noise_robustness,
                     blas_thread_counts, dense_chain_hamiltonian, dense_pauli_string,
                     dense_thermal_density, expm_thermal_correlator, haar_state,
                     quench_state_vector, sector_thermal_dataset)

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


def test_string_action_matches_dense_paulis():
    # every one- and two-site string at n=4, acting by bit operations with Y
    # through its real stand-in ytil = -iY, against the dense Kronecker product
    from sepcert.physmodels import _site_signs, _string_rows

    n = 4
    signs = _site_signs(n)
    strings = [{i: a} for i in range(n) for a in sc.AXES]
    strings += [{i: a, j: b} for i in range(n) for j in range(i + 1, n)
                for a in sc.AXES for b in sc.AXES]
    for factors in strings:
        cols, vals = _string_rows(n, factors, signs)
        standin = np.zeros((2 ** n, 2 ** n))
        standin[np.arange(2 ** n), cols] = vals
        n_y = sum(a is sc.PauliAxis.Y for a in factors.values())
        assert np.array_equal(1j ** n_y * standin, dense_pauli_string(n, factors)), factors


@pytest.mark.parametrize("kind", ["heisenberg", "ising"])
def test_hamiltonian_matches_dense_pauli_sum(kind):
    from sepcert.physmodels import hamiltonian

    for n in range(2, 7):
        spec = sc.ModelSpec(kind=kind, n=n, g=0.7, J=1.3)
        dense = dense_chain_hamiltonian(spec)
        assert not np.any(dense.imag)
        assert np.max(np.abs(hamiltonian(spec).toarray() - dense.real)) == 0.0
    # the two-site ring counts its one bond twice
    axes, scale = (sc.AXES, 0.25) if kind == "heisenberg" else (["Z"], -0.25)
    bond = sum(dense_pauli_string(2, {0: a, 1: a}) for a in axes).real
    assert np.array_equal(hamiltonian(sc.ModelSpec(kind=kind, n=2)).toarray(), 2 * scale * bond)


@settings(max_examples=60)
@given(kind=st.sampled_from(["heisenberg", "ising"]), n=st.integers(2, 8),
       g=st.floats(0.0, 2.0), log_t=st.floats(-3.0, 3.0))
def test_thermal_dataset_matches_dense_oracle(kind, n, g, log_t):
    spec = sc.ModelSpec(kind=kind, n=n, g=g)
    temp = 10.0 ** log_t
    ds = sc.thermal_dataset_ed(spec, temp)
    rho = dense_thermal_density(spec, temp)
    for (i, a), v in ds.one_items():
        assert abs(v - np.sum(rho.T * dense_pauli_string(n, {i: a})).real) <= 1e-12
        if a is sc.PauliAxis.Y:
            assert v == 0.0
    for (i, j, a, b), v in ds.two_items():
        assert abs(v - np.sum(rho.T * dense_pauli_string(n, {i: a, j: b})).real) <= 1e-12
        if (a is sc.PauliAxis.Y) != (b is sc.PauliAxis.Y):
            assert v == 0.0
    if kind == "heisenberg":
        for i in range(n):
            for j in range(i + 1, n):
                assert ds.two(i, j, "X", "X") == ds.two(i, j, "Y", "Y") == ds.two(i, j, "Z", "Z")


def test_state_dataset_rejects_non_density():
    half = np.zeros((8, 8))
    half[0, 0] = 0.5
    skew = np.eye(8) / 8
    skew[0, 1] = 0.4
    for rho in (half, skew, np.ones((8, 4)) / 4):
        with pytest.raises(NotDensity):
            sc.state_dataset(rho)
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 1], rho[1, 0] = 0.05 + 0.1j, 0.05 - 0.1j
    assert sc.state_dataset(rho).one(2, "X") == 0.1  # a density matrix


def test_thermal_odd_y_exact_zero():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=4, g=0.6), 0.4)
    odd = [v for (_, a), v in ds.one_items() if a is sc.PauliAxis.Y]
    odd += [v for (_, _, a, b), v in ds.two_items()
            if (a is sc.PauliAxis.Y) != (b is sc.PauliAxis.Y)]
    assert len(odd) == 4 + 6 * 4 and all(v == 0.0 for v in odd)
    assert ds.two(0, 1, "Y", "Y") != 0.0


@pytest.mark.skipif(not OPENBLAS_SETTERS,
                    reason="no OpenBLAS exposes openblas_set_num_threads_local")
def test_thermal_density_diagonalizes_on_one_blas_thread(monkeypatch):
    before = blas_thread_counts()
    inside = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        inside.append(blas_thread_counts())
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(physmodels, "_kept_spectrum", None)
    spec = sc.ModelSpec(kind="ising", n=6, g=1.0)
    sc.thermal_dataset_ed(spec, 0.5)
    assert inside and all(c == [1] * len(OPENBLAS_SETTERS) for c in inside)
    assert blas_thread_counts() == before
    # a second temperature of the same model reads the kept spectrum off
    inside.clear()
    sc.thermal_dataset_ed(spec, 2.0)
    assert inside == []
    assert blas_thread_counts() == before


def _hex(ds):
    return {k: v.hex() for k, v in [*ds.one_items(), *ds.two_items()]}


def _cold(spec, temp):
    physmodels._kept_spectrum = None
    return sc.thermal_dataset_ed(spec, temp)


@settings(max_examples=30)
@given(kind=st.sampled_from(["heisenberg", "ising"]), n=st.integers(2, 8),
       g=st.floats(0.0, 2.0), other_g=st.floats(0.0, 2.0), other_j=st.floats(0.25, 4.0),
       log_t=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_kept_spectrum_reads_off_like_a_cold_build(kind, n, g, other_g, other_j, log_t):
    t1, t2 = 10.0 ** np.array(log_t)
    spec = sc.ModelSpec(kind=kind, n=n, g=g)
    want = _hex(_cold(spec, t2))
    sc.thermal_dataset_ed(spec, t1)
    kept = physmodels._kept_spectrum
    assert _hex(sc.thermal_dataset_ed(spec, t2)) == want
    assert physmodels._kept_spectrum is kept
    # specs that differ only in g or J never share a spectrum
    for other in (dataclasses.replace(spec, g=other_g), dataclasses.replace(spec, J=other_j)):
        if other == spec:
            continue
        want = _hex(_cold(other, t2))
        sc.thermal_dataset_ed(spec, t1)
        kept = physmodels._kept_spectrum
        assert _hex(sc.thermal_dataset_ed(other, t2)) == want
        assert physmodels._kept_spectrum is not kept
        assert physmodels._kept_spectrum.spec == other


def _arrays(value):
    """Every array a kept spectrum holds, through its fields and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def test_kept_spectrum_under_concurrent_callers():
    # Two models at several temperatures, requested from more threads than
    # cores with a short switch interval, so the kept spectrum is replaced
    # while other threads read theirs: every call gives its serial value.
    specs = [sc.ModelSpec(kind="heisenberg", n=8), sc.ModelSpec(kind="ising", n=8, g=0.7)]
    cases = [(spec, temp) for spec in specs for temp in (0.2, 0.5, 1.3, 4.0)]
    want = [_hex(_cold(spec, temp)) for spec, temp in cases]
    errors = []

    def caller(offset):
        for k in range(3 * len(cases)):
            i = (k + offset) % len(cases)
            if _hex(sc.thermal_dataset_ed(*cases[i])) != want[i]:
                errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    kept = physmodels._kept_spectrum
    arrays = list(_arrays(kept))
    assert len(arrays) > 10 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        kept.w_u[0] = 0.0


def _u1_odd(key):
    """True for a correlator with an odd number of X and Y factors, which the
    S^z-conserving Heisenberg Gibbs state holds at zero."""
    return sum(a is not sc.PauliAxis.Z for a in key[len(key) // 2:]) % 2 == 1


@pytest.mark.parametrize("kind", ["heisenberg", "ising"])
@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_thermal_dataset_matches_sector_oracle(kind, n):
    spec = sc.ModelSpec(kind=kind, n=n, g=1.0)
    for temp in (1e-3, 0.3, 5.0):
        ds = sc.thermal_dataset_ed(spec, temp)
        ref = sector_thermal_dataset(spec, temp)
        got = {**dict(ds.one_items()), **dict(ds.two_items())}
        want = {**dict(ref.one_items()), **dict(ref.two_items())}
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in got) <= 1e-12
        # The exact zeros are the model's forced ones.  The flip-sector
        # oracle leaves rounding of up to 4.3e-13 on some of them (<X_i> in
        # the degenerate odd-n Heisenberg ground state at T = 1e-3), which
        # breaks the schemes they carry, so the oracle's scheme is read with
        # the forced strings at zero.
        forced = {k for k in got if _forced_zero(kind, 1.0, k)}
        assert {k for k, v in got.items() if v == 0.0} == forced
        ref = sc.CorrelationDataset(n, *({k: 0.0 if k in forced else v for k, v in items}
                                         for items in (ref.one_items(), ref.two_items())))
        assert sc.select_scheme(ds) == sc.select_scheme(ref)


def _forced_zero(kind, g, key):
    """Whether the model holds the correlator at zero: an odd number of Y or
    of Z factors (odd under the global flip, or imaginary for a real state);
    for Heisenberg also one-body and cross-axis strings; for Ising at g = 0
    every string with an X or Y factor."""
    axes = key[len(key) // 2:]
    if axes.count(sc.PauliAxis.Y) % 2 or axes.count(sc.PauliAxis.Z) % 2:
        return True
    if kind == "heisenberg":
        return len(axes) == 1 or axes[0] is not axes[1]
    return g == 0 and any(a is not sc.PauliAxis.Z for a in axes)


# select_scheme of the thermal datasets, one per model and field strength
_THERMAL_SCHEMES = {
    "heisenberg": lambda g: sc.SymmetryScheme(SchemeKind.ROTATION_INVARIANT,
                                              frozenset({0, 1, 2}), ((0, 1, 2),)),
    "ising": lambda g: (sc.SymmetryScheme(SchemeKind.TRANSVERSE_SYMMETRIC, frozenset({0, 1, 2}),
                                          ((0, 1), (2,))) if g == 0 else
                        sc.SymmetryScheme(SchemeKind.AXIS_DIAGONAL, frozenset({1, 2}))),
}


@pytest.mark.parametrize("kind", ["heisenberg", "ising"])
@pytest.mark.parametrize("g", [0.0, 0.37, 1.0])
def test_thermal_forced_zeros_are_exact(kind, g):
    for n in range(5, 11):
        for temp in (1e-3, 0.3, 5.0):
            ds = sc.thermal_dataset_ed(sc.ModelSpec(kind=kind, n=n, g=g), temp)
            values = {**dict(ds.one_items()), **dict(ds.two_items())}
            assert all(values[k] == 0.0 for k in values if _forced_zero(kind, g, k)), (n, temp)
            assert sc.select_scheme(ds) == _THERMAL_SCHEMES[kind](g), (n, temp)


@pytest.mark.parametrize("temp", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_thermal_temperature_must_be_finite_and_positive(temp):
    with pytest.raises(BadNoiseLevel):
        sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=4, g=1.0), temp)


@pytest.mark.parametrize("kind, n", [("heisenberg", 7), ("heisenberg", 10),
                                     ("ising", 7), ("ising", 10)])
def test_thermal_translates_bit_equal(kind, n):
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind=kind, n=n, g=0.7), 0.4)
    for t in range(n):
        for (i, a), v in ds.one_items():
            assert ds.one((i + t) % n, a) == v
        for (i, j, a, b), v in ds.two_items():
            assert ds.two((i + t) % n, (j + t) % n, a, b) == v
    if kind == "heisenberg":
        assert all(v == 0.0 for k, v in ds.two_items() if _u1_odd(k))


@pytest.mark.parametrize("kind", ["heisenberg", "ising"])
def test_thermal_dataset_memory_below_one_dense_array(kind):
    # one dense real 1024 x 1024 array is 8 MB
    spec = sc.ModelSpec(kind=kind, n=10, g=1.0)
    sc.thermal_dataset_ed(sc.ModelSpec(kind=kind, n=4, g=1.0), 0.5)
    physmodels._kept_spectrum = None  # a miss: the spectrum is built inside the trace
    tracemalloc.start()
    try:
        sc.thermal_dataset_ed(spec, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 8


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


@pytest.mark.parametrize("fields", [
    {"n": 6.0}, {"n": "6"}, {"n": 1}, {"n": True},
    {"n": 6, "g": np.nan}, {"n": 6, "g": np.inf}, {"n": 6, "g": "0.5"},
    {"n": 6, "J": -np.inf}, {"n": 6, "J": np.nan}, {"n": 6, "J": None},
], ids=["n-float", "n-str", "n-one", "n-bool", "g-nan", "g-inf", "g-str",
        "j-minus-inf", "j-nan", "j-none"])
def test_model_spec_validates_fields(fields):
    with pytest.raises(BadKey):
        sc.ModelSpec(kind="ising", **fields)


def test_model_spec_fields_are_canonical():
    # the spec keys the kept spectrum, so equal specs must hold equal values
    spec = sc.ModelSpec(kind="ising", n=np.int64(6), g=-0.0, J=np.float32(2.0))
    assert (type(spec.n), type(spec.g), type(spec.J)) == (int, float, float)
    assert spec.g.hex() == "0x0.0p+0"
    same = sc.ModelSpec(kind="ising", n=6, g=0.0, J=2.0)
    assert spec == same and hash(spec) == hash(same)


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


@pytest.mark.parametrize("positions, k", [
    (np.arange(5.0), 0.5),                     # too few sites
    (np.zeros((8, 2)), 0.5),                   # 2-d positions with a scalar k
    (np.zeros((8, 2)), (0.5, 0.1, 0.2)),       # 2-d positions with a 3-vector k
    (np.arange(8.0), (0.5, 0.1)),              # 1-d positions with a vector k
])
def test_structure_factor_positions_checked(positions, k):
    ds = _all_up_dataset(8)
    with pytest.raises(BadKey):
        sc.structure_factor(ds, k, "Z", positions)
    with pytest.raises(BadKey):
        sc.structure_factor_curve(ds, [k, k], "Z", positions)
    with pytest.raises(BadKey):
        sc.optimal_structure_witness(ds, [k, k], positions)


def test_structure_factor_plane_positions():
    """(n, 2) positions with 2-vector wavevectors: a ring laid out in the
    plane along x gives the chain values."""
    from oracles import random_state_dataset
    ds = random_state_dataset(4, 5)
    plane = np.stack([np.arange(4.0), np.zeros(4)], axis=1)
    grid = sc.commensurate_grid(4)
    chain = sc.structure_factor_curve(ds, grid, "X")
    flat = sc.structure_factor_curve(ds, [(k, 0.3) for k in grid], "X", plane)
    assert np.allclose(flat, chain, atol=1e-12)
    assert sc.structure_factor(ds, (grid[1], 0.3), "X", plane).value == flat[1]
    best = sc.optimal_structure_witness(ds, [(k, 0.3) for k in grid], plane)
    assert best.k_x == (grid[int(np.argmin(chain))], 0.3)


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
        # the robustness is the closed-form X-state root of the best pair
        closed, i, j = best_x_state_pair(amps)
        assert abs(rob - closed) <= 1e-9, (n, t, rob, closed)
        assert sorted(sc.ring_coordinates(n)[[i, j]]) == [-r_best, r_best]
        # at the reported robustness the best pair is on the boundary
        below, above = (sc.pair_density_from_quench(amps, i, j, rob + d) for d in (-1e-6, 1e-6))
        assert sc.wootters_concurrence(below) > 0.0
        assert sc.wootters_concurrence(above) == 0.0


@pytest.mark.parametrize("n, t", [(16, 3.0), (32, 2.1712983342872487), (32, 10.0), (64, 10.0)])
def test_concurrence_noise_robustness_matches_bisection(n, t):
    amps = sc.quench_amplitudes(n, t)
    rob = sc.concurrence_noise_robustness(amps)
    assert abs(rob - bisection_noise_robustness(amps)) <= 1e-9, (n, t, rob)


def test_concurrence_noise_robustness_zero_time():
    # at tJ = 0 only the flipped site carries amplitude (the others hold
    # ~1e-16 of rounding), so no pair is entangled
    amps = sc.quench_amplitudes(32, 0.0)
    assert sc.concurrence_noise_robustness(amps) == 0.0
    assert bisection_noise_robustness(amps) == 0.0
