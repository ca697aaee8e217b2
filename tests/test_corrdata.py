"""Dataset model: canonicalization, transformations, collective moments, IO."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcert as sc
from sepcert import corrdata
from sepcert.errors import (BadKey, BadNoiseLevel, MissingData, ParseError,
                            ValueOutOfRange)
from sepcert.seporacle import make_rng

from oracles import mixture_moment


def singlet_pair():
    return sc.new_dataset(2, {(0, 1, "X", "X"): -1.0,
                              (0, 1, "Y", "Y"): -1.0,
                              (0, 1, "Z", "Z"): -1.0})


def test_empty_dataset():
    ds = sc.new_dataset(2, {})
    assert ds.n_sites == 2
    assert ds.n_entries() == 0


def test_singlet_construction():
    ds = singlet_pair()
    assert ds.two(0, 1, "X", "X") == -1.0
    assert ds.two(0, 1, "Z", "Z") == -1.0


def test_value_out_of_range():
    with pytest.raises(ValueOutOfRange):
        sc.new_dataset(2, {(0, "X"): 1.2})
    with pytest.raises(ValueOutOfRange):
        sc.new_dataset(2, {(0, 1, "X", "X"): -1.0000001})
    with pytest.raises(ValueOutOfRange):
        sc.new_dataset(1, {(0, "Z"): float("nan")})


def test_bad_keys():
    with pytest.raises(BadKey):
        sc.new_dataset(2, {(2, "X"): 0.5})
    with pytest.raises(BadKey):
        sc.new_dataset(2, {(0, 0, "X", "Y"): 0.5})  # i == j
    with pytest.raises(BadKey):
        sc.new_dataset(2, {(0, 3, "X", "X"): 0.5})
    with pytest.raises(BadKey):
        sc.new_dataset(0, {})
    with pytest.raises(BadKey):
        sc.new_dataset(2, {(0, "Q"): 0.1})


def test_duplicate_keys_rejected():
    with pytest.raises(BadKey):
        sc.new_dataset(2, [((0, 1, "X", "Y"), 0.3), ((1, 0, "Y", "X"), 0.3)])


def test_canonicalization_and_query():
    ds = sc.new_dataset(3, {(2, 0, "X", "Y"): 0.25})
    # stored under i<j with swapped axes
    assert (0, 2, sc.PauliAxis.Y, sc.PauliAxis.X) in ds.two_body
    assert ds.two(2, 0, "X", "Y") == 0.25
    assert ds.two(0, 2, "Y", "X") == 0.25
    assert ds.get_two(0, 2, "X", "Y") is None


def test_axis_ordering():
    assert sc.PauliAxis.X < sc.PauliAxis.Y < sc.PauliAxis.Z
    assert [str(a) for a in sc.AXES] == ["X", "Y", "Z"]


def test_labels_roundtrip():
    ds = sc.new_dataset(3, {(0, "Z"): 0.5, (1, 2, "X", "Y"): -0.25})
    for label in ds.labels():
        assert ds.value(label) == ds.value(label)
        key = corrdata.parse_label(label)
        if len(key) == 2:
            assert corrdata.one_body_label(*key) == label
        else:
            assert corrdata.two_body_label(*key) == label
    # sites are ASCII digits and the label is the whole string
    for bad in ("W[0]", "X[\u0663]", "X[0]\n"):
        with pytest.raises(BadKey):
            corrdata.parse_label(bad)
    with pytest.raises(BadKey):
        sc.werner_dataset(0.0).value("ZZ[\u0660,\u0661]")


# -- scale_noise ---------------------------------------------------------------


def test_scale_noise_identity_and_zero():
    ds = singlet_pair()
    assert ds.scale_noise(0.0) == ds
    wiped = ds.scale_noise(1.0)
    assert all(v == 0.0 for _, v in wiped.two_items())


def test_scale_noise_values_exact():
    ds = singlet_pair()
    lam = 1.0 / 3.0
    scaled = ds.scale_noise(lam)
    for key, v in ds.two_items():
        assert scaled.two_body[key] == (1.0 - lam) * v
    assert scaled.two(0, 1, "X", "X") == -(1.0 - lam)


def test_scale_noise_bad_level():
    ds = singlet_pair()
    for lam in (-0.1, 1.1):
        with pytest.raises(BadNoiseLevel):
            ds.scale_noise(lam)


# -- partial transposition -------------------------------------------------------


def test_partial_transpose_singlet():
    ds = singlet_pair()
    pt = ds.partial_transpose({0})
    assert pt.two(0, 1, "Y", "Y") == 1.0
    assert pt.two(0, 1, "X", "X") == -1.0
    assert pt.two(0, 1, "Z", "Z") == -1.0


def test_partial_transpose_no_y_invariant():
    ds = sc.new_dataset(3, {(0, "Z"): 0.4, (0, 1, "X", "Z"): -0.2})
    assert ds.partial_transpose({0}) == ds


def test_partial_transpose_involution_and_commutation():
    rng = make_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        ds = _random_dataset(n, rng)
        subset = {int(s) for s in rng.integers(0, n, size=rng.integers(1, n + 1))}
        pt = ds.partial_transpose(subset)
        assert pt.partial_transpose(subset) == ds
        lam = float(rng.random())
        a = ds.scale_noise(lam).partial_transpose(subset)
        b = ds.partial_transpose(subset).scale_noise(lam)
        assert a == b


def test_partial_transpose_bad_site():
    with pytest.raises(BadKey):
        singlet_pair().partial_transpose({5})


def _random_dataset(n, rng):
    one = {(i, sc.PauliAxis(int(a))): float(rng.uniform(-1, 1))
           for i in range(n) for a in rng.integers(0, 3, size=2)}
    two = {}
    for _ in range(3 * n):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        two[(int(i), int(j), sc.PauliAxis(a), sc.PauliAxis(b))] = float(rng.uniform(-1, 1))
    return sc.CorrelationDataset(n, one, two)


# -- dense view and the missing-data check ------------------------------------------


@st.composite
def partial_datasets(draw):
    """Datasets on 1-4 sites holding a random subset of the correlators,
    with values drawn from the boundary points -1, 0, 1 and from [-1, 1]."""
    n = draw(st.integers(1, 4))
    value = st.sampled_from([-1.0, 0.0, 1.0, -0.0]) | st.floats(-1.0, 1.0)
    ones = [(i, a) for i in range(n) for a in sc.AXES]
    twos = [(i, j, a, b) for i in range(n) for j in range(i + 1, n)
            for a in sc.AXES for b in sc.AXES]
    keep = draw(st.lists(st.booleans(), min_size=len(ones) + len(twos),
                         max_size=len(ones) + len(twos)))
    entries = {}
    for key, kept in zip(ones + twos, keep):
        if kept:  # two-body keys stored under either site order
            flip = len(key) == 4 and draw(st.booleans())
            entries[(key[1], key[0], key[3], key[2]) if flip else key] = draw(value)
    return sc.new_dataset(n, entries)


@settings(max_examples=150)
@given(partial_datasets())
def test_arrays_match_accessors(ds):
    one, two = ds.arrays()
    n = ds.n_sites
    assert one.shape == (n, 3) and two.shape == (n, 3, n, 3)
    assert not one.flags.writeable and not two.flags.writeable
    with pytest.raises(ValueError):
        one[0, 0] = 0.5
    assert ds.arrays()[1] is two  # built once
    for i in range(n):
        for a in sc.AXES:
            v = ds.get_one(i, a)
            assert np.isnan(one[i, a]) if v is None else one[i, a] == v
            for j in range(n):
                for b in sc.AXES:
                    if i == j:
                        assert np.isnan(two[i, a, j, b])
                        continue
                    v = ds.get_two(i, j, a, b)
                    assert np.isnan(two[i, a, j, b]) if v is None else two[i, a, j, b] == v
    assert np.array_equal(two, two.transpose(2, 3, 0, 1), equal_nan=True)


@settings(max_examples=50)
@given(partial_datasets())
def test_pickle_and_deepcopy_round_trip(ds):
    ds.arrays()
    for copy_ in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
        assert copy_ == ds
        for got, want in zip(copy_.arrays(), ds.arrays()):
            assert np.array_equal(got, want, equal_nan=True)
            assert not got.flags.writeable


def test_require_names_absent_correlators_once():
    ds = sc.new_dataset(3, {(0, "X"): 0.1, (2, 1, "Y", "Z"): 0.2, (0, 1, "Z", "Z"): 0.3})
    x0, zz01 = np.zeros((3, 3), bool), np.zeros((3, 3, 3, 3), bool)
    x0[0, 0] = zz01[0, 2, 1, 2] = True
    ds.require("nothing absent", one=x0, two=zz01)
    with pytest.raises(MissingData) as exc:
        ds.require("need everything at site 0 and the same-axis pairs",
                   one=np.arange(3)[:, None] == 0, two=corrdata.SAME_AXIS)
    assert exc.value.missing == ["Y[0]", "Z[0]", "XX[0,1]", "YY[0,1]", "XX[0,2]", "YY[0,2]",
                                 "ZZ[0,2]", "XX[1,2]", "YY[1,2]", "ZZ[1,2]"]
    assert str(exc.value).startswith(
        "need everything at site 0 and the same-axis pairs; 10 absent (first few: "
        "['Y[0]', 'Z[0]', 'XX[0,1]'")
    with pytest.raises(MissingData) as exc:  # a mask on (j, b, i, a) names the pair once
        ds.require("one pair", two=np.arange(3)[None, None, :, None] == 0)
    assert exc.value.missing == [f"{a}{b}[0,{j}]" for j in (1, 2) for a in "XYZ"
                                 for b in "XYZ" if (j, a, b) not in ((1, "Z", "Z"),)]


# -- collective moments -----------------------------------------------------------


def test_collective_moments_singlet():
    ds = singlet_pair()
    full = sc.new_dataset(2, {**{(i, a): 0.0 for i in range(2) for a in "XYZ"},
                              **{k: v for k, v in ds.two_body.items()}})
    cm = full.collective_moments()
    assert cm.m == (0.0, 0.0, 0.0)
    assert cm.c == (-1.0, -1.0, -1.0)


def test_collective_moments_polarized():
    n = 4
    entries = {(i, "Z"): 1.0 for i in range(n)}
    entries.update({(i, a): 0.0 for i in range(n) for a in "XY"})
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j, "Z", "Z")] = 1.0
            entries[(i, j, "X", "X")] = 0.0
            entries[(i, j, "Y", "Y")] = 0.0
    cm = sc.new_dataset(n, entries).collective_moments()
    assert cm.m[2] == 1.0 and cm.c[2] == 1.0


def test_collective_moments_updown_mixture():
    # 4-site uniform mixture of all-up and all-down along Z: the classical
    # average gives m_z = 0 and c_zz = 1.
    up = sc.ProductState(np.tile([0.0, 0.0, 1.0], (4, 1)))
    down = sc.ProductState(np.tile([0.0, 0.0, -1.0], (4, 1)))
    mix = sc.SeparableMixture(np.array([0.5, 0.5]), (up, down))
    cm = sc.dataset_of(mix).collective_moments()
    # direct classical average oracle
    from sepcert.momentmat import Monomial
    m_z = np.mean([mixture_moment(mix, Monomial.single(i, 2)) for i in range(4)])
    assert math.isclose(cm.m[2], m_z, abs_tol=1e-15)
    assert cm.m[2] == 0.0
    assert cm.c[2] == 1.0


def test_collective_moments_missing():
    ds = singlet_pair()  # one-body absent
    with pytest.raises(MissingData) as exc:
        ds.collective_moments()
    assert exc.value.missing


def test_collective_moments_random_mixture_matches_oracle():
    rng = make_rng(7)
    mix = sc.random_separable_mixture(3, 5, rng)
    cm = sc.dataset_of(mix).collective_moments()
    from sepcert.momentmat import Monomial
    n = 3
    for a in range(3):
        m_direct = np.mean([mixture_moment(mix, Monomial.single(i, a)) for i in range(n)])
        assert abs(cm.m[a] - m_direct) < 1e-12
        pair_vals = [mixture_moment(mix, Monomial.single(i, a) * Monomial.single(j, a))
                     for i in range(n) for j in range(n) if i != j]
        assert abs(cm.c[a] - np.mean(pair_vals)) < 1e-12


# -- file IO -----------------------------------------------------------------------


def test_roundtrip(tmp_path):
    rng = make_rng(3)
    ds = _random_dataset(5, rng)
    path = tmp_path / "ds.json"
    sc.write_dataset(ds, path)
    assert sc.read_dataset(path) == ds


def test_roundtrip_extreme_precision(tmp_path):
    ds = sc.new_dataset(2, {(0, "X"): 1 / 3, (0, 1, "Z", "Z"): -0.1234567890123456789})
    path = tmp_path / "ds.json"
    sc.write_dataset(ds, path)
    back = sc.read_dataset(path)
    assert back.one(0, "X") == ds.one(0, "X")
    assert back.two(0, 1, "Z", "Z") == ds.two(0, 1, "Z", "Z")


def test_parse_error_unknown_axis(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_sites": 2, "one_body": [{"i": 0, "axis": "Q", "value": 0.1}]}',
                    encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        sc.read_dataset(path)
    assert "one_body[0]" in str(exc.value)


def test_parse_error_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_sites": 2,', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        sc.read_dataset(path)
    assert "line" in str(exc.value)


def test_parse_error_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_sites": 2, "two_body": [{"i": 0, "j": 1, "axis_i": "X", '
                    '"value": 0.1}]}', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        sc.read_dataset(path)
    assert "axis_j" in str(exc.value)


def test_missing_two_body_block(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text('{"n_sites": 3, "one_body": [{"i": 1, "axis": "Z", "value": 0.5}]}',
                    encoding="utf-8")
    ds = sc.read_dataset(path)
    assert ds.two_body == {}
    assert ds.one(1, "Z") == 0.5
