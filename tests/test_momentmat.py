"""Monomial bases, schemes, layouts, and the closed-form shortcut."""

import copy
import dataclasses
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcert as sc
from sepcert import momentmat
from sepcert.cli import _FORCED_SCHEMES
from sepcert.errors import MissingData, SchemeMismatch
from sepcert.momentmat import (Constant, Data, FreeVar, GENERAL_SCHEME,
                               MomentMatrixLayout, Monomial, SchemeKind, Zero, build_layout,
                               check_scheme_valid, layout_for, monomial_basis,
                               reduce_monomial, select_scheme)
from sepcert.seporacle import make_rng

from oracles import (entry_positions, group_average, group_mismatch, mixture_moment,
                     moment_completion, random_state_dataset, standard_form_rows)


# -- monomials and bases ----------------------------------------------------------


def test_basis_level1_size():
    b = monomial_basis(64, 1)
    assert len(b) == 3 * 64 + 1 == 193
    assert b.monomials[0] == Monomial.one()


def test_basis_level2_single_site():
    b = monomial_basis(1, 2)
    assert len(b) == 10
    names = [str(m) for m in b.monomials]
    assert names[0] == "1"
    assert set(names[1:4]) == {"x0", "y0", "z0"}
    assert set(names[4:]) == {"x0^2", "x0*y0", "x0*z0", "y0^2", "y0*z0", "z0^2"}


def test_basis_hybrid_extras():
    extra = Monomial(((0, 0), (1, 0)))  # x0 * x1 at level 1 is an extra? no: degree 2
    b = monomial_basis(2, 1, extras=[extra])
    assert len(b) == 8  # 1 + 6 + 1
    assert b.extras == (extra,)
    with pytest.raises(sc.BadKey):
        monomial_basis(2, 2, extras=[extra])  # degree must exceed the level


def test_basis_deterministic_order():
    a = monomial_basis(3, 2)
    b = monomial_basis(3, 2)
    assert a.monomials == b.monomials
    degs = [m.degree for m in a.monomials]
    assert degs == sorted(degs)


def test_monomial_product_sorted():
    m = Monomial.single(2, 1) * Monomial.single(0, 2)
    assert m.factors == ((0, 2), (2, 1))


def test_reduce_monomial_identity_on_moments():
    # expectation of the reduction must equal the original under any product
    # distribution; check against explicit mixtures
    rng = make_rng(2)
    mix = sc.random_separable_mixture(2, 4, rng)
    for m in [Monomial(((0, 2), (0, 2))),
              Monomial(((0, 2), (0, 2), (1, 2), (1, 2))),
              Monomial(((0, 2), (0, 2), (0, 2), (0, 2))),
              Monomial(((0, 0), (0, 2), (0, 2), (1, 1)))]:
        red = reduce_monomial(m)
        direct = mixture_moment(mix, m)
        via = sum(cf * mixture_moment(mix, nm) for nm, cf in red.items())
        assert abs(direct - via) < 1e-12
        for nm in red:
            counts = {}
            for f in nm.factors:
                counts[f] = counts.get(f, 0) + 1
            assert all(k < 2 for f, k in counts.items() if f[1] == 2)


# -- scheme selection ---------------------------------------------------------------


def test_select_scheme_quench():
    ds = sc.quench_dataset(sc.quench_amplitudes(6, 1.5))
    assert select_scheme(ds).kind is SchemeKind.TRANSVERSE_SYMMETRIC


def test_select_scheme_thermal_ising():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=4, g=1.0), 0.5)
    assert select_scheme(ds).kind is SchemeKind.AXIS_DIAGONAL


def test_select_scheme_cross_term_general():
    ds = sc.new_dataset(3, {(0, 1, "X", "Y"): 0.3, (0, 1, "Z", "Z"): 0.2})
    assert select_scheme(ds).kind is SchemeKind.GENERAL


def test_select_scheme_werner_rotation():
    assert select_scheme(sc.werner_dataset(0.2)).kind is SchemeKind.ROTATION_INVARIANT


def test_select_scheme_heisenberg_rotation():
    ds = sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=4), 0.6)
    assert select_scheme(ds).kind is SchemeKind.ROTATION_INVARIANT


def test_select_scheme_product_general():
    ds = sc.dataset_of(sc.random_product_state(3, 1))
    assert select_scheme(ds).kind is SchemeKind.GENERAL


def test_scheme_validity_enforced():
    ds = sc.quench_dataset(sc.quench_amplitudes(4, 1.0))
    rot = sc.SymmetryScheme(SchemeKind.ROTATION_INVARIANT, frozenset({0, 1, 2}), ((0, 1, 2),))
    with pytest.raises(SchemeMismatch):
        build_layout(monomial_basis(4, 1), ds, rot)


_VALUES = st.sampled_from((-0.5, 0.0, 0.5))


@st.composite
def small_datasets(draw):
    """Sparse 2- and 3-site datasets with values in {-0.5, 0, 0.5}.  Some are
    averaged over a scheme group, and some of those get one value changed,
    so that each scheme both holds and fails."""
    n = draw(st.integers(2, 3))
    one = {(i, a): draw(_VALUES) for i in range(n) for a in range(3) if draw(st.booleans())}
    two = {(i, j, a, b): draw(_VALUES) for i, j in itertools.combinations(range(n), 2)
           for a in range(3) for b in range(3) if draw(st.booleans())}
    ds = sc.CorrelationDataset(n, one, two)
    scheme = draw(st.sampled_from([None, *_FORCED_SCHEMES.values()]))
    if scheme is None:
        return ds
    ds = group_average(ds, scheme)
    one, two = ds.one_body, ds.two_body
    keys = sorted(one) + sorted(two)
    if keys and draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        (one if len(key) == 2 else two)[key] = draw(_VALUES)
    return sc.CorrelationDataset(n, one, two)


@settings(max_examples=300)
@given(ds=small_datasets())
def test_scheme_check_on_generators_matches_whole_group(ds):
    for scheme in [*_FORCED_SCHEMES.values(), select_scheme(ds)]:
        try:
            check_scheme_valid(ds, scheme)
            raised = False
        except SchemeMismatch:
            raised = True
        assert raised == (group_mismatch(ds, scheme) is not None), scheme


# -- layouts ---------------------------------------------------------------------------


def test_layout_free_var_counts():
    quench = sc.quench_dataset(sc.quench_amplitudes(8, 2.0))
    lay = layout_for(quench)
    assert lay.scheme.kind is SchemeKind.TRANSVERSE_SYMMETRIC
    assert lay.free_var_count == 8

    ising = sc.thermal_dataset_ed(sc.ModelSpec(kind="ising", n=4, g=0.9), 0.4)
    lay = layout_for(ising)
    assert lay.scheme.kind is SchemeKind.AXIS_DIAGONAL
    assert lay.free_var_count == 2 * 4

    lay = layout_for(sc.werner_dataset(0.0))
    assert lay.scheme.kind is SchemeKind.ROTATION_INVARIANT
    assert lay.free_var_count == 0


def test_layout_dimensions():
    for n in (2, 5, 9):
        ds = sc.new_dataset(n, {(0, 1, "Z", "Z"): 0.1})
        assert layout_for(ds).dim == 3 * n + 1


def test_layout_kinds_werner():
    lay = layout_for(sc.werner_dataset(0.3))
    assert lay.kind(0, 0) == Constant(1.0)
    # diagonals are pinned constants 1/3 under the rotation-invariant scheme
    assert lay.kind(1, 1) == Constant(1.0 / 3.0)
    # the three data entries sit at same-axis cross-site positions
    data_positions = [pos for pos, k in entry_positions(lay) if isinstance(k, Data)]
    assert len(data_positions) == 3
    # symmetric access
    r, c = data_positions[0]
    assert lay.kind(c, r) == lay.kind(r, c)


def test_layout_quench_kinds():
    ds = sc.quench_dataset(sc.quench_amplitudes(4, 1.0))
    lay = layout_for(ds)
    # one-body X entries are forced to zero, one-body Z carries data
    assert isinstance(lay.kind(0, 1), Zero)   # <x_0>
    assert isinstance(lay.kind(0, 3), Data)   # <z_0> = C_0^Z
    # x^2 and y^2 share one tied variable id
    kx = lay.kind(1, 1)
    ky = lay.kind(2, 2)
    kz = lay.kind(3, 3)
    assert isinstance(kx, FreeVar) and kx == ky
    assert isinstance(kz, FreeVar) and kz != kx


def test_layout_pauli_rows_reference_entries():
    ds = random_state_dataset(3, 4)
    for level in (1, 2):
        lay = layout_for(ds, level=level)
        _, pauli_rows = standard_form_rows(lay)
        for row in pauli_rows:
            for (r, c), coeff in row.entries:
                assert 0 <= min(r, c) and max(r, c) < lay.dim
        site_rows = [row for row in pauli_rows if row.tag == "site"]
        assert len(site_rows) == 3
        assert all(row.rhs == 1.0 for row in site_rows)
    pauli_rows = standard_form_rows(layout_for(ds, level=2))[1]
    assert any(row.tag == "subst" for row in pauli_rows)
    assert any(row.tag == "tie" for row in pauli_rows)


def test_layout_psd_completion_from_mixture():
    # classical mixture moments complete every layout to a PSD matrix
    rng = make_rng(9)
    for level, n in ((1, 4), (1, 6), (2, 3)):
        mix = sc.random_separable_mixture(n, 5, rng)
        ds = sc.dataset_of(mix)
        lay = layout_for(ds, level=level)
        gamma = moment_completion(lay, ds, lambda m: mixture_moment(mix, m))
        assert np.max(np.abs(gamma - gamma.T)) < 1e-12
        assert np.linalg.eigvalsh(gamma)[0] >= -1e-9


def test_layout_psd_completion_under_scheme():
    # scheme-forced zeros correspond to the group-averaged mixture, which is
    # still a valid mixture, so the completion stays PSD
    rng = make_rng(14)
    mix = sc.random_separable_mixture(5, 4, rng)
    ds = sc.dataset_of(mix)
    # keep only the same-axis data so an axis-diagonal scheme applies
    two = {k: v for k, v in ds.two_items() if k[2] == k[3]}
    ds_shaped = sc.CorrelationDataset(5, {}, two)
    lay = layout_for(ds_shaped)
    assert lay.scheme.kind is SchemeKind.AXIS_DIAGONAL
    gamma = moment_completion(lay, ds_shaped, lambda m: mixture_moment(mix, m))
    assert np.linalg.eigvalsh(gamma)[0] >= -1e-9


def test_hybrid_requires_general():
    ds = sc.quench_dataset(sc.quench_amplitudes(4, 1.0))
    with pytest.raises(SchemeMismatch):
        layout_for(ds, level=2, scheme=select_scheme(ds))


def test_render_grid():
    lay = layout_for(sc.werner_dataset(0.0))
    grid = lay.render_grid().splitlines()
    assert len(grid) == 7
    assert grid[0][0] == "1"
    assert "D" in "".join(grid)


# -- one layout per shape -------------------------------------------------------------


@st.composite
def same_shape_datasets(draw):
    """Three 2- or 3-site datasets that store the same correlators with
    different values, all averaged over one scheme group or none."""
    n = draw(st.integers(2, 3))
    keys = [(i, a) for i in range(n) for a in range(3)]
    keys += [(i, j, a, b) for i, j in itertools.combinations(range(n), 2)
             for a in range(3) for b in range(3)]
    kept = [k for k in keys if draw(st.booleans())]
    scheme = draw(st.sampled_from([None, *_FORCED_SCHEMES.values()]))
    value = st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-1.0, 1.0)
    out = []
    for _ in range(3):
        vals = {k: draw(value) for k in kept}
        ds = sc.CorrelationDataset(n, {k: v for k, v in vals.items() if len(k) == 2},
                                   {k: v for k, v in vals.items() if len(k) == 4})
        out.append(ds if scheme is None else group_average(ds, scheme))
    return out


def plain(value):
    """A field's value for ==, every array as its dtype and its entries."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.tolist()
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value


def assert_same_layout(got, want):
    for f in dataclasses.fields(MomentMatrixLayout):
        assert plain(getattr(got, f.name)) == plain(getattr(want, f.name)), f.name


@settings(max_examples=40)
@given(datasets=same_shape_datasets())
def test_cached_layout_equals_fresh_build(datasets):
    first = None
    for ds in datasets:
        for level in (1, 2):
            cached = layout_for(ds, level=level)
            fresh = build_layout(monomial_basis(ds.n_sites, level), ds, cached.scheme)
            assert_same_layout(cached, fresh)
        # the level-2 shape is the same for all three datasets: a cache hit
        # shares the template's shape-only fields
        first = first or cached
        assert cached.expansion is first.expansion


def test_cached_layout_solves_bit_identically():
    shapes = [[sc.dataset_of(sc.random_product_state(4, seed)) for seed in range(3)],
              [sc.quench_dataset(sc.quench_amplitudes(16, t)) for t in (2.0, 3.0)],
              [sc.werner_dataset(lam) for lam in (0.1, 0.4)]]
    for datasets in shapes:
        for ds in datasets:
            cached = layout_for(ds)
            fresh = build_layout(monomial_basis(ds.n_sites, 1), ds, cached.scheme)
            got, want = sc.solve(sc.assemble_primal(cached)), sc.solve(sc.assemble_primal(fresh))
            assert got.lambda_star == want.lambda_star
            assert got.iterations == want.iterations
            assert got.w_data == want.w_data
        assert cached.expansion is layout_for(datasets[0]).expansion


def test_cache_hit_is_the_template_with_its_values():
    momentmat._templates.clear()
    datasets = [sc.dataset_of(sc.random_product_state(4, seed)) for seed in range(2)]
    layouts = [layout_for(ds) for ds in datasets]
    (template, _), = momentmat._templates.values()
    assert template.values == ()
    for layout, ds in zip(layouts, datasets):
        assert layout.kind_code is template.kind_code
        assert layout.data_terms is template.data_terms
        # one-body correlators, then two-body ones, in the dataset's order
        assert layout.values == tuple([v for _, v in ds.one_items()]
                                      + [v for _, v in ds.two_items()])
        for slot in layout.data_terms[2]:
            assert layout.values[slot] == ds.value(layout.labels[slot])
    first, second = layouts
    for f in dataclasses.fields(MomentMatrixLayout):
        if f.name != "values":
            assert getattr(first, f.name) is getattr(second, f.name), f.name
    assert first.values != second.values


def test_layout_cache_keeps_recent_shapes(monkeypatch):
    monkeypatch.setattr(momentmat, "LAYOUT_CACHE_SIZE", 2)
    momentmat._templates.clear()
    shapes = [sc.new_dataset(3, {(0, k, "Z", "Z"): 0.5}) for k in (1, 2)]
    shapes.append(sc.new_dataset(3, {(1, 2, "Z", "Z"): 0.5}))
    layouts = [layout_for(ds) for ds in shapes]
    assert len(momentmat._templates) == 2
    assert layout_for(shapes[2]).expansion is layouts[2].expansion  # kept
    assert layout_for(shapes[1]).expansion is layouts[1].expansion  # kept, now newest
    assert layout_for(shapes[0]).expansion is not layouts[0].expansion  # evicted
    assert layout_for(shapes[2]).expansion is not layouts[2].expansion  # least recent


def test_layout_and_problem_pickle_and_deepcopy():
    ds = sc.quench_dataset(sc.quench_amplitudes(8, 2.0))
    layout_for(ds)  # certify's layout is a cache hit, sharing the template's fields
    sol, problem = sc.certify(ds)
    for copy_ in (pickle.loads(pickle.dumps(problem)), copy.deepcopy(problem)):
        assert_same_layout(copy_.layout, problem.layout)
        again = sc.solve(copy_)
        assert (again.lambda_star, again.iterations) == (sol.lambda_star, sol.iterations)
    layout = layout_for(sc.werner_dataset(0.3), level=2)
    for copy_ in (pickle.loads(pickle.dumps(layout)), copy.deepcopy(layout)):
        assert_same_layout(copy_, layout)


def test_layout_cache_under_concurrent_callers(monkeypatch):
    # More shapes than the cache keeps, requested from more threads than
    # cores with a short switch interval: every call still returns its own
    # dataset's layout, and the cache stays within its bound.
    monkeypatch.setattr(momentmat, "LAYOUT_CACHE_SIZE", 5)
    datasets = [random_state_dataset(3, seed) for seed in range(4)]
    keys = [(0, 1, "X", "X"), (0, 2, "Y", "Z"), (1, 2, "Z", "X"), (2, "Y")]
    datasets += [sc.new_dataset(3, {key: 0.1 * (j + 1) * (-1) ** k
                                    for j, key in enumerate(keys) if k >> j & 1})
                 for k in range(1, 13)]
    want = [build_layout(monomial_basis(3, 1), ds, select_scheme(ds)) for ds in datasets]
    errors = []

    def caller(offset):
        for k in range(3 * len(datasets)):
            i = (k + offset) % len(datasets)
            got = layout_for(datasets[i])
            try:
                assert_same_layout(got, want[i])
            except AssertionError:
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
    assert len(momentmat._templates) <= 5


def test_auto_scheme_selects_without_rechecking(monkeypatch):
    calls = []
    mismatch = momentmat._mismatch

    def counting(ds, perm, signs):
        calls.append((perm, signs))
        return mismatch(ds, perm, signs)

    monkeypatch.setattr(momentmat, "_mismatch", counting)
    lay = layout_for(sc.thermal_dataset_ed(sc.ModelSpec(kind="heisenberg", n=8), 0.5))
    assert lay.scheme.kind is SchemeKind.ROTATION_INVARIANT
    assert len(calls) == 6  # three flips and three swaps, all in select_scheme


def test_explicit_scheme_checked_on_cached_shape():
    rot = _FORCED_SCHEMES["rotation"]
    good = sc.werner_dataset(0.1)
    assert layout_for(sc.werner_dataset(0.5), scheme=rot).expansion is \
        layout_for(good, scheme=rot).expansion
    bad = sc.CorrelationDataset(2, dict(good.one_items()),
                                {k: v * (1.0 - 0.1 * k[2]) for k, v in good.two_items()})
    with pytest.raises(SchemeMismatch, match="scheme rotation"):
        layout_for(bad, scheme=rot)


# -- closed form ------------------------------------------------------------------------


def test_closed_form_singlet():
    is_psd, min_eig = sc.closed_form_check(sc.werner_dataset(0.0))
    assert not is_psd
    assert abs(min_eig - (-2.0)) < 1e-12


def test_closed_form_boundary():
    is_psd, min_eig = sc.closed_form_check(sc.sum_triple_dataset(-1.0))
    assert is_psd
    assert abs(min_eig) < 1e-12


def test_closed_form_psd():
    is_psd, min_eig = sc.closed_form_check(sc.sum_triple_dataset(0.0))
    assert is_psd
    assert abs(min_eig - 1.0) < 1e-12


def test_closed_form_missing_pair():
    ds = sc.new_dataset(3, {(0, 1, a, a): -1.0 / 3.0 for a in "XYZ"})
    with pytest.raises(MissingData) as exc:
        sc.closed_form_check(ds)
    assert exc.value.missing == ["XX[0,2]", "YY[0,2]", "ZZ[0,2]",
                                 "XX[1,2]", "YY[1,2]", "ZZ[1,2]"]


def test_closed_form_wrong_shape():
    ds = sc.dataset_of(sc.random_product_state(2, 3))
    with pytest.raises(SchemeMismatch):
        sc.closed_form_check(ds)


def test_closed_form_matches_sdp_verdict():
    for c in (-3.0, -1.5, -1.0, -0.4, 0.8, 1.2, 2.9):
        ds = sc.sum_triple_dataset(c)
        is_psd, _ = sc.closed_form_check(ds)
        sol, _ = sc.certify(ds)
        assert (not is_psd) == sol.entangled
