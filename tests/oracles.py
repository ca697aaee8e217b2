"""Shared independent oracles and generators for the test suite.

Everything here recomputes expectations through a different route than the
code under test: explicit classical averages over mixtures, dense quantum
states, or brute-force evaluation.
"""

import collections
import ctypes
import dataclasses
import functools

import numpy as np
import numpy.linalg._umath_linalg
import scipy.linalg._flapack
import scipy.sparse

import sepcert as sc
from sepcert.seporacle import make_rng


def mixture_moment(mixture, monomial) -> float:
    """Classical expectation of a Bloch-variable monomial under a mixture:
    the direct weighted product over components."""
    total = 0.0
    for p, state in zip(mixture.weights, mixture.states):
        term = 1.0
        for site, comp in monomial.factors:
            term *= state.bloch[site, comp]
        total += p * term
    return total


def haar_state(n: int, rng) -> np.ndarray:
    rng = make_rng(rng)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def quench_state_vector(amps) -> np.ndarray:
    """Full 2^n state vector of the single-excitation quench state: the
    amplitude phi_i sits on the basis state with one down spin (bit set) at
    site i, site 0 being the most significant qubit."""
    n = amps.n
    psi = np.zeros(2 ** n, dtype=complex)
    for i in range(n):
        psi[1 << (n - 1 - i)] = amps.phi[i]
    return psi


def random_state_dataset(n: int, seed) -> sc.CorrelationDataset:
    """Full correlator set of a Haar-random pure state."""
    return sc.state_dataset(haar_state(n, seed))


def drop_entries(ds: sc.CorrelationDataset, frac: float, seed) -> sc.CorrelationDataset:
    """Remove a random fraction of the stored correlators."""
    rng = make_rng(seed)
    one = {k: v for k, v in ds.one_items() if rng.random() >= frac}
    two = {k: v for k, v in ds.two_items() if rng.random() >= frac}
    if not one and not two:
        two = dict(list(ds.two_items())[:1])
    return sc.CorrelationDataset(ds.n_sites, one, two)


def _key_image(key, perm, signs):
    """Image of a correlator key (i, a) or (i, j, a, b) under one axis map,
    with the sign the map puts on its value."""
    if len(key) == 2:
        i, a = key
        return (i, perm[a]), signs[a]
    i, j, a, b = key
    return (i, j, perm[a], perm[b]), signs[a] * signs[b]


def group_mismatch(ds: sc.CorrelationDataset, scheme):
    """Reference for ``check_scheme_valid`` over every element of the scheme
    group: the first (element, key) whose stored value the element does not
    carry onto an equal stored value, or None when the data are invariant."""
    stored = {**dict(ds.one_items()), **dict(ds.two_items())}
    for perm, signs in scheme.group_elements():
        for key, v in stored.items():
            image, sign = _key_image(tuple(int(k) for k in key), perm, signs)
            if stored.get(image) != sign * v:
                return (perm, signs), key
    return None


def group_average(ds: sc.CorrelationDataset, scheme, drop=0.0, seed=0):
    """The correlators averaged over the scheme group, one orbit of stored
    keys at a time, so that the result is invariant bit for bit.  An orbit
    that the group reaches with both signs is zero; absent keys count as
    zero.  Each orbit is then dropped with probability ``drop``."""
    stored = {tuple(int(k) for k in key): v
              for key, v in (*ds.one_items(), *ds.two_items())}
    group = scheme.group_elements()
    rng = make_rng(seed)
    one, two, seen = {}, {}, set()
    for key in stored:
        if key in seen:
            continue
        images = [_key_image(key, perm, signs) for perm, signs in group]
        orbit, forced = {}, False
        for image, sign in images:
            forced |= orbit.setdefault(image, sign) != sign
        seen.update(orbit)
        if rng.random() < drop:
            continue
        mean = 0.0 if forced else sum(sign * stored.get(image, 0.0)
                                      for image, sign in images) / len(group)
        for image, sign in orbit.items():
            (one if len(image) == 2 else two)[image] = sign * mean
    return sc.CorrelationDataset(ds.n_sites, one, two)


def entangled_state_dataset(n: int, seed, min_lambda=1e-3):
    """A Haar-state dataset whose level-1 certification detects entanglement;
    retries the seed stream until one is found."""
    rng = make_rng(seed)
    for _ in range(60):
        ds = sc.state_dataset(haar_state(n, rng))
        sol, prob = sc.certify(ds)
        if sol.lambda_star > min_lambda:
            return ds, sol, prob
    raise AssertionError("no entangled Haar dataset found in 60 draws")


def single_block_problem(layout):
    """The program of ``assemble_primal`` with lambda and Gamma solved as two
    dense blocks, whatever their size, its reduced form assembled straight
    from the layout's solver-basis term arrays."""
    from sepcert.sdpcore import BlockSdp

    problem = sc.assemble_primal(layout)
    d = layout.solver_dim
    split = problem.reduced
    c_row, c_col, c_val = layout.const_terms
    d_row, d_col, slot, coeff = layout.data_terms
    v_row, v_col, var, v_coeff = layout.var_terms
    data = coeff * np.asarray(layout.values)[slot]
    const = ([1] * (len(c_row) + len(d_row)), np.r_[c_row, d_row], np.r_[c_col, d_col],
             np.r_[c_val, data])
    coeffs = (np.r_[0, [1] * (len(d_row) + len(v_row))], np.r_[0, d_row, v_row],
              np.r_[0, d_col, v_col], np.r_[0, [0] * len(d_row), 1 + var],
              np.r_[1.0, -data, v_coeff])
    one = BlockSdp(block_dims=[1, d], n_vars=split.n_vars, c=split.c, const=const,
                   coeffs=coeffs, initial_u=split.initial_u)
    return dataclasses.replace(problem, reduced=one, blocks=[np.arange(1), np.arange(1, 1 + d)])


def entrywise_program(layout):
    """F0, F_lambda and the F of every free moment over the solver basis,
    dense, added entry by entry from the layout's term arrays: the loop
    that ``assemble_primal`` replaces with whole-array operations."""
    d, values = layout.solver_dim, layout.values
    f = np.zeros((2 + layout.free_var_count, d, d))

    def add(k, r, c, v):
        f[k, r, c] += v
        if r != c:
            f[k, c, r] += v

    for r, c, v in zip(*layout.const_terms):
        add(0, r, c, v)
    for r, c, slot, coeff in zip(*layout.data_terms):
        add(0, r, c, coeff * values[slot])
        add(1, r, c, -coeff * values[slot])
    for r, c, var, coeff in zip(*layout.var_terms):
        add(2 + var, r, c, coeff)
    return f


def entrywise_multipliers(layout, z):
    """w_data and w.C read off the solver-basis matrix z one data term at a
    time, in the terms' order: the loop that ``_extract_multipliers``
    replaces with one bincount."""
    w_data, c_data = {}, {}
    for r, c, slot, coeff in zip(*layout.data_terms):
        label = layout.labels[slot]
        w_data[label] = w_data.get(label, 0.0) - 2.0 * coeff * z[r][c]
        c_data[label] = layout.values[slot]
    return w_data, float(np.dot(list(w_data.values()), list(c_data.values())))


def basis_action(layout, perm, signs):
    """Action of one scheme group element on the layout's basis indices:
    index permutation and per-index sign (every relabeled basis monomial is
    again in the basis)."""
    index = layout.basis.index()
    flips = {a for a in range(3) if signs[a] == -1}
    tgt = np.array([index[m.relabel_axes(perm)] for m in layout.basis.monomials])
    sgn = np.array([float(m.flip_sign(flips)) for m in layout.basis.monomials])
    return tgt, sgn


def average_over_group(layout, mat):
    """The basis-indexed matrix mat averaged over the scheme group, one
    whole-matrix scatter per group element: the route that
    ``_extract_multipliers`` replaces by averaging the multipliers over
    their labels' images.  A scheme other than the general one exists only
    at level 1, where the solver basis is the full basis."""
    group = layout.scheme.group_elements()
    if len(group) == 1:
        return mat
    out = np.zeros_like(mat)
    for perm, signs in group:
        tgt, sgn = basis_action(layout, perm, signs)
        out[np.ix_(tgt, tgt)] += (sgn[:, None] * sgn[None, :]) * mat
    return out / len(group)


def union_find_components(dim, edges):
    """Connected components of the graph on range(dim), each a sorted index
    list, ordered by their smallest index (union-find rooted at the minimum)."""
    root = list(range(dim))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for r, c in edges:
        a, b = find(r), find(c)
        if a != b:
            root[max(a, b)] = min(a, b)
    groups = {}
    for i in range(dim):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def entry_positions(layout):
    """Every full-basis position (r, c), r <= c, with its entry kind."""
    return [((r, c), layout.kind(r, c)) for r in range(layout.dim) for c in range(r, layout.dim)]


DataRow = collections.namedtuple("DataRow", "label position value")
PauliRow = collections.namedtuple("PauliRow", "tag entries rhs")


def standard_form_rows(layout):
    """Rows of the standard-form program over the full basis, rebuilt from
    the layout: (data_rows, pauli_rows).

    A data row fixes one stored correlator position r < c; its value is the
    label's C_alpha.  A Pauli row is the linear equation
    sum(coeff * Gamma[r, c]) = rhs over positions: the unit entry, one
    quadratic row x_i^2 + y_i^2 + z_i^2 = 1 per site and, at level > 1 or
    with extras, the substitution rows m (x_i^2 + y_i^2 + z_i^2) = m for
    every monomial m of degree 1 .. 2(level - 1) and one tie row per
    repeated position of a free moment.
    """
    basis = layout.basis
    monos = basis.monomials
    index = basis.index()
    values = dict(zip(layout.labels, layout.values))
    data_rows = [DataRow(kind.label, pos, values[kind.label])
                 for pos, kind in entry_positions(layout) if isinstance(kind, sc.Data)]
    pauli_rows = [PauliRow("unit", (((0, 0), 1.0),), 1.0)]
    for i in range(layout.n_sites):
        diag = [index[sc.Monomial.single(i, a)] for a in range(3)]
        pauli_rows.append(PauliRow("site", tuple(((k, k), 1.0) for k in diag), 1.0))
    if basis.level == 1 and not basis.extras:
        return data_rows, pauli_rows
    squares = [[index.get(sc.Monomial(((i, a), (i, a)))) for a in range(3)]
               for i in range(layout.n_sites)]
    for m in monos:
        if not 1 <= m.degree <= 2 * (basis.level - 1):
            continue
        mi = index[m]
        for row in squares:
            if None not in row:
                ent = [((min(mi, si), max(mi, si)), 1.0) for si in row]
                pauli_rows.append(PauliRow("subst", tuple(ent) + (((0, mi), -1.0),), 0.0))
    positions = {}
    for r in range(len(monos)):
        for c in range(r, len(monos)):
            positions.setdefault(monos[r] * monos[c], []).append((r, c))
    for pos in positions.values():
        if len(pos) > 1 and isinstance(layout.kind(*pos[0]), sc.FreeVar):
            pauli_rows.extend(PauliRow("tie", ((pos[0], 1.0), (p, -1.0)), 0.0)
                              for p in pos[1:])
    return data_rows, pauli_rows


def certificate_matrix(problem):
    """Projected dual matrix X of a second solve of the problem (the solve
    is deterministic), as one solver-basis Gamma block."""
    from sepcert.sdpcore import InteriorPointSolver

    solver = InteriorPointSolver()
    res = solver.solve(problem.reduced)
    return problem.full(solver.certificate_projection(problem.reduced, res.x_blocks))[1:, 1:]


def standard_form_slack(problem, solution):
    """Standard-form dual slack M - sum w_alpha A_alpha - sum w_k A_k^Pauli
    of a solve, per block, and its bound -sum b_k w_k^Pauli.

    The data multipliers are the solution's, one per label.  The unit and
    site multipliers are read off the certificate matrix X: -X[0, 0] for the
    unit row and minus the mean of the site's three diagonal entries (a sum
    that the scheme group only permutes).  The substitution and tie rows of
    higher levels and extras have no standard-form certificate, since the
    full basis has no Slater point; for them this raises ValueError.
    """
    data_rows, pauli_rows = standard_form_rows(problem.layout)
    if any(row.tag not in ("unit", "site") for row in pauli_rows):
        raise ValueError("the standard-form dual slack exists only for layouts whose "
                         "Pauli rows are all unit and site rows")
    z = certificate_matrix(problem)
    w_pauli = np.array([-float(np.mean([z[r, r] for (r, _), _ in row.entries]))
                        for row in pauli_rows])
    w_data = np.array([solution.w_data[row.label] for row in data_rows])
    d = problem.layout.dim
    g = np.zeros((d, d))
    for w, row in zip(w_data, data_rows):
        r, c = row.position
        g[r, c] -= 0.5 * w
        g[c, r] -= 0.5 * w
    for w, row in zip(w_pauli, pauli_rows):
        for (r, _), coeff in row.entries:
            g[r, r] -= coeff * w
    s0 = 1.0 - float(np.dot(w_data, [row.value for row in data_rows]))
    bound = -float(w_pauli @ np.array([row.rhs for row in pauli_rows]))
    return [np.array([[s0]]), g], bound


def moment_completion(layout, ds, moment_fn):
    """Dense full-basis Gamma with every free entry set to the classical
    moment supplied by ``moment_fn``, averaged over the scheme group, and
    every data entry set to its stored value."""
    group = layout.scheme.group_elements()
    monos = layout.basis.monomials

    def averaged(m):
        vals = [m.flip_sign({a for a in range(3) if signs[a] == -1})
                * moment_fn(m.relabel_axes(perm)) for perm, signs in group]
        return float(np.mean(vals))

    gamma = np.zeros((layout.dim, layout.dim))
    for (r, c), kind in entry_positions(layout):
        if isinstance(kind, sc.Constant):
            v = kind.value
        elif isinstance(kind, sc.Data):
            v = ds.value(kind.label)
        elif isinstance(kind, sc.Zero):
            v = 0.0
        else:
            v = averaged(monos[r] * monos[c])
        gamma[r, c] = gamma[c, r] = v
    return gamma


def lstsq_label_coefficients(problem, z):
    """Per-label witness coefficients from a least-squares fit of the
    standard-form dual vector to the solver-basis certificate matrix z.

    Every data and Pauli row matrix of the full basis is pulled back through
    the normal-form expansion E, and the vector whose combination of those
    matrices comes closest to -z is taken; the data multipliers are then
    summed per label.
    """
    emat = problem.layout.expansion_matrix()
    data_rows, pauli_rows = standard_form_rows(problem.layout)
    row_mats = []
    for row in data_rows:
        r, c = row.position
        row_mats.append(0.5 * (np.outer(emat[r], emat[c]) + np.outer(emat[c], emat[r])))
    for row in pauli_rows:
        m = np.zeros_like(z)
        for (r, c), coeff in row.entries:
            m += 0.5 * coeff * (np.outer(emat[r], emat[c]) + np.outer(emat[c], emat[r]))
        row_mats.append(m)
    iu = np.triu_indices(z.shape[0])
    amat = np.stack([m[iu] for m in row_mats], axis=1)
    sol = np.linalg.lstsq(amat, -z[iu], rcond=None)[0]
    coeffs = {}
    for w, row in zip(sol, data_rows):
        coeffs[row.label] = coeffs.get(row.label, 0.0) + float(w)
    return coeffs


def dense_schur(prob, w_blocks):
    """Schur matrix sum_b <F_tb, W_b F_sb W_b> from the dense coefficient
    matrices F_t = A*(e_t), one batched product per block."""
    n = prob.n_vars
    coeffs = [prob.apply_at(e) for e in np.eye(n)]
    out = np.zeros((n, n))
    for b, w in enumerate(w_blocks):
        f = np.stack([blocks[b] for blocks in coeffs])
        out += f.reshape(n, -1) @ (w @ f @ w).reshape(n, -1).T
    return out


def x_state_noise_robustness(phi_i: complex, phi_j: complex) -> float:
    """White-noise robustness of the concurrence of one quench pair, in
    closed form instead of bisection on the Wootters spectrum.

    The pair state (1 - lam) rho + lam I/4 is an X-state with rho_03 = 0, so
    its concurrence is 2 max(0, |rho_12| - sqrt(rho_00 rho_33)).  It vanishes
    at the smaller root of A lam^2 - B lam + C = 0 with
        A = a^2 + q/4 - 1/16,  B = 2 a^2 + q/4,  C = a^2,
    a = |phi_i phi_j| and q = 1 - |phi_i|^2 - |phi_j|^2, taken in the
    cancellation-free form 2C / (B + sqrt(B^2 - 4AC)).
    """
    a2 = abs(phi_i * phi_j) ** 2
    q = 1.0 - abs(phi_i) ** 2 - abs(phi_j) ** 2
    qa, qb = a2 + q / 4.0 - 1.0 / 16.0, 2.0 * a2 + q / 4.0
    return 2.0 * a2 / (qb + np.sqrt(qb * qb - 4.0 * qa * a2))


def best_x_state_pair(amps):
    """(robustness, i, j) of the pair with the largest closed-form robustness,
    by brute force over all pairs."""
    n = amps.n
    return max((x_state_noise_robustness(amps.phi[i], amps.phi[j]), i, j)
               for i in range(n) for j in range(i + 1, n))



def bisection_noise_robustness(amps, tol=1e-10):
    """White-noise robustness of the quench pairs' concurrence, maximized
    over all pairs by bisection on the Wootters concurrence of each pair's
    density matrix along the ray toward identity/4.

    The entangled stretch of that ray is an interval (the separable set is
    convex), so bisection is exact, and a pair whose concurrence already
    vanishes at the current record cannot improve on it.
    """
    n = amps.n
    absphi = np.abs(amps.phi)
    order = sorted(
        ((2.0 * absphi[i] * absphi[j], i, j) for i in range(n) for j in range(i + 1, n)),
        reverse=True)
    best = 0.0
    for c0, i, j in order:
        if c0 <= 1e-12:
            break
        if sc.wootters_concurrence(sc.pair_density_from_quench(amps, i, j, best)) <= 0:
            continue
        lo, hi = best, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if sc.wootters_concurrence(sc.pair_density_from_quench(amps, i, j, mid)) > 0:
                lo = mid
            else:
                hi = mid
        best = lo
    return best


class _ReferenceTerms:
    """Dense quadratic form 0.5 x^T W x + v.x of a witness over flattened
    (site, axis) product-state coordinates, with its value and gradient
    each taken as its own matrix product."""

    def __init__(self, witness, n: int):
        self.n = int(n)
        self.wmat = np.zeros((3 * n, 3 * n))
        self.wvec = np.zeros(3 * n)
        for label, w in witness.coefficients.items():
            key = sc.parse_label(label)
            if len(key) == 2:
                i, a = key
                if i >= n:
                    raise sc.BadKey(f"witness label {label} references site {i} >= n={n}")
                self.wvec[3 * i + int(a)] += float(w)
            else:
                i, j, a, b = key
                if j >= n:
                    raise sc.BadKey(f"witness label {label} references site {j} >= n={n}")
                self.wmat[3 * i + int(a), 3 * j + int(b)] += float(w)
                self.wmat[3 * j + int(b), 3 * i + int(a)] += float(w)

    def value(self, x):
        flat = x.reshape(x.shape[0], -1)
        half = flat @ self.wmat
        return 0.5 * np.einsum("bs,bs->b", flat, half) + flat @ self.wvec

    def grad(self, x):
        b = x.shape[0]
        flat = x.reshape(b, -1)
        return (flat @ self.wmat + self.wvec).reshape(b, self.n, 3)


def reference_product_search(witness, n, restarts, seed=0, max_iter=4000,
                             grad_tol=1e-10, stall_window=64, stall_tol=1e-9,
                             events=None):
    """Projected gradient ascent over product states in its first form: one
    batch of restarts, every live restart gathered by index each iteration,
    its gradient recomputed and the length-3 Bloch sums taken by
    ``np.sum`` and ``np.linalg.norm``.  ``max_over_product_states`` must
    return the same value and state bit for bit.

    ``events`` (a Counter) counts how restarts drop out: "gradient" (the
    Riemannian gradient test), "underflow" (the step), "stall" (a stall
    check), "all" (a check that drops every remaining restart, two or more)
    and "single" (one restart left of two or more).  Counting changes no
    arithmetic.
    """
    events = collections.Counter() if events is None else events
    rng = make_rng(seed)
    terms = _ReferenceTerms(witness, n)
    B = int(restarts)
    x = rng.normal(size=(B, n, 3))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    step = np.full(B, 0.5)
    val = terms.value(x)
    checkpoint = val.copy()
    live = np.arange(B)
    for it in range(1, int(max_iter) + 1):
        if len(live) == 0:
            break
        xl = x[live]
        g = terms.grad(xl)
        g -= np.sum(g * xl, axis=2, keepdims=True) * xl
        gnorm = np.linalg.norm(g.reshape(len(live), -1), axis=1)
        keep = (gnorm > grad_tol) & (step[live] > 1e-16)
        events["gradient"] += int(np.sum(gnorm <= grad_tol))
        events["underflow"] += int(np.sum(step[live] <= 1e-16))
        events["all"] += int(len(live) > 1 and not keep.any())
        events["single"] += int(B > 1 and len(live) > 1 and np.sum(keep) == 1)
        live = live[keep]
        if len(live) == 0:
            break
        g = g[keep]
        cand = x[live] + step[live, None, None] * g
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        cand_val = terms.value(cand)
        improved = cand_val > val[live]
        upd = live[improved]
        x[upd] = cand[improved]
        val[upd] = cand_val[improved]
        step[upd] *= 1.2
        step[live[~improved]] *= 0.5
        if it % stall_window == 0:
            moving = val[live] - checkpoint[live] > stall_tol
            events["stall"] += int(np.sum(~moving))
            events["all"] += int(len(live) > 1 and not moving.any())
            events["single"] += int(len(live) > 1 and np.sum(moving) == 1)
            live = live[moving]
            checkpoint[live] = val[live]
    best = int(np.argmax(val))
    return float(val[best]), x[best] / np.linalg.norm(x[best], axis=1, keepdims=True)

_DENSE_PAULI = {sc.PauliAxis.X: np.array([[0, 1], [1, 0]], dtype=complex),
                sc.PauliAxis.Y: np.array([[0, -1j], [1j, 0]]),
                sc.PauliAxis.Z: np.array([[1, 0], [0, -1]], dtype=complex)}


def dense_pauli_string(n, factors):
    """Dense 2^n matrix of the Pauli string {site: axis}, site 0 the most
    significant qubit."""
    mats = [np.eye(2)] * n
    for site, axis in factors.items():
        mats[site] = _DENSE_PAULI[sc.PauliAxis.coerce(axis)]
    return functools.reduce(np.kron, mats)


def dense_chain_hamiltonian(spec):
    """Dense 2^n matrix of the periodic chain Hamiltonian, summed term by term
    from dense Pauli strings; bond (n-1, 0) closes the ring, so n = 2 counts
    its one bond twice."""
    n = spec.n
    bonds = [(i, (i + 1) % n) for i in range(n)]
    if spec.kind is sc.ModelKind.HEISENBERG:
        total = sum(dense_pauli_string(n, {i: a, j: a}) for i, j in bonds for a in sc.AXES)
        return (spec.J / 4.0) * total
    total = (sum(dense_pauli_string(n, {i: "Z", j: "Z"}) for i, j in bonds)
             + spec.g * sum(dense_pauli_string(n, {i: "X"}) for i in range(n)))
    return (-spec.J / 4.0) * total


def dense_thermal_density(spec, temperature):
    """Gibbs state by one full-space diagonalization of the dense Hamiltonian."""
    evals, evecs = np.linalg.eigh(dense_chain_hamiltonian(spec).real)
    w = np.exp(-(evals - evals[0]) / max(temperature, 1e-3))
    w /= w.sum()
    return (evecs * w) @ evecs.T


def _sector_basis(spec):
    """Real orthonormal basis Q that block-diagonalizes H, as a sparse matrix,
    and the column range of each symmetry sector.

    Both models commute with the global flip P = prod_i X_i, which maps
    basis state s to its complement 2^n - 1 - s.  Over the states s with
    site 0 up, the columns (|s> + |s-bar>)/sqrt2 span P = +1 and
    (|s> - |s-bar>)/sqrt2 span P = -1.  The Heisenberg chain also conserves
    S^z; P maps popcount k to n - k, so min(k, n - k) splits each P sector
    further (n = 10: blocks of 1, 10, 45, 120, 210, 126 per P sector).
    """
    n = spec.n
    dim, half = 1 << n, 1 << (n - 1)
    key = np.zeros(half, dtype=int)
    if spec.kind is sc.ModelKind.HEISENBERG:
        down = np.array([bin(s).count("1") for s in range(half)])
        key = np.minimum(down, n - down)
    reps = np.argsort(key, kind="stable")
    edges = np.concatenate([[0], np.flatnonzero(np.diff(key[reps])) + 1, [half]])
    col = np.arange(half)
    q = scipy.sparse.csr_matrix(
        (np.concatenate([np.ones(3 * half), -np.ones(half)]) / np.sqrt(2.0),
         (np.concatenate([reps, dim - 1 - reps] * 2),
          np.concatenate([col, col, half + col, half + col]))),
        shape=(dim, dim))
    sectors = [(off + lo, off + hi) for off in (0, half) for lo, hi in zip(edges[:-1], edges[1:])]
    return q, sectors


def sector_thermal_density(spec, temperature):
    """Gibbs state as a dense real matrix from one diagonalization per sector
    of the global flip (and of S^z for the Heisenberg chain): Q R Q^T with R
    the block-diagonal Gibbs state in the sector basis Q of ``_sector_basis``."""
    from sepcert.physmodels import hamiltonian

    T = max(float(temperature), 1e-3)
    q, sectors = _sector_basis(spec)
    hq = (q.T @ hamiltonian(spec) @ q).tocsr()
    eigs = [np.linalg.eigh(hq[lo:hi, lo:hi].toarray()) for lo, hi in sectors]
    e0 = min(evals[0] for evals, _ in eigs)
    weights = [np.exp(-(evals - e0) / T) for evals, _ in eigs]
    z = sum(w.sum() for w in weights)
    r = np.zeros(q.shape)
    for (lo, hi), (_, evecs), w in zip(sectors, eigs, weights):
        r[lo:hi, lo:hi] = (evecs * (w / z)) @ evecs.T
    r = q @ r                # Q R; R is symmetric, so Q R Q^T = Q (Q R)^T
    return q @ r.T


def sector_thermal_dataset(spec, temperature):
    """Thermal correlators read off ``sector_thermal_density`` one string at a
    time, cleaned and (Heisenberg) axis-averaged as ``thermal_dataset_ed``
    states."""
    ds = sc.state_dataset(sector_thermal_density(spec, temperature))
    one, two = dict(ds.one_items()), dict(ds.two_items())
    if spec.kind is sc.ModelKind.HEISENBERG:
        for i in range(spec.n):
            for j in range(i + 1, spec.n):
                avg = float(np.mean([two[(i, j, a, a)] for a in sc.AXES]))
                for a in sc.AXES:
                    two[(i, j, a, a)] = 0.0 if abs(avg) < 1e-13 else avg
    return sc.CorrelationDataset(spec.n, one, two)


def expm_thermal_correlator(spec, temperature, i, j, axis):
    """Second exact-diagonalization route: Gibbs state via the dense matrix
    exponential instead of the spectral decomposition, and the pair operator
    as a dense Kronecker product."""
    import scipy.linalg as sla

    rho = sla.expm(-dense_chain_hamiltonian(spec).real / max(temperature, 1e-3))
    rho /= np.trace(rho)
    op = dense_pauli_string(spec.n, {i: axis, j: axis})
    return float(np.real(np.sum(rho.T * op)))


def _openblas_setters():
    setters = {}
    for ext in (numpy.linalg._umath_linalg, scipy.linalg._flapack):
        fn = getattr(ctypes.CDLL(ext.__file__), "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
            setters[ctypes.cast(fn, ctypes.c_void_p).value] = fn
    return list(setters.values())


OPENBLAS_SETTERS = _openblas_setters()


def blas_thread_counts():
    """Thread count of each OpenBLAS bundled by numpy and scipy, read through
    the setter the solver scopes with: set 1, take the previous value, put it
    back.  Call it inside a solve's scope or while no solve runs, since the
    count is process-wide and putting back a stale value would undo a
    restore made meanwhile."""
    counts = []
    for fn in OPENBLAS_SETTERS:
        prev = fn(1)
        fn(prev)
        counts.append(prev)
    return counts
