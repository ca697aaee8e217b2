"""Monomial bases, symmetrization schemes, and the symbolic moment-matrix layout.

The moment matrix collects expectations of products of classical Bloch
variables.  A layout classifies every entry as a constant, a dataset value
(scaled by the noise variable), a free unknown, or a forced zero, and gives
each entry of the solver basis its affine expression over the independent
unknowns.  The per-site quadratic constraint x_i^2 + y_i^2 + z_i^2 = 1 is
built into those expressions: a square z_i^2 is written as 1 - x_i^2 - y_i^2.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .corrdata import (AXES, CorrelationDataset, PauliAxis, one_body_label,
                       two_body_label)
from .errors import BadKey, MissingData, SchemeMismatch

_COMP_NAMES = "xyz"


# -- monomials ----------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """Product of Bloch-variable factors, stored as a sorted multiset of
    (site, component) pairs; the empty product is the constant 1."""

    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(tuple(f) for f in self.factors)))

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def single(cls, site: int, comp: int) -> "Monomial":
        return cls(((int(site), int(comp)),))

    @property
    def degree(self) -> int:
        return len(self.factors)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.factors + other.factors)

    def key(self):
        """Graded, then lexicographic by (site, component)."""
        return (len(self.factors), self.factors)

    def sites(self):
        return tuple(dict.fromkeys(s for s, _ in self.factors))

    def relabel_axes(self, perm) -> "Monomial":
        return Monomial(tuple((s, perm[c]) for s, c in self.factors))

    def flip_sign(self, flip_axes) -> int:
        odd = sum(1 for _, c in self.factors if c in flip_axes)
        return -1 if odd % 2 else 1

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for (s, c), grp in itertools.groupby(self.factors):
            e = len(list(grp))
            parts.append(f"{_COMP_NAMES[c]}{s}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts)


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial list for one relaxation level, constant first.

    Level l contains every monomial of degree <= l; ``extras`` appends
    higher-degree monomials for hybrid levels.
    """

    level: int
    n_sites: int
    monomials: tuple
    extras: tuple = ()

    def __len__(self):
        return len(self.monomials)

    def index(self) -> dict:
        return {m: i for i, m in enumerate(self.monomials)}


def monomial_basis(n_sites: int, level: int, extras=()) -> MonomialBasis:
    """All monomials of degree <= level over n_sites qubits, graded-lex
    ordered, optionally extended by distinct monomials of higher degree."""
    n_sites = int(n_sites)
    level = int(level)
    if n_sites < 1 or level < 1:
        raise BadKey(f"need n_sites >= 1 and level >= 1, got ({n_sites}, {level})")
    symbols = [(i, c) for i in range(n_sites) for c in range(3)]
    monos = [Monomial.one()]
    for deg in range(1, level + 1):
        layer = {Monomial(comb) for comb in itertools.combinations_with_replacement(symbols, deg)}
        monos.extend(sorted(layer, key=Monomial.key))
    extra_set = []
    for m in extras:
        if not isinstance(m, Monomial):
            m = Monomial(tuple(m))
        if m.degree <= level:
            raise BadKey(f"extra monomial {m} has degree <= level {level}")
        for s, c in m.factors:
            if not (0 <= s < n_sites and 0 <= c <= 2):
                raise BadKey(f"extra monomial {m} references invalid factor ({s}, {c})")
        if m not in extra_set:
            extra_set.append(m)
    extra_set.sort(key=Monomial.key)
    return MonomialBasis(level=level, n_sites=n_sites,
                         monomials=tuple(monos) + tuple(extra_set),
                         extras=tuple(extra_set))


def reduce_monomial(m: Monomial, _memo={}) -> dict:
    """Normal form under z_i^2 -> 1 - x_i^2 - y_i^2 per site.

    Returns a dict mapping monomials with z-exponent <= 1 on every site to
    rational coefficients; expectation values of the input and of the
    returned combination agree for any distribution on the product of unit
    spheres.
    """
    try:
        return _memo[m]
    except KeyError:
        pass
    target = None
    counts = {}
    for f in m.factors:
        counts[f] = counts.get(f, 0) + 1
        if f[1] == 2 and counts[f] == 2:
            target = f
            break
    if target is None:
        _memo[m] = {m: 1.0}
        return _memo[m]
    rest = list(m.factors)
    rest.remove(target)
    rest.remove(target)
    rest = Monomial(tuple(rest))
    site = target[0]
    out = {}
    for sub, coeff in ((rest, 1.0),
                       (rest * Monomial(((site, 0), (site, 0))), -1.0),
                       (rest * Monomial(((site, 1), (site, 1))), -1.0)):
        for mono, c in reduce_monomial(sub).items():
            out[mono] = out.get(mono, 0.0) + coeff * c
    out = {mono: c for mono, c in out.items() if c != 0.0}
    _memo[m] = out
    return out


# -- symmetrization schemes ----------------------------------------------------


class SchemeKind(str, enum.Enum):
    GENERAL = "general"
    AXIS_DIAGONAL = "axis"
    TRANSVERSE_SYMMETRIC = "transverse"
    ROTATION_INVARIANT = "rotation"


@dataclass(frozen=True)
class SymmetryScheme:
    """Axis-relabeling group under which the dataset constraints are invariant.

    ``flip_axes`` lists axes whose global sign flip preserves the data;
    ``swap_classes`` partitions the axes into interchangeable groups.  The
    induced group averaging justifies forcing unknown moments to zero or
    tying them together without loss of generality.
    """

    kind: SchemeKind
    flip_axes: frozenset = frozenset()
    swap_classes: tuple = ((0,), (1,), (2,))

    def group_elements(self):
        """All (axis permutation, axis signs) pairs of the scheme group."""
        perm_choices = []
        for cls in self.swap_classes:
            perm_choices.append([dict(zip(cls, p)) for p in itertools.permutations(cls)])
        perms = []
        for combo in itertools.product(*perm_choices):
            perm = {}
            for d in combo:
                perm.update(d)
            perms.append(tuple(perm[c] for c in range(3)))
        flips = sorted(self.flip_axes)
        signs = []
        for bits in itertools.product((1, -1), repeat=len(flips)):
            s = [1, 1, 1]
            for ax, b in zip(flips, bits):
                s[ax] = b
            signs.append(tuple(s))
        return [(p, s) for p in perms for s in signs]


GENERAL_SCHEME = SymmetryScheme(kind=SchemeKind.GENERAL)


def _axis_flippable(ds: CorrelationDataset, axis: int) -> bool:
    for (i, a), v in ds.one_items():
        if int(a) == axis and v != 0.0:
            return False
    for (i, j, a, b), v in ds.two_items():
        if (int(a) == axis) != (int(b) == axis) and v != 0.0:
            return False
    return True


def _axes_swappable(ds: CorrelationDataset, a: int, b: int) -> bool:
    """Is the dataset (presence and values) invariant under globally
    exchanging axes a and b?"""
    perm = {a: b, b: a}
    for c in range(3):
        perm.setdefault(c, c)
    one = ds.one_body
    for (i, ax), v in one.items():
        if one.get((i, PauliAxis(perm[int(ax)]))) != v:
            return False
    two = ds.two_body
    for (i, j, ax, bx), v in two.items():
        pa, pb = perm[int(ax)], perm[int(bx)]
        key = (i, j, PauliAxis(pa), PauliAxis(pb))
        if two.get(key) != v:
            return False
    return True


def select_scheme(ds: CorrelationDataset) -> SymmetryScheme:
    """Pick the strongest scheme whose validity the dataset shape proves.

    Flips require the flipped-sign correlators to be zero-valued or absent;
    swaps additionally require the two axes' correlators to match entry for
    entry.  Anything else falls back to the general layout.
    """
    flippable = frozenset(a for a in range(3) if _axis_flippable(ds, a))
    swap_pairs = [(a, b) for a, b in itertools.combinations(range(3), 2)
                  if a in flippable and b in flippable and _axes_swappable(ds, a, b)]
    if len(swap_pairs) == 3:
        return SymmetryScheme(SchemeKind.ROTATION_INVARIANT, frozenset(range(3)), ((0, 1, 2),))
    if swap_pairs:
        a, b = swap_pairs[0]
        third = ({0, 1, 2} - {a, b}).pop()
        return SymmetryScheme(SchemeKind.TRANSVERSE_SYMMETRIC, flippable,
                              (tuple(sorted((a, b))), (third,)))
    if len(flippable) >= 2:
        return SymmetryScheme(SchemeKind.AXIS_DIAGONAL, flippable)
    return GENERAL_SCHEME


def check_scheme_valid(ds: CorrelationDataset, scheme: SymmetryScheme) -> None:
    """Raise SchemeMismatch unless the dataset constraints are invariant under
    every element of the scheme group."""
    if scheme.kind is SchemeKind.GENERAL:
        return
    one, two = ds.one_body, ds.two_body
    for perm, signs in scheme.group_elements():
        for (i, a), v in one.items():
            ta = perm[int(a)]
            tv = signs[int(a)] * v
            got = one.get((i, PauliAxis(ta)))
            if got != tv:
                raise SchemeMismatch(
                    f"scheme {scheme.kind.value} maps {one_body_label(i, a)}={v} onto "
                    f"{one_body_label(i, PauliAxis(ta))}={got}, expected {tv}")
        for (i, j, a, b), v in two.items():
            ta, tb = perm[int(a)], perm[int(b)]
            tv = signs[int(a)] * signs[int(b)] * v
            got = two.get((i, j, PauliAxis(ta), PauliAxis(tb)))
            if got != tv:
                raise SchemeMismatch(
                    f"scheme {scheme.kind.value} maps {two_body_label(i, j, a, b)}={v} onto "
                    f"{two_body_label(i, j, PauliAxis(ta), PauliAxis(tb))}={got}, expected {tv}")


# -- entry kinds and layout -----------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Data:
    label: str
    coefficient: float = 1.0


@dataclass(frozen=True)
class FreeVar:
    var_id: int


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class EntryExpr:
    """Affine value of one entry: const + sum(coeff*(1-lam)*C_label) + sum(coeff*u_var)."""

    const: float = 0.0
    data: tuple = ()         # ((label, C_value, coeff), ...)
    vars: tuple = ()         # ((var_index, coeff), ...)


@dataclass
class MomentMatrixLayout:
    """Symbolic layout of the moment matrix for one dataset and scheme.

    ``entry_kind`` maps canonical positions (r <= c) to Constant / Data /
    FreeVar / Zero; ``free_var_count`` counts the independent unknowns after
    tie-merging and per-site elimination through the quadratic constraint.

    At levels >= 2 the full basis contains {1, x_i^2, y_i^2, z_i^2}, which
    are linearly dependent on the sphere, so every valid moment matrix is
    singular.  The solver therefore works on the facially reduced sub-basis
    of normal-form monomials (per-site z-exponent <= 1); ``solver_monos``,
    ``solver_exprs`` and ``expansion`` describe that equivalent reduction,
    with the full matrix recovered as E Gamma_red E^T.
    """

    basis: MonomialBasis
    scheme: SymmetryScheme
    n_sites: int
    entry_kind: dict
    free_var_count: int
    # internal: the unknowns' monomials and the solver-basis entry expressions
    var_reps: list = field(repr=False, default_factory=list)
    solver_monos: tuple = field(repr=False, default=())
    solver_exprs: dict = field(repr=False, default_factory=dict)
    expansion: list = field(repr=False, default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def solver_dim(self) -> int:
        return len(self.solver_monos)

    def expansion_matrix(self) -> np.ndarray:
        """E with row m giving the normal-form expansion of the m-th full
        basis monomial over the solver sub-basis (identity at level 1)."""
        e = np.zeros((self.dim, self.solver_dim))
        for r, terms in enumerate(self.expansion):
            for c, coeff in terms:
                e[r, c] = coeff
        return e

    def kind(self, r: int, c: int):
        return self.entry_kind[(min(r, c), max(r, c))]

    def basis_action(self, perm, signs):
        """Action of one group element on basis indices: index permutation and
        per-index sign (every relabeled basis monomial is again in the basis)."""
        index = self.basis.index()
        n = len(self.basis)
        tgt = np.empty(n, dtype=int)
        sgn = np.empty(n, dtype=float)
        for i, m in enumerate(self.basis.monomials):
            m2 = m.relabel_axes(perm)
            tgt[i] = index[m2]
            sgn[i] = m.flip_sign({a for a in range(3) if signs[a] == -1})
        return tgt, sgn

    def render_grid(self) -> str:
        """Compact text grid of entry kinds: 1 constant-one, C constant,
        D data, F free, . zero."""
        D = self.dim
        rows = []
        for r in range(D):
            chars = []
            for c in range(D):
                kind = self.kind(r, c)
                if isinstance(kind, Constant):
                    chars.append("1" if kind.value == 1.0 else "C")
                elif isinstance(kind, Data):
                    chars.append("D")
                elif isinstance(kind, FreeVar):
                    chars.append("F")
                else:
                    chars.append(".")
            rows.append("".join(chars))
        return "\n".join(rows)


def _dataset_moment(ds: CorrelationDataset, m: Monomial):
    """(label, value) when the monomial is a stored correlator, else None."""
    if m.degree == 1:
        (i, c), = m.factors
        v = ds.get_one(i, PauliAxis(c))
        if v is not None:
            return one_body_label(i, PauliAxis(c)), v
        return None
    if m.degree == 2:
        (i, a), (j, b) = m.factors
        if i != j:
            v = ds.get_two(i, j, PauliAxis(a), PauliAxis(b))
            if v is not None:
                return two_body_label(i, j, PauliAxis(a), PauliAxis(b)), v
    return None


def _orbit(m: Monomial, group):
    """Signed orbit of a monomial under the scheme group.

    Returns (zero_forced, {member: sign}); a member reachable with both signs
    forces the moment to zero.
    """
    seen = {}
    for perm, signs in group:
        m2 = m.relabel_axes(perm)
        s = m.flip_sign({a for a in range(3) if signs[a] == -1})
        if m2 in seen and seen[m2] != s:
            return True, {}
        seen[m2] = s
    return False, seen


def build_layout(basis: MonomialBasis, ds: CorrelationDataset,
                 scheme: SymmetryScheme = GENERAL_SCHEME) -> MomentMatrixLayout:
    """Classify every moment-matrix entry for the given dataset and scheme.

    Schemes other than General are proven only for the degree-1 basis; the
    general layout supports any level and hybrid extras, reducing entries to
    normal form under the per-site quadratic constraint.  The data must carry
    the scheme's shape exactly, or SchemeMismatch is raised.
    """
    if ds.n_sites != basis.n_sites:
        raise BadKey(f"dataset has {ds.n_sites} sites, basis was built for {basis.n_sites}")
    hybrid = basis.level > 1 or bool(basis.extras)
    if hybrid and scheme.kind is not SchemeKind.GENERAL:
        raise SchemeMismatch("symmetrization schemes are established only for the "
                             "level-1 basis; use the general scheme at higher levels")
    check_scheme_valid(ds, scheme)

    monos = basis.monomials
    D = len(monos)
    n = ds.n_sites
    group = scheme.group_elements()
    general = scheme.kind is SchemeKind.GENERAL

    def is_normal(m: Monomial) -> bool:
        counts = {}
        for f in m.factors:
            counts[f] = counts.get(f, 0) + 1
        return all(k < 2 for f, k in counts.items() if f[1] == 2)

    if hybrid:
        for m in basis.extras:
            if not is_normal(m):
                raise BadKey(
                    f"extra monomial {m} contains a squared z factor; its row adds "
                    f"nothing beyond the normal-form monomials of its expansion, "
                    f"which should be supplied as extras instead")

    sq = {(i, a): Monomial(((i, a), (i, a))) for i in range(n) for a in range(3)}

    # Reduced (internal) variables: one per representative monomial.
    var_index = {}
    var_reps = []

    def var_of(rep: Monomial) -> int:
        if rep not in var_index:
            var_index[rep] = len(var_reps)
            var_reps.append(rep)
        return var_index[rep]

    # Public FreeVar ids: one per representative monomial, including the
    # per-site square eliminated through the quadratic constraint.
    public_index = {}

    def public_of(rep: Monomial) -> int:
        if rep not in public_index:
            public_index[rep] = len(public_index)
        return public_index[rep]

    moment_expr = {}
    moment_kind = {}
    _general_cache = {}

    def classify_general(m: Monomial):
        if m in _general_cache:
            return _general_cache[m]
        terms = reduce_monomial(m)
        const = 0.0
        data = {}
        varc = {}
        for nm, cf in terms.items():
            if nm.degree == 0:
                const += cf
                continue
            dm = _dataset_moment(ds, nm)
            if dm is not None:
                label, val = dm
                prev = data.get(label, (val, 0.0))
                data[label] = (val, prev[1] + cf)
            else:
                vid = var_of(nm)
                varc[vid] = varc.get(vid, 0.0) + cf
        out = EntryExpr(const=const,
                        data=tuple((lbl, vv, cc) for lbl, (vv, cc) in sorted(data.items())),
                        vars=tuple(sorted(varc.items())))
        _general_cache[m] = out
        return out

    # Facially reduced solver basis: at levels >= 2 the full basis functions
    # are linearly dependent on the sphere (per-site square sums), so the
    # solver works on the normal-form sub-basis spanning the same relaxation.
    if hybrid:
        solver_monos = tuple(m for m in monos if is_normal(m))
        sub_index = {m: i for i, m in enumerate(solver_monos)}
        solver_exprs = {}
        for r in range(len(solver_monos)):
            for c in range(r, len(solver_monos)):
                solver_exprs[(r, c)] = classify_general(solver_monos[r] * solver_monos[c])
        expansion = []
        for m in monos:
            if is_normal(m):
                expansion.append(((sub_index[m], 1.0),))
            else:
                expansion.append(tuple(sorted(
                    (sub_index[nm], cf) for nm, cf in reduce_monomial(m).items())))
    else:
        solver_monos = monos
        solver_exprs = None  # shares the public entry expressions
        expansion = [((i, 1.0),) for i in range(D)]

    def orbit_rep(m: Monomial):
        """(zero_forced, representative, sign); data members are excluded from
        representative choice so an out-of-shape forced scheme degrades to
        untied unknowns instead of inventing constraints."""
        zero, members = _orbit(m, group)
        if zero:
            return True, m, 1
        candidates = {mm: s for mm, s in members.items()
                      if mm == m or _dataset_moment(ds, mm) is None}
        rep = min(candidates, key=Monomial.key)
        return False, rep, candidates[rep]

    if not general:
        # Per-site diagonal squares: tie by orbit, then eliminate one class
        # through x^2 + y^2 + z^2 = 1.
        for i in range(n):
            reps = []
            for a in range(3):
                # squares are even in every axis, so never sign-forced to zero
                _, rep, _ = orbit_rep(sq[(i, a)])
                reps.append(rep)
            classes = list(dict.fromkeys(reps))
            if len(classes) == 1:
                for a in range(3):
                    moment_expr[sq[(i, a)]] = EntryExpr(const=1.0 / 3.0)
                    moment_kind[sq[(i, a)]] = Constant(1.0 / 3.0)
            elif len(classes) == 2:
                duo = classes[0] if reps.count(classes[0]) == 2 else classes[1]
                solo = classes[1] if duo is classes[0] else classes[0]
                u = var_of(duo)
                for a in range(3):
                    if reps[a] is duo or reps[a] == duo:
                        moment_expr[sq[(i, a)]] = EntryExpr(vars=((u, 1.0),))
                        moment_kind[sq[(i, a)]] = FreeVar(public_of(duo))
                    else:
                        moment_expr[sq[(i, a)]] = EntryExpr(const=1.0, vars=((u, -2.0),))
                        moment_kind[sq[(i, a)]] = FreeVar(public_of(solo))
            else:
                u0, u1 = var_of(reps[0]), var_of(reps[1])
                moment_expr[sq[(i, 0)]] = EntryExpr(vars=((u0, 1.0),))
                moment_expr[sq[(i, 1)]] = EntryExpr(vars=((u1, 1.0),))
                moment_expr[sq[(i, 2)]] = EntryExpr(const=1.0, vars=tuple(sorted(
                    ((u0, -1.0), (u1, -1.0)))))
                for a in range(3):
                    moment_kind[sq[(i, a)]] = FreeVar(public_of(reps[a]))

    entry_kind = {}
    exprs = {}
    one_mono = Monomial.one()
    for r in range(D):
        for c in range(r, D):
            m = monos[r] * monos[c]
            if m in moment_kind:
                entry_kind[(r, c)] = moment_kind[m]
                exprs[(r, c)] = moment_expr[m]
                continue
            if m == one_mono:
                kind, expr = Constant(1.0), EntryExpr(const=1.0)
            else:
                dm = _dataset_moment(ds, m)
                if dm is not None:
                    label, val = dm
                    kind = Data(label)
                    expr = EntryExpr(data=((label, val, 1.0),))
                elif general:
                    expr = classify_general(m)
                    kind = FreeVar(public_of(m))
                else:
                    zero, rep, sgn = orbit_rep(m)
                    if zero:
                        kind, expr = Zero(), EntryExpr()
                    else:
                        kind = FreeVar(public_of(rep))
                        expr = EntryExpr(vars=((var_of(rep), float(sgn)),))
            moment_kind[m] = kind
            moment_expr[m] = expr
            entry_kind[(r, c)] = kind
            exprs[(r, c)] = expr

    return MomentMatrixLayout(
        basis=basis, scheme=scheme, n_sites=n,
        entry_kind=entry_kind, free_var_count=len(var_reps), var_reps=var_reps,
        solver_monos=solver_monos,
        solver_exprs=exprs if solver_exprs is None else solver_exprs,
        expansion=expansion)


def layout_for(ds: CorrelationDataset, level: int = 1, scheme=None,
               extras=()) -> MomentMatrixLayout:
    """Basis + scheme selection + layout in one step.

    ``scheme=None`` auto-detects at level 1 and uses the general scheme at
    higher levels or with extras.
    """
    basis = monomial_basis(ds.n_sites, level, extras)
    if scheme is None:
        scheme = select_scheme(ds) if (level == 1 and not extras) else GENERAL_SCHEME
    return build_layout(basis, ds, scheme)


# -- the fully reduced closed form ---------------------------------------------


def closed_form_check(ds: CorrelationDataset, tol: float = 1e-9):
    """Rotation-invariant shortcut: with only the sums c_ij = C^XX+C^YY+C^ZZ
    known for every pair, separability compatibility reduces to positive
    semidefiniteness of M with M_ii = 1 and M_ij = c_ij.

    Returns (is_psd, min_eigenvalue).
    """
    scheme = select_scheme(ds)
    if scheme.kind is not SchemeKind.ROTATION_INVARIANT:
        raise SchemeMismatch("closed-form check needs a dataset carrying only the "
                             "rotation-averaged sums c_ij (equal XX=YY=ZZ entries, "
                             "no one-body or cross-axis data)")
    n = ds.n_sites
    m = np.eye(n)
    missing = []
    for i in range(n):
        for j in range(i + 1, n):
            triple = [ds.get_two(i, j, a, a) for a in AXES]
            if any(v is None for v in triple):
                missing.append(two_body_label(i, j, PauliAxis.X, PauliAxis.X))
                continue
            m[i, j] = m[j, i] = sum(triple)
    if missing:
        raise MissingData(
            f"closed-form check needs all pair sums; {len(missing)} pairs absent", missing)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return min_eig >= -tol, min_eig
