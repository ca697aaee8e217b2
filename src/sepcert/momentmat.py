"""Monomial bases, symmetrization schemes, and the symbolic moment-matrix layout.

The moment matrix collects expectations of products of classical Bloch
variables.  A layout classifies every entry as a constant, a dataset value
(scaled by the noise variable), a free unknown, or a forced zero, and gives
each entry of the solver basis its affine expression over the independent
unknowns.  The per-site quadratic constraint x_i^2 + y_i^2 + z_i^2 = 1 is
built into those expressions: a square z_i^2 is written as 1 - x_i^2 - y_i^2.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from .corrdata import AXES, SAME_AXIS, CorrelationDataset, one_body_label, two_body_label
from .errors import BadKey, SchemeMismatch

_COMP_NAMES = "xyz"
# Symbolic layouts kept per dataset shape, least recently used out first.
# The benchmark's sweeps repeat at most three shapes between two calls of
# one shape: product n=4 and n=8, Heisenberg and Ising n=10, one quench
# shape, and on the 3-qubit panel the full-data shape between each item's
# two partial shapes (which recur only a sweep later, 20 shapes on).
LAYOUT_CACHE_SIZE = 4


# -- monomials ----------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """Product of Bloch-variable factors, stored as a sorted multiset of
    (site, component) pairs; the empty product is the constant 1."""

    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(map(tuple, self.factors))))
        object.__setattr__(self, "_hash", hash(self.factors))

    def __hash__(self):  # cached: a layout hashes each monomial many times
        return self._hash

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


def _squared_z(m: Monomial):
    """The first z factor that occurs twice in m, or None when m is in
    normal form (per-site z-exponent at most 1)."""
    prev = None
    for f in m.factors:  # sorted, so equal factors are adjacent
        if f == prev and f[1] == 2:
            return f
        prev = f
    return None


def reduce_monomial(m: Monomial, _memo={}) -> dict:
    """Normal form under z_i^2 -> 1 - x_i^2 - y_i^2 per site.

    Returns a dict mapping monomials with z-exponent <= 1 on every site to
    rational coefficients; expectation values of the input and of the
    returned combination agree for any distribution on the product of unit
    spheres.
    """
    out = _memo.get(m)
    if out is not None:
        return out
    target = _squared_z(m)
    if target is None:  # already in normal form; the memo keeps reducible monomials only
        return {m: 1.0}
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
        """All (axis permutation, axis signs) pairs of the scheme group, the
        identity first."""
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

_IDENTITY = (0, 1, 2)
_NO_FLIP = (1, 1, 1)


def _flip(axis: int) -> tuple:
    return tuple(-1 if c == axis else 1 for c in range(3))


def _swap(a: int, b: int) -> tuple:
    return tuple(b if c == a else a if c == b else c for c in range(3))


def _mismatch(ds: CorrelationDataset, perm, signs):
    """First stored correlator that the axis map (perm, signs) does not carry
    onto an equal stored value, as (label, value, image label, stored image
    value or None, expected value); None when the map preserves the data.
    An absent image is NaN in the dense view, which equals no expected value."""
    one, two = ds.arrays()
    s = np.asarray(signs, dtype=float)
    p = list(perm)
    # x == x selects the stored entries; NaN marks an absent one
    bad = np.flatnonzero((one == one) & (one.take(p, axis=1) != one * s))
    if bad.size:
        i, a = divmod(int(bad[0]), 3)
        v, got = float(one[i, a]), float(one[i, p[a]])
        return (one_body_label(i, AXES[a]), v, one_body_label(i, AXES[p[a]]),
                None if got != got else got, float(s[a]) * v)
    pairs = two.transpose(0, 2, 1, 3)  # (i, j, a, b): the first hit has i < j
    ss = s[:, None] * s
    bad = np.flatnonzero((pairs == pairs) & (pairs.take(p, axis=2).take(p, axis=3) != pairs * ss))
    if bad.size:
        ij, ab = divmod(int(bad[0]), 9)
        (i, j), (a, b) = divmod(ij, ds.n_sites), divmod(ab, 3)
        v, got = float(pairs[i, j, a, b]), float(pairs[i, j, p[a], p[b]])
        return (two_body_label(i, j, AXES[a], AXES[b]), v,
                two_body_label(i, j, AXES[p[a]], AXES[p[b]]),
                None if got != got else got, float(ss[a, b]) * v)
    return None


def select_scheme(ds: CorrelationDataset) -> SymmetryScheme:
    """Pick the strongest scheme whose validity the dataset shape proves.

    Flips require the flipped-sign correlators to be zero-valued or absent;
    swaps additionally require the two axes' correlators to match entry for
    entry.  Anything else falls back to the general layout.
    """
    flippable = frozenset(a for a in range(3) if _mismatch(ds, _IDENTITY, _flip(a)) is None)
    swap_pairs = [(a, b) for a, b in itertools.combinations(sorted(flippable), 2)
                  if _mismatch(ds, _swap(a, b), _NO_FLIP) is None]
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
    the scheme group.

    Only the generators are checked: each flip axis and each transposition
    inside a swap class.  Every group element is a product of generators, and
    a product of maps that carry the stored correlators onto themselves does
    so too.
    """
    generators = [(_IDENTITY, _flip(a)) for a in sorted(scheme.flip_axes)]
    generators += [(_swap(a, b), _NO_FLIP) for cls in scheme.swap_classes
                   for a, b in itertools.combinations(cls, 2)]
    for perm, signs in generators:
        bad = _mismatch(ds, perm, signs)
        if bad is not None:
            label, v, image, got, tv = bad
            raise SchemeMismatch(f"scheme {scheme.kind.value} maps {label}={v} onto "
                                 f"{image}={got}, expected {tv}")


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


@dataclass
class MomentMatrixLayout:
    """Symbolic layout of the moment matrix for one dataset and scheme.

    ``kind_code`` holds, at every full-basis position, the grid character of
    its entry kind (C constant, D data, F free, . zero) as a byte, and
    ``kind_payload`` the constant's value, the data slot or the FreeVar id;
    ``kind`` decodes them.  ``free_var_count`` counts the independent
    unknowns after tie-merging and per-site elimination through the
    quadratic constraint.  ``labels`` names the correlator of each data
    slot, and ``values`` holds the stored correlators in slot order.  Every
    other field depends on the shape only and is the template's own, which
    no caller modifies.

    At levels >= 2 the full basis contains {1, x_i^2, y_i^2, z_i^2}, which
    are linearly dependent on the sphere, so every valid moment matrix is
    singular.  The solver therefore works on the facially reduced sub-basis
    of normal-form monomials (per-site z-exponent <= 1); ``solver_monos``,
    the term arrays and ``expansion`` describe that equivalent reduction,
    with the full matrix recovered as E Gamma_red E^T.  The solver-basis
    entry (r, c), r <= c, is the affine expression
    const + sum coeff*(1-lam)*values[slot] + sum coeff*u_var over its terms
    in ``const_terms`` (row, col, value), ``data_terms`` (row, col, slot,
    coeff) and ``var_terms`` (row, col, var, coeff), all in (r, c) order.
    """

    basis: MonomialBasis
    scheme: SymmetryScheme
    n_sites: int
    kind_code: np.ndarray
    kind_payload: np.ndarray
    free_var_count: int
    labels: tuple = ()
    # internal: the unknowns' monomials and the solver-basis program
    var_reps: tuple = field(repr=False, default=())
    solver_monos: tuple = field(repr=False, default=())
    const_terms: tuple = field(repr=False, default=())
    data_terms: tuple = field(repr=False, default=())
    var_terms: tuple = field(repr=False, default=())
    expansion: tuple = field(repr=False, default=())
    # (image slot, sign) arrays of the data slots under every non-identity
    # scheme group element, in group_elements() order
    slot_actions: tuple = field(repr=False, default=())
    values: tuple = field(repr=False, default=())

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
        code, value = chr(self.kind_code[r, c]), self.kind_payload[r, c]
        if code == "C":
            return Constant(float(value))
        if code == "D":
            return Data(self.labels[int(value)])
        if code == "F":
            return FreeVar(int(value))
        return Zero()

    def render_grid(self) -> str:
        """Compact text grid of entry kinds: 1 constant-one, C constant,
        D data, F free, . zero."""
        grid = np.where((self.kind_code == ord("C")) & (self.kind_payload == 1.0),
                        ord("1"), self.kind_code).astype(np.uint8)
        return "\n".join(row.tobytes().decode("ascii") for row in grid)


def _stored_moments(ds: CorrelationDataset):
    """Stored correlators keyed by their monomial's factors, {factors:
    (label, slot)}, and the flat indices into ``ds.arrays()`` of the slots'
    values: one-body slots first, then two-body."""
    n = ds.n_sites
    one = [(i, a) for (i, a), _ in ds.one_items()]
    two = [(i, j, a, b) for (i, j, a, b), _ in ds.two_items()]
    out = {((i, int(a)),): (one_body_label(i, a), k) for k, (i, a) in enumerate(one)}
    out.update((((i, int(a)), (j, int(b))), (two_body_label(i, j, a, b), len(one) + k))
               for k, (i, j, a, b) in enumerate(two))
    index = (np.array([3 * i + a for i, a in one], dtype=np.intp),
             np.array([3 * n * (3 * i + a) + 3 * j + b for i, j, a, b in two], dtype=np.intp))
    return out, index


def _slot_actions(n: int, index, scheme: SymmetryScheme) -> tuple:
    """Image slot and sign of every data slot under each non-identity element
    of the scheme group, from the slots' flat indices ``index`` (see
    ``_stored_moments``); the scheme must map stored correlators to stored ones."""
    one, two = index
    a, b, c = one % 3, two // (3 * n) % 3, two % 3
    flat = np.concatenate((one, 3 * n + two))   # one-body flat indices, then two-body ones
    order = np.argsort(flat).astype(np.int32)   # 4 + 1 bytes per slot and element

    def action(perm, signs):
        p, s = np.array(perm), np.array(signs, dtype=np.int8)
        image = np.hstack((one - a + p[a], two + 3 * n * (1 + p[b] - b) + p[c] - c))
        return order[np.searchsorted(flat, image, sorter=order)], np.hstack((s[a], s[b] * s[c]))

    return tuple(action(*element) for element in scheme.group_elements()[1:])


def _check_basis(basis: MonomialBasis, ds: CorrelationDataset, scheme: SymmetryScheme):
    if ds.n_sites != basis.n_sites:
        raise BadKey(f"dataset has {ds.n_sites} sites, basis was built for {basis.n_sites}")
    if (basis.level > 1 or basis.extras) and scheme.kind is not SchemeKind.GENERAL:
        raise SchemeMismatch("symmetrization schemes are established only for the "
                             "level-1 basis; use the general scheme at higher levels")
    for m in basis.extras:
        if _squared_z(m) is not None:
            raise BadKey(
                f"extra monomial {m} contains a squared z factor; its row adds "
                f"nothing beyond the normal-form monomials of its expansion, "
                f"which should be supplied as extras instead")


def _columns(terms, width: int) -> tuple:
    """The columns of (index, ..., coefficient) tuples: integer index arrays,
    then the coefficients."""
    a = np.array(terms, dtype=float).reshape(len(terms), width).T
    return (*a[:-1].astype(np.intp), a[-1].copy())


def _bind(template: MomentMatrixLayout, index, ds: CorrelationDataset) -> MomentMatrixLayout:
    """The layout of ``ds`` from a template of its shape: the template with
    the dataset's values, gathered in slot order through ``index``."""
    one, two = ds.arrays()
    vals = np.concatenate((one.ravel()[index[0]], two.ravel()[index[1]]))
    return dataclasses.replace(template, values=tuple(vals.tolist()))


def build_layout(basis: MonomialBasis, ds: CorrelationDataset,
                 scheme: SymmetryScheme = GENERAL_SCHEME) -> MomentMatrixLayout:
    """Classify every moment-matrix entry for the given dataset and scheme.

    One rule classifies the product m of two basis monomials, in order: the
    constant 1 is a Constant; a stored correlator is Data; a moment that the
    scheme group forces to zero by sign is Zero; anything else is a FreeVar
    of its orbit representative.  The entry's expression sums the normal-form
    terms of m, each a constant, a datum, or +- the unknown of that term's
    own orbit representative.  Only the per-site squares that the group ties
    together keep a table of their own.

    Schemes other than General are proven only for the degree-1 basis; the
    general layout supports any level and hybrid extras.  The data must carry
    the scheme's shape exactly, or SchemeMismatch is raised.
    """
    _check_basis(basis, ds, scheme)
    check_scheme_valid(ds, scheme)
    return _bind(*_template(basis, ds, scheme), ds)


def _template(basis: MonomialBasis, ds: CorrelationDataset,
              scheme: SymmetryScheme):
    """The layout of the dataset's shape, with no ``values``, and the flat
    indices into ``ds.arrays()`` of its data slots (see ``_stored_moments``);
    nothing here reads a value."""
    stored, index = _stored_moments(ds)
    moves = [(perm, frozenset(a for a in range(3) if signs[a] == -1))
             for perm, signs in scheme.group_elements() if (perm, signs) != (_IDENTITY, _NO_FLIP)]
    var_index = {}      # orbit representative -> solver unknown
    public_index = {}   # orbit representative -> public FreeVar id
    orbits = {}
    memo = {}           # monomial -> (kind code, payload, const, data terms, var terms)

    def var_of(rep: Monomial) -> int:
        return var_index.setdefault(rep, len(var_index))

    def public_of(rep: Monomial) -> int:
        return public_index.setdefault(rep, len(public_index))

    def orbit_rep(m: Monomial):
        """(zero_forced, representative, sign) of the signed orbit of m; a
        member reachable with both signs forces the moment to zero."""
        out = orbits.get(m)
        if out is None:
            members = {m: 1}
            for perm, flips in moves:
                s = m.flip_sign(flips)
                if members.setdefault(m.relabel_axes(perm), s) != s:
                    out = orbits[m] = (True, m, 1)
                    break
            else:
                rep = min(members, key=Monomial.key)
                out = orbits[m] = (False, rep, members[rep])
        return out

    # Squares that the group ties together are eliminated through
    # x_i^2 + y_i^2 + z_i^2 = 1 after tying: a class of three is pinned at
    # 1/3; with a class of two, both are one unknown u and the third square
    # is 1 - 2u.  Untied squares go through the rule like any other moment.
    if len(scheme.swap_classes) < 3:
        swap_class = {a: cls for cls in scheme.swap_classes for a in cls}
        for i in range(basis.n_sites):
            sq = [Monomial(((i, a), (i, a))) for a in range(3)]
            duo = [sq[a] for a in range(3) if len(swap_class[a]) == 2]
            for a in range(3):
                cls = swap_class[a]
                if len(cls) == 3:
                    memo[sq[a]] = "C", 1.0 / 3.0, 1.0 / 3.0, (), ()
                    continue
                u = var_of(duo[0])
                memo[sq[a]] = ("F", public_of(sq[min(cls)]), *(
                    (0.0, (), ((u, 1.0),)) if len(cls) == 2 else (1.0, (), ((u, -2.0),))))

    def classify(m: Monomial):
        out = memo.get(m)
        if out is not None:
            return out
        const, data, varc = 0.0, {}, {}
        for nm, cf in reduce_monomial(m).items():
            dm = stored.get(nm.factors)
            if not nm.factors:
                const += cf
            elif dm is not None:
                label, slot = dm
                data[label] = (slot, data.get(label, (slot, 0.0))[1] + cf)
            else:
                zero, rep, sgn = orbit_rep(nm)
                if not zero:
                    vid = var_of(rep)
                    varc[vid] = varc.get(vid, 0.0) + sgn * cf
        dm = stored.get(m.factors)
        if not m.factors:
            kind = "C", 1.0
        elif dm is not None:
            kind = "D", dm[1]
        else:
            zero, rep, _ = orbit_rep(m)
            kind = (".", 0) if zero else ("F", public_of(rep))
        out = memo[m] = (*kind, const, tuple(sk for _, sk in sorted(data.items())),
                         tuple(sorted(varc.items())))
        return out

    # Facially reduced solver basis: at levels >= 2 the full basis functions
    # are linearly dependent on the sphere (per-site square sums), so the
    # solver works on the normal-form sub-basis spanning the same relaxation.
    # At level 1 every basis monomial is in normal form.
    monos = basis.monomials
    solver_monos = tuple(m for m in monos if _squared_z(m) is None)
    sub_index = {m: i for i, m in enumerate(solver_monos)}
    sub = [sub_index.get(m) for m in monos]
    expansion = tuple(tuple(sorted((sub_index[nm], cf) for nm, cf in reduce_monomial(m).items()))
                      for m in monos)
    codes, payload, consts, data, varc = [], [], [], [], []
    for r, mr in enumerate(monos):
        for c in range(r, len(monos)):
            code, value, const, dterms, vterms = classify(mr * monos[c])
            codes.append(code)
            payload.append(value)
            if sub[r] is not None and sub[c] is not None:
                rc = sub[r], sub[c]
                if const:
                    consts.append((*rc, const))
                data.extend((*rc, *t) for t in dterms)
                varc.extend((*rc, *t) for t in vterms)
    upper = np.triu_indices(len(monos))
    kind_code = np.zeros((len(monos), len(monos)), dtype=np.uint8)
    kind_payload = np.zeros(kind_code.shape)
    for full, part in ((kind_code, np.frombuffer("".join(codes).encode(), np.uint8)),
                       (kind_payload, payload)):
        full[upper] = full.T[upper] = part  # symmetric, filled from the upper triangle
    layout = MomentMatrixLayout(
        basis=basis, scheme=scheme, n_sites=basis.n_sites, kind_code=kind_code,
        kind_payload=kind_payload, free_var_count=len(var_index), labels=tuple(label for label, _ in stored.values()),
        var_reps=tuple(var_index), solver_monos=solver_monos, const_terms=_columns(consts, 3),
        data_terms=_columns(data, 4), var_terms=_columns(varc, 4), expansion=expansion,
        slot_actions=_slot_actions(basis.n_sites, index, scheme))
    return layout, index


_templates = collections.OrderedDict()
_templates_lock = threading.Lock()


def layout_for(ds: CorrelationDataset, level: int = 1, scheme=None,
               extras=()) -> MomentMatrixLayout:
    """Basis + scheme selection + layout in one step, equal to
    ``build_layout`` on the selected scheme.

    ``scheme=None`` selects at level 1 (``select_scheme`` returns only
    schemes the data carry) and uses the general scheme at higher levels or
    with extras; an explicit scheme is checked against the data.  The
    symbolic layout is built once per shape, keyed by (n, level, extras,
    scheme, which correlators are stored), and the LAYOUT_CACHE_SIZE most
    recent shapes are kept; a call returns its shape's template with ``values`` set.
    """
    basis = monomial_basis(ds.n_sites, level, extras)
    explicit = scheme is not None
    if not explicit:
        scheme = select_scheme(ds) if (level == 1 and not extras) else GENERAL_SCHEME
    _check_basis(basis, ds, scheme)
    if explicit:
        check_scheme_valid(ds, scheme)
    one, two = ds.arrays()
    key = (basis.n_sites, basis.level, basis.extras, scheme,
           np.packbits(one == one).tobytes(), np.packbits(two == two).tobytes())
    with _templates_lock:
        template = _templates.get(key)
        if template is not None:
            _templates.move_to_end(key)
    if template is None:
        template = _template(basis, ds, scheme)
        with _templates_lock:
            _templates[key] = template
            while len(_templates) > LAYOUT_CACHE_SIZE:
                _templates.popitem(last=False)
    return _bind(*template, ds)


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
    ds.require("closed-form check needs all pair sums", two=SAME_AXIS)
    m = np.diagonal(ds.arrays()[1], axis1=1, axis2=3).sum(axis=2)  # NaN on the diagonal
    np.fill_diagonal(m, 1.0)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return min_eig >= -tol, min_eig
