"""Correlation datasets: partial one- and two-body Pauli expectation values.

A dataset holds measured (or synthesized) expectation values of single-site
Pauli operators and of products of Paulis on two distinct sites.  Absence of
an entry is meaningful: it marks a correlator that was never measured, not a
correlator equal to zero.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import BadKey, BadNoiseLevel, MissingData, ParseError, ValueOutOfRange

FORMAT_VERSION = 1


class PauliAxis(enum.IntEnum):
    """Measurement axis, totally ordered X < Y < Z for canonical keying."""

    X = 0
    Y = 1
    Z = 2

    def __str__(self):
        return "XYZ"[self]

    @classmethod
    def coerce(cls, value) -> "PauliAxis":
        if isinstance(value, PauliAxis):
            return value
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise BadKey(f"unknown axis token {value!r}") from None
        if isinstance(value, (int, np.integer)) and 0 <= int(value) <= 2:
            return cls(int(value))
        raise BadKey(f"cannot interpret {value!r} as a Pauli axis")


AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)

# Mask over the (n, 3, n, 3) view that selects the same-axis pairs C_ij^aa.
SAME_AXIS = np.eye(3, dtype=bool)[None, :, None, :]

_LABEL_RE = re.compile(r"^([XYZ])\[(\d+)\]$|^([XYZ])([XYZ])\[(\d+),(\d+)\]$")


def one_body_label(i: int, axis: PauliAxis) -> str:
    return f"{PauliAxis.coerce(axis)}[{i}]"


def two_body_label(i: int, j: int, ax_i: PauliAxis, ax_j: PauliAxis) -> str:
    i, j, ax_i, ax_j = _canonical_pair(i, j, PauliAxis.coerce(ax_i), PauliAxis.coerce(ax_j))
    return f"{ax_i}{ax_j}[{i},{j}]"


def parse_label(label: str):
    """Invert the label format back to a key tuple.

    Returns ``(i, axis)`` for one-body labels and ``(i, j, ax_i, ax_j)``
    (canonical, i < j) for two-body labels.
    """
    m = _LABEL_RE.match(label)
    if m is None:
        raise BadKey(f"malformed correlator label {label!r}")
    if m.group(1) is not None:
        return (int(m.group(2)), PauliAxis[m.group(1)])
    i, j = int(m.group(5)), int(m.group(6))
    return _canonical_pair(i, j, PauliAxis[m.group(3)], PauliAxis[m.group(4)])


def _canonical_pair(i, j, ax_i, ax_j):
    if i == j:
        raise BadKey(f"two-body key must reference distinct sites, got ({i}, {j})")
    if i < j:
        return i, j, ax_i, ax_j
    return j, i, ax_j, ax_i


def _check_value(value, key) -> float:
    value = float(value)
    if not math.isfinite(value) or abs(value) > 1.0:
        raise ValueOutOfRange(f"correlator {key} has value {value!r} outside [-1, 1]")
    return value


@dataclass(frozen=True)
class CollectiveMoments:
    """Permutation-averaged collective first and second moments.

    ``m[a]`` is the mean one-body value along axis ``a`` and ``c[a]`` the mean
    same-axis two-body value over all ordered site pairs.
    """

    n_sites: int
    m: tuple
    c: tuple

    def __post_init__(self):
        for v in (*self.m, *self.c):
            if abs(v) > 1.0 + 1e-12:
                raise ValueOutOfRange(f"collective moment {v} outside [-1, 1]")


class CorrelationDataset:
    """Immutable container of partial one- and two-body correlators.

    Two-body entries are stored once, under the site-ordered key ``i < j``;
    querying ``(j, i, b, a)`` transparently returns the stored ``(i, j, a, b)``
    value.  Values are validated to lie in [-1, 1] at ingestion.
    """

    __slots__ = ("n_sites", "_one", "_two", "_view")

    def __init__(self, n_sites: int, one_body=None, two_body=None):
        n_sites = int(n_sites)
        if n_sites < 1:
            raise BadKey(f"n_sites must be >= 1, got {n_sites}")
        object.__setattr__(self, "n_sites", n_sites)
        one = {}
        for key, value in dict(one_body or {}).items():
            i, axis = key
            i = int(i)
            axis = PauliAxis.coerce(axis)
            if not 0 <= i < n_sites:
                raise BadKey(f"one-body site {i} outside [0, {n_sites})")
            one[(i, axis)] = _check_value(value, (i, axis))
        two = {}
        for key, value in dict(two_body or {}).items():
            i, j, ax_i, ax_j = key
            ck = _canonical_pair(int(i), int(j), PauliAxis.coerce(ax_i), PauliAxis.coerce(ax_j))
            if not (0 <= ck[0] < n_sites and 0 <= ck[1] < n_sites):
                raise BadKey(f"two-body sites {ck[:2]} outside [0, {n_sites})")
            if ck in two and two[ck] != _check_value(value, ck):
                raise BadKey(f"conflicting duplicate entry for {ck}")
            two[ck] = _check_value(value, ck)
        object.__setattr__(self, "_one", one)
        object.__setattr__(self, "_two", two)
        object.__setattr__(self, "_view", None)

    def __setattr__(self, name, value):
        raise AttributeError("CorrelationDataset is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: restoring the slots would
        # go through the __setattr__ above
        return type(self), (self.n_sites, self._one, self._two)

    # -- accessors ---------------------------------------------------------

    @property
    def one_body(self) -> dict:
        return dict(self._one)

    @property
    def two_body(self) -> dict:
        return dict(self._two)

    def n_entries(self) -> int:
        return len(self._one) + len(self._two)

    def one(self, i, axis) -> float:
        key = (int(i), PauliAxis.coerce(axis))
        try:
            return self._one[key]
        except KeyError:
            raise MissingData(f"missing one-body correlator {one_body_label(*key)}",
                              [one_body_label(*key)]) from None

    def two(self, i, j, ax_i, ax_j) -> float:
        key = _canonical_pair(int(i), int(j), PauliAxis.coerce(ax_i), PauliAxis.coerce(ax_j))
        try:
            return self._two[key]
        except KeyError:
            raise MissingData(f"missing two-body correlator {two_body_label(*key)}",
                              [two_body_label(*key)]) from None

    def get_one(self, i, axis, default=None):
        return self._one.get((int(i), PauliAxis.coerce(axis)), default)

    def get_two(self, i, j, ax_i, ax_j, default=None):
        key = _canonical_pair(int(i), int(j), PauliAxis.coerce(ax_i), PauliAxis.coerce(ax_j))
        return self._two.get(key, default)

    def one_items(self):
        return self._one.items()

    def two_items(self):
        return self._two.items()

    def arrays(self):
        """Dense read-only view ``(one, two)`` of the stored correlators.

        ``one[i, a]`` is C_i^a, shape (n, 3); ``two[i, a, j, b]`` is C_ij^ab,
        shape (n, 3, n, 3) and symmetric under (i, a) <-> (j, b).  An absent
        correlator is NaN, and so is every i == j block.  Built on the first
        call; the dataset is immutable, so the view never goes stale.
        """
        if self._view is None:
            n = self.n_sites
            one = np.full((n, 3), np.nan)
            two = np.full((n, 3, n, 3), np.nan)
            # flat offsets from the keys: far cheaper than indexing per entry
            one.flat[[3 * i + a for i, a in self._one]] = list(self._one.values())
            two.flat[[(3 * i + a) * 3 * n + 3 * j + b for i, j, a, b in self._two]] = \
                list(self._two.values())
            two = np.fmax(two, two.transpose(2, 3, 0, 1))  # mirror (i, a, j, b) onto (j, b, i, a)
            one.flags.writeable = two.flags.writeable = False
            object.__setattr__(self, "_view", (one, two))
        return self._view

    def require(self, what: str, one=False, two=False) -> None:
        """Raise MissingData naming every absent correlator that the boolean
        masks select; ``one`` and ``two`` broadcast against the shapes of
        :meth:`arrays`, and the i == j blocks are never selected."""
        n = self.n_sites
        if len(self._one) + len(self._two) == 3 * n + 9 * n * (n - 1) // 2:
            return  # every correlator is stored
        v1, v2 = self.arrays()
        absent = np.isnan(v2) & two
        absent |= absent.transpose(2, 3, 0, 1)  # a pair is selected from either end
        labels = [one_body_label(i, a) for i, a in zip(*np.nonzero(np.isnan(v1) & one))]
        labels += [two_body_label(i, j, a, b)
                   for i, j, a, b in zip(*np.nonzero(absent.transpose(0, 2, 1, 3))) if i < j]
        if labels:
            raise MissingData(f"{what}; {len(labels)} absent (first few: {labels[:6]})",
                              labels)

    def labels(self):
        """All correlator labels in deterministic (site, axis) order."""
        out = [one_body_label(i, a) for (i, a) in sorted(self._one)]
        out += [two_body_label(*k) for k in sorted(self._two)]
        return out

    def value(self, label: str) -> float:
        key = parse_label(label)
        if len(key) == 2:
            return self.one(*key)
        return self.two(*key)

    def __eq__(self, other):
        if not isinstance(other, CorrelationDataset):
            return NotImplemented
        return (self.n_sites == other.n_sites and self._one == other._one
                and self._two == other._two)

    def __repr__(self):
        return (f"CorrelationDataset(n_sites={self.n_sites}, "
                f"one_body={len(self._one)} entries, two_body={len(self._two)} entries)")

    # -- transformations ---------------------------------------------------

    def scale_noise(self, lam: float) -> "CorrelationDataset":
        """Rescale every correlator by (1 - lam), the white-noise admixture map."""
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise BadNoiseLevel(f"noise fraction {lam} outside [0, 1]")
        f = 1.0 - lam
        return CorrelationDataset(
            self.n_sites,
            {k: f * v for k, v in self._one.items()},
            {k: f * v for k, v in self._two.items()},
        )

    def partial_transpose(self, sites) -> "CorrelationDataset":
        """Flip the sign of every correlator with an odd number of Y factors
        on the given site subset."""
        subset = {int(s) for s in sites}
        for s in subset:
            if not 0 <= s < self.n_sites:
                raise BadKey(f"partial-transpose site {s} outside [0, {self.n_sites})")
        one = {}
        for (i, a), v in self._one.items():
            sign = -1.0 if (a == PauliAxis.Y and i in subset) else 1.0
            one[(i, a)] = sign * v
        two = {}
        for (i, j, a, b), v in self._two.items():
            ny = (a == PauliAxis.Y and i in subset) + (b == PauliAxis.Y and j in subset)
            two[(i, j, a, b)] = -v if ny % 2 else v
        return CorrelationDataset(self.n_sites, one, two)

    def collective_moments(self) -> CollectiveMoments:
        """Permutation averages m_a = mean_i C_i^a, c_aa = mean_{i != j} C_ij^aa."""
        n = self.n_sites
        self.require("collective moments need every one-body and same-axis pair correlator",
                     one=True, two=SAME_AXIS)
        if n == 1:
            raise BadKey("collective two-body moments need n_sites >= 2")
        one, two = self.arrays()
        pairs = np.diagonal(two, axis1=1, axis2=3)[np.triu_indices(n, 1)]  # (pairs, 3)
        return CollectiveMoments(n_sites=n, m=tuple(one.mean(axis=0).tolist()),
                                 c=tuple(pairs.mean(axis=0).tolist()))


def new_dataset(n_sites: int, entries=None) -> CorrelationDataset:
    """Build a dataset from a mapping (or iterable of pairs) of correlator
    keys to values.

    Keys are ``(i, axis)`` for one-body entries and ``(i, j, axis_i, axis_j)``
    for two-body entries; axes may be given as PauliAxis or as "X"/"Y"/"Z".
    Duplicate keys (after canonicalization) are rejected.
    """
    one, two = {}, {}
    items = entries.items() if isinstance(entries, dict) else (entries or ())
    for key, value in items:
        key = tuple(key)
        if len(key) == 2:
            k = (int(key[0]), PauliAxis.coerce(key[1]))
            if k in one:
                raise BadKey(f"duplicate one-body entry for {k}")
            one[k] = value
        elif len(key) == 4:
            k = _canonical_pair(int(key[0]), int(key[1]),
                                PauliAxis.coerce(key[2]), PauliAxis.coerce(key[3]))
            if k in two:
                raise BadKey(f"duplicate two-body entry for {k}")
            two[k] = value
        else:
            raise BadKey(f"correlator key must have 2 or 4 components, got {key!r}")
    return CorrelationDataset(n_sites, one, two)


# -- file IO ---------------------------------------------------------------


def dataset_to_dict(ds: CorrelationDataset) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n_sites": ds.n_sites,
        "one_body": [
            {"i": i, "axis": str(a), "value": v} for (i, a), v in sorted(ds.one_items())
        ],
        "two_body": [
            {"i": i, "j": j, "axis_i": str(a), "axis_j": str(b), "value": v}
            for (i, j, a, b), v in sorted(ds.two_items())
        ],
    }


def write_dataset(ds: CorrelationDataset, path) -> None:
    """Write a dataset as a UTF-8 JSON document with round-trip float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_dict(ds), fh, indent=1)
        fh.write("\n")


def _record_field(record, field, index, section):
    try:
        return record[field]
    except (KeyError, TypeError):
        raise ParseError(f"{section}[{index}] is missing field {field!r}") from None


def dataset_from_dict(doc: dict) -> CorrelationDataset:
    if not isinstance(doc, dict):
        raise ParseError("dataset document must be a JSON object")
    try:
        n_sites = int(doc["n_sites"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("dataset document needs an integer 'n_sites' field") from None
    one, two = {}, {}
    for idx, rec in enumerate(doc.get("one_body") or []):
        i = _record_field(rec, "i", idx, "one_body")
        axis = _record_field(rec, "axis", idx, "one_body")
        value = _record_field(rec, "value", idx, "one_body")
        try:
            key = (int(i), PauliAxis.coerce(axis))
        except BadKey as exc:
            raise ParseError(f"one_body[{idx}]: {exc}") from None
        if key in one:
            raise ParseError(f"one_body[{idx}]: duplicate entry for {key}")
        one[key] = value
    for idx, rec in enumerate(doc.get("two_body") or []):
        i = _record_field(rec, "i", idx, "two_body")
        j = _record_field(rec, "j", idx, "two_body")
        ax_i = _record_field(rec, "axis_i", idx, "two_body")
        ax_j = _record_field(rec, "axis_j", idx, "two_body")
        value = _record_field(rec, "value", idx, "two_body")
        try:
            key = _canonical_pair(int(i), int(j), PauliAxis.coerce(ax_i), PauliAxis.coerce(ax_j))
        except BadKey as exc:
            raise ParseError(f"two_body[{idx}]: {exc}") from None
        if key in two:
            raise ParseError(f"two_body[{idx}]: duplicate entry for {key}")
        two[key] = value
    try:
        return CorrelationDataset(n_sites, one, two)
    except (BadKey, ValueOutOfRange) as exc:
        raise ParseError(str(exc)) from None


def read_dataset(path) -> CorrelationDataset:
    """Read a dataset file, raising ParseError with line/field context."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from None
    return dataset_from_dict(doc)
