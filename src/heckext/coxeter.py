"""Affine Coxeter data: reflection labels and pairwise product orders.

Only the combinatorial shadow of the Coxeter system is needed here: the
set of simple affine reflections and the order of each pairwise product,
with infinite order allowed.  Words, lengths and group elements are out
of scope.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

INFINITE = math.inf
"""Order of a reflection product with no braid relation (infinite dihedral)."""

#: Integer sentinel used for INFINITE in serialized matrices.
INFINITE_SENTINEL = 0


class CoxeterError(ValueError):
    """Invalid Coxeter datum or unknown reflection."""


class _CoxeterFields(NamedTuple):
    labels: tuple[str, ...]
    orders: tuple[tuple[float, ...], ...]


class AffineCoxeterDatum(_CoxeterFields):
    """Reflection set with the symmetric table of product orders m(s, s').

    ``orders[i][j]`` is the order of the product of reflections ``labels[i]``
    and ``labels[j]``; diagonal entries are 1, off-diagonal entries are
    2, 3, 4, 6 or :data:`INFINITE`.  The affine Weyl group of a connected
    reductive group is crystallographic, so no other finite order occurs.
    The fields are a frozen named tuple, validated on construction
    (``_replace`` included); equality and hash read only them.
    """

    def __init__(self, *fields: object, **named: object) -> None:
        if not self.labels:
            raise CoxeterError("at least one reflection is required")
        if len(set(self.labels)) != len(self.labels):
            raise CoxeterError("reflection labels must be distinct")
        # label -> position in ``labels``, built once for ``index`` and ``order``
        self._positions = {s: i for i, s in enumerate(self.labels)}
        n = len(self.labels)
        if len(self.orders) != n or any(len(row) != n for row in self.orders):
            raise CoxeterError("order table must be square of size %d" % n)
        for i in range(n):
            if self.orders[i][i] != 1:
                raise CoxeterError(
                    "m(%s, %s) must be 1" % (self.labels[i], self.labels[i])
                )
            for j in range(n):
                if i == j:
                    continue
                m = self.orders[i][j]
                if m != self.orders[j][i]:
                    raise CoxeterError(
                        "order table is not symmetric at (%s, %s)"
                        % (self.labels[i], self.labels[j])
                    )
                if m != INFINITE and (not isinstance(m, int) or m not in (2, 3, 4, 6)):
                    raise CoxeterError(
                        "m(%s, %s) must be 2, 3, 4, 6 or infinite (crystallographic)"
                        % (self.labels[i], self.labels[j])
                    )

    _make = classmethod(lambda cls, fields: cls(*fields))

    def index(self, s: str) -> int:
        try:
            return self._positions[s]
        except KeyError:
            raise CoxeterError("unknown reflection %r" % s) from None

    def order(self, s: str, t: str) -> float:
        """Order of the product s*t; :data:`INFINITE` when unbounded."""
        return self.orders[self.index(s)][self.index(t)]

    def reflection_set(self) -> frozenset[str]:
        return frozenset(self.labels)

    def finite_pairs(self) -> list[tuple[str, str, int]]:
        """Unordered pairs of distinct reflections with finite product order."""
        out = []
        for i, s in enumerate(self.labels):
            for j in range(i + 1, len(self.labels)):
                m = self.orders[i][j]
                if m != INFINITE:
                    out.append((s, self.labels[j], int(m)))
        return out


def from_int_matrix(labels: Sequence[str], matrix: Sequence[Sequence[int]]) -> AffineCoxeterDatum:
    """Build a datum from an integer matrix using 0 as the infinity sentinel."""
    rows = tuple(
        tuple(INFINITE if m == INFINITE_SENTINEL else m for m in row)
        for row in matrix
    )
    return AffineCoxeterDatum(tuple(labels), rows)


def to_int_matrix(datum: AffineCoxeterDatum) -> list[list[int]]:
    """Serialize the order table, encoding infinite order as 0."""
    return [
        [INFINITE_SENTINEL if m == INFINITE else int(m) for m in row]
        for row in datum.orders
    ]


def alternating_word(s: str, t: str, length: int) -> list[str]:
    """The word [s, t, s, t, ...] of the given length, starting with s."""
    if s == t:
        raise CoxeterError("alternating word needs two distinct reflections")
    if length < 1:
        raise CoxeterError("alternating word length must be positive")
    return [s if k % 2 == 0 else t for k in range(length)]
