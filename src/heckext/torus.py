"""Finite abelian torus quotient, its per-reflection data, and characters.

The group is presented as a product of cyclic groups Z/d_1 x ... x Z/d_r
with order prime to the residue characteristic p.  Each affine reflection
carries an involutive conjugation action (an exponent matrix) and a
subgroup given by generator exponent vectors.  Characters are stored as
exact rational phases in Q/Z, so equality, twisting and restriction
triviality are plain integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

DEFAULT_ENUMERATION_BOUND = 1_000_000

# Miller-Rabin with the first thirteen prime bases is exact below this bound,
# the least strong pseudoprime to all of them; the first twelve are not
# enough, since 318665857834031151167461 passes all twelve
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


class TorusError(ValueError):
    """Invalid torus datum."""


class EnumerationBoundError(RuntimeError):
    """Group too large for exhaustive character enumeration."""


Vector = tuple[int, ...]


@dataclass(frozen=True, eq=True)
class TorusDatum:
    """Generator orders, conjugation actions and rank-one subgroups.

    ``actions[s][i]`` is the exponent vector of the image of generator i
    under conjugation by reflection s; ``subgroups[s]`` lists generator
    exponent vectors of the subgroup controlling the quadratic relation
    at s.
    """

    residue_char: int
    orders: tuple[int, ...]
    actions: Mapping[str, tuple[Vector, ...]]
    subgroups: Mapping[str, tuple[Vector, ...]]
    # per torus character: reflection -> (twist, c value), see _character_row
    _table: dict[Character, dict[str, tuple[Character, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        p = self.residue_char
        if p >= PRIMALITY_BOUND:
            raise TorusError(
                "residue characteristic of %d digits is too large: primality "
                "is decided only below %d" % (len(str(p)), PRIMALITY_BOUND)
            )
        if not is_prime(p):
            raise TorusError("residue characteristic %r is not prime" % p)
        for d in self.orders:
            if d < 1:
                raise TorusError("generator order %r must be positive" % d)
            if math.gcd(d, p) != 1:
                raise TorusError("generator order %d not coprime to p=%d" % (d, p))
        r = len(self.orders)
        unit = identity_map(r)
        for s, matrix in self.actions.items():
            if len(matrix) != r or any(len(v) != r for v in matrix):
                raise TorusError("action for %r is not a %dx%d table" % (s, r, r))
            i = undefined_generator(self.orders, matrix)
            if i is not None:
                raise TorusError(
                    "action for %r is not well defined on generator %d" % (s, i)
                )
            square = compose_exponent_maps(self, matrix, matrix)
            if not all(vectors_equal(self, a, b) for a, b in zip(square, unit)):
                raise TorusError("action for %r is not involutive" % s)
        if set(self.subgroups) != set(self.actions):
            raise TorusError("actions and subgroups must cover the same reflections")
        for s, gens in self.subgroups.items():
            for v in gens:
                if len(v) != r:
                    raise TorusError("subgroup generator for %r has wrong length" % s)
            # s(t) = t * coroot(root(t))^-1: s(g) - g lies in the rank-one subgroup
            i = generator_off_subgroup(self.orders, self.actions[s], gens)
            if i is not None:
                raise TorusError(
                    "action for %r moves generator %d off its subgroup" % (s, i)
                )

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def group_order(self) -> int:
        return math.prod(self.orders)

    def action(self, s: str) -> tuple[Vector, ...]:
        try:
            return self.actions[s]
        except KeyError:
            raise TorusError("unknown reflection %r" % s) from None

    def subgroup(self, s: str) -> tuple[Vector, ...]:
        try:
            return self.subgroups[s]
        except KeyError:
            raise TorusError("unknown reflection %r" % s) from None


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below ``PRIMALITY_BOUND``."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in _PRIME_BASES:
        x = pow(b, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vectors_equal(datum: TorusDatum, x: Vector, y: Vector) -> bool:
    """Equality of group elements written as exponent vectors."""
    return all((a - b) % d == 0 for a, b, d in zip(x, y, datum.orders))


def identity_map(rank: int) -> tuple[Vector, ...]:
    """Exponent table of the identity map on a torus of this rank."""
    return tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))


def undefined_generator(
    orders: Sequence[int], table: Sequence[Vector]
) -> int | None:
    """First generator i whose image is not killed by its order d_i, else None.

    Each image exponent e at generator j needs d_i * e = 0 mod d_j.
    """
    for i, image in enumerate(table):
        for j, e in enumerate(image):
            if (orders[i] * e) % orders[j] != 0:
                return i
    return None


def generator_off_subgroup(
    orders: Sequence[int], table: Sequence[Vector], gens: Iterable[Vector]
) -> int | None:
    """A generator i with table(g_i) - g_i outside the subgroup <gens>, else None.

    Euclid on each column of the lattice of ``gens`` and the d_j * e_j leaves
    one pivot per column; a vector is in it when each pivot divides exactly.
    """
    r = len(orders)
    unit = identity_map(r)
    rows = [list(g) for g in gens] + [[d * e for e in u] for d, u in zip(orders, unit)]
    moved = [[a - b for a, b in zip(image, u)] for image, u in zip(table, unit)]
    for col in range(r):
        pivot = [0] * r
        for k, row in enumerate(rows):
            while row[col]:
                q = pivot[col] // row[col]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]
            rows[k] = row
        for i, x in enumerate(moved):
            q, rem = divmod(x[col], pivot[col])
            if rem:
                return i
            moved[i] = [a - q * b for a, b in zip(x, pivot)]
    return None


def compose_exponent_maps(
    datum: TorusDatum, outer: Sequence[Vector], inner: Iterable[Vector]
) -> tuple[Vector, ...]:
    """Images under ``outer`` of every vector of ``inner``, reduced mod the orders.

    With one row of ``inner`` per generator this is the exponent table of
    g -> outer(inner(g)).
    """
    r = datum.rank
    rows = []
    for vector in inner:
        acc = [0] * r
        for j, coeff in enumerate(vector):
            for k in range(r):
                acc[k] += coeff * outer[j][k]
        rows.append(tuple(e % d for e, d in zip(acc, datum.orders)))
    return tuple(rows)


@dataclass(frozen=True, eq=True)
class Character:
    """Character of the torus quotient, as exact phases in Q/Z.

    The value on the element with exponent vector x is the root of unity
    with phase sum_i x_i * phases[i] (mod 1).  Phases are kept reduced in
    [0, 1), so equality is componentwise.
    """

    phases: tuple[Fraction, ...]


def character(datum: TorusDatum, phases: Iterable[Fraction | int | str]) -> Character:
    """Validated constructor: phase denominators must divide the orders."""
    normalized = tuple(Fraction(ph) % 1 for ph in phases)
    if len(normalized) != datum.rank:
        raise TorusError(
            "expected %d phases, got %d" % (datum.rank, len(normalized))
        )
    for ph, d in zip(normalized, datum.orders):
        if d % ph.denominator != 0:
            raise TorusError(
                "phase %s has denominator not dividing generator order %d" % (ph, d)
            )
    return Character(normalized)


def pair(char: Character, vector: Sequence[int]) -> Fraction:
    """Phase of the character value on the element with this exponent vector."""
    if len(vector) != len(char.phases):
        raise TorusError(
            "exponent vector has %d components, expected %d"
            % (len(vector), len(char.phases))
        )
    return sum((x * ph for x, ph in zip(vector, char.phases)), Fraction(0)) % 1


def _character_row(datum: TorusDatum, char: Character, s: str) -> tuple[Character, int]:
    """Twist of ``char`` by s and its c value at s.

    The first lookup of a character computes its twists and c values at
    every reflection and keeps them in the datum's table, keyed by the
    character's value, so each character is paired once per datum.  The
    pairing is ``pair`` in integers: with L the lcm of the phase
    denominators, phase i is n_i / L, and the phase on x is
    sum(x_i * n_i) mod L over L.
    """
    row = datum._table.get(char)
    if row is None:
        row = datum._table[char] = _fill_row(datum, char)
    try:
        return row[s]
    except KeyError:
        raise TorusError("unknown reflection %r" % s) from None


def _fill_row(datum: TorusDatum, char: Character) -> dict[str, tuple[Character, int]]:
    if len(char.phases) != datum.rank:
        raise TorusError(
            "character has %d phases, expected %d" % (len(char.phases), datum.rank)
        )
    lcm = math.lcm(*(ph.denominator for ph in char.phases))
    nums = [ph.numerator * (lcm // ph.denominator) for ph in char.phases]

    def numerator(vector: Vector) -> int:
        return sum(x * n for x, n in zip(vector, nums)) % lcm

    return {
        t: (
            Character(tuple(Fraction(numerator(image), lcm) for image in datum.actions[t])),
            1 if all(numerator(g) == 0 for g in gens) else 0,
        )
        for t, gens in datum.subgroups.items()
    }


def twist(datum: TorusDatum, char: Character, s: str) -> Character:
    """The character g -> char(conjugate of g by s)."""
    return _character_row(datum, char, s)[0]


def c_value(datum: TorusDatum, char: Character, s: str) -> int:
    """Value of the character on the averaged subgroup sum: 1 or 0.

    The subgroup has order prime to p, so averaging over it gives exactly
    1 on a trivial restriction and 0 otherwise; no root-of-unity sums are
    needed.
    """
    return _character_row(datum, char, s)[1]


def s_lambda(datum: TorusDatum, labels: Sequence[str], char: Character) -> frozenset[str]:
    """Reflections where the quadratic-relation constant acts invertibly."""
    return frozenset(s for s in labels if c_value(datum, char, s) == 1)


def enumerate_characters(
    datum: TorusDatum, bound: int = DEFAULT_ENUMERATION_BOUND
) -> list[Character]:
    """All characters in lexicographic phase order."""
    total = datum.group_order
    if total > bound:
        raise EnumerationBoundError(
            "group order %d exceeds enumeration bound %d" % (total, bound)
        )
    return [
        Character(tuple(Fraction(k, d) for k, d in zip(exponents, datum.orders)))
        for exponents in itertools.product(*(range(d) for d in datum.orders))
    ]
