"""Closed-form dimension of the degree-one extension space.

One pass over the reflections files each structure constant in a
per-reflection ledger: free, tied to one of the two one-sided marked
groups, or forced to vanish (and by which relation).  The dimension is
then read off the ledger: the free count, plus the live components of
the one-sided marks, less the coboundary direction.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import INFINITE, AffineCoxeterDatum
from .hecke import HeckeCharacter
from .torus import Character, TorusDatum, s_lambda, twist

# Per-reflection ledger states.
FREE = "free"
TIED_I1 = "tied-to-i1-group"
TIED_I2 = "tied-to-i2-group"
ZERO_TORUS = "zero:torus"
ZERO_QUAD_BOTH = "zero:quadratic-marked-in-both"
ZERO_QUAD_UNMARKED = "zero:quadratic-unmarked-admissible"
ZERO_QUAD_I2 = "zero:quadratic-i2-inadmissible"
ZERO_HYP3 = "zero:commutes-with-i1-group"
ZERO_HYP4 = "zero:commutes-with-i2-group"
ZERO_HYP5 = "zero:order-three-with-shared-mark"


class ExtResult(NamedTuple):
    """Dimension plus the data the closed form was assembled from.

    ``i_lambda_pair`` is the twist-matching set, ``free`` the reflections
    whose ledger state is free, ``live`` the number of live components of
    the one-sided marks (see ``_live_components``), and ``per_reflection``
    the ledger itself.
    """

    dimension: int
    i_lambda_pair: frozenset[str]
    free: frozenset[str]
    live: int
    per_reflection: dict[str, str]


def _live_components(
    cox: AffineCoxeterDatum,
    only1: frozenset[str],
    only2: frozenset[str],
    ledger: dict[str, str],
) -> int:
    """Components of the one-sided marks whose constants all stay tied.

    Marked on the first side only, a generator acts as [[-1, a_s], [0, 0]]
    (see ``oracle.SymMatrix``); on the second side only, as
    [[0, a_s], [0, -1]].  For s, t on the first side the lower-right zeros
    kill every off-diagonal term of an alternating word but the last, so
    the word of length m has off-diagonal (-1)^(m-1) a_u for its last
    letter u, and a braid relation of finite order m reads a_s = a_t.  On
    the second side only the first letter survives, and again a_s = a_t.
    For s on the first side and t on the second, st has off-diagonal
    -(a_s + a_t) and ts = 0, and longer alternating words vanish: order 2
    reads a_s = -a_t, higher orders and infinite order relate nothing.  So
    a component of the graph with these edges has one unknown up to sign,
    which lives exactly when no member is forced to zero.
    """

    def joined(s: str, t: str) -> bool:
        m = cox.order(s, t)
        return m != INFINITE if (s in only1) == (t in only1) else m == 2

    live = 0
    unseen = set(only1 | only2)
    while unseen:
        stack = [unseen.pop()]
        alive = True
        while stack:
            s = stack.pop()
            alive = alive and ledger[s] in (TIED_I1, TIED_I2)
            near = {t for t in unseen if joined(s, t)}
            unseen -= near
            stack.extend(near)
        live += alive
    return live


class TorusFacts(NamedTuple):
    """What the ledger reads of a pair's torus characters chi1, chi2."""

    matching: frozenset[str]  # s with s.chi1 = chi2
    admissible: frozenset[str]  # s with c_chi1(s) = 1
    same: bool  # chi1 = chi2


def torus_facts(
    datum: TorusDatum, cox: AffineCoxeterDatum, chi1: Character, chi2: Character
) -> TorusFacts:
    """The torus part of the closed form, shared by every mark pair over chi1, chi2."""
    return TorusFacts(
        frozenset(s for s in cox.labels if twist(datum, chi1, s) == chi2),
        s_lambda(datum, cox.labels, chi1),
        chi1 == chi2,
    )


def ext_dimension(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
) -> ExtResult:
    """Closed-form dimension of the extension space of xi2 by xi1."""
    facts = torus_facts(datum, cox, xi1.torus_char, xi2.torus_char)
    return marked_ext_dimension(cox, facts, xi1.marked, xi2.marked)


def marked_ext_dimension(
    cox: AffineCoxeterDatum,
    facts: TorusFacts,
    marked1: frozenset[str],
    marked2: frozenset[str],
) -> ExtResult:
    """The mark part of the closed form: the ledger of one pair of marked sets.

    dimension = |free| + live - [same torus character, different marked sets].
    """
    both = marked1 & marked2
    only1, only2 = marked1 - both, marked2 - both
    ledger: dict[str, str] = {}
    for s in cox.labels:
        admissible = s in facts.admissible
        if s in both:
            state = ZERO_QUAD_BOTH
        elif s in only2 and not admissible:
            state = ZERO_QUAD_I2
        elif s not in only1 and s not in only2 and admissible:
            state = ZERO_QUAD_UNMARKED
        elif s not in facts.matching:
            state = ZERO_TORUS
        elif s in only1:
            state = TIED_I1
        elif s in only2:
            state = TIED_I2
        # unmarked and inadmissible: braid relations with the marked groups
        elif any(cox.order(s, t) == 2 for t in only1):
            state = ZERO_HYP3
        elif any(cox.order(s, t) == 2 for t in only2):
            state = ZERO_HYP4
        elif any(cox.order(s, t) == 3 for t in both):
            state = ZERO_HYP5
        else:
            state = FREE
        ledger[s] = state
    free_set = frozenset(s for s, state in ledger.items() if state == FREE)
    live = _live_components(cox, only1, only2, ledger)

    # equal torus characters tie every one-sided mark, and differing marked
    # sets leave at least one: the coboundary lies in a live component
    coboundary = facts.same and marked1 != marked2
    dim = len(free_set) + live - (1 if coboundary else 0)

    return ExtResult(dim, facts.matching, free_set, live, ledger)
