"""Characters of the affine algebra and their classification.

A character is a pair (torus character, marked set): the generator T_s
acts by -1 for marked reflections and by 0 otherwise, and torus elements
act through the torus character.  The marked set must consist of
reflections where the torus character is trivial on the rank-one
subgroup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .coxeter import AffineCoxeterDatum
from .torus import (
    DEFAULT_ENUMERATION_BOUND,
    Character,
    TorusDatum,
    character,
    enumerate_characters,
    s_lambda,
)


class HeckeCharacterError(ValueError):
    """Inadmissible (torus character, marked set) pair or bad spec string."""


class InadmissibleMarkError(HeckeCharacterError):
    """A marked reflection outside S_lambda for the torus character."""


class HeckeCharacter(NamedTuple):
    """Character of the affine algebra: T_s -> -1 on marked, 0 elsewhere."""

    torus_char: Character
    marked: frozenset[str]


def hecke_character(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    torus_char: Character,
    marked: Iterable[str],
) -> HeckeCharacter:
    """Validated constructor: marked reflections must lie in S_lambda."""
    marked_set = frozenset(marked)
    for s in marked_set:
        if s not in cox.labels:
            raise HeckeCharacterError("unknown reflection %r in marked set" % s)
    admissible = s_lambda(datum, cox.labels, torus_char)
    for s in sorted(marked_set):
        if s not in admissible:
            raise InadmissibleMarkError(
                "reflection %r cannot be marked: the torus character is "
                "nontrivial on its rank-one subgroup" % s
            )
    return HeckeCharacter(torus_char, marked_set)


def is_supersingular(
    datum: TorusDatum, cox: AffineCoxeterDatum, xi: HeckeCharacter
) -> bool:
    """Everything except the sign character and the trivial character.

    Sign: every reflection marked.  Trivial: nothing marked while every
    reflection could have been (the twist of sign by the standard
    involution).
    """
    admissible = s_lambda(datum, cox.labels, xi.torus_char)
    return _supersingular(cox.reflection_set(), xi.marked, admissible)


def _supersingular(
    reflections: frozenset[str], marked: frozenset[str], admissible: frozenset[str]
) -> bool:
    """``is_supersingular`` from the character's S_lambda, already computed."""
    return marked != reflections and (bool(marked) or admissible != reflections)


def enumerate_hecke_characters(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    only_supersingular: bool = False,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> list[HeckeCharacter]:
    """All (torus character, marked set) pairs in deterministic order.

    Torus characters come lexicographically by phases; marked sets are
    ordered as bitmasks over the reflection list.
    """
    reflections = cox.reflection_set()
    out: list[HeckeCharacter] = []
    for chi in enumerate_characters(datum, bound=bound):
        sl = s_lambda(datum, cox.labels, chi)
        admissible = [s for s in cox.labels if s in sl]
        for mask in range(1 << len(admissible)):
            marked = frozenset(s for k, s in enumerate(admissible) if mask & (1 << k))
            if only_supersingular and not _supersingular(reflections, marked, sl):
                continue
            out.append(HeckeCharacter(chi, marked))
    return out


def format_spec(xi: HeckeCharacter) -> str:
    """Render as "phase,phase,...;label,label" (empty part after ';' allowed)."""
    phases = ",".join(str(ph) for ph in xi.torus_char.phases)
    marked = ",".join(sorted(xi.marked))
    return "%s;%s" % (phases, marked)


def parse_spec(
    datum: TorusDatum, cox: AffineCoxeterDatum, text: str
) -> HeckeCharacter:
    """Parse the CLI character syntax, e.g. "1/4;" or "0;s0,s1"."""
    if ";" not in text:
        raise HeckeCharacterError(
            "character spec %r must contain ';' separating phases from marks" % text
        )
    phase_part, _, marked_part = text.partition(";")
    raw_phases = [p.strip() for p in phase_part.split(",")] if phase_part.strip() else []
    if len(raw_phases) != datum.rank:
        raise HeckeCharacterError(
            "character spec %r has %d phases, expected %d"
            % (text, len(raw_phases), datum.rank)
        )
    try:
        phases = [Fraction(p) for p in raw_phases]
    except (ValueError, ZeroDivisionError) as exc:
        raise HeckeCharacterError("bad phase in character spec %r: %s" % (text, exc))
    chi = character(datum, phases)
    marked = [m.strip() for m in marked_part.split(",") if m.strip()]
    return hecke_character(datum, cox, chi, marked)
