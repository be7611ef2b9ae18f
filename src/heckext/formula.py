"""Closed-form dimension of the degree-one extension space.

One pass over the reflections files each structure constant in a
per-reflection ledger: free, tied to one of the two one-sided marked
groups, or forced to vanish (and by which relation).  The dimension is
then read off the ledger: the free count, plus the two boundary
indicators counted from the tied entries, less the commuting-pair
correction and the coboundary direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import INFINITE, AffineCoxeterDatum
from .hecke import HeckeCharacter
from .torus import TorusDatum, c_value, twist

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


@dataclass(frozen=True)
class ExtResult:
    """Dimension plus the data the closed form was assembled from.

    ``i_lambda_pair`` is the twist-matching set, ``i_lambda_i2`` the
    reflections whose ledger state is free, and ``per_reflection`` the
    ledger itself.  ``delta1`` (``delta2``) counts the components of the
    reflections marked by the first (second) character only, joined
    along finite-order edges, whose constants are all tied; ``hyp2``
    says some first-only and second-only marks commute.
    """

    dimension: int
    case_tag: str
    i_lambda_pair: frozenset[str]
    i_lambda_i2: frozenset[str]
    delta1: int
    delta2: int
    hyp2: bool
    warnings: tuple[str, ...] = ()
    per_reflection: dict[str, str] = field(default_factory=dict)


def _tied_components(
    cox: AffineCoxeterDatum, group: frozenset[str], ledger: dict[str, str], state: str
) -> int:
    """Components of a one-sided marked group, joined along finite-order
    edges, whose constants all carry the given tied state.

    Take s, t marked on the first side only, so each generator acts as
    [[-1, a_s], [0, 0]] (see ``oracle.SymMatrix``).  In a product of such
    matrices the lower-right zeros kill every off-diagonal term but the
    last, so the alternating word of length m has off-diagonal
    (-1)^(m-1) a_u for its last letter u; the braid relation of finite
    order m therefore reads a_s = a_t.  On the second side the generators
    are [[0, a_s], [0, -1]], only the first letter survives, and again
    a_s = a_t.  Infinite order gives no relation.  So the constants of a
    component are one shared unknown, which lives exactly when no member
    is killed by the torus relation: each surviving component adds one.
    """
    count = 0
    seen: set[str] = set()
    for start in group:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            s = stack.pop()
            for t in group - component:
                if cox.order(s, t) != INFINITE:
                    component.add(t)
                    stack.append(t)
        seen |= component
        count += all(ledger[s] == state for s in component)
    return count


def ext_dimension(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
) -> ExtResult:
    """Closed-form dimension of the extension space of xi2 by xi1.

    dimension = |free| + delta1 + delta2 - [hyp2 and delta1 + delta2 > 0]
    - [same torus character, different marked sets].
    """
    chi1, chi2 = xi1.torus_char, xi2.torus_char
    both = xi1.marked & xi2.marked
    only1, only2 = xi1.marked - both, xi2.marked - both
    matching: set[str] = set()
    ledger: dict[str, str] = {}
    for s in cox.labels:
        if twist(datum, chi1, s) == chi2:
            matching.add(s)
        admissible = c_value(datum, chi1, s) == 1
        if s in both:
            state = ZERO_QUAD_BOTH
        elif s in only2 and not admissible:
            state = ZERO_QUAD_I2
        elif s not in only1 and s not in only2 and admissible:
            state = ZERO_QUAD_UNMARKED
        elif s not in matching:
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
    d1 = _tied_components(cox, only1, ledger, TIED_I1)
    d2 = _tied_components(cox, only2, ledger, TIED_I2)
    hyp2 = any(cox.order(s, t) == 2 for s in only1 for t in only2)

    lam_eq = chi1 == chi2
    marked_eq = xi1.marked == xi2.marked
    case_tag = "%s-torus-char/%s-marked-set" % (
        "same" if lam_eq else "distinct",
        "same" if marked_eq else "distinct",
    )

    warnings = tuple(
        "coxeter order m(%s,%s)=%d outside {2,3,inf}; closed form unverified"
        % (s, t, m)
        for s, t, m in cox.unverified_orders()
    )

    # a commuting cross pair ties an i1 component to an i2 one; the
    # coboundary direction lies in the tied span when the characters agree
    dim = (
        len(free_set)
        + d1
        + d2
        - (1 if hyp2 and d1 + d2 > 0 else 0)
        - (1 if lam_eq and not marked_eq else 0)
    )

    if dim < 0:
        warnings = warnings + (
            "closed form produced %d; clamped to 0 (theorem-oracle discrepancy)"
            % dim,
        )
        dim = 0

    return ExtResult(
        dimension=dim,
        case_tag=case_tag,
        i_lambda_pair=frozenset(matching),
        i_lambda_i2=free_set,
        delta1=d1,
        delta2=d2,
        hyp2=hyp2,
        warnings=warnings,
        per_reflection=ledger,
    )
