"""Ready-made group datums for the worked families.

Each preset packages the Coxeter orders, the torus quotient with its
per-reflection actions and subgroups, and the diagram automorphisms used
for packet comparisons.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import AffineCoxeterDatum, INFINITE
from .quiver import DiagramAutomorphism, compose_automorphisms, identity_automorphism
from .torus import TorusDatum, identity_map, is_prime


class PresetError(ValueError):
    pass


class Preset(NamedTuple):
    name: str
    params: dict[str, int]
    coxeter: AffineCoxeterDatum
    torus: TorusDatum
    automorphisms: tuple[DiagramAutomorphism, ...]


def prime_power_radical(q: int) -> int:
    """The prime p with q a power of p; rejects anything else.

    q = p**k has k below the bit length of q, so each k there is tried
    through the integer k-th root of q.
    """
    for k in range(1, max(q, 1).bit_length()):
        p = _integer_root(q, k)
        if p**k == q and is_prime(p):
            return p
    raise PresetError("%r is not a prime power" % q)


def _integer_root(q: int, k: int) -> int:
    """The largest x with x**k <= q, for q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // k)
    while (y := ((k - 1) * x + q // x ** (k - 1)) // k) < x:
        x = y
    return x


def sl2(q: int) -> Preset:
    """Rank-one split family: two reflections with unbounded product order,
    cyclic torus of order q-1 inverted by both reflections."""
    p = prime_power_radical(q)
    cox = AffineCoxeterDatum(("s0", "s1"), ((1, INFINITE), (INFINITE, 1)))
    d = q - 1
    inversion = ((-1 % d,),)
    torus = TorusDatum(
        residue_char=p,
        orders=(d,),
        actions={"s0": inversion, "s1": inversion},
        subgroups={"s0": ((1,),), "s1": ((1,),)},
    )
    swap = DiagramAutomorphism({"s0": "s1", "s1": "s0"}, identity_map(1))
    return Preset(
        "sl2", {"q": q}, cox, torus, (identity_automorphism(torus, cox), swap)
    )


def _sl_n_coroot(n: int, d: int, a: int, b: int) -> tuple[int, ...]:
    """Free coordinates of the norm-one element with +1 at a and -1 at b."""
    r = n - 1
    vec = [0] * r
    if a <= r:
        vec[a - 1] += 1
    if b <= r:
        vec[b - 1] -= 1
    return tuple(v % d for v in vec)


def _position_action(
    n: int, d: int, sigma: dict[int, int]
) -> tuple[tuple[int, ...], ...]:
    """Exponent table of a permutation of the n diagonal positions.

    Free coordinates are positions 1..n-1; position n carries minus their
    sum.  Generator i is the norm-one element with exponent +1 at position
    i and -1 at position n, so its image has +1 at sigma(i) and -1 at
    sigma(n), re-expressed in free coordinates.
    """
    return tuple(_sl_n_coroot(n, d, sigma[i], sigma[n]) for i in range(1, n))


def _transposition(n: int, a: int, b: int) -> dict[int, int]:
    sigma = {i: i for i in range(1, n + 1)}
    sigma[a], sigma[b] = b, a
    return sigma


def sl_n(n: int, q: int) -> Preset:
    """Affine cycle of n reflections; torus is the norm-one diagonal."""
    if n < 3:
        raise PresetError("sl_n needs n >= 3; use sl2 for rank one")
    p = prime_power_radical(q)
    labels = tuple("s%d" % i for i in range(1, n + 1))
    # neighbours on the cycle braid with order 3, all other pairs commute
    orders = tuple(
        tuple(1 if i == j else 3 if (j - i) % n in (1, n - 1) else 2 for j in range(n))
        for i in range(n)
    )
    cox = AffineCoxeterDatum(labels, orders)
    d = q - 1
    # reflection s_i (i < n) swaps diagonal positions (i, i+1); the affine
    # reflection s_n swaps positions (n, 1) through the highest root
    transpositions = {
        "s%d" % i: (i, i + 1) if i < n else (n, 1) for i in range(1, n + 1)
    }
    actions = {
        s: _position_action(n, d, _transposition(n, a, b))
        for s, (a, b) in transpositions.items()
    }
    subgroups = {
        s: (_sl_n_coroot(n, d, a, b),) for s, (a, b) in transpositions.items()
    }
    torus = TorusDatum(
        residue_char=p,
        orders=tuple([d] * (n - 1)),
        actions=actions,
        subgroups=subgroups,
    )
    # rotating the diagonal positions by one step rotates the affine cycle
    step = {i: i % n + 1 for i in range(1, n + 1)}
    rotation_perm = {"s%d" % i: "s%d" % step[i] for i in step}
    rotation = DiagramAutomorphism(rotation_perm, _position_action(n, d, step))
    autos = [identity_automorphism(torus, cox)]
    current = rotation
    for _ in range(n - 1):
        autos.append(current)
        current = compose_automorphisms(torus, current, rotation)
    return Preset("sl_n", {"n": n, "q": q}, cox, torus, tuple(autos))


def u11(q: int) -> Preset:
    """Unramified rank-one unitary family: cyclic torus of order q^2 - 1,
    both reflections acting by e -> -q*e, rank-one subgroup of index q+1."""
    p = prime_power_radical(q)
    cox = AffineCoxeterDatum(("s1", "s2"), ((1, INFINITE), (INFINITE, 1)))
    d = q * q - 1
    action = (((-q) % d,),)
    torus = TorusDatum(
        residue_char=p,
        orders=(d,),
        actions={"s1": action, "s2": action},
        subgroups={"s1": ((q + 1,),), "s2": ((q + 1,),)},
    )
    swap = DiagramAutomorphism({"s1": "s2", "s2": "s1"}, action)
    return Preset(
        "u11", {"q": q}, cox, torus, (identity_automorphism(torus, cox), swap)
    )


def u21(q: int) -> Preset:
    """Unramified unitary family in three variables: torus of orders
    (q^2 - 1, q + 1), reflections acting through (e, f) -> (-q*e, f)."""
    p = prime_power_radical(q)
    cox = AffineCoxeterDatum(("s1", "s2"), ((1, INFINITE), (INFINITE, 1)))
    d1, d2 = q * q - 1, q + 1
    action = (((-q) % d1, 0), (0, 1))
    torus = TorusDatum(
        residue_char=p,
        orders=(d1, d2),
        actions={"s1": action, "s2": action},
        subgroups={"s1": ((1, 0),), "s2": ((q + 1, 0),)},
    )
    return Preset("u21", {"q": q}, cox, torus, (identity_automorphism(torus, cox),))


PRESET_BUILDERS = {
    "sl2": (sl2, 1),
    "sl_n": (sl_n, 2),
    "u11": (u11, 1),
    "u21": (u21, 1),
}


def build_preset(spec: str) -> Preset:
    """Parse "name:arg[:arg]" preset references, e.g. "sl2:5" or "sl_n:3:2"."""
    parts = spec.split(":")
    name = parts[0]
    if name not in PRESET_BUILDERS:
        raise PresetError(
            "unknown preset %r (choose from %s)" % (name, ", ".join(sorted(PRESET_BUILDERS)))
        )
    builder, arity = PRESET_BUILDERS[name]
    args = parts[1:]
    if len(args) != arity:
        raise PresetError(
            "preset %r takes %d integer argument(s), e.g. %s"
            % (name, arity, "sl_n:3:2" if arity == 2 else "%s:3" % name)
        )
    try:
        values = [int(a) for a in args]
    except ValueError:
        raise PresetError("preset arguments must be integers: %r" % spec)
    return builder(*values)
