"""Brute-force extension dimension via an exact linear system mod p.

Every candidate extension is a 2x2 upper-triangular action of the
generators, with one unknown off-diagonal structure constant per
reflection.  Torus commutation, quadratic relations and finite braid
relations each contribute linear rows over the prime field; the answer
is the kernel dimension, less one for the change-of-section coboundary
when the two torus characters agree but the marked sets differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .coxeter import AffineCoxeterDatum, alternating_word
from .hecke import HeckeCharacter
from .torus import Character, TorusDatum, c_value, twist


class TheoryMismatchError(RuntimeError):
    """The coboundary vector fell outside the constraint kernel."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear rows over F_p in the per-reflection structure constants."""

    unknowns: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], str], ...]
    prime: int


class SymMatrix:
    """Upper-triangular 2x2 with integer diagonal and a linear off-diagonal.

    The off-diagonal entry is a linear form in the structure constants,
    kept as a label -> coefficient dict.
    """

    __slots__ = ("d1", "d2", "off")

    def __init__(self, d1: int, d2: int, off: dict[str, int]):
        self.d1 = d1
        self.d2 = d2
        self.off = {k: v for k, v in off.items() if v != 0}

    def __matmul__(self, other: "SymMatrix") -> "SymMatrix":
        off: dict[str, int] = {}
        for k, v in other.off.items():
            off[k] = off.get(k, 0) + self.d1 * v
        for k, v in self.off.items():
            off[k] = off.get(k, 0) + v * other.d2
        return SymMatrix(self.d1 * other.d1, self.d2 * other.d2, off)


def generator_matrix(
    xi1: HeckeCharacter, xi2: HeckeCharacter, s: str
) -> SymMatrix:
    """Action of the generator at s on (sub, lifted quotient) basis."""
    return SymMatrix(
        -1 if s in xi1.marked else 0,
        -1 if s in xi2.marked else 0,
        {s: 1},
    )


def torus_rows(
    datum: TorusDatum, cox: AffineCoxeterDatum, chi1: Character, chi2: Character
) -> tuple[frozenset[str], tuple[int, ...]]:
    """The torus part of the system, shared by every mark pair over chi1, chi2.

    These are the reflections whose constant the torus commutation relation
    kills, twist(chi2, s) != chi1, and c_chi1(s) for each reflection in order.
    """
    killed = frozenset(s for s in cox.labels if twist(datum, chi2, s) != chi1)
    return killed, tuple(c_value(datum, chi1, s) for s in cox.labels)


def torus_kill_set(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
) -> frozenset[str]:
    """Reflections whose constant dies by the torus commutation relation."""
    return torus_rows(datum, cox, xi1.torus_char, xi2.torus_char)[0]


def _word_product(matrices: Mapping[str, SymMatrix], word: Sequence[str]) -> SymMatrix:
    acc = SymMatrix(1, 1, {})
    for s in word:
        acc = acc @ matrices[s]
    return acc


@functools.cache
def _braid_coefficients(
    m: int, s_marks: tuple[bool, bool], t_marks: tuple[bool, bool]
) -> tuple[int, int] | None:
    """Coefficients on s and t of the off-diagonal of (stst...) - (tsts...).

    The braid row of a pair depends only on its order m and on whether s
    and t are marked on each side, so each of these patterns is multiplied
    out once.  None when the two words disagree on the diagonal.
    """
    matrices = {
        u: SymMatrix(-1 if marks[0] else 0, -1 if marks[1] else 0, {u: 1})
        for u, marks in (("s", s_marks), ("t", t_marks))
    }
    left = _word_product(matrices, alternating_word("s", "t", m))
    right = _word_product(matrices, alternating_word("t", "s", m))
    if left.d1 != right.d1 or left.d2 != right.d2:
        return None
    return tuple(left.off.get(u, 0) - right.off.get(u, 0) for u in ("s", "t"))


def build_system(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
) -> ConstraintSystem:
    """Assemble all torus, quadratic and finite-braid rows."""
    killed, c_values = torus_rows(datum, cox, xi1.torus_char, xi2.torus_char)
    return assemble_system(cox, datum.residue_char, killed, c_values, xi1, xi2)


def assemble_system(
    cox: AffineCoxeterDatum,
    p: int,
    killed: frozenset[str],
    c_values: tuple[int, ...],
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
) -> ConstraintSystem:
    """The mark part of the system: rows over F_p for one pair of marked sets."""
    unknowns = tuple(cox.labels)
    index = {s: i for i, s in enumerate(unknowns)}
    rows: list[tuple[tuple[int, ...], str]] = []

    def unit_row(s: str, coeff: int) -> tuple[int, ...]:
        return tuple(coeff if i == index[s] else 0 for i in range(len(unknowns)))

    for s in cox.labels:
        if s in killed:
            rows.append((unit_row(s, 1), "TorusKill(%s)" % s))

    for s, c in zip(cox.labels, c_values):
        m = generator_matrix(xi1, xi2, s)
        # off-diagonal of M^2 + diag(c1, c2) * M; diagonals vanish identically
        rows.append((unit_row(s, (m.d1 + m.d2 + c) % p), "Quadratic(%s)" % s))

    for s, t, m in cox.finite_pairs():
        coefficients = _braid_coefficients(
            m,
            (s in xi1.marked, s in xi2.marked),
            (t in xi1.marked, t in xi2.marked),
        )
        if coefficients is None:
            raise TheoryMismatchError(
                "braid products for (%s,%s) disagree on the diagonal" % (s, t)
            )
        row = [0] * len(unknowns)
        row[index[s]], row[index[t]] = coefficients
        rows.append((tuple(v % p for v in row), "Braid(%s,%s)" % (s, t)))

    return ConstraintSystem(unknowns, tuple(rows), p)


def _rref(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Row-reduce mod p; returns reduced rows and pivot column indices."""
    pivots: list[int] = []
    work = [row[:] for row in rows]
    col = 0
    r = 0
    while col < ncols and r < len(work):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] % p), None)
        if pivot_row is None:
            col += 1
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][col], -1, p)
        work[r] = [(inv * v) % p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] % p:
                factor = work[i][col]
                work[i] = [(v - factor * w) % p for v, w in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        col += 1
    reduced = work[: len(pivots)]
    return reduced, pivots


def kernel_basis(system: ConstraintSystem) -> list[tuple[int, ...]]:
    """Basis of the solution space over F_p, one vector per free unknown."""
    p = system.prime
    n = len(system.unknowns)
    rows = [[v % p for v in coeffs] for coeffs, _ in system.rows]
    reduced, pivots = _rref(rows, n, p)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-reduced[r][fc]) % p
        basis.append(tuple(vec))
    return basis


def in_kernel(system: ConstraintSystem, vec: Sequence[int]) -> bool:
    p = system.prime
    return all(
        sum(c * v for c, v in zip(coeffs, vec)) % p == 0
        for coeffs, _ in system.rows
    )


def coboundary_vector(
    cox: AffineCoxeterDatum, xi1: HeckeCharacter, xi2: HeckeCharacter, p: int
) -> tuple[int, ...]:
    """Structure-constant change induced by re-choosing the section."""
    return tuple(
        ((1 if s in xi1.marked else 0) - (1 if s in xi2.marked else 0)) % p
        for s in cox.labels
    )


def oracle_ext_dimension(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
) -> int:
    """Kernel dimension, with the coboundary direction quotiented out."""
    return system_ext_dimension(build_system(datum, cox, xi1, xi2), cox, xi1, xi2)


def system_ext_dimension(
    system: ConstraintSystem,
    cox: AffineCoxeterDatum,
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
) -> int:
    """``oracle_ext_dimension`` from the pair's already built constraint system."""
    dim = len(kernel_basis(system))
    if xi1.torus_char == xi2.torus_char and xi1.marked != xi2.marked:
        cob = coboundary_vector(cox, xi1, xi2, system.prime)
        if not in_kernel(system, cob):
            raise TheoryMismatchError(
                "coboundary vector is not a solution for %r vs %r"
                % (xi1, xi2)
            )
        dim -= 1
    return dim


def _numeric_matrix(
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
    s: str,
    assignment: Mapping[str, int],
    p: int,
) -> tuple[tuple[int, int], tuple[int, int]]:
    d1 = (-1 if s in xi1.marked else 0) % p
    d2 = (-1 if s in xi2.marked else 0) % p
    return ((d1, assignment.get(s, 0) % p), (0, d2))


def _matmul2(a, b, p):
    return (
        (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p,
            (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p,
        ),
        (
            (a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p,
            (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p,
        ),
    )


def verify_solution(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    xi1: HeckeCharacter,
    xi2: HeckeCharacter,
    assignment: Mapping[str, int],
) -> bool:
    """Check a concrete structure-constant vector against full 2x2 identities.

    Unlike the row reduction, this substitutes the values and checks every
    quadratic and finite braid identity as a complete matrix equation, and
    checks the torus commutation kills directly.
    """
    p = datum.residue_char
    for s in torus_kill_set(datum, cox, xi1, xi2):
        if assignment.get(s, 0) % p != 0:
            return False
    identity = ((1, 0), (0, 1))
    for s in cox.labels:
        m = _numeric_matrix(xi1, xi2, s, assignment, p)
        c1 = c_value(datum, xi1.torus_char, s)
        c2 = c_value(datum, xi2.torus_char, s)
        sq = _matmul2(m, m, p)
        cm = (
            ((c1 * m[0][0]) % p, (c1 * m[0][1]) % p),
            ((c2 * m[1][0]) % p, (c2 * m[1][1]) % p),
        )
        total = tuple(
            tuple((x + y) % p for x, y in zip(r1, r2)) for r1, r2 in zip(sq, cm)
        )
        if total != ((0, 0), (0, 0)):
            return False
    for s, t, m_order in cox.finite_pairs():
        left = identity
        for u in alternating_word(s, t, m_order):
            left = _matmul2(left, _numeric_matrix(xi1, xi2, u, assignment, p), p)
        right = identity
        for u in alternating_word(t, s, m_order):
            right = _matmul2(right, _numeric_matrix(xi1, xi2, u, assignment, p), p)
        if left != right:
            return False
    return True
