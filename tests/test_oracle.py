"""Brute-force engine: constraint assembly, kernels, coboundary quotient."""

import itertools

import pytest

from heckext.hecke import enumerate_hecke_characters, hecke_character
from heckext import oracle
from heckext.oracle import (
    ConstraintSystem,
    SymMatrix,
    TheoryMismatchError,
    build_system,
    coboundary_vector,
    generator_matrix,
    in_kernel,
    kernel_basis,
    oracle_ext_dimension,
    torus_kill_set,
    verify_solution,
)
from heckext.presets import sl2, sl_n, u21
from heckext.torus import character


def make(preset, phases, marked):
    chi = character(preset.torus, phases)
    return hecke_character(preset.torus, preset.coxeter, chi, marked)


def test_torus_kill_set():
    preset = sl2(5)
    xi1 = make(preset, ["1/4"], ())
    xi3 = make(preset, ["3/4"], ())
    xi2 = make(preset, ["2/4"], ())
    assert torus_kill_set(preset.torus, preset.coxeter, xi1, xi3) == frozenset()
    assert torus_kill_set(preset.torus, preset.coxeter, xi1, xi2) == {"s0", "s1"}
    trivial = make(preset, [0], ())
    assert torus_kill_set(preset.torus, preset.coxeter, trivial, trivial) == frozenset()


def test_generator_matrix_shapes():
    preset = sl2(5)
    both = make(preset, [0], {"s0"})
    neither = make(preset, [0], ())
    m = generator_matrix(both, both, "s0")
    assert (m.d1, m.d2, m.off) == (-1, -1, {"s0": 1})
    m = generator_matrix(neither, neither, "s0")
    assert (m.d1, m.d2, m.off) == (0, 0, {"s0": 1})
    m = generator_matrix(both, neither, "s0")
    assert (m.d1, m.d2, m.off) == (-1, 0, {"s0": 1})


def test_quadratic_row_kills_doubly_marked():
    preset = sl2(5)
    xi = make(preset, [0], {"s0"})
    system = build_system(preset.torus, preset.coxeter, xi, xi)
    rows = dict((tag, coeffs) for coeffs, tag in system.rows)
    # coefficient (-1) + (-1) + 1 = -1, reduced mod 5
    assert rows["Quadratic(s0)"] == (4, 0)
    assert all(not tag.startswith("Braid") for _, tag in system.rows)


def test_braid_rows_match_numeric_products():
    # independent check: evaluate both alternating products numerically on
    # unit assignments and compare the off-diagonal difference with the row
    from heckext.coxeter import alternating_word
    from heckext.oracle import _matmul2, _numeric_matrix

    preset = sl_n(3, 2)
    chars = enumerate_hecke_characters(preset.torus, preset.coxeter)
    p = preset.torus.residue_char
    for xi1, xi2 in itertools.product(chars[:4], chars[:4]):
        system = build_system(preset.torus, preset.coxeter, xi1, xi2)
        braid_rows = [
            (coeffs, tag) for coeffs, tag in system.rows if tag.startswith("Braid")
        ]
        assert braid_rows
        for coeffs, tag in braid_rows:
            s, t = tag[len("Braid(") : -1].split(",")
            m = int(preset.coxeter.order(s, t))
            for k, u in enumerate(system.unknowns):
                assignment = {u: 1}
                left = ((1, 0), (0, 1))
                for w in alternating_word(s, t, m):
                    left = _matmul2(
                        left, _numeric_matrix(xi1, xi2, w, assignment, p), p
                    )
                right = ((1, 0), (0, 1))
                for w in alternating_word(t, s, m):
                    right = _matmul2(
                        right, _numeric_matrix(xi1, xi2, w, assignment, p), p
                    )
                assert (left[0][1] - right[0][1]) % p == coeffs[k] % p


def test_kernel_dimension_basics():
    empty = ConstraintSystem(("a", "b", "c"), (), 5)
    assert len(kernel_basis(empty)) == 3
    units = ConstraintSystem(
        ("a", "b"), (((1, 0), "u0"), ((0, 1), "u1")), 5
    )
    assert len(kernel_basis(units)) == 0
    single = ConstraintSystem(("a", "b"), (((1, 1), "r"),), 2)
    assert len(kernel_basis(single)) == 1
    assert kernel_basis(single) == [(1, 1)]


def test_oracle_dimensions_sl2():
    preset = sl2(5)
    assert (
        oracle_ext_dimension(
            preset.torus,
            preset.coxeter,
            make(preset, ["1/4"], ()),
            make(preset, ["3/4"], ()),
        )
        == 2
    )
    assert (
        oracle_ext_dimension(
            preset.torus,
            preset.coxeter,
            make(preset, [0], {"s0"}),
            make(preset, [0], {"s1"}),
        )
        == 1
    )


def test_oracle_commuting_tied_pair_quotients_to_zero():
    # opposite nodes of the 4-cycle: braid row ties a_{s1} = -a_{s3};
    # the coboundary spans the one-dimensional kernel
    preset = sl_n(4, 5)
    xi1 = make(preset, [0, 0, 0], {"s1"})
    xi2 = make(preset, [0, 0, 0], {"s3"})
    system = build_system(preset.torus, preset.coxeter, xi1, xi2)
    assert len(kernel_basis(system)) == 1
    assert (
        oracle_ext_dimension(preset.torus, preset.coxeter, xi1, xi2) == 0
    )


def test_coboundary_vector_in_kernel():
    preset = sl2(5)
    xi1 = make(preset, [0], {"s0"})
    xi2 = make(preset, [0], {"s1"})
    system = build_system(preset.torus, preset.coxeter, xi1, xi2)
    cob = coboundary_vector(preset.coxeter, xi1, xi2, preset.torus.residue_char)
    assert cob == (1, 4)
    assert in_kernel(system, cob)


def test_verify_solution_zero_and_coboundary():
    preset = u21(2)
    chars = enumerate_hecke_characters(preset.torus, preset.coxeter)
    zero = {}
    for xi1, xi2 in itertools.product(chars, chars):
        assert verify_solution(preset.torus, preset.coxeter, xi1, xi2, zero)
        if xi1.torus_char == xi2.torus_char:
            cob = coboundary_vector(
                preset.coxeter, xi1, xi2, preset.torus.residue_char
            )
            assignment = dict(zip(preset.coxeter.labels, cob))
            assert verify_solution(
                preset.torus, preset.coxeter, xi1, xi2, assignment
            )


def test_verify_solution_rejects_bad_assignment():
    preset = sl2(5)
    xi = make(preset, [0], {"s0"})
    assert not verify_solution(
        preset.torus, preset.coxeter, xi, xi, {"s0": 1}
    )


def test_kernel_vectors_verify_on_samples():
    for preset in (sl2(5), sl_n(3, 2), u21(2)):
        chars = enumerate_hecke_characters(preset.torus, preset.coxeter)
        for xi1, xi2 in itertools.product(chars, chars):
            system = build_system(preset.torus, preset.coxeter, xi1, xi2)
            for vec in kernel_basis(system):
                assignment = dict(zip(system.unknowns, vec))
                assert verify_solution(
                    preset.torus, preset.coxeter, xi1, xi2, assignment
                )


def test_row_order_invariance():
    preset = sl_n(3, 2)
    chars = enumerate_hecke_characters(preset.torus, preset.coxeter)
    for xi1, xi2 in itertools.product(chars[:5], chars[:5]):
        system = build_system(preset.torus, preset.coxeter, xi1, xi2)
        reversed_system = ConstraintSystem(
            system.unknowns, tuple(reversed(system.rows)), system.prime
        )
        assert len(kernel_basis(system)) == len(kernel_basis(reversed_system))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_braid_coefficients_equal_direct_word_products(m):
    for s1, s2, t1, t2 in itertools.product((False, True), repeat=4):
        gens = {
            "s": SymMatrix(-int(s1), -int(s2), {"s": 1}),
            "t": SymMatrix(-int(t1), -int(t2), {"t": 1}),
        }
        left = right = SymMatrix(1, 1, {})
        for k in range(m):
            left = left @ gens["st"[k % 2]]
            right = right @ gens["ts"[k % 2]]
        assert (left.d1, left.d2) == (right.d1, right.d2)
        direct = tuple(left.off.get(u, 0) - right.off.get(u, 0) for u in "st")
        assert oracle._braid_coefficients(m, (s1, s2), (t1, t2)) == direct


def test_braid_diagonal_disagreement_names_the_pair(monkeypatch):
    preset = sl_n(3, 3)
    xi = make(preset, [0, 0], ())
    s, t, _ = next(iter(preset.coxeter.finite_pairs()))
    monkeypatch.setattr(oracle, "_braid_coefficients", lambda m, s, t: None)
    with pytest.raises(TheoryMismatchError, match=r"for \(%s,%s\) disagree" % (s, t)):
        build_system(preset.torus, preset.coxeter, xi, xi)
