import itertools
from typing import Dict, List, Tuple

import numpy as np
import pytest
from test_acceptance import literal_glued_solution
from test_gamekit import binary_lcs_game

from znlcs import numerics
from znlcs.bcskit import (BinaryLCS, LCSStrategy, OperatorSolution,
                          glue_product, glued_magic_square,
                          lcs_strategy_value, magic_square,
                          magic_square_observables, maximally_entangled,
                          nonrigidity_witness, solution_to_strategy,
                          verify_operator_solution)
from znlcs.gamekit import classical_value
from znlcs.records import Record


# ---------------------------------------------------------------------------
# References: checks of LCS claims that no command reports
# ---------------------------------------------------------------------------

def alice_constraint_observable(strat: LCSStrategy, lcs: BinaryLCS,
                                i: int, j: int) -> np.ndarray:
    """Alice's effective observable for variable j within constraint i:
    sum over her outcomes of the pattern sign at j times the projector."""
    variables, _ = lcs.constraints[i]
    pos = variables.index(j)
    out = np.zeros((strat.dim, strat.dim), dtype=np.complex128)
    for pattern, E in zip(lcs.satisfying_signs(i), strat.alice_projectors[i]):
        out += pattern[pos] * E
    return out


def perfect_conditions_residual(lcs: BinaryLCS,
                                strat: LCSStrategy) -> Tuple[float, float]:
    """(consistency, constraint) residuals of the perfect-strategy
    conditions: Bob's observable agrees with Alice's effective observable on
    the state, and Alice's projectors resolve the identity."""
    psi = strat.state.reshape(strat.dim, strat.dim)
    worst_match = 0.0
    worst_complete = 0.0
    for i, (variables, _) in enumerate(lcs.constraints):
        total = sum(strat.alice_projectors[i], np.zeros_like(psi))
        worst_complete = max(worst_complete, float(np.linalg.norm(
            total @ psi - psi)))
        for j in variables:
            Aij = alice_constraint_observable(strat, lcs, i, j)
            B = strat.bob_observables[j]
            worst_match = max(worst_match, float(np.linalg.norm(
                psi @ B.T - Aij @ psi)))
    return worst_match, worst_complete


def winning_identity_residual(lcs: BinaryLCS, strat: LCSStrategy,
                              sol: OperatorSolution) -> float:
    """Residual of the algebraic identity expressing the losing probability
    on a question pair as a sum of three squares.

    For constraint i and variable j in it, with A = Alice's effective
    observable, P = sign * product of her effective observables along the
    constraint, and B = Bob's observable on the other factor:
    I - sum_x E_{i,x} (x) F_{x_j} =
    (1/8) [ (I - BA)^2 + (I - P)^2 + (I - P A B)^2 ].
    """
    d = strat.dim
    eye2 = np.eye(d * d)
    worst = 0.0
    for i, (variables, sign) in enumerate(lcs.constraints):
        prodA = sign * np.eye(d, dtype=np.complex128)
        for v in variables:
            prodA = prodA @ alice_constraint_observable(strat, lcs, i, v)
        for j in variables:
            pos = variables.index(j)
            Aij = alice_constraint_observable(strat, lcs, i, j)
            B = strat.bob_observables[j]
            win = np.zeros((d * d, d * d), dtype=np.complex128)
            for pattern, E in zip(lcs.satisfying_signs(i),
                                  strat.alice_projectors[i]):
                Fb = (np.eye(d) + pattern[pos] * B) / 2
                win += np.kron(E, Fb)
            BA = np.kron(Aij, B)
            P = np.kron(prodA, np.eye(d))
            terms = ((eye2 - BA) @ (eye2 - BA)
                     + (eye2 - P) @ (eye2 - P)
                     + (eye2 - P @ BA) @ (eye2 - P @ BA))
            worst = max(worst, float(np.linalg.norm(
                (eye2 - win) - terms / 8.0)))
    return worst


class SolutionGroupPresentation(Record):
    """Generators g_1..g_s and the central sign J with the four relator
    families of the solution group."""

    generators: Tuple[str, ...]
    relators: Tuple[Tuple[str, ...], ...]


def solution_group(lcs: BinaryLCS) -> SolutionGroupPresentation:
    s = lcs.variable_count
    gens = tuple(f"g{j}" for j in range(s)) + ("J",)
    relators: List[Tuple[str, ...]] = []
    for j in range(s):
        relators.append((f"g{j}", f"g{j}"))
    relators.append(("J", "J"))
    for j in range(s):
        relators.append((f"g{j}", "J", f"g{j}", "J"))
    for variables, _ in lcs.constraints:
        for a, b in itertools.combinations(variables, 2):
            relators.append((f"g{a}", f"g{b}", f"g{a}", f"g{b}"))
    for variables, sign in lcs.constraints:
        word = tuple(f"g{v}" for v in variables)
        if sign == -1:
            word = word + ("J",)
        relators.append(word)
    return SolutionGroupPresentation(generators=gens,
                                     relators=tuple(relators))


def solution_group_defect(lcs: BinaryLCS, sol: OperatorSolution) -> float:
    """Max relator defect when g_j maps to the solution observable and J to
    -I (every relator should evaluate to the identity)."""
    pres = solution_group(lcs)
    images: Dict[str, np.ndarray] = {"J": -np.eye(sol.dim)}
    for j, M in enumerate(sol.observables):
        images[f"g{j}"] = M
    eye = np.eye(sol.dim)
    worst = 0.0
    for rel in pres.relators:
        M = eye
        for name in rel:
            M = M @ images[name]
        worst = max(worst, numerics.frob(M - eye))
    return worst


def test_magic_square_solution_verifies():
    lcs, sol = magic_square()
    assert verify_operator_solution(lcs, sol).clean


def test_magic_square_observables_are_pauli_products():
    obs = magic_square_observables()
    assert len(obs) == 9
    for M in obs:
        assert M.shape == (4, 4)
        assert np.linalg.norm(M - M.conj().T) < 1e-12
        assert np.linalg.norm(M @ M - np.eye(4)) < 1e-12


def test_magic_square_has_no_scalar_solution():
    # Oracle: brute-force all 2^9 sign assignments; none satisfies all six
    # constraints (that is what makes the game pseudo-telepathic).
    lcs, _ = magic_square()
    for bits in range(2 ** 9):
        signs = [1 - 2 * ((bits >> j) & 1) for j in range(9)]
        ok = all(np.prod([signs[v] for v in vs]) == sg
                 for vs, sg in lcs.constraints)
        assert not ok


def test_magic_square_classical_value():
    # 17 of the 18 (constraint, variable) pairs at best, reached by 288
    # deterministic pairs.
    lcs, _ = magic_square()
    value, pairs = classical_value(binary_lcs_game(lcs))
    assert value == pytest.approx(17.0 / 18.0, abs=1e-12)
    assert pairs == 288


def test_magic_square_strategy_is_perfect():
    lcs, sol = magic_square()
    strat, value = solution_to_strategy(lcs, sol)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert lcs_strategy_value(lcs, strat) == pytest.approx(1.0, abs=1e-9)
    match, complete = perfect_conditions_residual(lcs, strat)
    assert match < 1e-9
    assert complete < 1e-9
    assert winning_identity_residual(lcs, strat, sol) < 1e-9


def test_glued_solutions_verify_and_win():
    lcs, E, F = glued_magic_square()
    for sol in (E, F):
        assert verify_operator_solution(lcs, sol).clean
        _, value = solution_to_strategy(lcs, sol)
        assert value == pytest.approx(1.0, abs=1e-9)


def test_glued_literal_mapping_breaks_glue_constraint():
    lcs, E = literal_glued_solution()
    report = verify_operator_solution(lcs, E)
    assert not report.clean
    glue_index = next(i for i, (vs, _) in enumerate(lcs.constraints)
                      if len(vs) == 6)
    assert glue_index in {i for i, _ in report.product_defects}
    prod = glue_product(E, lcs)
    expected = np.diag([1.0] * 4 + [-1.0] * 4)
    assert np.allclose(prod, expected, atol=1e-12)


def test_nonrigidity_witness_values():
    inner, trace, anticomm = nonrigidity_witness()
    assert inner == pytest.approx(0.5, abs=1e-9)
    assert trace == pytest.approx(4.0, abs=1e-9)
    assert anticomm == pytest.approx(0.0, abs=1e-9)


def test_maximally_entangled_state():
    psi = maximally_entangled(4)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    # Transpose trick: (M x I)|psi> = (I x M^T)|psi>.
    M = np.diag([1.0, -1.0, 1.0, -1.0])
    lhs = np.kron(M, np.eye(4)) @ psi
    rhs = np.kron(np.eye(4), M.T) @ psi
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_solution_group_relators():
    lcs, sol = magic_square()
    pres = solution_group(lcs)
    assert len(pres.generators) == 10  # g0..g8 and J
    # g^2 relators (10), commutation with J (9), in-constraint pairs
    # (6 constraints x 3 pairs), product relators (6).
    assert len(pres.relators) == 10 + 9 + 18 + 6
    assert solution_group_defect(lcs, sol) < 1e-12


def test_glued_solution_group_defects():
    lcs, E, F = glued_magic_square()
    assert solution_group_defect(lcs, E) < 1e-12
    assert solution_group_defect(lcs, F) < 1e-12


def test_corrupted_solution_reported_not_raised():
    lcs, sol = magic_square()
    obs = list(sol.observables)
    obs[0] = np.diag([1.0, 1.0, 1.0, -1.0]) @ obs[0]  # breaks products
    report = verify_operator_solution(
        lcs, OperatorSolution(dim=4, observables=tuple(obs)))
    assert not report.clean
