import numpy as np
import pytest

from znlcs.bcskit import (OperatorSolution, glue_product,
                          glued_magic_square, lcs_strategy_value,
                          magic_square, magic_square_observables,
                          maximally_entangled, nonrigidity_witness,
                          perfect_conditions_residual, solution_group,
                          solution_group_defect, solution_to_strategy,
                          verify_operator_solution,
                          winning_identity_residual)
from znlcs.gamekit import classical_value


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
    lcs, _ = magic_square()
    value, _ = classical_value(lcs.to_game())
    assert value == pytest.approx(17.0 / 18.0, abs=1e-12)


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
    lcs, E, _ = glued_magic_square(mapping="literal")
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
