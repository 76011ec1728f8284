"""Binary linear-constraint-system games: operator solutions, the perfect
strategies they give, and the glued-magic-square non-rigidity witness.

Constraints are multiplicative: the +/-1 observables assigned to the listed
variables must multiply to the constraint's sign. The magic square and its
glued double are shipped with their known operator solutions, which
``verify_operator_solution`` checks (reporting every defect) and
``solution_to_strategy`` turns into a perfect strategy with its value.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

import numpy as np

from . import numerics
from .records import Record

# Largest Frobenius defect an operator solution may show and still verify.
SOLUTION_TOL = 1e-10

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class BinaryLCS(Record):
    """A system of sign constraints over +/-1 variables."""

    variable_count: int
    constraints: Tuple[Tuple[Tuple[int, ...], int], ...]

    def __post_init__(self):
        cons = []
        for variables, sign in self.constraints:
            variables = tuple(int(v) for v in variables)
            if not variables:
                raise ValueError("empty constraint")
            if any(not (0 <= v < self.variable_count) for v in variables):
                raise ValueError(f"variable index out of range: {variables}")
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")
            cons.append((variables, int(sign)))
        object.__setattr__(self, "constraints", tuple(cons))

    def satisfying_signs(self, index: int) -> List[Tuple[int, ...]]:
        """+/-1 assignments to the constraint's variables with the right
        product, in lexicographic order (+1 before -1 per slot)."""
        variables, sign = self.constraints[index]
        out = []
        for bits in itertools.product((1, -1), repeat=len(variables)):
            if int(np.prod(bits)) == sign:
                out.append(bits)
        return out


class OperatorSolution(Record):
    """One binary observable per variable, all on a common dimension."""

    dim: int
    observables: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(
            np.asarray(M, dtype=np.complex128) for M in self.observables))


class SolutionReport(Record):
    observable_defects: Tuple[Tuple[int, float], ...]
    commutation_defects: Tuple[Tuple[int, int, int, float], ...]
    product_defects: Tuple[Tuple[int, float], ...]

    @property
    def clean(self) -> bool:
        return not (self.observable_defects or self.commutation_defects
                    or self.product_defects)


def verify_operator_solution(lcs: BinaryLCS,
                             sol: OperatorSolution) -> SolutionReport:
    """Check binary observables, within-constraint commutation, and the
    signed products; every defect is reported, none raises."""
    if len(sol.observables) != lcs.variable_count:
        raise ValueError("one observable per variable required")
    eye = np.eye(sol.dim)
    obs_defects = []
    for j, M in enumerate(sol.observables):
        defect = max(numerics.frob(M - numerics.adjoint(M)),
                     numerics.frob(M @ M - eye))
        if defect > SOLUTION_TOL:
            obs_defects.append((j, defect))
    comm_defects = []
    prod_defects = []
    for i, (variables, sign) in enumerate(lcs.constraints):
        for a, b in itertools.combinations(variables, 2):
            Ma, Mb = sol.observables[a], sol.observables[b]
            defect = numerics.frob(Ma @ Mb - Mb @ Ma)
            if defect > SOLUTION_TOL:
                comm_defects.append((i, a, b, defect))
        prod = eye
        for v in variables:
            prod = prod @ sol.observables[v]
        defect = numerics.frob(prod - sign * eye)
        if defect > SOLUTION_TOL:
            prod_defects.append((i, defect))
    return SolutionReport(tuple(obs_defects), tuple(comm_defects),
                          tuple(prod_defects))


# ---------------------------------------------------------------------------
# The magic square and its glued double
# ---------------------------------------------------------------------------

def magic_square_observables() -> List[np.ndarray]:
    """The nine two-qubit observables of the standard square, row-major."""
    return [
        np.kron(PAULI_I, PAULI_Z), np.kron(PAULI_Z, PAULI_I),
        np.kron(PAULI_Z, PAULI_Z),
        np.kron(PAULI_X, PAULI_I), np.kron(PAULI_I, PAULI_X),
        np.kron(PAULI_X, PAULI_X),
        np.kron(PAULI_X, PAULI_Z), np.kron(PAULI_Z, PAULI_X),
        np.kron(PAULI_Y, PAULI_Y),
    ]


def magic_square() -> Tuple[BinaryLCS, OperatorSolution]:
    """The 9-variable, 6-constraint square: rows and the first two columns
    multiply to +1, the last column to -1."""
    lcs = BinaryLCS(variable_count=9, constraints=(
        ((0, 1, 2), 1), ((3, 4, 5), 1), ((6, 7, 8), 1),
        ((0, 3, 6), 1), ((1, 4, 7), 1), ((2, 5, 8), -1),
    ))
    sol = OperatorSolution(dim=4, observables=tuple(
        magic_square_observables()))
    return lcs, sol


GLUED_REFLECTION = {9: 2, 10: 1, 11: 0, 12: 5, 13: 4, 14: 3,
                    15: 8, 16: 7, 17: 6}


def glued_magic_square() -> Tuple[BinaryLCS, OperatorSolution,
                                  OperatorSolution]:
    """Two magic squares sharing a single six-variable -1 constraint.

    Returns (system, E, F). F solves it in dimension 4 by playing the
    square solution on variables 0..8 and the identity on the second
    square. E is the dimension-8 block solution diag(I, A) on the first
    square and diag(A', I) on the second, where second-square variable i
    plays the square observable ``GLUED_REFLECTION[i]``: each row is
    mirrored, so every constraint holds (the same position in the first
    square would break the shared constraint: its product would be
    diag(I, -I)).
    """
    lcs = BinaryLCS(variable_count=18, constraints=(
        ((0, 1, 2), 1), ((3, 4, 5), 1), ((6, 7, 8), 1),
        ((0, 3, 6), 1), ((1, 4, 7), 1),
        ((2, 5, 8, 9, 12, 15), -1),
        ((9, 10, 11), 1), ((12, 13, 14), 1), ((15, 16, 17), 1),
        ((10, 13, 16), 1), ((11, 14, 17), 1),
    ))
    A = magic_square_observables()
    eye4 = np.eye(4, dtype=np.complex128)
    f_obs = [A[i] for i in range(9)] + [eye4] * 9
    e_obs = []
    for i in range(9):
        e_obs.append(np.block([
            [eye4, np.zeros((4, 4))], [np.zeros((4, 4)), A[i]]]))
    for i in range(9, 18):
        e_obs.append(np.block([
            [A[GLUED_REFLECTION[i]], np.zeros((4, 4))],
            [np.zeros((4, 4)), eye4]]))
    return (lcs, OperatorSolution(dim=8, observables=tuple(e_obs)),
            OperatorSolution(dim=4, observables=tuple(f_obs)))


def glue_product(sol: OperatorSolution, lcs: BinaryLCS) -> np.ndarray:
    """Product of the observables along the shared six-variable
    constraint."""
    variables, _ = next(
        (vs, sg) for vs, sg in lcs.constraints if len(vs) == 6)
    prod = np.eye(sol.dim, dtype=np.complex128)
    for v in variables:
        prod = prod @ sol.observables[v]
    return prod


# ---------------------------------------------------------------------------
# Perfect strategies from operator solutions
# ---------------------------------------------------------------------------

class LCSStrategy(Record):
    """A strategy for a binary LCS game built from an operator solution.

    Alice's measurement for constraint i assigns a projector to each
    satisfying +/-1 pattern; Bob measures the transposed observable of his
    variable; the state is maximally entangled.
    """

    dim: int
    alice_projectors: Tuple[Tuple[np.ndarray, ...], ...]
    bob_observables: Tuple[np.ndarray, ...]
    state: np.ndarray


def maximally_entangled(dim: int) -> np.ndarray:
    return (np.eye(dim, dtype=np.complex128) / np.sqrt(dim)).reshape(-1)


def solution_to_strategy(lcs: BinaryLCS, sol: OperatorSolution
                         ) -> Tuple[LCSStrategy, float]:
    """Build the perfect strategy of a verified solution and return it with
    its winning probability.

    Alice's projector for pattern x is the product of the commuting
    projectors (I + x_j M_j)/2 over the constraint's variables; patterns
    violating the sign get the zero projector, so the satisfying ones
    resolve the identity.
    """
    report = verify_operator_solution(lcs, sol)
    if not report.clean:
        raise ValueError(f"operator solution fails verification: {report}")
    d = sol.dim
    eye = np.eye(d)
    alice = []
    for i, (variables, sign) in enumerate(lcs.constraints):
        projs = []
        for pattern in lcs.satisfying_signs(i):
            P = eye
            for x, v in zip(pattern, variables):
                P = P @ (eye + x * sol.observables[v]) / 2
            projs.append(P)
        alice.append(tuple(projs))
    bob = tuple(M.T.copy() for M in sol.observables)
    psi = maximally_entangled(d)
    strat = LCSStrategy(dim=d, alice_projectors=tuple(alice),
                        bob_observables=bob, state=psi)
    return strat, lcs_strategy_value(lcs, strat)


def lcs_strategy_value(lcs: BinaryLCS, strat: LCSStrategy) -> float:
    """Winning probability: uniform over (constraint, member variable)
    pairs; they win when Bob's +/-1 outcome matches Alice's pattern at his
    variable."""
    psi = strat.state.reshape(strat.dim, strat.dim)
    pairs = [(i, j) for i, (vs, _) in enumerate(lcs.constraints) for j in vs]
    value = 0.0
    eye = np.eye(strat.dim)
    for i, j in pairs:
        variables, _ = lcs.constraints[i]
        pos = variables.index(j)
        B = strat.bob_observables[j]
        bob_proj = {1: (eye + B) / 2, -1: (eye - B) / 2}
        for pattern, E in zip(lcs.satisfying_signs(i),
                              strat.alice_projectors[i]):
            F = bob_proj[pattern[pos]]
            value += float(np.real(np.vdot(psi, E @ psi @ F.T)))
    return value / len(pairs)


def nonrigidity_witness() -> Tuple[float, float, float]:
    """(inner product, trace, anticommutator norm) distinguishing the two
    glued solutions: <psi|(E5 E1 (x) I)|psi> = 1/2 and Tr(E1 E5) = 4, while
    F1 and F5 anticommute exactly."""
    _, E, F = glued_magic_square()
    e1, e5 = E.observables[0], E.observables[4]
    f1, f5 = F.observables[0], F.observables[4]
    psi = maximally_entangled(E.dim).reshape(E.dim, E.dim)
    inner = float(np.real(np.vdot(psi, (e5 @ e1) @ psi)))
    trace = float(np.real(np.trace(e1 @ e5)))
    anticomm = numerics.frob(f1 @ f5 + f5 @ f1)
    return inner, trace, anticomm
