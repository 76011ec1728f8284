"""Binary linear-constraint-system games: operator solutions, perfect
strategies, solution groups, and the glued-magic-square non-rigidity data.

Constraints are multiplicative: the +/-1 observables assigned to the listed
variables must multiply to the constraint's sign. The magic square and its
glued double are shipped with their known operator solutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .gamekit import GameSpec, LinearSystem, make_lcs_game
from .numerics import adjoint, frob

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class BinaryLCS:
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

    def to_text(self) -> str:
        """One line per constraint: "sign v1 v2 ... vk" with 1-based
        variables."""
        lines = []
        for variables, sign in self.constraints:
            head = "+1" if sign == 1 else "-1"
            lines.append(" ".join([head] + [str(v + 1) for v in variables]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryLCS":
        cons = []
        max_var = 0
        for line in text.strip().splitlines():
            parts = line.split()
            if not parts:
                continue
            sign = int(parts[0])
            variables = tuple(int(p) - 1 for p in parts[1:])
            max_var = max(max_var, max(variables) + 1)
            cons.append((variables, sign))
        return cls(variable_count=max_var, constraints=tuple(cons))

    def to_linear_system(self) -> LinearSystem:
        """Additive Z_2 form: sign +1 -> rhs 0, sign -1 -> rhs 1."""
        return LinearSystem(
            modulus=2,
            equations=tuple(
                (variables, (1,) * len(variables), 0 if sign == 1 else 1)
                for variables, sign in self.constraints))

    def to_game(self) -> GameSpec:
        return make_lcs_game(self.to_linear_system())

    def satisfying_signs(self, index: int) -> List[Tuple[int, ...]]:
        """+/-1 assignments to the constraint's variables with the right
        product, in lexicographic order (+1 before -1 per slot)."""
        variables, sign = self.constraints[index]
        out = []
        for bits in itertools.product((1, -1), repeat=len(variables)):
            if int(np.prod(bits)) == sign:
                out.append(bits)
        return out


@dataclass(frozen=True)
class OperatorSolution:
    """One binary observable per variable, all on a common dimension."""

    dim: int
    observables: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(
            np.asarray(M, dtype=np.complex128) for M in self.observables))


@dataclass(frozen=True)
class SolutionReport:
    observable_defects: Tuple[Tuple[int, float], ...]
    commutation_defects: Tuple[Tuple[int, int, int, float], ...]
    product_defects: Tuple[Tuple[int, float], ...]

    @property
    def clean(self) -> bool:
        return not (self.observable_defects or self.commutation_defects
                    or self.product_defects)


def verify_operator_solution(lcs: BinaryLCS, sol: OperatorSolution,
                             tol: float = 1e-10) -> SolutionReport:
    """Check binary observables, within-constraint commutation, and the
    signed products; every defect is reported, none raises."""
    if len(sol.observables) != lcs.variable_count:
        raise ValueError("one observable per variable required")
    eye = np.eye(sol.dim)
    obs_defects = []
    for j, M in enumerate(sol.observables):
        defect = max(frob(M - adjoint(M)), frob(M @ M - eye))
        if defect > tol:
            obs_defects.append((j, defect))
    comm_defects = []
    prod_defects = []
    for i, (variables, sign) in enumerate(lcs.constraints):
        for a, b in itertools.combinations(variables, 2):
            Ma, Mb = sol.observables[a], sol.observables[b]
            defect = frob(Ma @ Mb - Mb @ Ma)
            if defect > tol:
                comm_defects.append((i, a, b, defect))
        prod = eye
        for v in variables:
            prod = prod @ sol.observables[v]
        defect = frob(prod - sign * eye)
        if defect > tol:
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


def glued_magic_square(mapping: str = "reflected"
                       ) -> Tuple[BinaryLCS, OperatorSolution,
                                  OperatorSolution]:
    """Two magic squares sharing a single six-variable -1 constraint.

    Returns (system, E, F). F solves it in dimension 4 by playing the
    square solution on variables 0..8 and the identity on the second
    square. E is the dimension-8 block solution diag(I, A) on the first
    square and diag(A', I) on the second; ``mapping`` selects how second-
    square variables pick their block: "reflected" mirrors each row
    (the assignment under which every constraint holds) while "literal"
    uses the same position in the first square, which breaks the shared
    constraint (its product is diag(I, -I)).
    """
    if mapping not in ("reflected", "literal"):
        raise ValueError("mapping must be 'reflected' or 'literal'")
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
        src = GLUED_REFLECTION[i] if mapping == "reflected" else i - 9
        e_obs.append(np.block([
            [A[src], np.zeros((4, 4))], [np.zeros((4, 4)), eye4]]))
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

@dataclass(frozen=True)
class LCSStrategy:
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


def solution_to_strategy(lcs: BinaryLCS, sol: OperatorSolution,
                         tol: float = 1e-10
                         ) -> Tuple[LCSStrategy, float]:
    """Build the perfect strategy of a verified solution and return it with
    its winning probability.

    Alice's projector for pattern x is the product of the commuting
    projectors (I + x_j M_j)/2 over the constraint's variables; patterns
    violating the sign get the zero projector, so the satisfying ones
    resolve the identity.
    """
    report = verify_operator_solution(lcs, sol, tol)
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
    anticomm = frob(f1 @ f5 + f5 @ f1)
    return inner, trace, anticomm


# ---------------------------------------------------------------------------
# Solution groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionGroupPresentation:
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
        worst = max(worst, frob(M - eye))
    return worst
