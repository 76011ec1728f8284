"""Quantum strategies for the mod-n games.

The canonical strategy S_n (shift/sign observables and the analytic optimal
state), winning-probability evaluation through projective measurements,
Schmidt/entropy analysis, state-dependent relation residuals, and the
state-restricted representation test. The canonical state's amplitudes
and Schmidt data are plain Python; the functions that build arrays import
numpy where they run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from . import biaskit, gamekit, groupkit, monomial, ncpoly, numerics
from .records import Record

SCHMIDT_RANK_THRESHOLD = 1e-9


class Strategy(Record):
    """Observables of order n for each player plus a shared bipartite state."""

    order: int
    dimA: int
    dimB: int
    alice_obs: Tuple[np.ndarray, ...]
    bob_obs: Tuple[np.ndarray, ...]
    state: np.ndarray

    def __post_init__(self):
        import numpy as np
        object.__setattr__(self, "alice_obs", tuple(
            np.asarray(M, dtype=np.complex128) for M in self.alice_obs))
        object.__setattr__(self, "bob_obs", tuple(
            np.asarray(M, dtype=np.complex128) for M in self.bob_obs))
        object.__setattr__(
            self, "state", np.asarray(self.state, dtype=np.complex128))

    def validate(self) -> None:
        import numpy as np
        n, tol = self.order, numerics.ORDER_TOL
        for dim, obs in ((self.dimA, self.alice_obs),
                         (self.dimB, self.bob_obs)):
            for U in obs:
                if U.shape != (dim, dim):
                    raise ValueError(f"observable shape {U.shape} != {dim}")
                eye = np.eye(dim)
                if numerics.frob(U @ numerics.adjoint(U) - eye) > tol:
                    raise ValueError("observable is not unitary")
                if numerics.frob(np.linalg.matrix_power(U, n) - eye) > tol:
                    raise ValueError(f"observable is not of order {n}")
        if self.state.shape != (self.dimA * self.dimB,):
            raise ValueError("state dimension mismatch")
        if abs(np.linalg.norm(self.state) - 1.0) > 1e-10:
            raise ValueError("state is not a unit vector")

    def assignment(self) -> Dict[Tuple[str, int], np.ndarray]:
        """Letter table for noncommutative polynomial evaluation."""
        out: Dict[Tuple[str, int], np.ndarray] = {}
        for k, M in enumerate(self.alice_obs):
            out[("A", k)] = M
        for k, M in enumerate(self.bob_obs):
            out[("B", k)] = M
        return out


def canonical_amplitudes(n: int) -> List[complex]:
    """The analytic optimal state's amplitudes (1 - z^{n+2i+1})/gamma on
    |i, -i mod n>, i = 0..n-1, with z = e^{i pi/2n} and
    gamma^2 = 2n + 2/sin(pi/2n)."""
    t = math.pi / (2 * n)
    gamma = math.sqrt(2 * n + 2.0 / math.sin(t))
    cos, sin = math.cos, math.sin
    return [complex(1.0 - cos(k * t), -sin(k * t)) / gamma
            for k in range(n + 1, 3 * n, 2)]


def canonical_state(n: int) -> np.ndarray:
    """The analytic optimal state in C^n (x) C^n: ``canonical_amplitudes``
    on the anti-diagonal |i, -i mod n>, zero elsewhere."""
    import numpy as np
    i = np.arange(n)
    psi = np.zeros((n, n), dtype=np.complex128)
    psi[i, -i % n] = canonical_amplitudes(n)
    return psi.reshape(n * n)


def canonical_strategy(n: int) -> Strategy:
    """The optimal strategy S_n: A0 = B0 = X, A1 = z^2 D_0 X,
    B1 = z^2 D_0 X^*."""
    if n < 2:
        raise ValueError("order must be >= 2")
    a0, a1 = monomial.alice_generators(n)
    b0, b1 = monomial.bob_generators(n)
    s = Strategy(
        order=n, dimA=n, dimB=n,
        alice_obs=(a0.to_matrix(), a1.to_matrix()),
        bob_obs=(b0.to_matrix(), b1.to_matrix()),
        state=canonical_state(n),
    )
    s.validate()
    return s


def canonical_value_formula(n: int) -> float:
    """Winning probability of S_n: 1/2 + 1/(2n sin(pi/2n))."""
    return 0.5 + 1.0 / (2 * n * math.sin(math.pi / (2 * n)))


def strategy_value_direct(g: gamekit.GameSpec, s: Strategy) -> float:
    """Winning probability as the explicit measurement sum
    sum_{ijab} pi(i,j) V(i,j,a,b) <psi| E_{i,a} (x) F_{j,b} |psi>."""
    import numpy as np
    if len(s.alice_obs) != g.nA or len(s.bob_obs) != g.nB:
        raise ValueError("observable count does not match question counts")
    if g.mA != s.order or g.mB != s.order:
        raise ValueError("answer counts must equal the observable order")
    n = s.order
    psi = s.state.reshape(s.dimA, s.dimB)
    # Bob's stacks as one (nB n, d, d) stack, so each Alice stack's
    # psi* E psi is formed once; Bob question j is columns j n..(j + 1) n.
    F = np.concatenate([numerics.observable_to_pvm(U, n) for U in s.bob_obs])
    value = 0.0
    # Alice's stacks one at a time, each freed before the next is built.
    for i, U in enumerate(s.alice_obs):
        table = numerics.expectation_table(
            psi, numerics.observable_to_pvm(U, n), F)
        for j in range(g.nB):
            value += (g.distribution[i, j]
                      * table[:, j * n:(j + 1) * n][g.predicate[i, j]].sum())
    return float(value)


class SchmidtData(Record):
    # Nonincreasing: an array from ``schmidt``, a tuple from
    # ``canonical_schmidt``.
    coefficients: Sequence[float]
    rank: int
    entropy: float


def schmidt(state: np.ndarray, dimA: int, dimB: int) -> SchmidtData:
    """Schmidt coefficients (nonincreasing), rank, and base-2 entanglement
    entropy, as the singular values of the state reshaped to dimA x dimB.

    Their squares are the eigenvalues of the reduced density matrix
    Tr_B |psi><psi|.
    """
    import numpy as np
    state = np.asarray(state, dtype=np.complex128)
    if state.size != dimA * dimB:
        raise ValueError(
            f"state has {state.size} entries, expected dimA*dimB = "
            f"{dimA * dimB}")
    numerics.require_finite(state, "state")
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state must be a unit vector")
    coeffs = np.linalg.svd(state.reshape(dimA, dimB), compute_uv=False)
    lam2 = coeffs ** 2
    kept = lam2[coeffs > SCHMIDT_RANK_THRESHOLD]
    entropy = float(-np.sum(kept * np.log2(kept)))
    return SchmidtData(coefficients=coeffs,
                       rank=int(np.sum(coeffs > SCHMIDT_RANK_THRESHOLD)),
                       entropy=entropy)


def canonical_schmidt(n: int) -> SchmidtData:
    """``schmidt(canonical_state(n), n, n)`` without the SVD or numpy: the
    state has one amplitude per row and per column, so its Schmidt
    coefficients are the moduli of ``canonical_amplitudes(n)``."""
    coeffs = sorted(map(abs, canonical_amplitudes(n)), reverse=True)
    kept = [c * c for c in coeffs if c > SCHMIDT_RANK_THRESHOLD]
    log2 = math.log2
    return SchmidtData(coefficients=tuple(coeffs), rank=len(kept),
                       entropy=-sum([p * log2(p) for p in kept]))


def state_residuals(s: Strategy,
                    polys: Sequence[ncpoly.NCPolynomial]) -> List[float]:
    """Residuals ||L(A, B)|psi>|| of state-dependent operator relations L,
    in order, from one ``ncpoly.apply_nc`` batch."""
    import numpy as np
    return [float(np.linalg.norm(v)) for v in ncpoly.apply_nc(
        polys, s.assignment(), s.state, s.dimA, s.dimB)]


def psi_representation_residuals(s: Strategy) -> Tuple[float, float]:
    """(Alice, Bob) state-restricted homomorphism residuals: the max over
    element pairs (x, y) of the canonical group of
    ||f(x) f(y) |psi> - f(xy) |psi>||.

    Each element is named by its normal-form word; f_A substitutes
    (P0, P1, J) -> (A0, A1, omega I) and f_B -> (B0^*, B1, omega I), which
    acts on the second tensor factor. The products xy come from the group's
    exact multiplication table, of m^2 entries for a group of m elements.
    """
    import numpy as np
    n = s.order
    table = groupkit.multiplication_table(groupkit.normal_form_enumerate(n))
    words = groupkit.normal_form_words(n)
    omega = np.exp(2j * np.pi / n)
    psi = s.state.reshape(s.dimA, s.dimB)
    # f acting on the second factor sends psi to psi f^T = (f psi^T)^T, so
    # Bob's side is Alice's computation on psi^T.
    sides = (
        ({"P0": s.alice_obs[0], "P1": s.alice_obs[1],
          "J": omega * np.eye(s.dimA)}, psi),
        ({"P0": numerics.adjoint(s.bob_obs[0]), "P1": s.bob_obs[1],
          "J": omega * np.eye(s.dimB)}, psi.T),
    )
    residuals = []
    for images, state in sides:
        f = np.array([groupkit.evaluate_word_matrix(w, images)
                      for w in words])
        f_psi = f @ state
        residuals.append(max(
            float(np.linalg.norm(fx @ f_psi - f_psi[products],
                                 axis=(1, 2)).max())
            for fx, products in zip(f, table)))
    return residuals[0], residuals[1]


# Command handlers: ``cli.COMMANDS`` reads each when its command runs,
# and it adds its results to the report ``rep``.
def value_command(args, rep) -> None:
    """``strategy value``."""
    p = gamekit.ModNGameParams(args.n, 0, 1)
    if args.via == "bias":
        value = biaskit.canonical_bias_value(p)
    else:
        game = gamekit.make_mod_n_game(p)
        value = strategy_value_direct(game, canonical_strategy(args.n))
    formula = canonical_value_formula(args.n)
    rep.result("value", value, tolerance=1e-9, target=formula)
    rep.result("formula_value", formula)


def entropy_command(args, rep) -> None:
    """``strategy entropy``."""
    rows = []
    for n in range(2, args.n_max + 1):
        sd = canonical_schmidt(n)
        ratio = sd.entropy / math.log2(n)
        rows.append((n, canonical_value_formula(n), ratio))
        if sd.rank != n:
            rep.result(f"schmidt_rank_n{n}", sd.rank, target=n,
                       tolerance=0.0)
    if args.out:
        import csv

        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value", "entropy_ratio"])
            for n, value, ratio in rows:
                writer.writerow([n, f"{value:.6f}", f"{ratio:.6f}"])
    rep.result("rows", len(rows))
    rep.result("final_entropy_ratio", rows[-1][2])


def psirep_command(args, rep) -> None:
    """``psirep check``."""
    # groupkit and monomial before numpy: the compile-order rule.
    rep.result("group_order", groupkit.group_order(args.n))
    res_a, res_b = psi_representation_residuals(canonical_strategy(args.n))
    rep.result("alice_residual", res_a, tolerance=1e-9, target=0.0)
    rep.result("bob_residual", res_b, tolerance=1e-9, target=0.0)
