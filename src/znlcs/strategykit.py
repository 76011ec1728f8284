"""Quantum strategies for the mod-n games.

The canonical strategy S_n (shift/sign observables and the analytic optimal
state), winning-probability evaluation through projective measurements,
Schmidt/entropy analysis, state-dependent relation residuals, and the
state-restricted representation test.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from . import gamekit, groupkit, monomial, ncpoly, numerics
from .records import Record

SCHMIDT_RANK_THRESHOLD = 1e-9
# Largest Frobenius defect of U U* = I or U^n = I in an order-n observable.
ORDER_TOL = 1e-8
# Largest set of projectors the CLI's direct strategy value builds: 64 MiB
# of complex128, so n <= 101 for the canonical strategy (1.9 s and 108 MB
# peak RSS at n = 101, one BLAS thread on a 2-core Xeon).
PROJECTOR_BYTES_CAP = 1 << 26
# Largest --n-max of the CLI's entropy table, one SVD for each n up to it:
# 4.5 s at 400 and 12.6 s at 500 (one BLAS thread on a 2-core Xeon).
ENTROPY_N_MAX = 400


class Strategy(Record):
    """Observables of order n for each player plus a shared bipartite state."""

    order: int
    dimA: int
    dimB: int
    alice_obs: Tuple[np.ndarray, ...]
    bob_obs: Tuple[np.ndarray, ...]
    state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alice_obs", tuple(
            np.asarray(M, dtype=np.complex128) for M in self.alice_obs))
        object.__setattr__(self, "bob_obs", tuple(
            np.asarray(M, dtype=np.complex128) for M in self.bob_obs))
        object.__setattr__(
            self, "state", np.asarray(self.state, dtype=np.complex128))

    def validate(self) -> None:
        n = self.order
        for dim, obs in ((self.dimA, self.alice_obs),
                         (self.dimB, self.bob_obs)):
            for U in obs:
                if U.shape != (dim, dim):
                    raise ValueError(f"observable shape {U.shape} != {dim}")
                eye = np.eye(dim)
                if numerics.frob(U @ numerics.adjoint(U) - eye) > ORDER_TOL:
                    raise ValueError("observable is not unitary")
                if (numerics.frob(np.linalg.matrix_power(U, n) - eye)
                        > ORDER_TOL):
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


def canonical_state(n: int) -> np.ndarray:
    """The analytic optimal state: amplitudes (1 - z^{n+2i+1})/gamma on the
    anti-diagonal |i, -i mod n>, with gamma^2 = 2n + 2/sin(pi/2n)."""
    z = np.exp(1j * np.pi / (2 * n))
    gamma = math.sqrt(2 * n + 2.0 / math.sin(math.pi / (2 * n)))
    psi = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        psi[i, (-i) % n] = (1.0 - z ** (n + 2 * i + 1)) / gamma
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


def observable_to_pvm(U: np.ndarray, n: int) -> List[np.ndarray]:
    """Spectral projectors E_i = (1/n) sum_k (omega^{-i} U)^k of an order-n
    observable; they satisfy sum_i omega^i E_i = U."""
    dim = U.shape[0]
    if numerics.frob(np.linalg.matrix_power(U, n) - np.eye(dim)) > ORDER_TOL:
        raise ValueError(f"input is not an order-{n} observable")
    omega = np.exp(2j * np.pi / n)
    powers = [np.linalg.matrix_power(U, k) for k in range(n)]
    return [
        sum(omega ** (-i * k) * powers[k] for k in range(n)) / n
        for i in range(n)
    ]


def projector_bytes(n: int) -> int:
    """Bytes of the projectors ``strategy_value_direct`` builds for four
    order-n observables on C^n: 4 n projectors of n x n complex128 entries,
    64 n^3."""
    return 64 * n ** 3


def strategy_value_direct(g: gamekit.GameSpec, s: Strategy) -> float:
    """Winning probability as the explicit measurement sum
    sum_{ijab} pi(i,j) V(i,j,a,b) <psi| E_{i,a} (x) F_{j,b} |psi>."""
    if len(s.alice_obs) != g.nA or len(s.bob_obs) != g.nB:
        raise ValueError("observable count does not match question counts")
    if g.mA != s.order or g.mB != s.order:
        raise ValueError("answer counts must equal the observable order")
    psi = s.state.reshape(s.dimA, s.dimB)
    alice_pvms = [observable_to_pvm(U, s.order) for U in s.alice_obs]
    bob_pvms = [observable_to_pvm(U, s.order) for U in s.bob_obs]
    value = 0.0
    for i in range(g.nA):
        for j in range(g.nB):
            p = g.distribution[i, j]
            if p == 0.0:
                continue
            for a in range(g.mA):
                Epsi = alice_pvms[i][a] @ psi
                for b in range(g.mB):
                    if g.predicate[i, j, a, b]:
                        value += p * float(np.real(
                            np.vdot(psi, Epsi @ bob_pvms[j][b].T)))
    return value


class SchmidtData(Record):
    coefficients: np.ndarray
    rank: int
    entropy: float


def schmidt(state: np.ndarray, dimA: int, dimB: int) -> SchmidtData:
    """Schmidt coefficients (nonincreasing), rank, and base-2 entanglement
    entropy, as the singular values of the state reshaped to dimA x dimB.

    Their squares are the eigenvalues of the reduced density matrix
    Tr_B |psi><psi|.
    """
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


def check_state_relation(s: Strategy, L: ncpoly.NCPolynomial) -> float:
    """Residual ||L(A, B)|psi>|| of a state-dependent operator relation."""
    out = ncpoly.apply_nc(L, s.assignment(), s.state, s.dimA, s.dimB)
    return float(np.linalg.norm(out))


def psi_representation_residuals(s: Strategy) -> Tuple[float, float]:
    """(Alice, Bob) state-restricted homomorphism residuals: the max over
    element pairs (x, y) of the canonical group of
    ||f(x) f(y) |psi> - f(xy) |psi>||.

    Each element is named by its normal-form word; f_A substitutes
    (P0, P1, J) -> (A0, A1, omega I) and f_B -> (B0^*, B1, omega I), which
    acts on the second tensor factor. The products xy come from the group's
    exact multiplication table, so groups above its size bound raise
    ValueError before any matrix is formed.
    """
    n = s.order
    variant = "alt" if n == 3 else "standard"
    table = groupkit.multiplication_table(
        groupkit.normal_form_enumerate(n, variant))
    words = groupkit.normal_form_words(n, variant)
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


def random_strategy(n: int, dimA: int, dimB: int, seed: int) -> Strategy:
    """Seeded random admissible strategy (order-n observables, random
    state)."""
    gen = numerics.rng(seed)
    obs = [numerics.random_order_n_observable(
               n, d, gen.integers(2 ** 63))
           for d in (dimA, dimA, dimB, dimB)]
    return Strategy(order=n, dimA=dimA, dimB=dimB,
                    alice_obs=(obs[0], obs[1]), bob_obs=(obs[2], obs[3]),
                    state=numerics.random_state(dimA * dimB, gen))
