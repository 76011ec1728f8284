"""Two-player game data model and exact classical values.

Covers the mod-n two-equation family (question sets [2]x[2], answers in
Z_n) and an exhaustive classical-value search over deterministic strategy
pairs of any finite game.
"""

from __future__ import annotations

from typing import Tuple

from .records import Record

# Most payoff evaluations a classical-value search may make.
CLASSICAL_BUDGET = 10**8


class GameSpec(Record):
    """A finite two-player game (question sets, distribution, predicate).

    ``distribution`` is an (nA, nB) probability table and ``predicate`` a
    boolean (nA, nB, mA, mB) array: entry (i, j, a, b) says whether answers
    (a, b) win on questions (i, j).
    """

    nA: int
    nB: int
    mA: int
    mB: int
    distribution: np.ndarray
    predicate: np.ndarray

    def __post_init__(self):
        import numpy as np
        dist = np.asarray(self.distribution, dtype=np.float64)
        pred = np.asarray(self.predicate, dtype=bool)
        if dist.shape != (self.nA, self.nB):
            raise ValueError(
                f"distribution shape {dist.shape} != ({self.nA}, {self.nB})")
        if pred.shape != (self.nA, self.nB, self.mA, self.mB):
            raise ValueError(
                f"predicate shape {pred.shape} != "
                f"({self.nA}, {self.nB}, {self.mA}, {self.mB})")
        if np.any(dist < -1e-15):
            raise ValueError("distribution has negative entries")
        if abs(dist.sum() - 1.0) > 1e-12:
            raise ValueError(f"distribution sums to {dist.sum()}, expected 1")
        object.__setattr__(self, "distribution", dist)
        object.__setattr__(self, "predicate", pred)


class ModNGameParams(Record):
    """Parameters of the two-equation game over Z_n: x0x1 = w^m1 / w^m2."""

    n: int
    m1: int
    m2: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("modulus n must be >= 2")
        if not (0 <= self.m1 < self.n and 0 <= self.m2 < self.n):
            raise ValueError("m1, m2 must lie in [0, n)")


def make_mod_n_game(p: ModNGameParams) -> GameSpec:
    """The four-question game: questions (i, j) in [2]x[2], answers in Z_n.

    On (i, 0) the answers must agree; on (i, 1) they must sum to m_{i+1}
    mod n (answers are exponents of the n-th root of unity).
    """
    import numpy as np
    n = p.n
    pred = np.zeros((2, 2, n, n), dtype=bool)
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    pred[0, 0] = pred[1, 0] = (a == b)
    pred[0, 1] = (a + b) % n == p.m1
    pred[1, 1] = (a + b) % n == p.m2
    dist = np.full((2, 2), 0.25)
    return GameSpec(nA=2, nB=2, mA=n, mB=n, distribution=dist, predicate=pred)


def _best_response_numpy(W: np.ndarray) -> Tuple[float, int]:
    """Enumerate Bob's deterministic strategies; Alice best-responds.

    W is the (nA, nB, mA, mB) table distribution * predicate. Bob's
    functions are counted in base mB and evaluated in chunks. Returns
    (best value, number of optimal deterministic pairs).
    """
    import numpy as np
    nA, nB, mA, mB = W.shape
    total = mB ** nB
    place = mB ** np.arange(nB, dtype=np.int64)
    best = -1.0
    best_count = 0
    chunk = 1 << 14
    for start in range(0, total, chunk):
        cs = np.arange(start, min(start + chunk, total), dtype=np.int64)
        fb = (cs[:, None] // place[None, :]) % mB  # (C, nB)
        vals = np.zeros(len(cs))
        mults = np.ones(len(cs), dtype=np.int64)
        for i in range(nA):
            S = np.zeros((len(cs), mA))
            for j in range(nB):
                block = W[i, j]
                if block.any():
                    S += block[:, fb[:, j]].T
            row_best = S.max(axis=1)
            vals += row_best
            mults *= (S > row_best[:, None] - 1e-12).sum(axis=1)
        m = float(vals.max())
        if m > best + 1e-12:
            best = m
            best_count = int(mults[vals > m - 1e-12].sum())
        elif m > best - 1e-12:
            best_count += int(mults[vals > best - 1e-12].sum())
    return best, best_count


def classical_work(nA: int, nB: int, mA: int, mB: int) -> int:
    """Payoff evaluations ``classical_value`` makes on a game of this shape:
    the smaller player's function space, times nA * nB, times the other
    player's answer count."""
    count_A, count_B = mA ** nA, mB ** nB
    if count_B <= count_A:
        return count_B * nA * nB * mA
    return count_A * nA * nB * mB


def classical_value(g: GameSpec) -> Tuple[float, int]:
    """Exact classical value by exhaustive search over deterministic pairs.

    Deterministic strategies suffice: the value is linear in each player's
    behaviour, so shared randomness cannot beat the best deterministic pair.
    The smaller function space is enumerated outright and the other player
    best-responds per question (the payoff is additive across their
    questions), which also yields the exact count of optimal pairs.

    Returns (value, count of maximizing deterministic pairs). Raises before
    any search if ``classical_work`` exceeds CLASSICAL_BUDGET.
    """
    count_A, count_B = g.mA ** g.nA, g.mB ** g.nB
    work = classical_work(g.nA, g.nB, g.mA, g.mB)
    if work > CLASSICAL_BUDGET:
        raise ValueError(
            f"classical_value search needs ~{work:.2e} payoff evaluations "
            f"(space {count_A} x {count_B}), over the budget of "
            f"{CLASSICAL_BUDGET:.2e}")
    W = g.distribution[:, :, None, None] * g.predicate
    if count_B > count_A:
        # Swap roles so the kernel always enumerates the second player.
        W = W.transpose(1, 0, 3, 2)
    value, pairs = _best_response_numpy(W)
    return float(value), int(pairs)
