import itertools
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znlcs.gamekit import (GameSpec, ModNGameParams, _best_response_numpy,
                           classical_value, make_mod_n_game)
from znlcs.records import Record


# ---------------------------------------------------------------------------
# Reference: games of linear constraint systems, which no command reports
# ---------------------------------------------------------------------------

class LinearSystem(Record):
    """Linear equations over Z_n in multiplicative form.

    Each equation is (variables, exponents, rhs): sum_k exponents[k] *
    x[variables[k]] = rhs (mod modulus).
    """

    modulus: int
    equations: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        eqs = []
        for variables, exponents, rhs in self.equations:
            variables = tuple(int(v) for v in variables)
            exponents = tuple(int(e) % self.modulus for e in exponents)
            if len(variables) != len(exponents):
                raise ValueError("variables and exponents length mismatch")
            if any(v < 0 for v in variables):
                raise ValueError("negative variable index")
            eqs.append((variables, exponents, int(rhs) % self.modulus))
        object.__setattr__(self, "equations", tuple(eqs))

    @property
    def variable_count(self) -> int:
        return 1 + max(v for vs, _, _ in self.equations for v in vs)

    def satisfying_assignments(self, eq_index: int) -> List[Tuple[int, ...]]:
        """All assignments to the equation's own variables, in lexicographic
        order, that satisfy it."""
        variables, exponents, rhs = self.equations[eq_index]
        n = self.modulus
        out = []
        for vals in itertools.product(range(n), repeat=len(variables)):
            if sum(e * v for e, v in zip(exponents, vals)) % n == rhs:
                out.append(vals)
        return out


def make_lcs_game(sys: LinearSystem) -> GameSpec:
    """Game form of a linear system: Alice gets an equation and answers a
    satisfying assignment; Bob gets one of its variables and answers a value.

    Alice's answer index enumerates the equation's satisfying assignments in
    lexicographic order; they win iff Bob's value matches her assignment at
    his variable. The question distribution is uniform over valid
    (equation, variable) pairs.
    """
    n = sys.modulus
    r = len(sys.equations)
    nvars = sys.variable_count
    sat = [sys.satisfying_assignments(i) for i in range(r)]
    if any(len(s) == 0 for s in sat):
        bad = next(i for i, s in enumerate(sat) if not s)
        raise ValueError(f"equation {bad} has no satisfying assignment")
    mA = max(len(s) for s in sat)
    pred = np.zeros((r, nvars, mA, n), dtype=bool)
    dist = np.zeros((r, nvars))
    for i in range(r):
        variables = sys.equations[i][0]
        for j in variables:
            dist[i, j] = 1.0
            pos = variables.index(j)
            for a, assignment in enumerate(sat[i]):
                pred[i, j, a, assignment[pos]] = True
    dist /= dist.sum()
    return GameSpec(nA=r, nB=nvars, mA=mA, mB=n,
                    distribution=dist, predicate=pred)


def binary_lcs_game(lcs) -> GameSpec:
    """The game of a ``bcskit.BinaryLCS`` through its additive Z_2 form:
    sign +1 is rhs 0, sign -1 is rhs 1."""
    return make_lcs_game(LinearSystem(modulus=2, equations=tuple(
        (variables, (1,) * len(variables), 0 if sign == 1 else 1)
        for variables, sign in lcs.constraints)))


def relabel_answers(g: GameSpec, permA, permB) -> GameSpec:
    """Reference: the game with fixed answer bijections applied to both
    players, which leaves the value unchanged."""
    pred = g.predicate[:, :, np.asarray(permA), :][:, :, :, np.asarray(permB)]
    return GameSpec(g.nA, g.nB, g.mA, g.mB, g.distribution, pred)


def mod_n_linear_system(n: int, m1: int, m2: int) -> LinearSystem:
    """The two-equation system x0 + x1 = m1 and x0 + x1 = m2 over Z_n."""
    return LinearSystem(modulus=n, equations=(((0, 1), (1, 1), m1),
                                              ((0, 1), (1, 1), m2)))


def _brute_force_value(g: GameSpec):
    """Oracle: enumerate every deterministic pair outright."""
    best = -1.0
    count = 0
    W = g.distribution[:, :, None, None] * g.predicate
    for fa in itertools.product(range(g.mA), repeat=g.nA):
        for fb in itertools.product(range(g.mB), repeat=g.nB):
            v = sum(W[i, j, fa[i], fb[j]]
                    for i in range(g.nA) for j in range(g.nB))
            if v > best + 1e-12:
                best, count = v, 1
            elif v > best - 1e-12:
                count += 1
    return best, count


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_value_matches_brute_force(n):
    g = make_mod_n_game(ModNGameParams(n, 0, 1))
    value, pairs = classical_value(g)
    oracle_value, oracle_pairs = _brute_force_value(g)
    assert value == pytest.approx(oracle_value, abs=1e-12)
    assert pairs == oracle_pairs
    assert value == pytest.approx(0.75, abs=1e-12)


def test_numpy_fallback_matches_kernel():
    for n, m1, m2 in [(2, 0, 1), (3, 1, 2), (4, 0, 3)]:
        g = make_mod_n_game(ModNGameParams(n, m1, m2))
        W = np.ascontiguousarray(
            g.distribution[:, :, None, None] * g.predicate)
        fallback = _best_response_numpy(W)
        oracle = _brute_force_value(g)
        assert fallback[0] == pytest.approx(oracle[0], abs=1e-12)
        assert fallback[1] == oracle[1]


def test_classical_value_degenerate_equal_equations():
    # m1 == m2 makes the system consistent: perfect classical strategies.
    g = make_mod_n_game(ModNGameParams(3, 1, 1))
    value, _ = classical_value(g)
    assert value == pytest.approx(1.0, abs=1e-12)


@st.composite
def tiny_games(draw):
    """A random game with at most 3 questions and 3 answers a player.
    Integer weights keep distinct strategy values 1/total apart, far above
    the kernel's 1e-12 tie tolerance."""
    nA, nB, mA, mB = (draw(st.integers(1, 3)) for _ in range(4))
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=nA * nB,
                                     max_size=nA * nB)), dtype=float)
    weights[draw(st.integers(0, nA * nB - 1))] += 1
    predicate = np.array(draw(st.lists(
        st.booleans(), min_size=nA * nB * mA * mB,
        max_size=nA * nB * mA * mB)))
    return GameSpec(nA, nB, mA, mB,
                    (weights / weights.sum()).reshape(nA, nB),
                    predicate.reshape(nA, nB, mA, mB))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), g=tiny_games())
def test_classical_value_property(data, g):
    # Equal to the two-sided brute force, and invariant under relabelling
    # either player's answers.
    value, pairs = classical_value(g)
    oracle_value, oracle_pairs = _brute_force_value(g)
    assert value == pytest.approx(oracle_value, abs=1e-12)
    assert pairs == oracle_pairs
    permA = data.draw(st.permutations(range(g.mA)))
    permB = data.draw(st.permutations(range(g.mB)))
    relabelled = classical_value(relabel_answers(g, permA, permB))
    assert relabelled[0] == pytest.approx(value, abs=1e-12)
    assert relabelled[1] == pairs


def test_relabel_answers_preserves_value():
    g = make_mod_n_game(ModNGameParams(3, 0, 1))
    g2 = relabel_answers(g, [2, 0, 1], [1, 2, 0])
    assert classical_value(g)[0] == pytest.approx(
        classical_value(g2)[0], abs=1e-12)


def test_linear_system_satisfying_assignments_lexicographic():
    sys = mod_n_linear_system(3, 1, 2)
    sols = sys.satisfying_assignments(0)
    assert sols == [(0, 1), (1, 0), (2, 2)]
    assert sols == sorted(sols)


def test_lcs_game_mirrors_mod_n_game_value():
    sys = mod_n_linear_system(3, 0, 1)
    g = make_lcs_game(sys)
    # Inconsistent pair of equations: the LCS game is also not winnable.
    value, _ = classical_value(g)
    assert value < 1.0 - 1e-9


def test_lcs_game_consistent_system_is_winnable():
    sys = LinearSystem(modulus=2, equations=(
        ((0, 1), (1, 1), 0), ((1, 2), (1, 1), 1)))
    value, _ = classical_value(make_lcs_game(sys))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        GameSpec(nA=1, nB=1, mA=1, mB=1,
                 distribution=np.array([[0.5]]),
                 predicate=np.ones((1, 1, 1, 1), dtype=bool))
