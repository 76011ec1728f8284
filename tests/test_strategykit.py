import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_groupkit import unpack_row
from test_numerics import partial_trace_B, random_state, standard_normal

from znlcs.gamekit import ModNGameParams, make_mod_n_game
from znlcs.groupkit import (evaluate_word_matrix, normal_form_enumerate,
                            normal_form_words)
from znlcs.ncpoly import NCPolynomial
from znlcs.numerics import (observable_to_pvm, random_order_n_observables,
                            rng)
from znlcs.strategykit import (SCHMIDT_RANK_THRESHOLD, Strategy,
                               canonical_amplitudes, canonical_schmidt,
                               canonical_state, canonical_strategy,
                               canonical_value_formula,
                               psi_representation_residuals, schmidt,
                               state_residuals, strategy_value_direct)


def random_strategy(n: int, dimA: int, dimB: int, seed: int) -> Strategy:
    """Seeded random admissible strategy (order-n observables, random
    state)."""
    gen = rng(seed)
    obs = [random_order_n_observables(n, d, [gen.integers(2 ** 63)])[0]
           for d in (dimA, dimA, dimB, dimB)]
    return Strategy(order=n, dimA=dimA, dimB=dimB,
                    alice_obs=(obs[0], obs[1]), bob_obs=(obs[2], obs[3]),
                    state=random_state(dimA * dimB, gen))


def reference_strategy_value_direct(g, s) -> float:
    """The direct value as a loop over answers, one vdot per pair: the
    reference for ``strategy_value_direct``'s expectation tables."""
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_direct_value_matches_reference_on_random_strategies(n):
    gen = rng(600 + n)
    for dimA, dimB in ((n, n + 1), (n + 2, n - 1)):
        m1, m2 = gen.integers(n), gen.integers(n)
        g = make_mod_n_game(ModNGameParams(n, m1, m2))
        s = random_strategy(n, dimA, dimB, gen.integers(2 ** 63))
        assert abs(strategy_value_direct(g, s)
                   - reference_strategy_value_direct(g, s)) <= 1e-12


def test_direct_value_matches_reference_on_canonical_strategies():
    for n in range(2, 25):
        g = make_mod_n_game(ModNGameParams(n, 0, 1))
        s = canonical_strategy(n)
        assert abs(strategy_value_direct(g, s)
                   - reference_strategy_value_direct(g, s)) <= 1e-12, n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_canonical_value_matches_formula(n):
    g = make_mod_n_game(ModNGameParams(n, 0, 1))
    s = canonical_strategy(n)
    assert strategy_value_direct(g, s) == pytest.approx(
        canonical_value_formula(n), abs=1e-10)


def test_canonical_state_normalization():
    for n in range(2, 10):
        psi = canonical_state(n)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        # gamma^2 equals the sum of squared unnormalized amplitudes.
        z = np.exp(1j * np.pi / (2 * n))
        total = sum(abs(1 - z ** (n + 2 * i + 1)) ** 2 for i in range(n))
        assert total == pytest.approx(
            2 * n + 2 / math.sin(math.pi / (2 * n)), abs=1e-10)


def test_canonical_state_reduced_density_oracle():
    # Reduced state of psi_3 is diagonal with entries |1 - z^(2i+4)|^2 / 10.
    n = 3
    psi = canonical_state(n)
    rho = partial_trace_B(np.outer(psi, psi.conj()), n, n)
    z = np.exp(1j * np.pi / (2 * n))
    expected = np.diag([abs(1 - z ** (2 * i + 4)) ** 2 / 10
                        for i in range(n)])
    assert np.allclose(rho, expected, atol=1e-12)


def test_schmidt_known_states():
    # Product state: rank 1, zero entropy.
    product = np.kron([1.0, 0.0], [0.0, 1.0]).astype(complex)
    sd = schmidt(product, 2, 2)
    assert sd.rank == 1
    assert sd.entropy == pytest.approx(0.0, abs=1e-10)
    # Maximally entangled in dimension 3: rank 3, entropy log2(3).
    mes = np.eye(3).reshape(9) / np.sqrt(3)
    sd = schmidt(mes, 3, 3)
    assert sd.rank == 3
    assert sd.entropy == pytest.approx(math.log2(3), abs=1e-10)
    assert np.allclose(sorted(sd.coefficients),
                       [1 / math.sqrt(3)] * 3, atol=1e-10)


def test_schmidt_canonical_state():
    for n in (2, 3, 7):
        sd = schmidt(canonical_state(n), n, n)
        assert sd.rank == n
        assert 0.0 < sd.entropy <= math.log2(n) + 1e-12


def test_canonical_state_scatters_its_amplitudes():
    for n in (2, 3, 7, 12):
        psi = canonical_state(n).reshape(n, n)
        amps = canonical_amplitudes(n)
        for i in range(n):
            assert psi[i, -i % n] == amps[i]
            psi[i, -i % n] = 0.0
        assert not psi.any()


def test_canonical_schmidt_is_the_svd_of_the_canonical_state():
    # One amplitude per row and per column: the singular values are the
    # amplitudes' moduli.
    for n in range(2, 61):
        sd = schmidt(canonical_state(n), n, n)
        fast = canonical_schmidt(n)
        assert isinstance(fast.coefficients, tuple)
        assert fast.rank == sd.rank == n
        assert abs(fast.entropy - sd.entropy) <= 1e-12, n
        assert np.abs(np.array(fast.coefficients)
                      - sd.coefficients).max() <= 1e-14, n


@settings(derandomize=True, max_examples=50, deadline=None)
@given(dims=st.sampled_from([(2, 5), (5, 3), (4, 4)]),
       terms=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_schmidt_matches_reduced_density_matrix(dims, terms, seed):
    # A sum of `terms` random product states has Schmidt rank
    # min(terms, dimA, dimB).
    dimA, dimB = dims
    gen = rng(seed)

    def vec(d):
        return standard_normal(gen, d) + 1j * standard_normal(gen, d)

    psi = sum(np.kron(vec(dimA), vec(dimB)) for _ in range(terms))
    psi /= np.linalg.norm(psi)
    sd = schmidt(psi, dimA, dimB)
    c = sd.coefficients
    # Oracle: eigenvalues of Tr_B |psi><psi|, nonincreasing; any beyond
    # min(dimA, dimB) are zero.
    lam = np.linalg.eigvalsh(
        partial_trace_B(np.outer(psi, psi.conj()), dimA, dimB))[::-1]
    k = min(dimA, dimB)
    assert len(c) == k
    assert np.allclose(c ** 2, lam[:k], atol=1e-12)
    assert np.allclose(lam[k:], 0.0, atol=1e-12)
    assert np.all(np.diff(c) <= 0.0)
    assert np.sum(c ** 2) == pytest.approx(1.0, abs=1e-12)
    assert sd.rank == min(terms, k)
    assert sd.rank == int(np.sum(c > SCHMIDT_RANK_THRESHOLD))
    kept = c[:sd.rank] ** 2
    assert sd.entropy == pytest.approx(float(-np.sum(kept * np.log2(kept))),
                                       abs=1e-12)


def test_schmidt_rejects_bad_states():
    psi = np.ones(6, dtype=complex) / np.sqrt(6)
    with pytest.raises(ValueError, match="dimA\\*dimB"):
        schmidt(psi, 2, 2)
    with pytest.raises(ValueError, match="unit vector"):
        schmidt(2 * psi, 2, 3)
    psi[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        schmidt(psi, 2, 3)


def test_validate_rejects_bad_observable():
    s = canonical_strategy(3)
    bad = Strategy(order=3, dimA=3, dimB=3,
                   alice_obs=(s.alice_obs[0], 2.0 * s.alice_obs[1]),
                   bob_obs=s.bob_obs, state=s.state)
    with pytest.raises(ValueError):
        bad.validate()


def test_check_state_relation_zero_polynomial():
    s = canonical_strategy(3)
    assert state_residuals(s, [NCPolynomial(3)]) == [pytest.approx(0.0)]


@pytest.mark.parametrize("n", [2, 3])
def test_psi_representation(n):
    res_a, res_b = psi_representation_residuals(canonical_strategy(n))
    assert res_a < 1e-9
    assert res_b < 1e-9


def test_psi_representation_detects_corruption():
    # Negative control: replacing Bob's second observable breaks the
    # multiplicativity condition on the state.
    s = canonical_strategy(3)
    corrupt = Strategy(
        order=3, dimA=3, dimB=3, alice_obs=s.alice_obs,
        bob_obs=(s.bob_obs[0], s.bob_obs[0]), state=s.state)
    res_a, res_b = psi_representation_residuals(corrupt)
    assert max(res_a, res_b) > 1e-2


def test_random_strategy_valid_and_seeded():
    s = random_strategy(3, 3, 4, 99)
    s.validate()
    s2 = random_strategy(3, 3, 4, 99)
    assert np.allclose(s.state, s2.state)
    assert np.allclose(s.alice_obs[0], s2.alice_obs[0])


def test_random_strategy_draw_is_pinned():
    # Criterion 9's non-optimal strategy: the first row of each observable
    # and the state, as seed 90210 draws them.
    s = random_strategy(3, 3, 3, 90210)
    rows = [
        [0.7851986775523387 - 0.12401560133744485j,
         -0.42221180714465834 - 0.1941858070679386j,
         0.33341049960152175 + 0.20236024409811704j],
        [-0.07117201987225115 - 0.6184414540216391j,
         -0.3015087362537099 + 0.5643810664232801j,
         -0.10936073483092552 - 0.4371171868478253j],
        [-0.14766397541920895 + 0.6626041051475167j,
         -0.20767336864903146 - 0.348475631813363j,
         0.018283174482211062 + 0.6117625206909527j],
        [0.9598507632497316 - 0.010726757771619501j,
         -0.014481323474708515 + 0.1777045631333412j,
         -0.09047011853197526 + 0.19646370179103223j]]
    state = [
        -0.030594735667818514 - 0.579959161448445j,
        -0.02498491157665241 - 0.26571889226227935j,
        0.04234739478839012 + 0.552803342077486j,
        0.021624716589113916 - 0.24345860087576698j,
        0.02849602285077219 - 0.14219654889945912j,
        -0.10810352559851197 + 0.3089043824539531j,
        -0.15766838474526404 - 0.03936527868517668j,
        0.10769555340492148 - 0.1592996254581995j,
        -0.10819579900679283 - 0.14534734951147088j]
    got = [U[0] for U in s.alice_obs + s.bob_obs]
    assert np.abs(np.array(got) - np.array(rows)).max() <= 1e-12
    assert np.abs(s.state - np.array(state)).max() <= 1e-12


def _reference_psi_residuals(s):
    """The pairwise definition with scalar group products: the max over
    element pairs (x, y) of ||f(x) f(y)|psi> - f(xy)|psi>||, for f_A on the
    first tensor factor and f_B on the second."""
    n = s.order
    pairs = [(w, unpack_row(row)) for w, row in zip(
        normal_form_words(n), normal_form_enumerate(n))]
    element = {g.key(): g for _, g in pairs}
    omega = np.exp(2j * np.pi / n)
    psi = s.state.reshape(s.dimA, s.dimB)
    sides = (
        ({"P0": s.alice_obs[0], "P1": s.alice_obs[1],
          "J": omega * np.eye(s.dimA)}, lambda M, v: M @ v),
        ({"P0": s.bob_obs[0].conj().T, "P1": s.bob_obs[1],
          "J": omega * np.eye(s.dimB)}, lambda M, v: v @ M.T),
    )
    out = []
    for images, act in sides:
        f = {g.key(): evaluate_word_matrix(w, images) for w, g in pairs}
        out.append(max(
            float(np.linalg.norm(
                act(f[x], act(f[y], psi))
                - act(f[(element[x] @ element[y]).key()], psi)))
            for x in f for y in f))
    return tuple(out)


def _corrupted_bob(n):
    s = canonical_strategy(n)
    return Strategy(order=n, dimA=n, dimB=n, alice_obs=s.alice_obs,
                    bob_obs=(s.bob_obs[0], s.bob_obs[0]), state=s.state)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", [
    canonical_strategy,
    _corrupted_bob,
    lambda n: random_strategy(n, n, n + 1, 31 + n),
    lambda n: random_strategy(n, n + 1, n, 47 + n),
], ids=["canonical", "corrupted_bob", "random_a", "random_b"])
def test_psi_representation_matches_pairwise_reference(n, case):
    s = case(n)
    assert np.allclose(psi_representation_residuals(s),
                       _reference_psi_residuals(s), rtol=0.0, atol=1e-12)


def test_psi_representation_canonical_n4():
    res_a, res_b = psi_representation_residuals(canonical_strategy(4))
    assert res_a < 1e-9
    assert res_b < 1e-9


def test_projector_bytes_is_the_projector_stack_size():
    for n in (2, 3, 4):
        s = canonical_strategy(n)
        stack = [observable_to_pvm(U, n) for U in (*s.alice_obs, *s.bob_obs)]
        assert sum(E.nbytes for pvm in stack for E in pvm) == 64 * n ** 3
    # `strategy value --via direct`'s --n bound, 101, is the largest n
    # whose four stacks fit in 64 MiB.
    assert 64 * 101 ** 3 <= 2 ** 26 < 64 * 102 ** 3
