import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_groupkit import unpack_row
from test_numerics import partial_trace_B

from znlcs.gamekit import ModNGameParams, make_mod_n_game
from znlcs.groupkit import (evaluate_word_matrix, normal_form_enumerate,
                            normal_form_words)
from znlcs.ncpoly import NCPolynomial
from znlcs.numerics import rng
from znlcs.strategykit import (PROJECTOR_BYTES_CAP, SCHMIDT_RANK_THRESHOLD,
                               Strategy, canonical_state, canonical_strategy,
                               canonical_value_formula, check_state_relation,
                               observable_to_pvm, projector_bytes,
                               psi_representation_residuals, random_strategy,
                               schmidt, strategy_value_direct)



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


def test_observable_to_pvm_reconstruction():
    n = 4
    s = canonical_strategy(n)
    w = np.exp(2j * np.pi / n)
    for U in (*s.alice_obs, *s.bob_obs):
        pvm = observable_to_pvm(U, n)
        assert len(pvm) == n
        total = sum(pvm)
        assert np.linalg.norm(total - np.eye(n)) < 1e-10
        recon = sum(w ** i * E for i, E in enumerate(pvm))
        assert np.linalg.norm(recon - U) < 1e-10
        for i, E in enumerate(pvm):
            assert np.linalg.norm(E @ E - E) < 1e-10
            for j in range(i + 1, n):
                assert np.linalg.norm(E @ pvm[j]) < 1e-10


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


@settings(derandomize=True, max_examples=50, deadline=None)
@given(dims=st.sampled_from([(2, 5), (5, 3), (4, 4)]),
       terms=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_schmidt_matches_reduced_density_matrix(dims, terms, seed):
    # A sum of `terms` random product states has Schmidt rank
    # min(terms, dimA, dimB).
    dimA, dimB = dims
    gen = rng(seed)

    def vec(d):
        return gen.standard_normal(d) + 1j * gen.standard_normal(d)

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
    assert check_state_relation(s, NCPolynomial(3)) == pytest.approx(0.0)


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


def _reference_psi_residuals(s):
    """The pairwise definition with scalar group products: the max over
    element pairs (x, y) of ||f(x) f(y)|psi> - f(xy)|psi>||, for f_A on the
    first tensor factor and f_B on the second."""
    n = s.order
    variant = "alt" if n == 3 else "standard"
    pairs = [(w, unpack_row(row)) for w, row in zip(
        normal_form_words(n, variant), normal_form_enumerate(n, variant))]
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


def test_psi_representation_refuses_groups_over_table_bound():
    # n = 7: 3136 elements, over the 2048-element multiplication table.
    with pytest.raises(ValueError, match="size bound"):
        psi_representation_residuals(canonical_strategy(7))


def test_projector_bytes_is_the_projector_stack_size():
    for n in (2, 3, 4):
        s = canonical_strategy(n)
        stack = [observable_to_pvm(U, n) for U in (*s.alice_obs, *s.bob_obs)]
        assert projector_bytes(n) == sum(E.nbytes for pvm in stack
                                         for E in pvm)
    # The cap admits the canonical strategy up to n = 101.
    assert projector_bytes(101) <= PROJECTOR_BYTES_CAP < projector_bytes(102)
