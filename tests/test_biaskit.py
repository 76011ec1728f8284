import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_strategykit import random_strategy

from znlcs import gamekit, monomial, numerics, strategykit
from znlcs.biaskit import (bias_blocks, bias_eigenvalue_formula,
                           bias_operator, bias_polynomial, bias_spectrum,
                           canonical_bias_spectrum, canonical_bias_value,
                           eigenrelation_residual)
from znlcs.gamekit import ModNGameParams, make_mod_n_game
from znlcs.strategykit import (canonical_state, canonical_strategy,
                               canonical_value_formula,
                               strategy_value_direct)


def bias_value(p: gamekit.ModNGameParams, s: strategykit.Strategy) -> float:
    """Winning probability via the bias: <psi|B|psi>/(4n) + 1/n."""
    B = bias_operator(p, s)
    return float(np.real(np.vdot(s.state, B @ s.state))) / (4 * p.n) + 1.0 / p.n


def test_bias_polynomial_chsh_reduces_to_classic_form():
    # For n = 2 the polynomial is A0B0 + A0B1 + A1B0 - A1B1 (m1=0, m2=1).
    p = bias_polynomial(ModNGameParams(2, 0, 1))
    expected = {
        (("A", 0, 1), ("B", 0, 1)): 1.0,
        (("A", 0, 1), ("B", 1, 1)): 1.0,
        (("A", 1, 1), ("B", 0, 1)): 1.0,
        (("A", 1, 1), ("B", 1, 1)): -1.0,
    }
    assert set(p.terms) == set(expected)
    for word, coeff in expected.items():
        assert p.terms[word] == pytest.approx(coeff, abs=1e-12)


def test_bias_operator_is_hermitian():
    s = canonical_strategy(3)
    B = bias_operator(ModNGameParams(3, 0, 1), s)
    assert np.linalg.norm(B - B.conj().T) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bias_value_equals_direct_value(n):
    p = ModNGameParams(n, 0, 1)
    g = make_mod_n_game(p)
    s = canonical_strategy(n)
    assert bias_value(p, s) == pytest.approx(
        strategy_value_direct(g, s), abs=1e-10)
    for seed in range(5):
        r = random_strategy(n, n, n, 1000 + seed)
        assert bias_value(p, r) == pytest.approx(
            strategy_value_direct(g, r), abs=1e-9)


def test_bias_value_equals_direct_on_general_targets():
    # The equivalence holds for any (m1, m2), not just (0, 1).
    for m1, m2 in [(1, 2), (2, 0)]:
        p = ModNGameParams(3, m1, m2)
        g = make_mod_n_game(p)
        r = random_strategy(3, 3, 3, 77 + m1 + 10 * m2)
        assert bias_value(p, r) == pytest.approx(
            strategy_value_direct(g, r), abs=1e-9)


@pytest.mark.parametrize("n", range(2, 9))
def test_eigenrelation(n):
    assert eigenrelation_residual(n) < 1e-9


def test_spectrum_top_eigenvalue_and_report():
    report = bias_spectrum(ModNGameParams(3, 0, 1), canonical_strategy(3))
    assert report.top_eigenvalue == pytest.approx(6.0, abs=1e-9)
    assert report.multiplicity == 1
    assert report.predicted_value == pytest.approx(
        canonical_value_formula(3), abs=1e-9)


def test_formula_consistency():
    for n in range(2, 13):
        lam = bias_eigenvalue_formula(n)
        assert lam / (4 * n) + 1.0 / n == pytest.approx(
            canonical_value_formula(n), abs=1e-12)


def test_random_strategy_never_beats_canonical():
    # Negative control: perturbed strategies score strictly below optimum.
    p = ModNGameParams(3, 0, 1)
    best = canonical_value_formula(3)
    for seed in range(10):
        r = random_strategy(3, 3, 3, 400 + seed)
        assert bias_value(p, r) < best + 1e-9


def test_predicted_value_equals_value_formula():
    # The bias eigenvalue lam = 2n - 4 + 2/sin(pi/2n) predicts the value
    # lam/(4n) + 1/n = 1/2 + 1/(2n sin(pi/2n)).
    for n in range(2, 41):
        lam = bias_eigenvalue_formula(n)
        assert lam / (4 * n) + 1 / n == pytest.approx(
            canonical_value_formula(n), abs=1e-12), n


def test_block_bytes_is_the_block_stack_size():
    for n in (2, 3, 4):
        assert bias_blocks(ModNGameParams(n, 0, 1)).nbytes == 16 * n ** 3
    # bias spectrum's --n bound, 161, is the largest n whose blocks fit in
    # 64 MiB; well above the sizes the benchmark (n <= 10) and the README
    # run.
    assert 16 * 161 ** 3 <= 2 ** 26 < 16 * 162 ** 3


def test_one_block_bytes_is_block_zero_size():
    for n in (2, 3, 4):
        block = bias_blocks(ModNGameParams(n, 0, 1), sums=[0])
        assert block.nbytes == 16 * n ** 2
    # `strategy value --via bias` builds block 0 only; its --n bound, 1448,
    # is the largest n whose block fits in 32 MiB.
    assert 16 * 1448 ** 2 <= 2 ** 25 < 16 * 1449 ** 2


def block_indices(n, s):
    """Indices in C^n (x) C^n of block s's basis |a, s - a>, a = 0..n-1."""
    a = np.arange(n)
    return a * n + (s - a) % n


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_dense_operator_is_the_blocks_and_zero_off_them(n):
    p = ModNGameParams(n, 0, 1)
    dense = bias_operator(p, canonical_strategy(n))
    blocks = bias_blocks(p)
    off_block = np.ones(dense.shape, dtype=bool)
    for s in range(n):
        idx = np.ix_(block_indices(n, s), block_indices(n, s))
        assert np.abs(dense[idx] - blocks[s]).max() <= 1e-12
        off_block[idx] = False
    assert np.all(dense[off_block] == 0.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_block_spectrum_matches_the_dense_spectrum(n, data):
    m1, m2 = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    p = ModNGameParams(n, m1, m2)
    s = canonical_strategy(n)
    dense = bias_spectrum(p, s)
    dense_values = np.linalg.eigvalsh(bias_operator(p, s))
    block_values = np.sort(np.linalg.eigvalsh(bias_blocks(p)), axis=None)
    assert np.abs(block_values - dense_values).max() <= 1e-12
    report = canonical_bias_spectrum(p)
    assert abs(report.top_eigenvalue - dense.top_eigenvalue) <= 1e-12
    assert report.multiplicity == dense.multiplicity
    assert report.predicted_value == pytest.approx(dense.predicted_value,
                                                   abs=1e-12)
    if report.multiplicity == 1:
        # The unique top eigenvector: the top block's, placed in
        # C^n (x) C^n, is the dense operator's.
        blocks = bias_blocks(p)
        top = int(np.argmax(np.linalg.eigvalsh(blocks)[:, -1]))
        block_vec = np.zeros(n * n, dtype=np.complex128)
        block_vec[block_indices(n, top)] = \
            np.linalg.eigh(blocks[top])[1][:, -1]
        dense_vec = np.linalg.eigh(bias_operator(p, s))[1][:, -1]
        assert abs(np.vdot(block_vec, dense_vec)) >= 1.0 - 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 20, 45])
def test_block_top_eigenvector_is_the_canonical_state(n):
    p = ModNGameParams(n, 0, 1)
    report = canonical_bias_spectrum(p)
    assert report.multiplicity == 1
    assert report.top_eigenvalue == pytest.approx(
        bias_eigenvalue_formula(n), abs=1e-9)
    # Block 0 holds the reported top, and its top eigenvector, placed in
    # C^n (x) C^n, is the canonical state.
    w, V = np.linalg.eigh(bias_blocks(p, sums=[0])[0])
    assert abs(w[-1] - report.top_eigenvalue) <= 1e-12 * w[-1]
    vec = np.zeros(n * n, dtype=np.complex128)
    vec[block_indices(n, 0)] = V[:, -1]
    overlap = abs(np.vdot(vec, canonical_state(n)))
    assert overlap >= 1.0 - 1e-12


@pytest.mark.parametrize("n", [2, 7, 12])
def test_canonical_spectrum_solves_each_block_once(monkeypatch, n):
    # One values-only solve a block, and no second decomposition.
    shapes = []
    solve = numerics.hermitian_eig

    def counted(M):
        shapes.append(M.shape)
        return solve(M)

    monkeypatch.setattr(numerics, "hermitian_eig", counted)
    canonical_bias_spectrum(ModNGameParams(n, 0, 1))
    assert shapes == [(n, n)] * n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_block_value_is_the_dense_bias_value(n):
    p = ModNGameParams(n, 0, 1)
    assert canonical_bias_value(p) == pytest.approx(
        bias_value(p, canonical_strategy(n)), abs=1e-12)


def reference_blocks(p, sums=None):
    """``bias_blocks`` for words of any length: each party's factor is the
    product of its letters' generator powers, starting from the identity."""
    n = p.n
    powers = {}
    for party, gens in (("A", monomial.alice_generators(n)),
                        ("B", monomial.bob_generators(n))):
        for x, g in enumerate(gens):
            powers[party, x] = [monomial.MonomialUnitary.identity(n)]
            for _ in range(1, n):
                powers[party, x].append(powers[party, x][-1] @ g)
    identity = monomial.MonomialUnitary.identity(n)
    by_shift = {}
    for word, coeff in bias_polynomial(p).terms.items():
        factors = {"A": identity, "B": identity}
        for party, x, e in word:
            factors[party] = factors[party] @ powers[party, x][e % n]
        alice, bob = factors["A"], factors["B"]
        if (alice.shift + bob.shift) % n:
            raise ValueError(
                f"bias term {word} moves a + b by "
                f"{(alice.shift + bob.shift) % n} mod {n}")
        by_shift.setdefault(alice.shift, []).append(
            (coeff, alice.phases, bob.phases))
    a = np.arange(n)
    s = a if sums is None else np.asarray(sums)
    b = (s[:, None] - a) % n
    zpow = np.exp(1j * np.pi / (2 * n) * np.arange(8 * n))
    blocks = np.zeros((len(s), n, n), dtype=np.complex128)
    for t, terms in by_shift.items():
        blocks[:, (a + t) % n, a] = sum(
            (coeff * zpow)[np.add(alpha, np.asarray(beta)[b])]
            for coeff, alpha, beta in terms)
    return blocks


@pytest.mark.parametrize("n", [*range(2, 13), 161])
def test_blocks_are_bit_identical_to_the_general_word_reference(n):
    for m1, m2 in sorted({(0, 1), (1, 0), (n - 1, 0)}):
        p = ModNGameParams(n, m1, m2)
        for sums in (None, [0]):
            assert np.array_equal(bias_blocks(p, sums),
                                  reference_blocks(p, sums))


def test_a_term_that_leaves_its_block_raises(monkeypatch):
    # B1 shifted one step further: A_x^i B1^i then moves a + b by i.
    bob_generators = monomial.bob_generators

    def mutated(n):
        b0, b1 = bob_generators(n)
        return b0, monomial.MonomialUnitary(n, b1.shift + 1, b1.phases)

    monkeypatch.setattr(monomial, "bob_generators", mutated)
    for n in (2, 3, 5):
        with pytest.raises(ValueError, match="moves a \\+ b"):
            bias_blocks(ModNGameParams(n, 0, 1))
