import numpy as np
import pytest

from znlcs.biaskit import (SPECTRUM_BYTES_CAP,
                           bias_eigenvalue_formula, bias_operator,
                           bias_polynomial, bias_spectrum, bias_value,
                           eigenrelation_residual, operator_bytes)
from znlcs.gamekit import ModNGameParams, make_mod_n_game
from znlcs.strategykit import (canonical_strategy, canonical_value_formula,
                               random_strategy, strategy_value_direct)


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


def test_operator_bytes_is_the_dense_operator_size():
    for n in (2, 3, 4):
        B = bias_operator(ModNGameParams(n, 0, 1), canonical_strategy(n))
        assert B.nbytes == operator_bytes(n)
    # The CLI's cap admits n <= 45, well above the sizes the benchmark
    # (n <= 10) and the README run.
    assert operator_bytes(45) <= SPECTRUM_BYTES_CAP < operator_bytes(46)
