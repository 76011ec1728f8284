import json

import numpy as np
import pytest

from znlcs import soskit
from znlcs.biaskit import bias_polynomial
from znlcs.gamekit import ModNGameParams
from znlcs.ncpoly import eval_nc
from znlcs.numerics import (random_order_n_observable,
                            random_order_n_observables, rng)
from znlcs.soskit import (BLOCK_TRIALS, SOSCertificate,
                          annihilation_residuals, certificate_chsh,
                          certificate_g3, derived_relations_g3,
                          h3_polynomial, verify_sos_identity)
from znlcs.strategykit import (canonical_strategy, check_state_relation,
                               random_strategy)


def _verify_reference(cert, bias, trials, seed):
    """verify_sos_identity one trial at a time, each draw in stream order."""
    n = cert.order
    gen = rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(gen.choice([n, 2 * n]))
        assignment = {
            key: random_order_n_observable(n, dim, int(gen.integers(2 ** 63)))
            for key in (("A", 0), ("A", 1), ("B", 0), ("B", 1))
        }
        total_dim = dim * dim
        lhs = cert.lam * np.eye(total_dim) - eval_nc(
            bias, assignment, dim, dim)
        rhs = np.zeros((total_dim, total_dim), dtype=np.complex128)
        for weight, p in cert.squares:
            T = eval_nc(p, assignment, dim, dim)
            rhs += weight * (T.conj().T @ T)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _corrupted_g3():
    cert = certificate_g3()
    squares = list(cert.squares)
    w, p = squares[-1]
    squares[-1] = (w + 1e-3, p)
    return SOSCertificate(order=3, lam=cert.lam, squares=tuple(squares))


TRIAL_COUNTS = sorted({1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1,
                       2 * BLOCK_TRIALS + 1, 100})


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("cert", [certificate_chsh(), certificate_g3()],
                         ids=["chsh", "g3"])
def test_verify_matches_per_trial_reference(cert, trials):
    bias = bias_polynomial(ModNGameParams(cert.order, 0, 1))
    got = verify_sos_identity(cert, bias, trials, seed=trials)
    ref = _verify_reference(cert, bias, trials, seed=trials)
    assert abs(got - ref) <= 1e-12


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
def test_verify_corrupted_matches_per_trial_reference(trials):
    # Far from 0 and different in every trial, the corrupted residual must
    # match the per-trial maximum in relative terms, not only absolutely.
    bad = _corrupted_g3()
    bias = bias_polynomial(ModNGameParams(3, 0, 1))
    got = verify_sos_identity(bad, bias, trials, seed=trials)
    ref = _verify_reference(bad, bias, trials, seed=trials)
    assert ref > 1e-4
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
def test_verify_evaluates_each_trial_once(monkeypatch, trials):
    # Record the observable seeds of every block: each trial's four seeds,
    # drawn after its dimension, must be evaluated exactly once, at that
    # dimension, in blocks of at most BLOCK_TRIALS.
    calls = []

    def record(order, dim, seeds):
        calls.append((dim, list(seeds)))
        return random_order_n_observables(order, dim, seeds)

    monkeypatch.setattr(soskit, "random_order_n_observables", record)
    cert = certificate_chsh()
    verify_sos_identity(cert, bias_polynomial(ModNGameParams(2, 0, 1)),
                        trials, seed=trials)
    gen = rng(trials)
    want = []
    for _ in range(trials):
        dim = int(gen.choice([2, 4]))
        want.append((dim, tuple(int(gen.integers(2 ** 63))
                                for _ in range(4))))
    got = []
    for i in range(0, len(calls), 4):
        group = calls[i:i + 4]
        dim = group[0][0]
        assert all(d == dim for d, _ in group)
        assert 1 <= len(group[0][1]) <= BLOCK_TRIALS
        got += [(dim, t) for t in zip(*(s for _, s in group))]
    assert sorted(got) == sorted(want)


def test_chsh_certificate_identity():
    cert = certificate_chsh()
    bias = bias_polynomial(ModNGameParams(2, 0, 1))
    assert verify_sos_identity(cert, bias, trials=30, seed=5) < 1e-9


def test_g3_certificate_identity():
    cert = certificate_g3()
    bias = bias_polynomial(ModNGameParams(3, 0, 1))
    assert verify_sos_identity(cert, bias, trials=30, seed=5) < 1e-8


def test_corrupted_certificate_detected():
    # Negative control: nudging one weight must break the identity.
    bad = _corrupted_g3()
    bias = bias_polynomial(ModNGameParams(3, 0, 1))
    assert verify_sos_identity(bad, bias, trials=5, seed=5) > 1e-4


def test_wrong_lambda_detected():
    cert = certificate_chsh()
    bad = SOSCertificate(order=2, lam=cert.lam + 1e-3, squares=cert.squares)
    bias = bias_polynomial(ModNGameParams(2, 0, 1))
    assert verify_sos_identity(bad, bias, trials=5, seed=5) > 1e-4


def test_squares_annihilate_optimal_state():
    for cert, n in ((certificate_chsh(), 2), (certificate_g3(), 3)):
        s = canonical_strategy(n)
        for _, residual in annihilation_residuals(cert, s):
            assert residual < 1e-9


def test_certificate_implies_eigenvalue_pincer():
    # Sampled bias operators never exceed the certified bound.
    bias = bias_polynomial(ModNGameParams(3, 0, 1))
    gen = rng(13)
    for _ in range(20):
        dim = int(gen.choice([3, 6]))
        assign = {key: random_order_n_observable(
            3, dim, int(gen.integers(2**31)))
            for key in (("A", 0), ("A", 1), ("B", 0), ("B", 1))}
        B = eval_nc(bias, assign, dim, dim)
        B = (B + B.conj().T) / 2
        assert np.linalg.eigvalsh(B).max() <= 6.0 + 1e-7


def test_derived_relations_on_canonical_strategy():
    s = canonical_strategy(3)
    rels = derived_relations_g3()
    assert len(rels) >= 14
    for name, poly in rels:
        assert check_state_relation(s, poly) < 1e-9, name


def test_derived_relations_discriminate():
    r = random_strategy(3, 3, 3, 321)
    residuals = [check_state_relation(r, poly)
                 for _, poly in derived_relations_g3()]
    assert max(residuals) > 1e-2


def test_h3_ring_relation():
    s = canonical_strategy(3)
    from znlcs.ncpoly import NCPolynomial
    one = NCPolynomial.one(3)
    assert check_state_relation(s, h3_polynomial() + one) < 1e-9
    assert check_state_relation(
        s, h3_polynomial(conjugated=True) + one) < 1e-9


def test_certificate_json():
    d = json.loads(certificate_g3().to_json())
    assert d["order"] == 3
    assert d["lambda"] == pytest.approx(6.0)
    assert len(d["squares"]) == 8
    assert all(sq["weight"] > 0 for sq in d["squares"])


def test_certificate_json_pinned():
    # Recorded from the element-by-element encoder the codec replaced.
    assert certificate_chsh().to_json() == (
        '{"order": 2, "lambda": 2.8284271247461903, "squares": '
        '[{"weight": 0.3535533905932738, "terms": '
        '[{"coeff": [1.0, 0.0], "word": [["A", 0, 1]]}, '
        '{"coeff": [1.0, 0.0], "word": [["A", 1, 1]]}, '
        '{"coeff": [-1.4142135623730951, 0.0], "word": [["B", 0, 1]]}]}, '
        '{"weight": 0.3535533905932738, "terms": '
        '[{"coeff": [1.0, 0.0], "word": [["A", 0, 1]]}, '
        '{"coeff": [-1.0, 0.0], "word": [["A", 1, 1]]}, '
        '{"coeff": [-1.4142135623730951, 0.0], "word": [["B", 1, 1]]}]}]}')


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_sos_identity_rejects_no_trials(trials):
    bias = bias_polynomial(ModNGameParams(2, 0, 1))
    with pytest.raises(ValueError, match="trials"):
        verify_sos_identity(certificate_chsh(), bias, trials, seed=5)
