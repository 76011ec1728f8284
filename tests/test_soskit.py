import json

import numpy as np
import pytest

from znlcs.biaskit import bias_polynomial
from znlcs.gamekit import ModNGameParams
from znlcs.ncpoly import eval_nc
from znlcs.numerics import random_order_n_observable, rng
from znlcs.soskit import (SOSCertificate, annihilation_residuals,
                          certificate_chsh, certificate_g3,
                          derived_relations_g3, h3_polynomial,
                          verify_sos_identity)
from znlcs.strategykit import (canonical_strategy, check_state_relation,
                               random_strategy)


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
    cert = certificate_g3()
    squares = list(cert.squares)
    w, p = squares[-1]
    squares[-1] = (w + 1e-3, p)
    bad = SOSCertificate(order=3, lam=cert.lam, squares=tuple(squares))
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
