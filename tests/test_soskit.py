import numpy as np
import pytest
from test_strategykit import random_strategy

from znlcs import numerics
from znlcs.biaskit import bias_polynomial
from znlcs.gamekit import ModNGameParams
from znlcs.ncpoly import eval_nc
from znlcs.numerics import random_order_n_observables, rng
from znlcs.soskit import (BLOCK_TRIALS, SOSCertificate,
                          annihilation_residuals, certificate_chsh,
                          certificate_g3, derived_relations_g3,
                          h3_polynomial, verify_sos_identity)
from znlcs.strategykit import canonical_strategy, state_residuals


def _verify_reference(cert, bias, trials, seed):
    """verify_sos_identity one trial at a time, each draw in stream order."""
    n = cert.order
    gen = rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(gen.choice([n, 2 * n]))
        assignment = {
            key: random_order_n_observables(
                n, dim, [int(gen.integers(2 ** 63))])[0]
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


def _verify_blocks_reference(cert, bias, trials, seed):
    """verify_sos_identity as it was before a block shared its draw and its
    operator powers: four draws a block, one per operator, and each
    polynomial evaluated on its own."""
    n = cert.order

    def residual(dim, block):
        assignment = {
            key: random_order_n_observables(n, dim, [s[j] for s in block])
            for j, key in enumerate((("A", 0), ("A", 1), ("B", 0), ("B", 1)))
        }
        diff = cert.lam * np.eye(dim * dim) - eval_nc(
            bias, assignment, dim, dim)
        for weight, p in cert.squares:
            T = eval_nc(p, assignment, dim, dim)
            diff -= weight * (T.conj().swapaxes(-1, -2) @ T)
        return float(np.linalg.norm(diff, axis=(-2, -1)).max())

    gen = rng(seed)
    pending = {n: [], 2 * n: []}
    worst = 0.0
    for _ in range(trials):
        dim = gen.choice([n, 2 * n])
        block = pending[dim]
        block.append([gen.integers(2 ** 63) for _ in range(4)])
        if len(block) == BLOCK_TRIALS:
            worst = max(worst, residual(dim, block))
            block.clear()
    for dim, block in pending.items():
        if block:
            worst = max(worst, residual(dim, block))
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
@pytest.mark.parametrize("cert", [certificate_chsh(), certificate_g3()],
                         ids=["chsh", "g3"])
def test_verify_equals_the_per_polynomial_block_pipeline(cert, trials):
    # One draw and one power table a block change no bit of the residual.
    bias = bias_polynomial(ModNGameParams(cert.order, 0, 1))
    assert verify_sos_identity(cert, bias, trials, seed=trials) == \
        _verify_blocks_reference(cert, bias, trials, seed=trials)


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
    # Record the observable seeds of every block, drawn with one call: the
    # seeds of operator j for each of the block's trials, for j = 0..3.
    # Each trial's four seeds, drawn after its dimension, must be evaluated
    # exactly once, at that dimension, in blocks of at most BLOCK_TRIALS.
    calls = []

    def record(order, dim, seeds):
        calls.append((dim, list(seeds)))
        return random_order_n_observables(order, dim, seeds)

    monkeypatch.setattr(numerics, "random_order_n_observables", record)
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
    for dim, seeds in calls:
        m, rest = divmod(len(seeds), 4)
        assert rest == 0 and 1 <= m <= BLOCK_TRIALS
        got += [(dim, t) for t in zip(*(seeds[j * m:(j + 1) * m]
                                        for j in range(4)))]
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
        residuals = annihilation_residuals(cert, s)
        assert len(residuals) == len(cert.squares)
        assert max(residuals) < 1e-9


def test_certificate_implies_eigenvalue_pincer():
    # Sampled bias operators never exceed the certified bound.
    bias = bias_polynomial(ModNGameParams(3, 0, 1))
    gen = rng(13)
    for _ in range(20):
        dim = int(gen.choice([3, 6]))
        assign = {key: random_order_n_observables(
            3, dim, [int(gen.integers(2**31))])[0]
            for key in (("A", 0), ("A", 1), ("B", 0), ("B", 1))}
        B = eval_nc(bias, assign, dim, dim)
        B = (B + B.conj().T) / 2
        assert np.linalg.eigvalsh(B).max() <= 6.0 + 1e-7


def test_derived_relations_on_canonical_strategy():
    s = canonical_strategy(3)
    rels = derived_relations_g3()
    assert len(rels) >= 14
    for (name, _), r in zip(rels, state_residuals(s, [p for _, p in rels])):
        assert r < 1e-9, name


def test_a_batch_of_state_checks_takes_each_power_once(monkeypatch):
    s = canonical_strategy(3)
    polys = [p for _, p in derived_relations_g3()]
    letters = {letter for p in polys for word in p.terms for letter in word}
    calls = []
    matrix_power = np.linalg.matrix_power

    def counted(M, k):
        calls.append(k)
        return matrix_power(M, k)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    state_residuals(s, polys)
    assert len(calls) == len(letters) == 8


def test_derived_relations_discriminate():
    r = random_strategy(3, 3, 3, 321)
    residuals = state_residuals(r, [p for _, p in derived_relations_g3()])
    assert max(residuals) > 1e-2


def test_h3_ring_relation():
    s = canonical_strategy(3)
    from znlcs.ncpoly import NCPolynomial
    one = NCPolynomial.one(3)
    assert max(state_residuals(
        s, [h3_polynomial() + one, h3_polynomial().adjoint() + one])) < 1e-9


def test_certificate_g3_order_lambda_and_weights():
    cert = certificate_g3()
    assert cert.order == 3
    assert cert.lam == pytest.approx(6.0)
    assert len(cert.squares) == 8
    assert all(w > 0 for w, _ in cert.squares)


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_sos_identity_rejects_no_trials(trials):
    bias = bias_polynomial(ModNGameParams(2, 0, 1))
    with pytest.raises(ValueError, match="trials"):
        verify_sos_identity(certificate_chsh(), bias, trials, seed=5)
