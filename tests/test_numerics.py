import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znlcs import numerics
from znlcs.numerics import (hermitian_eig, observable_to_pvm,
                            random_order_n_observables, rng)
from znlcs.strategykit import canonical_strategy


def standard_normal(gen, shape):
    """Standard normals of the given shape (an int or a tuple) from the
    stream gen, two 64-bit words each (``numerics._gaussians``)."""
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    return numerics._gaussians(
        gen._words(2 * math.prod(shape))).reshape(shape)


def random_state(dim, gen):
    """Random unit vector with complex Gaussian entries: the real parts,
    then the imaginary parts, from one draw of 2 dim normals."""
    z = standard_normal(gen, 2 * dim)
    v = z[:dim] + 1j * z[dim:]
    return v / np.linalg.norm(v)


def partial_trace_B(rho, dimA, dimB):
    """Reference: trace out the second tensor factor of a density matrix on
    A (x) B."""
    return np.einsum("ikjk->ij", rho.reshape(dimA, dimB, dimA, dimB))


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_hermitian_eig_reconstructs(dim):
    gen = rng(11 + dim)
    M = (standard_normal(gen, (dim, dim))
         + 1j * standard_normal(gen, (dim, dim)))
    H = M + M.conj().T
    w = hermitian_eig(H)
    scale = np.linalg.norm(H)
    assert w.shape == (dim,)
    assert np.all(np.diff(w) >= -1e-12)
    # Cross-check against numpy's full eigensolver.
    assert np.abs(w - np.linalg.eigh(H)[0]).max() <= 1e-10 * scale


def _random_hermitian(dim, gen):
    M = (standard_normal(gen, (dim, dim))
         + 1j * standard_normal(gen, (dim, dim)))
    return M + M.conj().T


@settings(derandomize=True, max_examples=50, deadline=None)
@given(dim=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       degenerate=st.booleans())
def test_hermitian_eig_properties(dim, seed, degenerate):
    gen = rng(seed)
    if degenerate:
        # Every eigenvalue of kron(H, I_3) has multiplicity 3.
        H = np.kron(_random_hermitian(max(1, dim // 3), gen), np.eye(3))
    else:
        H = _random_hermitian(dim, gen)
    w = hermitian_eig(H)
    scale = max(np.linalg.norm(H), 1.0)
    assert w.shape == (H.shape[0],)
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs(w - np.linalg.eigh(H)[0]).max() <= 1e-10 * scale
    if degenerate:
        assert np.abs(w[0::3] - w[2::3]).max() <= 1e-10 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_hermitian_eig_rejects_non_finite(bad):
    H = np.eye(3, dtype=complex)
    H[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eig(H)


def test_hermitian_eig_rejects_non_hermitian_and_non_square():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros((2, 3)))


def test_partial_trace_product_state():
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(partial_trace_B(rho, 2, 2), np.diag([1.0, 0.0]))


def test_partial_trace_maximally_entangled():
    psi = np.eye(2).reshape(4) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace_B(rho, 2, 2), np.eye(2) / 2)


def test_partial_trace_hand_expansion():
    # Oracle: sum the 2x2 diagonal blocks by hand on a random density matrix.
    gen = rng(3)
    M = standard_normal(gen, (6, 6)) + 1j * standard_normal(gen, (6, 6))
    rho = M @ M.conj().T
    rho /= np.trace(rho)
    expected = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            expected[i, j] = sum(rho[2 * i + k, 2 * j + k] for k in range(2))
    out = partial_trace_B(rho, 3, 2)
    assert np.allclose(out, expected, atol=1e-12)
    assert abs(np.trace(out) - 1.0) < 1e-12


def test_kron_mixed_product_property():
    gen = rng(5)
    for _ in range(5):
        A, B, C, D = (standard_normal(gen, (3, 3))
                      + 1j * standard_normal(gen, (3, 3))
                      for _ in range(4))
        lhs = np.kron(A, B) @ np.kron(C, D)
        rhs = np.kron(A @ C, B @ D)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("order,dim", [(2, 1), (2, 4), (3, 3), (5, 7)])
def test_random_order_n_observable(order, dim):
    U = random_order_n_observables(order, dim, [17])[0]
    assert np.linalg.norm(
        np.linalg.matrix_power(U, order) - np.eye(dim)) < 1e-10
    assert np.allclose(U, random_order_n_observables(order, dim, [17])[0])
    if dim == 1 and order == 2:
        assert abs(abs(U[0, 0]) - 1.0) < 1e-12
        assert abs(U[0, 0].imag) < 1e-12


def _observable_reference(order, dim, seed):
    """One observable from its own stream: exponents, then the Gaussian."""
    gen = rng(seed)
    exps = gen.integers(0, order, size=dim)
    G = (standard_normal(gen, (dim, dim))
         + 1j * standard_normal(gen, (dim, dim)))
    Q, R = np.linalg.qr(G)
    V = Q * (np.diag(R) / np.abs(np.diag(R)))
    omega = np.exp(2j * np.pi / order)
    return (V * (omega ** exps)) @ V.conj().T


@pytest.mark.parametrize("order,dim", [(2, 1), (2, 4), (3, 3), (3, 6),
                                       (5, 7)])
def test_random_order_n_observables_stack(order, dim):
    seeds = [3, 2**63 - 1, 17, 17, 0]
    U = random_order_n_observables(order, dim, seeds)
    assert U.shape == (len(seeds), dim, dim)
    eye = np.eye(dim)
    for t, seed in enumerate(seeds):
        one = random_order_n_observables(order, dim, [seed])[0]
        assert np.abs(U[t] - one).max() < 1e-14
        assert np.abs(U[t] - _observable_reference(order, dim, seed)).max() \
            < 1e-14
        assert np.linalg.norm(U[t].conj().T @ U[t] - eye) < 1e-12
        assert np.linalg.norm(
            np.linalg.matrix_power(U[t], order) - eye) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_observable_to_pvm_reconstruction(n):
    # The spectral projectors of the canonical strategy's and of random
    # order-n observables: Hermitian, orthogonal idempotents resolving I,
    # with sum_i omega^i E_i = U.
    w = np.exp(2j * np.pi / n)
    s = canonical_strategy(n)
    observables = [*s.alice_obs, *s.bob_obs]
    for dim in (1, 3, 8):
        observables += list(random_order_n_observables(n, dim, [n, 10 + n]))
    for U in observables:
        dim = len(U)
        pvm = observable_to_pvm(U, n)
        assert pvm.shape == (n, dim, dim)
        assert np.linalg.norm(pvm.sum(axis=0) - np.eye(dim)) < 1e-10
        recon = sum(w ** i * E for i, E in enumerate(pvm))
        assert np.linalg.norm(recon - U) < 1e-10
        for i, E in enumerate(pvm):
            assert np.linalg.norm(E - E.conj().T) < 1e-10
            for j in range(n):
                assert np.linalg.norm(
                    E @ pvm[j] - (E if i == j else 0)) < 1e-10


def test_observable_to_pvm_rejects_a_wrong_order():
    U = random_order_n_observables(3, 4, [5])[0]
    assert len(observable_to_pvm(U, 6)) == 6  # U^6 = I: order 6 holds
    for n in (2, 4, 5):
        with pytest.raises(ValueError, match=f"order-{n} observable"):
            observable_to_pvm(U, n)


def test_random_state_normalized():
    v = random_state(9, rng(2))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_random_state_is_one_draw_of_real_then_imaginary_parts():
    gen = rng(2)
    v = standard_normal(gen, 9) + 1j * standard_normal(gen, 9)
    assert np.abs(random_state(9, rng(2)) - v / np.linalg.norm(v)).max() \
        < 1e-15


def test_random_state_draw_is_pinned():
    # Seed 7's draw; a change to the stream or to the Gaussians shows.
    assert np.abs(random_state(4, rng(7)) - np.array([
        -0.6981381940386174 - 0.1343012503477047j,
        0.04956387189878023 - 0.25620134760038876j,
        -0.14037796713139833 - 0.11641425876544854j,
        0.17552556410619305 - 0.6019992120551628j])).max() <= 1e-12


def test_stream_first_draws_are_pinned():
    # The words are MT19937's getrandbits(64) outputs for seed 0 (the
    # second reduced mod 2^63); a change to CPython's stream or to the
    # reductions shows here.
    gen = rng(0)
    assert [gen.integers(2**63) for _ in range(3)] == [
        7106521602475165645, 7198729688045931692, 746805015404516437]
    assert gen.integers(0, 10, size=5).tolist() == [2, 6, 6, 7, 1]
    assert gen.integers(-5, 5) == -5
    assert standard_normal(gen, 3).tolist() == pytest.approx(
        [0.41530241384699385, 0.3497803424934713, 0.1363484151199732],
        rel=1e-12)
    assert gen.choice("abc") == "b"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64),
       span=st.integers(1, 2**63),
       size=st.one_of(st.none(), st.integers(0, 9),
                      st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_integers_stay_in_range(data, seed, span, size):
    low = data.draw(st.integers(-2**63, 2**63 - span))
    got = rng(seed).integers(low, low + span, size=size)
    if size is None:
        values = [got]
    else:
        assert got.shape == np.empty(size).shape
        assert got.dtype == np.int64
        values = got.ravel().tolist()
    assert all(low <= v < low + span for v in values)
    one_bound = rng(seed).integers(span, size=size)
    assert np.all((0 <= np.asarray(one_bound)) & (one_bound < span))


def test_integers_reject_an_empty_or_too_wide_range():
    gen = rng(1)
    for low, high in [(0, 0), (3, 2), (0, 2**63 + 1)]:
        with pytest.raises(ValueError, match="high - low"):
            gen.integers(low, high)


def test_standard_normal_moments():
    # 10^5 draws: mean and variance within 5 standard errors of 0 and 1.
    count = 10**5
    z = standard_normal(rng(8), count)
    assert z.shape == (count,)
    assert abs(z.mean()) < 5 / np.sqrt(count)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2.0 / count)


def test_negative_seeds_are_refused():
    # random.Random(-s) is seeded as Random(s); no two seeds may alias.
    with pytest.raises(ValueError, match="seed must be >= 0"):
        rng(-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_order_n_observables(2, 2, [5, -5])
