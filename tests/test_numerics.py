import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from znlcs.numerics import (complex_from_json, complex_to_json,
                            dirichlet_kernel, hermitian_eig, partial_trace_A,
                            partial_trace_B, random_order_n_observable,
                            random_order_n_observables, random_state,
                            random_unitary, rng)


def test_dirichlet_closed_form_matches_direct_sum():
    # Oracle: evaluate the defining sum term by term.
    xs = np.linspace(0.05, 2 * np.pi - 0.05, 100)
    for m in range(0, 41):
        for x in xs:
            direct = sum(np.exp(1j * k * x)
                         for k in range(-m, m + 1)).real / (2 * np.pi)
            assert abs(dirichlet_kernel(m, x) - direct) < 1e-10


def test_dirichlet_limit_at_zero():
    for m in (0, 1, 5):
        assert dirichlet_kernel(m, 0.0) == pytest.approx(
            (2 * m + 1) / (2 * np.pi))
        assert dirichlet_kernel(m, 2 * np.pi) == pytest.approx(
            (2 * m + 1) / (2 * np.pi))


def test_dirichlet_single_term():
    assert dirichlet_kernel(0, np.pi) == pytest.approx(1 / (2 * np.pi))
    assert dirichlet_kernel(1, np.pi / 3) == pytest.approx(1 / np.pi)


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_hermitian_eig_reconstructs(dim):
    gen = rng(11 + dim)
    M = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    H = M + M.conj().T
    eig = hermitian_eig(H)
    V, w = eig.eigenvectors, eig.eigenvalues
    scale = np.linalg.norm(H)
    assert np.linalg.norm(V @ np.diag(w) @ V.conj().T - H) < 1e-8 * scale
    assert np.linalg.norm(V.conj().T @ V - np.eye(dim)) < 1e-8
    assert np.all(np.diff(w) >= -1e-12)
    # Cross-check against numpy's eigensolver.
    assert np.allclose(w, np.linalg.eigvalsh(H), atol=1e-8 * scale)


def _random_hermitian(dim, gen):
    M = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
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
    eig = hermitian_eig(H)
    V, w = eig.eigenvectors, eig.eigenvalues
    d = H.shape[0]
    scale = max(np.linalg.norm(H), 1.0)
    assert np.linalg.norm(V @ np.diag(w) @ V.conj().T - H) < 1e-10 * scale
    assert np.linalg.norm(V.conj().T @ V - np.eye(d)) < 1e-10
    assert np.all(np.diff(w) >= 0.0)
    assert np.allclose(w, np.linalg.eigvalsh(H), atol=1e-10 * scale)


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
    assert np.allclose(partial_trace_A(rho, 2, 2), np.diag([0.0, 1.0]))


def test_partial_trace_maximally_entangled():
    psi = np.eye(2).reshape(4) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace_B(rho, 2, 2), np.eye(2) / 2)


def test_partial_trace_hand_expansion():
    # Oracle: sum the 2x2 diagonal blocks by hand on a random density matrix.
    gen = rng(3)
    M = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
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
        A, B, C, D = (gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
                      for _ in range(4))
        lhs = np.kron(A, B) @ np.kron(C, D)
        rhs = np.kron(A @ C, B @ D)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)


def test_random_unitary_is_unitary_and_deterministic():
    U = random_unitary(7, rng(9))
    assert np.linalg.norm(U @ U.conj().T - np.eye(7)) < 1e-12
    assert np.allclose(U, random_unitary(7, rng(9)))


@pytest.mark.parametrize("order,dim", [(2, 1), (2, 4), (3, 3), (5, 7)])
def test_random_order_n_observable(order, dim):
    U = random_order_n_observable(order, dim, 17)
    assert np.linalg.norm(
        np.linalg.matrix_power(U, order) - np.eye(dim)) < 1e-10
    assert np.allclose(U, random_order_n_observable(order, dim, 17))
    if dim == 1 and order == 2:
        assert abs(abs(U[0, 0]) - 1.0) < 1e-12
        assert abs(U[0, 0].imag) < 1e-12


def _observable_reference(order, dim, seed):
    """One observable from its own stream: exponents, then the Gaussian."""
    gen = rng(seed)
    exps = gen.integers(0, order, size=dim)
    G = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
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
        one = random_order_n_observable(order, dim, seed)
        assert np.abs(U[t] - one).max() < 1e-14
        assert np.abs(U[t] - _observable_reference(order, dim, seed)).max() \
            < 1e-14
        assert np.linalg.norm(U[t].conj().T @ U[t] - eye) < 1e-12
        assert np.linalg.norm(
            np.linalg.matrix_power(U[t], order) - eye) < 1e-12


def test_random_state_normalized():
    v = random_state(9, rng(2))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(a=arrays(np.complex128, array_shapes(min_dims=1, max_dims=3),
                elements=st.complex_numbers(allow_nan=False,
                                            allow_infinity=False)))
def test_complex_json_round_trip_is_bit_exact(a):
    text = json.dumps(complex_to_json(a))
    back = complex_from_json(json.loads(text))
    assert back.dtype == np.complex128
    assert back.shape == a.shape
    # Compare bits, so signed zeros count.
    assert back.tobytes() == a.tobytes()
    assert json.dumps(complex_to_json(back)) == text
