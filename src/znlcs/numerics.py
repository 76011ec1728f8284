"""Dense complex matrix kernel.

Hermitian eigendecomposition (LAPACK via numpy.linalg.eigh) and seeded
random generalized observables and states. All operators are plain
complex128 ndarrays; helpers validate shape, finiteness and Hermiticity at
the boundary.

Randomness uses numpy's PCG64 generator: two calls with the same seed
produce the same stream, so every "random" test object is reproducible.
"""

from __future__ import annotations

import numpy as np

from .records import Record

DEFAULT_TOL = 1e-9


def rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator used for all randomized constructions."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def frob(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def hermitian_defect(M: np.ndarray) -> float:
    return frob(M - adjoint(M))


def require_square(M: np.ndarray, name: str = "matrix") -> int:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M.shape[0]


def require_finite(M: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")


def require_hermitian(M: np.ndarray, tol: float, name: str = "matrix") -> None:
    defect = hermitian_defect(M)
    scale = max(frob(M), 1.0)
    if defect > tol * scale:
        raise ValueError(
            f"{name} is not Hermitian: defect norm {defect:.3e} "
            f"exceeds {tol:.1e} * {scale:.3e}"
        )


class HermitianEig(Record):
    """Eigendecomposition M = V diag(w) V* with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(M: np.ndarray, tol: float = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix (LAPACK via numpy.linalg.eigh).

    The input must be square, finite and Hermitian to within tol * ||M||_F.
    Eigenvalues are returned ascending; eigenvectors are the matching
    columns of a unitary matrix.
    """
    require_square(M, "hermitian_eig input")
    require_finite(M, "hermitian_eig input")
    require_hermitian(M, tol, "hermitian_eig input")
    w, V = np.linalg.eigh(np.asarray(M, dtype=np.complex128))
    return HermitianEig(eigenvalues=w, eigenvectors=V)


def random_order_n_observables(order: int, dim: int, seeds) -> np.ndarray:
    """Stack (len(seeds), dim, dim) of random generalized observables U with
    U^order = I, each deterministic in its seed.

    U = V diag(omega^e) V* with uniform eigenvalue exponents e and V a
    random unitary. Each seed has its own PCG64 stream, drawn exponents
    first, then the Gaussian matrix behind V; the QR step runs on the
    whole stack.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    seeds = list(seeds)
    exps = np.empty((len(seeds), dim), dtype=np.int64)
    G = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    for t, seed in enumerate(seeds):
        gen = rng(seed)
        exps[t] = gen.integers(0, order, size=dim)
        G[t] = (gen.standard_normal((dim, dim))
                + 1j * gen.standard_normal((dim, dim)))
    # V is the Q factor of G = QR with the phases of diag(R) divided out,
    # so it is determined by G.
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    V = Q * (d / np.abs(d))[..., None, :]
    omega = np.exp(2j * np.pi / order)
    return (V * (omega ** exps)[:, None, :]) @ V.conj().swapaxes(-1, -2)


def random_order_n_observable(order: int, dim: int, seed: int) -> np.ndarray:
    """Random generalized observable U with U^order = I, deterministic in
    seed: the one-seed case of ``random_order_n_observables``."""
    return random_order_n_observables(order, dim, [seed])[0]


def random_state(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Random unit vector with complex Gaussian entries."""
    v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return v / np.linalg.norm(v)
