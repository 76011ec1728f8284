"""Dense complex matrix kernel.

Hermitian eigendecomposition (LAPACK via numpy.linalg.eigh), spectral
projectors and <psi|E (x) F|psi> tables, a seeded integer stream and seeded
random observables of order n. All operators are plain complex128 ndarrays;
helpers validate shape, finiteness and Hermiticity at the boundary.

Randomness comes from the standard library's Mersenne Twister
(``random.Random``, MT19937), which ``import numpy`` loads anyway, so no
command loads numpy's own random package. A seed (an int >= 0) fixes the
stream, so every "random" test object is reproducible. Every draw takes
whole 64-bit words, as ``getrandbits(64)`` returns them: one per integer,
two per Gaussian. A block of words comes from one ``getrandbits(64 *
count)`` call, whose little-endian bytes are those words in draw order.
``Stream`` draws integers only; the observables turn words into
Gaussians (``_gaussians``) themselves.
"""

from __future__ import annotations

import math
import random
from typing import Optional

import numpy as np

from .records import Record

# Largest Hermitian defect hermitian_eig accepts, relative to max(||M||_F, 1).
HERMITIAN_TOL = 1e-9
# Largest Frobenius defect of U U* = I or U^n = I in an order-n observable.
ORDER_TOL = 1e-8


def _twister(seed: int) -> random.Random:
    seed = int(seed)
    # Random(-s) is seeded as Random(s): refuse negatives, not alias them.
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def _word_bytes(twister: random.Random, count: int) -> bytes:
    """The next ``count`` 64-bit words, little-endian, from one call."""
    return twister.getrandbits(64 * count).to_bytes(8 * count, "little")


def _gaussians(words: np.ndarray) -> np.ndarray:
    """Box-Muller, cos branch: each pair of uint64 words along the last
    axis, (radius, angle), gives one standard normal. A word's top 53 bits
    are u in [0, 1); the radius is sqrt(-2 log(1 - u))."""
    u = (words >> 11) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    return radius * np.cos(2.0 * np.pi * u[..., 1::2])


class Stream:
    """Seeded stream of integers over MT19937."""

    __slots__ = ("_twister",)

    def __init__(self, seed: int):
        self._twister = _twister(seed)

    def _words(self, count: int) -> np.ndarray:
        return np.frombuffer(_word_bytes(self._twister, count), dtype="<u8")

    def integers(self, low: int, high=None, size=None):
        """Uniform integers in [low, high), or [0, low) given one bound: an
        int, or an int64 array of shape ``size``. Each is low + w mod
        (high - low) for one 64-bit word w, so a span that is not a power
        of two is biased by less than span / 2^64."""
        if high is None:
            low, high = 0, low
        span = high - low
        if not 0 < span <= 2 ** 63:
            raise ValueError(
                f"need 0 < high - low <= 2^63, got [{low}, {high})")
        if size is None:
            return low + self._twister.getrandbits(64) % span
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        words = self._words(math.prod(shape)) % np.uint64(span)
        return words.astype(np.int64).reshape(shape) + low

    def choice(self, seq):
        """One element of seq, uniformly: seq[integers(len(seq))]."""
        return seq[self.integers(len(seq))]


def rng(seed: int) -> Stream:
    """The seeded stream used for all randomized constructions."""
    return Stream(seed)


def frob(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def hermitian_defect(M: np.ndarray) -> float:
    return frob(M - adjoint(M))


def require_square(M: np.ndarray, name: str) -> int:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M.shape[0]


def require_finite(M: np.ndarray, name: str) -> None:
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")


def require_hermitian(M: np.ndarray, name: str) -> None:
    defect = hermitian_defect(M)
    scale = max(frob(M), 1.0)
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(
            f"{name} is not Hermitian: defect norm {defect:.3e} "
            f"exceeds {HERMITIAN_TOL:.1e} * {scale:.3e}"
        )


class HermitianEig(Record):
    """Eigendecomposition M = V diag(w) V* with w ascending (V is None when
    only the eigenvalues were asked for)."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]


def hermitian_eig(M: np.ndarray, vectors: bool = True) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix (LAPACK via numpy.linalg.eigh).

    The input must be square, finite and Hermitian to within
    HERMITIAN_TOL * max(||M||_F, 1).
    Eigenvalues are returned ascending; eigenvectors are the matching
    columns of a unitary matrix. With ``vectors`` false the eigenvectors
    are None and the eigenvalues come from LAPACK's values-only driver
    (numpy.linalg.eigvalsh), which is faster.
    """
    require_square(M, "hermitian_eig input")
    require_finite(M, "hermitian_eig input")
    require_hermitian(M, "hermitian_eig input")
    M = np.asarray(M, dtype=np.complex128)
    if not vectors:
        return HermitianEig(eigenvalues=np.linalg.eigvalsh(M),
                            eigenvectors=None)
    w, V = np.linalg.eigh(M)
    return HermitianEig(eigenvalues=w, eigenvectors=V)


def observable_to_pvm(U: np.ndarray, n: int) -> np.ndarray:
    """Stack (n, d, d) of the spectral projectors E_i = (1/n) sum_k
    omega^{-ik} U^k of an order-n observable on C^d (sum_i omega^i E_i =
    U): U^0..U^n fill one preallocated stack, whose last entry checks the
    order, and the n sums are one product with the DFT matrix."""
    d = require_square(U, "observable")
    powers = np.empty((n + 1, d, d), dtype=np.complex128)
    powers[0] = np.eye(d)
    for k in range(n):
        np.matmul(powers[k], U, out=powers[k + 1])
    if frob(powers[n] - powers[0]) > ORDER_TOL:
        raise ValueError(f"input is not an order-{n} observable")
    k = np.arange(n)  # omega^{-ik} from ik mod n: exact at any ik
    dft = np.exp(np.outer(k, k) % n * (-2j * np.pi / n)) / n
    return (dft @ powers[:n].reshape(n, d * d)).reshape(n, d, d)


def expectation_table(psi: np.ndarray, E: np.ndarray,
                      F: np.ndarray) -> np.ndarray:
    """Real table <psi| E_a (x) F_b |psi> over Hermitian stacks E (m, dA,
    dA) and F (p, dB, dB), psi given as its dA x dB coefficient matrix:
    sum_yz (psi* E_a psi)_yz (F_b)_yz, one product per stack."""
    G = adjoint(psi) @ E @ psi
    return (G.reshape(len(E), -1) @ F.reshape(len(F), -1).T).real


def random_order_n_observables(order: int, dim: int, seeds) -> np.ndarray:
    """Stack (len(seeds), dim, dim) of random generalized observables U with
    U^order = I, each deterministic in its seed.

    U = V diag(omega^e) V* with uniform eigenvalue exponents e and V a
    random unitary. Each seed's stream gives the exponents, as
    ``rng(seed).integers(0, order, size=dim)`` would draw them, then the
    real and the imaginary part of the Gaussian matrix behind V, dim^2
    normals each at two words a normal (``_gaussians``). Those
    dim + 4 dim^2 words are taken with one call a seed, and converted, and
    the QR step run, on the whole stack at once.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    seeds = list(seeds)
    count = dim + 4 * dim * dim
    words = np.frombuffer(
        b"".join(_word_bytes(_twister(seed), count) for seed in seeds),
        dtype="<u8").reshape(len(seeds), count)
    exps = (words[:, :dim] % np.uint64(order)).astype(np.int64)
    parts = _gaussians(words[:, dim:]).reshape(len(seeds), 2, dim, dim)
    G = parts[:, 0] + 1j * parts[:, 1]
    # V is the Q factor of G = QR with the phases of diag(R) divided out,
    # so it is determined by G.
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    V = Q * (d / np.abs(d))[..., None, :]
    omega = np.exp(2j * np.pi / order)
    return (V * (omega ** exps)[:, None, :]) @ V.conj().swapaxes(-1, -2)

