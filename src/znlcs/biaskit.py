"""Bias polynomials and bias-operator spectra for the mod-n game family.

The winning probability of any strategy equals <psi|B|psi>/(4n) + 1/n where
B is the bias operator, so value claims reduce to spectral claims about B.

A general strategy's B is the dense matrix ``bias_operator``. The canonical
strategy's observables are monomial (a cyclic shift times phases), so its
B keeps (a + b) mod n fixed on |a, b> and splits into n blocks of size n.
Each term of the bias polynomial is one Alice letter and one Bob letter, so
``bias_blocks`` builds the blocks from one power of each party's generator,
read from ``monomial.power_rows``, the one power kernel, and the CLI's
spectra and values run on them.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import gamekit, monomial, ncpoly, numerics, strategykit
from .records import Record

CLUSTER_TOL = 1e-7
# Largest block stack of the canonical bias operator the CLI builds: 64 MiB
# of complex128, so n <= 161 (n blocks of n x n). `bias spectrum --n 161`
# takes 0.7-0.8 s and 97 MB peak RSS; in canonical_bias_spectrum the n
# values-only eigensolves take 0.36-0.57 s and bias_blocks 0.16-0.26 s
# (2-core Xeon, one BLAS thread, best of 3 in each of three noisy runs).
SPECTRUM_BYTES_CAP = 1 << 26
# Largest block `strategy value --via bias` builds, block 0 alone: 32 MiB
# of complex128, so n <= 1448. `strategy value --n 1448 --via bias` takes
# 0.26-0.42 s in-process and 83 MB peak RSS (same machine, seven runs),
# inside what the other caps admit (about 1.6 s and 110 MB).
VALUE_BYTES_CAP = 1 << 25


def block_bytes(n: int, blocks: Optional[int] = None) -> int:
    """Bytes of ``blocks`` blocks (by default all n) of the canonical
    strategy's bias operator as ``bias_blocks`` builds them: n x n
    complex128 entries each, 16 n^2."""
    return 16 * (n if blocks is None else blocks) * n ** 2


def bias_polynomial(p: gamekit.ModNGameParams) -> ncpoly.NCPolynomial:
    """B = sum_{i=1}^{n-1} A0^i B0^{-i} + w^{-i m1} A0^i B1^i
    + A1^i B0^{-i} + w^{-i m2} A1^i B1^i."""
    n = p.n
    # cmath.exp(2j * pi / n) gives the same bits (exp(0) is exactly 1), but
    # loading cmath's extension module adds about 0.1 MB to each process.
    t = 2 * math.pi / n
    omega = complex(math.cos(t), math.sin(t))
    terms = {}
    for i in range(1, n):
        terms[(("A", 0, i), ("B", 0, n - i))] = 1.0
        terms[(("A", 0, i), ("B", 1, i))] = omega ** (-i * p.m1)
        terms[(("A", 1, i), ("B", 0, n - i))] = 1.0
        terms[(("A", 1, i), ("B", 1, i))] = omega ** (-i * p.m2)
    return ncpoly.NCPolynomial(n, terms)


def bias_operator(p: gamekit.ModNGameParams,
                  s: strategykit.Strategy) -> np.ndarray:
    """Evaluate the bias polynomial on a strategy's observables."""
    import numpy as np
    if s.order != p.n:
        raise ValueError("strategy order does not match game modulus")
    B = ncpoly.eval_nc(bias_polynomial(p), s.assignment(), s.dimA, s.dimB)
    defect = numerics.hermitian_defect(B)
    if defect > 1e-10 * max(1.0, float(np.linalg.norm(B))):
        raise ValueError(f"bias operator has Hermitian defect {defect:.3e}")
    return (B + B.conj().T) / 2


class BiasReport(Record):
    top_eigenvalue: float
    multiplicity: int
    top_eigenvector: Optional[np.ndarray]
    predicted_value: float


def bias_spectrum(p: gamekit.ModNGameParams,
                  s: strategykit.Strategy) -> BiasReport:
    """Top eigenvalue of the bias operator, its multiplicity (eigenvalues
    clustered at 1e-7), and the eigenvector when it is unique."""
    import numpy as np
    B = bias_operator(p, s)
    eig = numerics.hermitian_eig(B)
    w = eig.eigenvalues
    top = float(w[-1])
    mult = int(np.sum(w > top - CLUSTER_TOL))
    vec = eig.eigenvectors[:, -1] if mult == 1 else None
    return BiasReport(
        top_eigenvalue=top, multiplicity=mult, top_eigenvector=vec,
        predicted_value=top / (4 * p.n) + 1.0 / p.n)


def bias_blocks(p: gamekit.ModNGameParams,
                sums: Optional[Sequence[int]] = None) -> np.ndarray:
    """The canonical strategy's bias operator block by block: M[k] is the
    n x n matrix of B on |a, s - a>, a = 0..n-1, for s = sums[k] (by
    default every s, so M[s]).

    A term c A_x^i B_y^j of ``bias_polynomial(p)`` is one Alice letter and
    one Bob letter, each a power of a generator, read off its row of
    ``monomial.power_rows``: A_x^i sends |a> to z^alpha[a] |a + t>, B_y^j
    sends |b> to z^beta[b] |b + u>. Since t + u = 0 mod n, the term maps
    column a of block s to row a + t of the same block, with entry
    c z^(alpha[a] + beta[s - a]); the rows' dtype holds that sum. A term
    whose shifts do not cancel would leave its block: it raises ValueError.
    """
    import numpy as np
    n = p.n
    powers = {}
    for party, gens in (("A", monomial.alice_generators(n)),
                        ("B", monomial.bob_generators(n))):
        for x, g in enumerate(gens):
            powers[party, x] = monomial.power_rows(g)
    by_shift = {}
    for word, coeff in bias_polynomial(p).terms.items():
        (_, x, i), (_, y, j) = word
        alice, bob = powers["A", x][i], powers["B", y][j]
        t, u = int(alice[0]), int(bob[0])
        if (t + u) % n:
            raise ValueError(
                f"bias term {word} moves a + b by {(t + u) % n} mod {n}")
        by_shift.setdefault(t, []).append((coeff, alice[1:], bob[1:]))
    a = np.arange(n)
    s = a if sums is None else np.asarray(sums)
    b = (s[:, None] - a) % n
    # z^e for every e = alpha[a] + beta[b], a sum of two exponents mod 4n.
    zpow = np.exp(1j * np.pi / (2 * n) * np.arange(8 * n))
    blocks = np.zeros((len(s), n, n), dtype=np.complex128)
    for t, terms in by_shift.items():
        blocks[:, (a + t) % n, a] = sum(
            (coeff * zpow)[alpha + beta[b]] for coeff, alpha, beta in terms)
    return blocks


def canonical_bias_spectrum(p: gamekit.ModNGameParams) -> BiasReport:
    """``bias_spectrum(p, canonical_strategy(p.n))`` on ``bias_blocks(p)``:
    the top eigenvalue over the blocks, its multiplicity over all of them
    (eigenvalues clustered at CLUSTER_TOL), and, when it is unique, its
    eigenvector placed in C^n (x) C^n. Every block's eigenvalues come from
    the values-only solver; the block holding the top eigenvalue is then
    fully decomposed, for the reported value and eigenvector."""
    import numpy as np
    n = p.n
    blocks = bias_blocks(p)
    values = np.array([numerics.hermitian_eig(M, vectors=False).eigenvalues
                       for M in blocks])
    s = int(np.argmax(values[:, -1]))
    eig = numerics.hermitian_eig(blocks[s])
    top = float(eig.eigenvalues[-1])
    mult = int(np.sum(values > top - CLUSTER_TOL))
    vec = None
    if mult == 1:
        a = np.arange(n)
        vec = np.zeros(n * n, dtype=np.complex128)
        vec[a * n + (s - a) % n] = eig.eigenvectors[:, -1]
    return BiasReport(
        top_eigenvalue=top, multiplicity=mult, top_eigenvector=vec,
        predicted_value=top / (4 * n) + 1.0 / n)


def _canonical_block(p: gamekit.ModNGameParams):
    """Block 0 of ``bias_blocks(p)`` and the canonical state on it: that
    state is supported on |i, -i>, which block 0 spans."""
    import numpy as np
    M = bias_blocks(p, sums=[0])[0]
    return M, np.array(strategykit.canonical_amplitudes(p.n))


def canonical_bias_value(p: gamekit.ModNGameParams) -> float:
    """The canonical strategy's winning probability,
    <psi|B|psi>/(4n) + 1/n, on block 0."""
    import numpy as np
    M, psi = _canonical_block(p)
    return float(np.real(np.vdot(psi, M @ psi))) / (4 * p.n) + 1.0 / p.n


def bias_eigenvalue_formula(n: int) -> float:
    """The analytic bias of the canonical strategy: 2n - 4 + 2/sin(pi/2n)."""
    return 2 * n - 4 + 2.0 / math.sin(math.pi / (2 * n))


def eigenrelation_residual(n: int) -> float:
    """||B_n |psi_n> - (2n - 4 + 2/sin(pi/2n)) |psi_n>|| for the canonical
    strategy, on block 0."""
    import numpy as np
    M, psi = _canonical_block(gamekit.ModNGameParams(n, 0, 1))
    return float(np.linalg.norm(M @ psi - bias_eigenvalue_formula(n) * psi))
