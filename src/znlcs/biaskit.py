"""Bias polynomials and bias-operator spectra for the mod-n game family.

The winning probability of any strategy equals <psi|B|psi>/(4n) + 1/n where
B is the bias operator, so value claims reduce to spectral claims about B.
"""

from __future__ import annotations

import math
from typing import Optional

from . import gamekit, ncpoly, numerics, strategykit
from .records import Record

CLUSTER_TOL = 1e-7
# Largest dense bias operator the CLI's spectrum builds: 64 MiB of
# complex128, so n <= 45 for the canonical strategy (n^2 x n^2).
SPECTRUM_BYTES_CAP = 1 << 26


def operator_bytes(n: int) -> int:
    """Bytes of the canonical strategy's dense bias operator: n^2 x n^2
    complex128 entries, 16 n^4."""
    return 16 * n ** 4


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


def bias_value(p: gamekit.ModNGameParams, s: strategykit.Strategy) -> float:
    """Winning probability via the bias: <psi|B|psi>/(4n) + 1/n."""
    import numpy as np
    B = bias_operator(p, s)
    return float(np.real(np.vdot(s.state, B @ s.state))) / (4 * p.n) + 1.0 / p.n


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


def bias_eigenvalue_formula(n: int) -> float:
    """The analytic bias of the canonical strategy: 2n - 4 + 2/sin(pi/2n)."""
    return 2 * n - 4 + 2.0 / math.sin(math.pi / (2 * n))


def eigenrelation_residual(n: int) -> float:
    """||B_n |psi_n> - (2n - 4 + 2/sin(pi/2n)) |psi_n>|| for the canonical
    strategy."""
    import numpy as np
    s = strategykit.canonical_strategy(n)
    B = bias_operator(gamekit.ModNGameParams(n, 0, 1), s)
    psi = strategykit.canonical_state(n)
    return float(np.linalg.norm(B @ psi - bias_eigenvalue_formula(n) * psi))
