"""Bias polynomials and bias-operator spectra for the mod-n game family.

The winning probability of any strategy equals <psi|B|psi>/(4n) + 1/n where
B is the bias operator, so value claims reduce to spectral claims about B.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gamekit import ModNGameParams
from .ncpoly import NCPolynomial, eval_nc
from .numerics import complex_to_json, hermitian_defect, hermitian_eig
from .strategykit import (Strategy, canonical_state, canonical_strategy,
                          canonical_value_formula)

CLUSTER_TOL = 1e-7


def bias_polynomial(p: ModNGameParams) -> NCPolynomial:
    """B = sum_{i=1}^{n-1} A0^i B0^{-i} + w^{-i m1} A0^i B1^i
    + A1^i B0^{-i} + w^{-i m2} A1^i B1^i."""
    n = p.n
    omega = np.exp(2j * np.pi / n)
    terms = {}
    for i in range(1, n):
        terms[(("A", 0, i), ("B", 0, n - i))] = 1.0
        terms[(("A", 0, i), ("B", 1, i))] = omega ** (-i * p.m1)
        terms[(("A", 1, i), ("B", 0, n - i))] = 1.0
        terms[(("A", 1, i), ("B", 1, i))] = omega ** (-i * p.m2)
    return NCPolynomial(n, terms)


def bias_operator(p: ModNGameParams, s: Strategy) -> np.ndarray:
    """Evaluate the bias polynomial on a strategy's observables."""
    if s.order != p.n:
        raise ValueError("strategy order does not match game modulus")
    B = eval_nc(bias_polynomial(p), s.assignment(), s.dimA, s.dimB)
    defect = hermitian_defect(B)
    if defect > 1e-10 * max(1.0, float(np.linalg.norm(B))):
        raise ValueError(f"bias operator has Hermitian defect {defect:.3e}")
    return (B + B.conj().T) / 2


def bias_value(p: ModNGameParams, s: Strategy) -> float:
    """Winning probability via the bias: <psi|B|psi>/(4n) + 1/n."""
    B = bias_operator(p, s)
    return float(np.real(np.vdot(s.state, B @ s.state))) / (4 * p.n) + 1.0 / p.n


@dataclass(frozen=True)
class BiasReport:
    top_eigenvalue: float
    multiplicity: int
    top_eigenvector: Optional[np.ndarray]
    predicted_value: float

    def to_json(self) -> str:
        return json.dumps({
            "topEigenvalue": self.top_eigenvalue,
            "multiplicity": self.multiplicity,
            "topEigenvector": None if self.top_eigenvector is None
            else complex_to_json(self.top_eigenvector),
            "predictedValue": self.predicted_value,
        })


def bias_spectrum(p: ModNGameParams, s: Strategy) -> BiasReport:
    """Top eigenvalue of the bias operator, its multiplicity (eigenvalues
    clustered at 1e-7), and the eigenvector when it is unique."""
    B = bias_operator(p, s)
    eig = hermitian_eig(B)
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
    s = canonical_strategy(n)
    B = bias_operator(ModNGameParams(n, 0, 1), s)
    psi = canonical_state(n)
    return float(np.linalg.norm(B @ psi - bias_eigenvalue_formula(n) * psi))


def write_value_table(path: str, n_max: int = 40) -> None:
    """CSV of (n, top bias eigenvalue via formula, predicted value, direct
    formula value) for n = 2..n_max."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "top_eigenvalue", "predicted_value",
                         "formula_value"])
        for n in range(2, n_max + 1):
            lam = bias_eigenvalue_formula(n)
            formula = canonical_value_formula(n)
            writer.writerow([n, f"{lam:.12f}", f"{lam / (4 * n) + 1 / n:.12f}",
                             f"{formula:.12f}"])
