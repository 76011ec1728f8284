"""Sum-of-squares certificates for the mod-n bias operators.

A certificate lam I - B = sum_k w_k T_k^* T_k proves the operator bound
B <= lam I for every admissible tuple of observables, hence the value bound
lam/(4n) + 1/n. The CHSH (n = 2) and n = 3 certificates are shipped as
exact data; verification evaluates both sides on random admissible tuples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .gamekit import ModNGameParams
from .ncpoly import NCPolynomial, eval_nc
from .numerics import complex_to_json, random_order_n_observables, rng
from .strategykit import Strategy, check_state_relation

# Trials evaluated together by verify_sos_identity. Small, so that a block's
# stacked (2n)^2-dimensional operators stay a few hundred kB and the peak
# memory of a run does not grow with the block.
BLOCK_TRIALS = 8

_OPERATORS = (("A", 0), ("A", 1), ("B", 0), ("B", 1))


@dataclass(frozen=True)
class SOSCertificate:
    """lam I - bias = sum of weight * square^* square over order-n
    observables."""

    order: int
    lam: float
    squares: Tuple[Tuple[float, NCPolynomial], ...]

    def __post_init__(self):
        if any(w <= 0 for w, _ in self.squares):
            raise ValueError("certificate weights must be positive")

    def to_json(self) -> str:
        def poly(p: NCPolynomial):
            return [
                {"coeff": complex_to_json(c),
                 "word": [[pl, idx, e] for pl, idx, e in w]}
                for w, c in sorted(p.terms.items())
            ]

        return json.dumps({
            "order": self.order,
            "lambda": self.lam,
            "squares": [{"weight": w, "terms": poly(p)}
                        for w, p in self.squares],
        })


def certificate_chsh() -> SOSCertificate:
    """2 sqrt(2) I - (A0B0 + A0B1 + A1B0 - A1B1)
    = (sqrt2/4)(A0 + A1 - sqrt2 B0)^2 + (sqrt2/4)(A0 - A1 - sqrt2 B1)^2."""
    r2 = math.sqrt(2.0)
    t1 = NCPolynomial(2, {(("A", 0, 1),): 1.0, (("A", 1, 1),): 1.0,
                          (("B", 0, 1),): -r2})
    t2 = NCPolynomial(2, {(("A", 0, 1),): 1.0, (("A", 1, 1),): -1.0,
                          (("B", 1, 1),): -r2})
    return SOSCertificate(order=2, lam=2 * r2,
                          squares=((r2 / 4, t1), (r2 / 4, t2)))


def certificate_g3() -> SOSCertificate:
    """The exact eight-square decomposition of 6I minus the n = 3 bias."""
    w = np.exp(2j * np.pi / 3)
    wc = np.conj(w)
    a = (2 * w + 3 * wc) / math.sqrt(7.0)
    b = (3 * w + 8 * wc) / 7.0
    lam1 = 5.0 / 86.0
    lam2 = (14.0 + math.sqrt(21.0)) / 344.0
    lam3 = (14.0 - math.sqrt(21.0)) / 344.0
    lam4 = 7.0 / 86.0

    s1 = NCPolynomial(3, {(("A", 0, 1),): 1.0, (("A", 1, 1),): w,
                          (("B", 0, 1),): wc, (("B", 1, 2),): w})
    s2 = NCPolynomial(3, {(("A", 0, 2),): 1.0, (("A", 1, 2),): wc,
                          (("B", 0, 2),): w, (("B", 1, 1),): wc})

    def t_poly(c_a0b0c, c_a0cb0, c_a0b1, c_a0cb1c,
               c_a1b0c, c_a1cb0, c_a1b1, c_a1cb1c) -> NCPolynomial:
        return NCPolynomial(3, {
            (("A", 0, 1), ("B", 0, 2)): c_a0b0c,
            (("A", 0, 2), ("B", 0, 1)): c_a0cb0,
            (("A", 0, 1), ("B", 1, 1)): c_a0b1,
            (("A", 0, 2), ("B", 1, 2)): c_a0cb1c,
            (("A", 1, 1), ("B", 0, 2)): c_a1b0c,
            (("A", 1, 2), ("B", 0, 1)): c_a1cb0,
            (("A", 1, 1), ("B", 1, 1)): c_a1b1,
            (("A", 1, 2), ("B", 1, 2)): c_a1cb1c,
        })

    t1 = t_poly(1, a * 1j, -a, 1j, a, -1j, -wc, -a * 1j * w)
    t2 = t_poly(1, a * 1j, a, -1j, -a, 1j, -wc, -a * 1j * w)
    t3 = t_poly(1, -a * 1j, -a, -1j, a, 1j, -wc, a * 1j * w)
    t4 = t_poly(1, -a * 1j, a, 1j, -a, -1j, -wc, a * 1j * w)
    t5 = t_poly(1, b, -b, -1, -b, -1, wc, b * w)
    t6 = NCPolynomial.one(3, 6.0) + t_poly(-1, -1, -1, -1, -1, -1, -wc, -w)

    return SOSCertificate(order=3, lam=6.0, squares=(
        (lam1, s1), (lam1, s2),
        (lam2, t1), (lam2, t2),
        (lam3, t3), (lam3, t4),
        (lam4, t5), (lam4, t6),
    ))


def verify_sos_identity(cert: SOSCertificate, bias: NCPolynomial,
                        trials: int, seed: int) -> float:
    """Max Frobenius residual of (lam I - bias) - sum_k w_k T_k^* T_k over
    random admissible tuples.

    Each trial draws four independent random order-n observables at a
    dimension sampled from {n, 2n}; two sizes guard against coincidences
    tied to a single dimension. All draws come from one seeded stream, in
    trial order; trials of one dimension are then evaluated together, in
    blocks of BLOCK_TRIALS.
    """
    if cert.order != bias.n:
        raise ValueError("certificate and bias order mismatch")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = cert.order
    gen = rng(seed)
    by_dim: Dict[int, List[List[int]]] = {}
    for _ in range(trials):
        dim = int(gen.choice([n, 2 * n]))
        by_dim.setdefault(dim, []).append(
            [int(gen.integers(2 ** 63)) for _ in _OPERATORS])
    worst = 0.0
    for dim, seeds in by_dim.items():
        eye = np.eye(dim * dim)
        for lo in range(0, len(seeds), BLOCK_TRIALS):
            block = seeds[lo:lo + BLOCK_TRIALS]
            assignment = {
                key: random_order_n_observables(n, dim, [s[j] for s in block])
                for j, key in enumerate(_OPERATORS)
            }
            diff = cert.lam * eye - eval_nc(bias, assignment, dim, dim)
            for weight, p in cert.squares:
                T = eval_nc(p, assignment, dim, dim)
                diff -= weight * (T.conj().swapaxes(-1, -2) @ T)
            worst = max(worst, float(
                np.linalg.norm(diff, axis=(-2, -1)).max()))
    return worst


def annihilation_residuals(cert: SOSCertificate,
                           s: Strategy) -> List[Tuple[int, float]]:
    """||T_k |psi>|| for every square; all vanish on an optimal strategy."""
    return [(k, check_state_relation(s, p))
            for k, (_, p) in enumerate(cert.squares)]


def h3_polynomial(conjugated: bool = False) -> NCPolynomial:
    """H = omega (A0 A1 A0 + A0^* A1 + A1 A0^*), or its adjoint H^*."""
    w = np.exp(2j * np.pi / 3)
    H = NCPolynomial(3, {
        (("A", 0, 1), ("A", 1, 1), ("A", 0, 1)): w,
        (("A", 0, 2), ("A", 1, 1)): w,
        (("A", 1, 1), ("A", 0, 2)): w,
    })
    return H.adjoint() if conjugated else H


def derived_relations_g3() -> List[Tuple[str, NCPolynomial]]:
    """The named state-dependent relations every optimal n = 3 strategy
    satisfies; each entry annihilates the shared state."""
    w = np.exp(2j * np.pi / 3)
    wc = np.conj(w)
    one = NCPolynomial.one(3)

    def p(terms):
        return NCPolynomial(3, terms)

    rels: List[Tuple[str, NCPolynomial]] = [
        ("pairing_1", p({(("A", 0, 1), ("B", 0, 2)): 1,
                         (("A", 1, 1), ("B", 1, 1)): -wc})),
        ("pairing_2", p({(("A", 0, 2), ("B", 0, 1)): 1,
                         (("A", 1, 2), ("B", 1, 2)): -w})),
        ("pairing_3", p({(("A", 0, 1), ("B", 1, 1)): 1,
                         (("A", 1, 1), ("B", 0, 2)): -1})),
        ("pairing_4", p({(("A", 0, 2), ("B", 1, 2)): 1,
                         (("A", 1, 2), ("B", 0, 1)): -1})),
        ("transfer_1", p({(("A", 0, 2), ("A", 1, 1)): wc,
                          (("B", 1, 2), ("B", 0, 2)): -1})),
        ("transfer_2", p({(("A", 0, 1), ("A", 1, 2)): w,
                          (("B", 1, 1), ("B", 0, 1)): -1})),
        ("transfer_3", p({(("A", 0, 2), ("A", 1, 1)): 1,
                          (("B", 0, 1), ("B", 1, 1)): -1})),
        ("transfer_4", p({(("A", 0, 1), ("A", 1, 2)): 1,
                          (("B", 0, 2), ("B", 1, 2)): -1})),
        ("transfer_5", p({(("A", 1, 2), ("A", 0, 1)): 1,
                          (("B", 0, 1), ("B", 1, 1)): -wc})),
        ("transfer_6", p({(("A", 1, 1), ("A", 0, 2)): 1,
                          (("B", 0, 2), ("B", 1, 2)): -w})),
        ("transfer_7", p({(("A", 1, 2), ("A", 0, 1)): 1,
                          (("B", 1, 2), ("B", 0, 2)): -1})),
        ("transfer_8", p({(("A", 1, 1), ("A", 0, 2)): 1,
                          (("B", 1, 1), ("B", 0, 1)): -1})),
        ("group_rel_1", p({(("A", 0, 2), ("A", 1, 1)): 1,
                           (("A", 1, 2), ("A", 0, 1)): -w})),
        ("group_rel_2", p({(("A", 1, 1), ("A", 0, 2)): 1,
                           (("A", 0, 1), ("A", 1, 2)): -w})),
        ("ring_H", h3_polynomial() + one),
        ("ring_H_star", h3_polynomial(conjugated=True) + one),
        ("ring_sum", h3_polynomial() + h3_polynomial(conjugated=True)
         + 2.0 * one),
        ("triple_product", p({(("A", 0, 1), ("A", 1, 1), ("A", 0, 1)): 1,
                              (("A", 0, 2), ("A", 1, 2), ("A", 0, 2)): -w})),
        ("commutator_on_state",
         p({(("A", 0, 1), ("A", 1, 2)): 1}) * p({(("A", 0, 2),
                                                  ("A", 1, 1)): 1})
         - p({(("A", 0, 2), ("A", 1, 1)): 1}) * p({(("A", 0, 1),
                                                    ("A", 1, 2)): 1})),
    ]
    return rels
