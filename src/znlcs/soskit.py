"""Sum-of-squares certificates for the mod-n bias operators.

A certificate lam I - B = sum_k w_k T_k^* T_k proves the operator bound
B <= lam I for every admissible tuple of observables, hence the value bound
lam/(4n) + 1/n. The CHSH (n = 2) and n = 3 certificates are shipped as
exact data; verification evaluates both sides on random admissible tuples.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from . import biaskit, gamekit, ncpoly, numerics, strategykit
from .records import Record
# By name, and before numpy: strategykit then compiles while the process
# is small (see the compile-order rule in ``znlcs/__init__.py``).
from .strategykit import canonical_strategy, state_residuals

import numpy as np

# Trials evaluated together by verify_sos_identity. Small, so that a block's
# stacked (2n)^2-dimensional operators stay a few hundred kB and the peak
# memory of a run does not grow with the block.
BLOCK_TRIALS = 8

_OPERATORS = (("A", 0), ("A", 1), ("B", 0), ("B", 1))


class SOSCertificate(Record):
    """lam I - bias = sum of weight * square^* square over order-n
    observables."""

    order: int
    lam: float
    squares: Tuple[Tuple[float, ncpoly.NCPolynomial], ...]

    def __post_init__(self):
        if any(w <= 0 for w, _ in self.squares):
            raise ValueError("certificate weights must be positive")


def certificate_chsh() -> SOSCertificate:
    """2 sqrt(2) I - (A0B0 + A0B1 + A1B0 - A1B1)
    = (sqrt2/4)(A0 + A1 - sqrt2 B0)^2 + (sqrt2/4)(A0 - A1 - sqrt2 B1)^2."""
    r2 = math.sqrt(2.0)
    t1 = ncpoly.NCPolynomial(2, {(("A", 0, 1),): 1.0, (("A", 1, 1),): 1.0,
                                 (("B", 0, 1),): -r2})
    t2 = ncpoly.NCPolynomial(2, {(("A", 0, 1),): 1.0, (("A", 1, 1),): -1.0,
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

    s1 = ncpoly.NCPolynomial(3, {(("A", 0, 1),): 1.0, (("A", 1, 1),): w,
                                 (("B", 0, 1),): wc, (("B", 1, 2),): w})
    s2 = ncpoly.NCPolynomial(3, {(("A", 0, 2),): 1.0, (("A", 1, 2),): wc,
                                 (("B", 0, 2),): w, (("B", 1, 1),): wc})

    def t_poly(c_a0b0c, c_a0cb0, c_a0b1, c_a0cb1c,
               c_a1b0c, c_a1cb0, c_a1b1, c_a1cb1c) -> ncpoly.NCPolynomial:
        return ncpoly.NCPolynomial(3, {
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
    t6 = (ncpoly.NCPolynomial.one(3, 6.0)
          + t_poly(-1, -1, -1, -1, -1, -1, -wc, -w))

    return SOSCertificate(order=3, lam=6.0, squares=(
        (lam1, s1), (lam1, s2),
        (lam2, t1), (lam2, t2),
        (lam3, t3), (lam3, t4),
        (lam4, t5), (lam4, t6),
    ))


def verify_sos_identity(cert: SOSCertificate, bias: ncpoly.NCPolynomial,
                        trials: int, seed: int) -> float:
    """Max Frobenius residual of (lam I - bias) - sum_k w_k T_k^* T_k over
    random admissible tuples.

    Each trial draws four independent random order-n observables at a
    dimension sampled from {n, 2n}; two sizes guard against coincidences
    tied to a single dimension. All draws come from one seeded stream, in
    trial order. Each dimension keeps its pending trials and evaluates them
    together as soon as they number BLOCK_TRIALS, and the rest at the end,
    so memory does not grow with the trial count. A block draws all its
    observables with one call, and evaluates the bias and every square on
    one dict of operator powers.
    """
    if cert.order != bias.n:
        raise ValueError("certificate and bias order mismatch")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = cert.order

    def residual(dim: int, block: List[List[int]]) -> float:
        # One draw for the block: operator j's stack is part j.
        stacks = numerics.random_order_n_observables(
            n, dim, [s[j] for j in range(len(_OPERATORS)) for s in block]
        ).reshape(len(_OPERATORS), len(block), dim, dim)
        assignment = dict(zip(_OPERATORS, stacks))
        powers: Dict = {}
        diff = cert.lam * np.eye(dim * dim) - ncpoly.eval_nc(
            bias, assignment, dim, dim, powers)
        for weight, p in cert.squares:
            T = ncpoly.eval_nc(p, assignment, dim, dim, powers)
            diff -= weight * (T.conj().swapaxes(-1, -2) @ T)
        return float(np.linalg.norm(diff, axis=(-2, -1)).max())

    gen = numerics.rng(seed)
    pending: Dict[int, List[List[int]]] = {n: [], 2 * n: []}
    worst = 0.0
    for _ in range(trials):
        dim = gen.choice([n, 2 * n])
        block = pending[dim]
        block.append([gen.integers(2 ** 63) for _ in _OPERATORS])
        if len(block) == BLOCK_TRIALS:
            worst = max(worst, residual(dim, block))
            block.clear()
    for dim, block in pending.items():
        if block:
            worst = max(worst, residual(dim, block))
    return worst


def annihilation_residuals(cert: SOSCertificate,
                           s: strategykit.Strategy) -> List[float]:
    """||T_k |psi>|| for every square T_k, in square order; all vanish on
    an optimal strategy."""
    return state_residuals(s, [p for _, p in cert.squares])


def h3_polynomial() -> ncpoly.NCPolynomial:
    """H = omega (A0 A1 A0 + A0^* A1 + A1 A0^*)."""
    w = np.exp(2j * np.pi / 3)
    return ncpoly.NCPolynomial(3, {
        (("A", 0, 1), ("A", 1, 1), ("A", 0, 1)): w,
        (("A", 0, 2), ("A", 1, 1)): w,
        (("A", 1, 1), ("A", 0, 2)): w,
    })


def derived_relations_g3() -> List[Tuple[str, ncpoly.NCPolynomial]]:
    """The named state-dependent relations every optimal n = 3 strategy
    satisfies; each entry annihilates the shared state."""
    w = np.exp(2j * np.pi / 3)
    wc = np.conj(w)
    one = ncpoly.NCPolynomial.one(3)
    H = h3_polynomial()
    H_star = H.adjoint()

    def p(terms):
        return ncpoly.NCPolynomial(3, terms)

    rels: List[Tuple[str, ncpoly.NCPolynomial]] = [
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
        ("ring_H", H + one),
        ("ring_H_star", H_star + one),
        ("ring_sum", H + H_star + 2.0 * one),
        ("triple_product", p({(("A", 0, 1), ("A", 1, 1), ("A", 0, 1)): 1,
                              (("A", 0, 2), ("A", 1, 2), ("A", 0, 2)): -w})),
        ("commutator_on_state",
         p({(("A", 0, 1), ("A", 1, 2)): 1}) * p({(("A", 0, 2),
                                                  ("A", 1, 1)): 1})
         - p({(("A", 0, 2), ("A", 1, 1)): 1}) * p({(("A", 0, 1),
                                                    ("A", 1, 2)): 1})),
    ]
    return rels


# Command handlers: ``cli.COMMANDS`` reads each when its command runs,
# and it adds its results to the report ``rep``.
def verify_command(args, rep) -> None:
    """``sos verify``."""
    if args.cert == "chsh":
        cert = certificate_chsh()
        tol = 1e-9
    else:
        cert = certificate_g3()
        tol = 1e-8
    bias = biaskit.bias_polynomial(gamekit.ModNGameParams(cert.order, 0, 1))
    residual = verify_sos_identity(cert, bias, args.trials, rep.data["seed"])
    rep.result("identity_residual", residual, tolerance=tol, target=0.0)
    s = canonical_strategy(cert.order)
    worst = max(annihilation_residuals(cert, s))
    rep.result("annihilation_residual", worst, tolerance=1e-9, target=0.0)


def relations_command(args, rep) -> None:
    """``relations check``."""
    s = canonical_strategy(3)
    names, polys = zip(*derived_relations_g3())
    residuals = state_residuals(s, polys)
    for name, r in zip(names, residuals):
        rep.result(f"relation_{name}", r, tolerance=1e-9, target=0.0)
    rep.result("worst_residual", max(residuals), tolerance=1e-9, target=0.0)
