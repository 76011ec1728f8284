"""Noncommutative polynomials over the two-player observable alphabet.

Letters are (player, operator index, exponent) with player 'A' or 'B' and
exponents taken mod the observable order n. Words are canonicalized so that
Alice letters precede Bob letters (operators of different players commute
structurally) and adjacent powers of the same operator are merged.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Iterable, Mapping, Tuple

Letter = Tuple[str, int, int]
Word = Tuple[Letter, ...]


def _merge_run(letters: Iterable[Letter], n: int) -> Tuple[Letter, ...]:
    out: list[Letter] = []
    for player, idx, exp in letters:
        exp %= n
        if exp == 0:
            continue
        if out and out[-1][0] == player and out[-1][1] == idx:
            merged = (out[-1][2] + exp) % n
            out.pop()
            if merged:
                out.append((player, idx, merged))
        else:
            out.append((player, idx, exp))
    return tuple(out)


def canonical_word(letters: Iterable[Letter], n: int) -> Word:
    """Reduce a letter sequence: A before B, powers merged, exponents mod n."""
    letters = list(letters)
    a_part = [l for l in letters if l[0] == "A"]
    b_part = [l for l in letters if l[0] == "B"]
    return _merge_run(a_part, n) + _merge_run(b_part, n)


def word_adjoint(w: Word, n: int) -> Word:
    """The reduced word of w^* for a reduced word w: each party's run
    reversed, exponents negated mod n. A reversed run of a reduced word is
    still reduced, so nothing merges."""
    letters = [(p, i, -e % n) for p, i, e in reversed(w)]
    # reversed(w) is Bob's run, then Alice's.
    bob = sum(p == "B" for p, _, _ in w)
    return tuple(letters[bob:] + letters[:bob])


class NCPolynomial:
    """Complex-coefficient polynomial in the letters A0, A1, B0, B1."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Word, complex] | None = None,
                 _canonical: bool = False):
        self.n = int(n)
        data: Dict[Word, complex] = {}
        if terms:
            for word, coeff in terms.items():
                if not _canonical:
                    word = canonical_word(word, self.n)
                if abs(coeff) == 0.0:
                    continue
                data[word] = data.get(word, 0.0) + complex(coeff)
        self.terms = {w: c for w, c in data.items() if abs(c) > 0.0}

    # ---- constructors -------------------------------------------------
    @classmethod
    def one(cls, n: int, coeff: complex = 1.0) -> "NCPolynomial":
        return cls(n, {(): coeff})

    # ---- algebra ------------------------------------------------------
    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return NCPolynomial(self.n, out, _canonical=True)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial(
            self.n, {w: -c for w, c in self.terms.items()}, _canonical=True)

    def scale(self, alpha: complex) -> "NCPolynomial":
        return NCPolynomial(
            self.n, {w: alpha * c for w, c in self.terms.items()},
            _canonical=True)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        out: Dict[Word, complex] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = canonical_word(w1 + w2, self.n)
                out[w] = out.get(w, 0.0) + c1 * c2
        return NCPolynomial(self.n, out, _canonical=True)

    def __rmul__(self, alpha: complex) -> "NCPolynomial":
        return self.scale(alpha)

    def adjoint(self) -> "NCPolynomial":
        out: Dict[Word, complex] = {}
        for w, c in self.terms.items():
            rw = word_adjoint(w, self.n)
            out[rw] = out.get(rw, 0.0) + c.conjugate()
        return NCPolynomial(self.n, out, _canonical=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        if self.n != other.n:
            return False
        words = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(w, 0.0) - other.terms.get(w, 0.0)) < 1e-12
            for w in words)

    def __repr__(self) -> str:
        def fmt(w: Word) -> str:
            if not w:
                return "I"
            return "*".join(f"{p}{i}^{e}" for p, i, e in w)

        parts = [f"({c:.4g})*{fmt(w)}" for w, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


def _term_products(poly: NCPolynomial,
                   assignment: Mapping[Tuple[str, int], np.ndarray],
                   dimA: int, dimB: int) -> Tuple[np.ndarray, np.ndarray]:
    """poly = sum_k c_k (P_k (x) Q_k) on an assignment of (..., d, d)
    operators whose batch axes broadcast: P[..., k] = c_k P_k, shape
    (..., dimA, dimA, K), and Q[..., k, :, :] = Q_k, shape
    (..., K, dimB, dimB). Each (operator, exponent) power is taken once."""
    import numpy as np
    powers: Dict[Letter, np.ndarray] = {}

    def power(player: str, idx: int, exp: int) -> np.ndarray:
        key, letter = (player, idx), (player, idx, exp % poly.n)
        if letter not in powers:
            if key not in assignment:
                raise KeyError(f"assignment missing operator {key}")
            powers[letter] = np.linalg.matrix_power(assignment[key], letter[2])
        return powers[letter]

    def product(word: Word, player: str, d: int) -> np.ndarray:
        mats = [power(*letter) for letter in word if letter[0] == player]
        return reduce(np.matmul, mats) if mats else np.eye(d)

    batch = np.broadcast_shapes(
        *(np.shape(M)[:-2] for M in assignment.values()))
    K = len(poly.terms)
    P = np.empty(batch + (dimA, dimA, K), dtype=np.complex128)
    Q = np.empty(batch + (K, dimB, dimB), dtype=np.complex128)
    for k, word in enumerate(poly.terms):
        P[..., k] = product(word, "A", dimA)
        Q[..., k, :, :] = product(word, "B", dimB)
    P *= np.fromiter(poly.terms.values(), dtype=np.complex128, count=K)
    return P, Q


def eval_nc(poly: NCPolynomial,
            assignment: Mapping[Tuple[str, int], np.ndarray],
            dimA: int, dimB: int) -> np.ndarray:
    """Evaluate on a tensor-product assignment: A letters act as M (x) I,
    B letters as I (x) M.

    Operators may carry batch axes as in ``_term_products``; the result is
    (..., dimA*dimB, dimA*dimB). The sum over terms c_k (P_k (x) Q_k) is
    one matmul (dimA^2, K) @ (K, dimB^2) followed by an axis swap."""
    P, Q = _term_products(poly, assignment, dimA, dimB)
    batch, K = P.shape[:-3], P.shape[-1]
    Z = P.reshape(batch + (dimA * dimA, K)) @ Q.reshape(
        batch + (K, dimB * dimB))
    Z = Z.reshape(batch + (dimA, dimA, dimB, dimB))
    return Z.swapaxes(-3, -2).reshape(batch + (dimA * dimB, dimA * dimB))


def apply_nc(poly: NCPolynomial,
             assignment: Mapping[Tuple[str, int], np.ndarray],
             state: np.ndarray, dimA: int, dimB: int) -> np.ndarray:
    """Apply the evaluated polynomial to a bipartite state vector without
    forming it: on the dimA x dimB coefficient matrix psi of the state,
    c_k (P_k (x) Q_k) acts as c_k P_k psi Q_k^T. One assignment, no batch
    axes."""
    P, Q = _term_products(poly, assignment, dimA, dimB)
    psi = state.reshape(dimA, dimB)
    out = (P.transpose(2, 0, 1) @ psi @ Q.transpose(0, 2, 1)).sum(axis=0)
    return out.reshape(dimA * dimB)
