"""Noncommutative polynomials over the two-player observable alphabet.

Letters are (player, operator index, exponent) with player 'A' or 'B' and
exponents taken mod the observable order n. Words are canonicalized so that
Alice letters precede Bob letters (operators of different players commute
structurally) and adjacent powers of the same operator are merged.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


def eval_nc(poly: NCPolynomial,
            assignment: Mapping[Tuple[str, int], np.ndarray],
            dimA: int, dimB: int,
            powers: Optional[Dict[Letter, np.ndarray]] = None
            ) -> np.ndarray:
    """Evaluate on a tensor-product assignment: A letters act as M (x) I,
    B letters as I (x) M.

    Operators are (..., d, d) arrays whose batch axes broadcast; the result
    is (..., dimA*dimB, dimA*dimB). poly = sum_k c_k (P_k (x) Q_k), and the
    sum is one matmul (dimA^2, K) @ (K, dimB^2) of the stacked c_k P_k and
    Q_k followed by an axis swap. Each (operator, exponent) power is taken
    once and kept in ``powers``, if given: polynomials evaluated on one
    assignment with one dict share their operator powers. Every word of
    poly is reduced (Alice's letters, then Bob's, exponents in 1..n-1), so
    each term splits where Bob's run starts and its letters are their own
    power keys."""
    import numpy as np
    if powers is None:
        powers = {}

    def power(letter: Letter) -> np.ndarray:
        if letter not in powers:
            key = letter[:2]
            if key not in assignment:
                raise KeyError(f"assignment missing operator {key}")
            powers[letter] = np.linalg.matrix_power(assignment[key], letter[2])
        return powers[letter]

    identities: Dict[int, np.ndarray] = {}

    def product(letters: Word, d: int) -> np.ndarray:
        if letters:
            return reduce(np.matmul, map(power, letters))
        if d not in identities:
            identities[d] = np.eye(d)
        return identities[d]

    # Operators of one batch shape, the common case, need no broadcast.
    batch = ()
    for M in assignment.values():
        if M.shape[:-2] != batch:
            batch = np.broadcast_shapes(batch, M.shape[:-2])
    K = len(poly.terms)
    P = np.empty(batch + (dimA, dimA, K), dtype=np.complex128)
    Q = np.empty(batch + (K, dimB, dimB), dtype=np.complex128)
    for k, word in enumerate(poly.terms):
        split = sum(letter[0] == "A" for letter in word)
        P[..., k] = product(word[:split], dimA)
        Q[..., k, :, :] = product(word[split:], dimB)
    P *= np.fromiter(poly.terms.values(), dtype=np.complex128, count=K)
    Z = P.reshape(batch + (dimA * dimA, K)) @ Q.reshape(
        batch + (K, dimB * dimB))
    Z = Z.reshape(batch + (dimA, dimA, dimB, dimB))
    return Z.swapaxes(-3, -2).reshape(batch + (dimA * dimB, dimA * dimB))


def apply_nc(polys: Sequence[NCPolynomial],
             assignment: Mapping[Tuple[str, int], np.ndarray],
             state: np.ndarray, dimA: int, dimB: int) -> List[np.ndarray]:
    """Each polynomial's ``eval_nc`` operator applied to a bipartite state
    vector, in order. The polynomials share one dict of operator powers,
    so each power is taken once."""
    powers: Dict[Letter, np.ndarray] = {}
    return [eval_nc(p, assignment, dimA, dimB, powers) @ state
            for p in polys]
