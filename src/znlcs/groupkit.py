"""Exact enumeration of the monomial-unitary groups behind the mod-n games.

Every operator in play (cyclic shifts, sign flips, the scalar z^4 I, and all
products of the canonical observables) is a monomial matrix whose nonzero
entries are powers of z = e^{i pi / 2n}. Such a matrix is stored exactly as
a cyclic shift amount plus a vector of phase exponents mod 4n, so group
closure, orders, and relator checks involve no floating point at all.

A single element is a ``MonomialUnitary``. Bulk work runs on batches: m
elements of dimension n are one unsigned integer array ``rows[m, n + 1]``
whose column 0 holds the shifts (mod n) and columns 1..n the phases
(mod 4n), i.e. ``rows[:, 0]`` is shift[m] and ``rows[:, 1:]`` is
phases[m, n]. The dtype (uint8 up to n = 32) holds the sum of two reduced
entries, so a product with a fixed element is one gather, one add and one
conditional subtract of the modulus. Rows are equal exactly
when their bytes are, which is what closures dedupe on, and a catalogue
sorts its rows lexicographically, the order of ``MonomialUnitary.key()``.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

ENUMERATION_CAP_DEFAULT = 10**6

# Largest catalogue whose m x m multiplication table is built.
MULTIPLICATION_TABLE_MAX = 2048

# Products formed per batched step of GroupCatalogue.center_size and
# multiplication_table, which bounds their memory for large catalogues.
_BLOCK_PRODUCTS = 1 << 16

# A word is a sequence of (generator name, exponent) pairs over P0, P1, J.
GroupWord = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class MonomialUnitary:
    """U e_k = z^{phases[k]} e_{(k+shift) mod n} with z = e^{i pi/2n}.

    shift lives mod n, each phase exponent mod 4n; composition and inverse
    stay in these coordinates exactly.
    """

    n: int
    shift: int
    phases: Tuple[int, ...]

    def __post_init__(self):
        if len(self.phases) != self.n:
            raise ValueError("phase vector length must equal the dimension")
        object.__setattr__(self, "shift", self.shift % self.n)
        object.__setattr__(
            self, "phases", tuple(p % (4 * self.n) for p in self.phases))

    @classmethod
    def identity(cls, n: int) -> "MonomialUnitary":
        return cls(n, 0, (0,) * n)

    def __matmul__(self, other: "MonomialUnitary") -> "MonomialUnitary":
        """Matrix product self @ other (apply ``other`` first)."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        phases = tuple(
            other.phases[k] + self.phases[(k + other.shift) % n]
            for k in range(n))
        return MonomialUnitary(n, self.shift + other.shift, phases)

    def inverse(self) -> "MonomialUnitary":
        n = self.n
        phases = tuple(-self.phases[(k - self.shift) % n] for k in range(n))
        return MonomialUnitary(n, -self.shift, phases)

    def power(self, e: int) -> "MonomialUnitary":
        """self^e by square-and-multiply (negative e via the inverse)."""
        base = self if e >= 0 else self.inverse()
        out = MonomialUnitary.identity(self.n)
        e = abs(e)
        while e:
            if e & 1:
                out = out @ base
            e >>= 1
            if e:
                base = base @ base
        return out

    def key(self) -> Tuple[int, Tuple[int, ...]]:
        return (self.shift, self.phases)

    def to_matrix(self) -> np.ndarray:
        n = self.n
        z = np.exp(1j * np.pi / (2 * n))
        M = np.zeros((n, n), dtype=np.complex128)
        for k in range(n):
            M[(k + self.shift) % n, k] = z ** self.phases[k]
        return M

    def order(self) -> int:
        cur = self
        for m in range(1, 4 * self.n * self.n + 1):
            if cur == MonomialUnitary.identity(self.n):
                return m
            cur = cur @ self
        raise RuntimeError("order exceeds 4n^2 bound")


# ---------------------------------------------------------------------------
# Batches of elements as integer rows
# ---------------------------------------------------------------------------

def _row_dtype(n: int) -> np.dtype:
    """Narrowest unsigned dtype holding 8n - 2, the largest sum of two
    reduced row entries."""
    return np.min_scalar_type(8 * n - 2)


def pack_rows(elements: Iterable[MonomialUnitary], n: int) -> np.ndarray:
    """The rows of elements of dimension n, in order."""
    values = []
    for g in elements:
        if g.n != n:
            raise ValueError("elements must share dimension n")
        values.append((g.shift,) + g.phases)
    rows = np.array(values, dtype=_row_dtype(n))
    return rows.reshape(len(values), n + 1)


def unpack_row(row: np.ndarray) -> MonomialUnitary:
    shift, *phases = row.tolist()
    return MonomialUnitary(len(phases), shift, tuple(phases))


def _moduli(n: int, dtype: np.dtype) -> np.ndarray:
    return np.array([n] + [4 * n] * n, dtype=dtype)


def _read_shifted(rows: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Each row with phase k read from phase (k + by) % n; the shift column
    is kept. ``by`` is an integer array of shape (..., 1) that broadcasts
    against ``rows``."""
    n = rows.shape[-1] - 1
    cols = 1 + (np.arange(n) + by) % n
    index = np.concatenate([np.zeros_like(cols[..., :1]), cols], axis=-1)
    return np.take_along_axis(rows, index, axis=-1)


def compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products a @ b (apply b first) of two batches that broadcast
    against each other: shift a.shift + b.shift and
    phases[k] = b.phases[k] + a.phases[(k + b.shift) % n]."""
    out = _read_shifted(a, b[..., :1].astype(np.intp)) + b
    mod = _moduli(a.shape[-1] - 1, out.dtype)
    np.subtract(out, mod, out=out, where=out >= mod)
    return out


def invert_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise inverses: shift -shift and
    phases[k] = -phases[(k - shift) % n]."""
    mod = _moduli(rows.shape[-1] - 1, rows.dtype)
    out = mod - _read_shifted(rows, -rows[..., :1].astype(np.intp))
    out[out == mod] = 0
    return out


def _row_keys(rows: np.ndarray) -> List[bytes]:
    """The bytes of each row: equal exactly when the elements are."""
    flat = np.ascontiguousarray(rows).reshape(-1, rows.shape[-1])
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))
                     ).ravel().tolist()


def group_order(n: int) -> int:
    """n^2 2^(n-1), the order of the canonical group and the number of its
    normal forms."""
    return n * n * 2 ** (n - 1)


def group_order_exceeds_cap(n: int) -> bool:
    """Whether group_order(n) exceeds ENUMERATION_CAP_DEFAULT (decided
    without forming 2^(n-1) for large n)."""
    cap = ENUMERATION_CAP_DEFAULT
    return n > cap.bit_length() or group_order(n) > cap


# ---------------------------------------------------------------------------
# Generators of the canonical observables' groups
# ---------------------------------------------------------------------------

def shift_x(n: int) -> MonomialUnitary:
    """The cyclic shift X: e_k -> e_{k+1 mod n}."""
    return MonomialUnitary(n, 1, (0,) * n)


def sign_d(n: int, j: int) -> MonomialUnitary:
    """D_j = diag with -1 in entry (j, j); -1 = z^{2n}."""
    return MonomialUnitary(
        n, 0, tuple(2 * n if k == j else 0 for k in range(n)))


def scalar_j(n: int) -> MonomialUnitary:
    """J = z^4 I = omega_n I."""
    return MonomialUnitary(n, 0, (4,) * n)


def alice_generators(n: int) -> Tuple[MonomialUnitary, MonomialUnitary]:
    """A0 = X and A1 = z^2 D_0 X."""
    a0 = shift_x(n)
    a1_phases = tuple(2 + (2 * n if (k + 1) % n == 0 else 0)
                      for k in range(n))
    return a0, MonomialUnitary(n, 1, a1_phases)

def bob_generators(n: int) -> Tuple[MonomialUnitary, MonomialUnitary]:
    """B0 = X and B1 = z^2 D_0 X^*."""
    b0 = shift_x(n)
    b1_phases = tuple(2 + (2 * n if k == 1 else 0) for k in range(n))
    return b0, MonomialUnitary(n, n - 1, b1_phases)


def evaluate_word(word: GroupWord,
                  images: Dict[str, MonomialUnitary],
                  n: int) -> MonomialUnitary:
    """Evaluate a (generator, exponent) word under exact generator images."""
    out = MonomialUnitary.identity(n)
    for name, exp in word:
        out = out @ images[name].power(exp)
    return out


def evaluate_word_matrix(word: GroupWord,
                         images: Dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate a word under unitary matrix images (negative powers via
    adjoints)."""
    dim = next(iter(images.values())).shape[0]
    out = np.eye(dim, dtype=np.complex128)
    for name, exp in word:
        M = images[name]
        if exp < 0:
            M = M.conj().T
        out = out @ np.linalg.matrix_power(M, abs(exp))
    return out


# ---------------------------------------------------------------------------
# Group closure
# ---------------------------------------------------------------------------

class GroupCatalogue:
    """A finite group of monomial unitaries as rows sorted by key, with
    product maps into the sorted positions. ``elements`` and ``index`` are
    built on first use."""

    def __init__(self, rows: np.ndarray):
        self.n = rows.shape[1] - 1
        self.rows = rows[np.lexsort(rows.T[::-1])]

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def elements(self) -> List[MonomialUnitary]:
        return [unpack_row(row) for row in self.rows]

    @cached_property
    def index(self) -> Dict[Tuple[int, Tuple[int, ...]], int]:
        return {g.key(): i for i, g in enumerate(self.elements)}

    @cached_property
    def _positions(self) -> Dict[bytes, int]:
        return {key: i for i, key in enumerate(_row_keys(self.rows))}

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Positions of catalogue members given as rows (any leading
        shape); KeyError for a row outside the catalogue."""
        positions = self._positions
        found = [positions[key] for key in _row_keys(rows)]
        return np.array(found, dtype=np.int64).reshape(rows.shape[:-1])

    def product(self, i: int, j: int) -> int:
        return int(self.locate(compose_rows(self.rows[i], self.rows[j])))

    def inverse(self, i: int) -> int:
        return int(self.locate(invert_rows(self.rows[i])))

    def multiplication_table(self) -> np.ndarray:
        """table[i, j] is the position of element i times element j."""
        m = len(self)
        if m > MULTIPLICATION_TABLE_MAX:
            raise ValueError(
                f"table of {m}x{m} entries exceeds the size bound "
                f"{MULTIPLICATION_TABLE_MAX}")
        table = np.empty((m, m), dtype=np.int64)
        step = max(1, _BLOCK_PRODUCTS // m)
        for start in range(0, m, step):
            block = self.rows[start:start + step, None, :]
            table[start:start + step] = self.locate(
                compose_rows(block, self.rows[None, :, :]))
        return table

    def element_orders(self) -> List[int]:
        return [g.order() for g in self.elements]

    def center_size(self) -> int:
        """Number of elements that commute with every element. Candidates
        are tested against a block of elements at a time and dropped at
        their first failure. The blocks run from the largest shift down:
        elements of nonzero shift rule out most candidates at once, while
        the diagonal ones, which sort first, commute with one another."""
        central = self.rows
        others = self.rows[::-1]
        start = 0
        while start < len(self):
            stop = start + max(1, _BLOCK_PRODUCTS // len(central))
            a = central[:, None, :]
            b = others[None, start:stop, :]
            commutes = (compose_rows(a, b) == compose_rows(b, a)).all(
                axis=(1, 2))
            central = central[commutes]
            start = stop
        return len(central)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "elements": [
                {"shift": shift, "phases": phases}
                for shift, *phases in self.rows.tolist()
            ],
        })

    def write_multiplication_csv(self, path: str) -> None:
        table = self.multiplication_table()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in table:
                writer.writerow(row.tolist())


def enumerate_group(generators: Sequence[MonomialUnitary],
                    cap: int = ENUMERATION_CAP_DEFAULT) -> GroupCatalogue:
    """Breadth-first closure of the generators under exact products.

    Each layer multiplies the whole frontier by every generator and inverse
    at once. That set is closed under inverses, so a product of layer d lies
    in layer d - 1, d or d + 1: the next layer is the set of product rows
    not in the last two layers. The cap is checked once per layer.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    gens = pack_rows(generators, n)
    steps = np.concatenate([gens, invert_rows(gens)])[None, :, :]
    frontier = pack_rows([MonomialUnitary.identity(n)], n)
    layers = [frontier]
    size = 1
    previous: set = set()
    current = set(_row_keys(frontier))
    while len(frontier):
        fresh = set(_row_keys(compose_rows(frontier[:, None, :], steps)))
        fresh -= current
        fresh -= previous
        previous, current = current, fresh
        frontier = np.frombuffer(b"".join(fresh), dtype=gens.dtype
                                 ).reshape(-1, n + 1)
        layers.append(frontier)
        size += len(frontier)
        if size > cap:
            raise RuntimeError(
                f"enumeration cap {cap} exceeded ({size} elements so far)")
    return GroupCatalogue(np.concatenate(layers))


# ---------------------------------------------------------------------------
# Normal forms and presentation checks
# ---------------------------------------------------------------------------

def _check_variant(n: int, variant: str) -> None:
    if variant == "alt" and n != 3:
        raise ValueError("the alt normal form is specific to n = 3")


def _normal_form_factor(k: int, variant: str) -> GroupWord:
    """The k-th optional factor: P0^k P1^{-k}, or P0^{-1} P1 for k = 2 of
    the alt form."""
    if variant == "alt" and k == 2:
        return (("P0", -1), ("P1", 1))
    return (("P0", k), ("P1", -k))


def _normal_form_word(n: int, variant: str, index: int) -> GroupWord:
    """Word number ``index`` of ``normal_form_words(n, variant)``."""
    tails = 2 ** (n - 1)
    i, j, mask = index // (n * tails), (index // tails) % n, index % tails
    word: List[Tuple[str, int]] = [("J", i), ("P0", j)]
    for k in range(1, n):
        if (mask >> (k - 1)) & 1:
            word += _normal_form_factor(k, variant)
    return tuple(word)


def normal_form_words(n: int, variant: str = "standard") -> List[GroupWord]:
    """All n*n*2^(n-1) candidate normal-form words over J, P0, P1, with i
    outermost and the mask innermost.

    "standard": J^i P0^j prod_k (P0^k P1^{-k})^{q_k} for k = 1..n-1, where
    q_k is bit k - 1 of the mask.
    "alt" (n = 3 only): J^i P0^j (P0 P1^{-1})^{q1} (P0^{-1} P1)^{q2},
    the form under which the induced maps below are defined.
    """
    _check_variant(n, variant)
    return [_normal_form_word(n, variant, index)
            for index in range(group_order(n))]


def alice_images(n: int) -> Dict[str, MonomialUnitary]:
    a0, a1 = alice_generators(n)
    return {"P0": a0, "P1": a1, "J": scalar_j(n)}


class NormalForms(SequenceABC):
    """The (word, element) pairs of ``normal_form_enumerate`` in word
    order. The elements are held as rows; each pair is built on access."""

    def __init__(self, n: int, variant: str, rows: np.ndarray):
        self.n = n
        self.variant = variant
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> Tuple[GroupWord, MonomialUnitary]:
        row = self.rows[index]
        word = _normal_form_word(self.n, self.variant, index % len(self))
        return word, unpack_row(row)


def normal_form_enumerate(n: int, variant: str = "standard") -> NormalForms:
    """Evaluate every normal-form word on (A0, A1, z^4 I) and assert the
    results are pairwise distinct (each word names a distinct element).

    The 2^(n-1) tails, products of the optional factors, are built as
    prefix products with one more factor per mask bit, and then
    left-multiplied by the n^2 heads J^i P0^j. A word count above
    ENUMERATION_CAP_DEFAULT is refused before any of it.
    """
    if group_order_exceeds_cap(n):
        raise RuntimeError(
            f"{n}^2 * 2^{n - 1} normal forms exceed the enumeration cap "
            f"{ENUMERATION_CAP_DEFAULT}")
    _check_variant(n, variant)
    images = alice_images(n)
    tails = pack_rows([MonomialUnitary.identity(n)], n)
    for k in range(1, n):
        factor = evaluate_word(_normal_form_factor(k, variant), images, n)
        tails = np.concatenate(
            [tails, compose_rows(tails, pack_rows([factor], n))])
    heads = pack_rows([evaluate_word((("J", i), ("P0", j)), images, n)
                       for i in range(n) for j in range(n)], n)
    rows = compose_rows(heads[:, None, :], tails[None, :, :]
                        ).reshape(-1, n + 1)
    keys = _row_keys(rows)
    if len(set(keys)) < len(keys):
        first: Dict[bytes, int] = {}
        for index, key in enumerate(keys):
            if key in first:
                raise RuntimeError(
                    f"normal-form collision: "
                    f"{_normal_form_word(n, variant, index)} and "
                    f"{_normal_form_word(n, variant, first[key])} "
                    f"evaluate to the same element")
            first[key] = index
    return NormalForms(n, variant, rows)


def presentation_relators(n: int, side: str = "A") -> List[GroupWord]:
    """Relator words of the group presentation.

    Alice side: P0^n, P1^n, J^n, [J, P0], [J, P1], J^i (P0^i P1^{-i})^2 for
    i = 1..floor(n/2). Bob side replaces the last family with
    J^i (P0^{-i} P1^{-i})^2 (the presentation of the group generated by
    B0, B1 in the generators Q0 = P0, Q1 = P1 naming convention).
    """
    rels: List[GroupWord] = [
        (("P0", n),), (("P1", n),), (("J", n),),
        (("J", 1), ("P0", 1), ("J", -1), ("P0", -1)),
        (("J", 1), ("P1", 1), ("J", -1), ("P1", -1)),
    ]
    for i in range(1, n // 2 + 1):
        if side == "A":
            rels.append((("J", i), ("P0", i), ("P1", -i),
                         ("P0", i), ("P1", -i)))
        else:
            rels.append((("J", i), ("P0", -i), ("P1", -i),
                         ("P0", -i), ("P1", -i)))
    return rels


def verify_presentation(n: int, side: str = "A") -> List[GroupWord]:
    """Evaluate each relator exactly; returns the (ideally empty) list of
    failing relators."""
    if side == "A":
        images = alice_images(n)
    else:
        b0, b1 = bob_generators(n)
        images = {"P0": b0, "P1": b1, "J": scalar_j(n)}
    identity = MonomialUnitary.identity(n)
    failures = []
    for rel in presentation_relators(n, side):
        if evaluate_word(rel, images, n).key() != identity.key():
            failures.append(rel)
    return failures


def commutation_check(n: int) -> bool:
    """X^i D_j = D_{(j+i) mod n} X^i, exactly, for all i, j."""
    X = shift_x(n)
    for i in range(n):
        xi = X.power(i)
        for j in range(n):
            lhs = xi @ sign_d(n, j)
            rhs = sign_d(n, (j + i) % n) @ xi
            if lhs.key() != rhs.key():
                return False
    return True


def groups_equal_as_sets(n: int) -> bool:
    """Do A0, A1, z^4 I and B0, B1, z^4 I generate the same matrix group?"""
    a0, a1 = alice_generators(n)
    b0, b1 = bob_generators(n)
    j = scalar_j(n)
    ga = enumerate_group([a0, a1, j])
    gb = enumerate_group([b0, b1, j])
    return np.array_equal(ga.rows, gb.rows)


# ---------------------------------------------------------------------------
# Irreducible representations of the n = 3 group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Irrep:
    name: str
    degree: int
    images: Dict[str, np.ndarray]

    def relator_defect(self, n: int, side: str = "A") -> float:
        eye = np.eye(self.degree)
        worst = 0.0
        for rel in presentation_relators(n, side):
            M = evaluate_word_matrix(rel, self.images)
            worst = max(worst, float(np.linalg.norm(M - eye)))
        return worst


def g3_irreps() -> List[Irrep]:
    """The 12 irreducible representations of the 36-element n = 3 group:
    nine of degree 1 and three of degree 3."""
    w = np.exp(2j * np.pi / 3)
    irreps = []
    for i in range(3):
        for j in range(3):
            irreps.append(Irrep(
                name=f"chi_{i}{j}", degree=1,
                images={"P0": np.array([[w ** i]]),
                        "P1": np.array([[w ** j]]),
                        "J": np.array([[w ** ((2 * (j - i)) % 3)]])}))
    perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    perm_t = perm.T.copy()
    wc = np.conj(w)
    g1_p1 = np.array([[0, 0, wc], [-wc, 0, 0], [0, -wc, 0]])
    g2_p1 = np.array([[0, 0, -1], [-1, 0, 0], [0, 1, 0]], dtype=complex)
    g3_p1 = np.array([[0, w, 0], [0, 0, -w], [-w, 0, 0]])
    eye3 = np.eye(3, dtype=complex)
    irreps.append(Irrep("g1", 3, {"P0": perm, "P1": g1_p1, "J": w * eye3}))
    irreps.append(Irrep("g2", 3, {"P0": perm, "P1": g2_p1, "J": eye3}))
    irreps.append(Irrep("g3", 3, {"P0": perm_t, "P1": g3_p1, "J": wc * eye3}))
    return irreps


def ring_relation_defect(rep: Irrep, n: int = 3) -> float:
    """Norm of H_n + (n-2) I under the representation, where
    H_n = omega * sum_i P0^i P1 P0^{n-1-i}."""
    P0, P1 = rep.images["P0"], rep.images["P1"]
    w = np.exp(2j * np.pi / n)
    d = rep.degree
    H = np.zeros((d, d), dtype=complex)
    for i in range(n):
        H += (np.linalg.matrix_power(P0, i) @ P1
              @ np.linalg.matrix_power(P0, n - 1 - i))
    H *= w
    return float(np.linalg.norm(H + (n - 2) * np.eye(d)))
