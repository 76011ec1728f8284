"""Exact enumeration of the monomial-unitary groups behind the mod-n games.

Every element is a monomial unitary, stored exactly as a cyclic shift plus
phase exponents mod 4n (see ``monomial``), so group closure, normal forms
and relator checks involve no floating point at all.

``monomial`` owns single elements: ``MonomialUnitary`` and the canonical
generators. This module evaluates words and checks relators on single
elements, and owns batches: m elements of dimension n are one unsigned
integer array ``rows[m, n + 1]`` whose column 0 holds the shifts (mod n)
and columns 1..n the phases (mod 4n), i.e. ``rows[:, 0]`` is shift[m] and
``rows[:, 1:]`` is phases[m, n]. The dtype (uint8 up to n = 32) holds the
sum of two reduced entries, so a product with a fixed element is one
gather, one add and one conditional subtract of the modulus.
``compose_steps`` is the only batched product: it multiplies rows by fixed
right factors through their column maps (``step_columns``), and closure,
normal forms and the multiplication table all use it. Closures, the
normal-form check and the multiplication table compare rows through exact
integer keys (``_keys``: one mixed-radix number per row, in as few uint64
words as hold it), which they sort, dedupe and search as arrays, with no
Python object per row. Closure (``enumerate_group``) and the normal forms
(``normal_form_enumerate``) both return rows.

The twelve irreducible representations of the n = 3 group are held as
matrices and checked against the same relators, and against the ring
relation that picks g1.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

# Names, not the module: the element type and generators are part of this
# module's interface, and every function here uses them.
from .monomial import MonomialUnitary, alice_generators, scalar_j
from .records import Record

# Most elements a closure may hold, and most normal-form words evaluated.
ENUMERATION_CAP = 10**6

# Largest group whose m x m multiplication table is built.
MULTIPLICATION_TABLE_MAX = 2048

# Products formed per batched step of multiplication_table, which bounds
# its memory for large groups.
_BLOCK_PRODUCTS = 1 << 16

# A word is a sequence of (generator name, exponent) pairs over P0, P1, J.
GroupWord = Tuple[Tuple[str, int], ...]


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


def _moduli(n: int, dtype: np.dtype) -> np.ndarray:
    return np.array([n] + [4 * n] * n, dtype=dtype)


def _shifted_columns(n: int, by: np.ndarray) -> np.ndarray:
    """Column map reading phase k from phase (k + by) % n and keeping the
    shift column. ``by`` is an integer array of shape (..., 1); the map has
    shape (..., n + 1)."""
    cols = 1 + (np.arange(n) + by) % n
    return np.concatenate([np.zeros_like(cols[..., :1]), cols], axis=-1)


def step_columns(steps: np.ndarray) -> np.ndarray:
    """The column map of each fixed right factor ``steps[s]``:
    ``rows[:, cols[s]] + steps[s]``, reduced, is ``rows @ steps[s]``."""
    return _shifted_columns(steps.shape[-1] - 1,
                            steps[:, :1].astype(np.intp))


def compose_steps(rows: np.ndarray, cols: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """Every product rows[f] @ steps[s] (apply steps[s] first), shape
    (len(rows), len(steps), n + 1), given ``cols = step_columns(steps)``:
    shift rows.shift + steps.shift and
    phases[k] = steps.phases[k] + rows.phases[(k + steps.shift) % n], as one
    gather, one add and one conditional subtract of the moduli (in place:
    the sum of two reduced entries is under twice the modulus)."""
    out = rows[:, cols] + steps
    mod = _moduli(out.shape[-1] - 1, out.dtype)
    np.subtract(out, mod, out=out, where=out >= mod)
    return out


def invert_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise inverses: shift -shift and
    phases[k] = -phases[(k - shift) % n]."""
    mod = _moduli(rows.shape[-1] - 1, rows.dtype)
    cols = _shifted_columns(len(mod) - 1, -rows[..., :1].astype(np.intp))
    out = mod - np.take_along_axis(rows, cols, axis=-1)
    out[out == mod] = 0
    return out


def _phase_step(factors: np.ndarray) -> int:
    """The gcd of 4n and the phases of the rows ``factors``, which divides
    every phase of every product of them."""
    return math.gcd(4 * (factors.shape[-1] - 1),
                    *set(factors[..., 1:].ravel().tolist()))


def _keys(rows: np.ndarray, step: int) -> np.ndarray:
    """keys[words, m] of rows[..., n + 1] (in C order) whose phases are
    multiples of ``step``, a divisor of 4n.

    A key is ``step`` times the mixed-radix number whose digits, most
    significant first, are the shift (radix n) and each phase divided by
    ``step`` (radix 4n / step), packed most significant first into as few
    uint64 words as hold them. The factor ``step`` spares a division per
    phase. Keys are equal exactly when the rows are, and compare word by
    word as the rows do lexicographically.
    """
    n = rows.shape[-1] - 1
    radices = [n] + [4 * n // step] * n
    # The first column of each word; no word is open before column 0.
    starts, capacity = [], 2**64 + 1
    for col, radix in enumerate(radices):
        capacity *= radix
        if capacity * step > 2**64:
            starts.append(col)
            capacity = radix
    keys = np.zeros((len(starts), rows[..., 0].size), dtype=np.uint64)
    bounds = starts + [n + 1]
    for word, start, stop in zip(keys, bounds, bounds[1:]):
        acc = word.reshape(rows.shape[:-1])
        for col in range(start, stop):
            acc *= np.uint64(radices[col])
            acc += rows[..., col]
            if col == 0:
                acc *= np.uint64(step)
    return keys


def _as_bytes(keys: np.ndarray) -> np.ndarray:
    """Each key of keys[words, m] as one big-endian byte string, which
    sorts as the key does."""
    return np.ascontiguousarray(keys.T, dtype=">u8").view(
        f"S{8 * len(keys)}")[:, 0]


def _changes(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """changes[w, i]: whether word w differs between keys order[i] and
    order[i + 1] of the nonempty keys[words, m], gathered one word at a
    time."""
    changes = np.empty((len(keys), len(order) - 1), dtype=bool)
    for word, out in zip(keys, changes):
        in_order = word[order]
        np.not_equal(in_order[1:], in_order[:-1], out=out)
    return changes


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The positions in keys[words, m] of one key equal to each distinct
    key, in increasing key order. The keys sort by their first word unless
    a later word tells apart two keys that it does not; then they sort as
    bytes. The sort is numpy's stable one, whose first call pages in
    0.2 MB less code than the default sort's, which is faster only on
    large unordered inputs."""
    order = np.argsort(keys[0], kind="stable")
    changes = _changes(keys, order)
    if (changes[1:] > changes[0]).any():
        order = np.argsort(_as_bytes(keys), kind="stable")
        changes = _changes(keys, order)
    return order[np.append(True, changes.any(0))]


def _find(table: np.ndarray, keys: np.ndarray
          ) -> Tuple[np.ndarray, np.ndarray]:
    """(position, found) of each key of keys[words, m] in the sorted,
    distinct, nonempty keys ``table``. A position is only trusted where
    found, which compares the whole key at it."""
    first = table[0]
    if (first[1:] > first[:-1]).all():
        at = np.searchsorted(first, keys[0])
    else:
        at = np.searchsorted(_as_bytes(table), _as_bytes(keys))
    at = np.minimum(at, len(first) - 1)
    return at, (table[:, at] == keys).all(0)


def group_order(n: int) -> int:
    """n^2 2^(n-1), the order of the canonical group and the number of its
    normal forms."""
    return n * n * 2 ** (n - 1)


def group_order_exceeds_cap(n: int) -> bool:
    """Whether group_order(n) exceeds ENUMERATION_CAP (decided without
    forming 2^(n-1) for large n)."""
    cap = ENUMERATION_CAP
    return n > cap.bit_length() or group_order(n) > cap


# ---------------------------------------------------------------------------
# Words over the generators
# ---------------------------------------------------------------------------

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

def _next_layer(frontier: np.ndarray, cols: np.ndarray, steps: np.ndarray,
                step: int, last: Tuple[np.ndarray, np.ndarray]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, keys) of the distinct products frontier @ steps whose keys
    are in neither of the sorted keys ``last``, in key order. Its
    temporaries, as large as the products, are freed on return."""
    products = compose_steps(frontier, cols, steps
                             ).reshape(-1, frontier.shape[1])
    keys = _keys(products, step)
    index = _distinct(keys)
    keys = keys[:, index]
    new = ~(_find(last[0], keys)[1] | _find(last[1], keys)[1])
    return products[index[new]], keys[:, new]


def enumerate_group(generators: Sequence[MonomialUnitary]) -> np.ndarray:
    """The generated group's rows, in breadth-first order from the
    identity, each layer in key order (the lexicographic order of the
    rows).

    Each layer multiplies the whole frontier by every generator and inverse
    at once, through column maps built once per call (``compose_steps``).
    That set is closed under inverses, so a product of layer d lies in
    layer d - 1, d or d + 1: the next layer is the distinct products whose
    keys (``_keys``, exact for every product of the generators) are not
    among the sorted keys of the last two layers. ENUMERATION_CAP is
    checked once per layer.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    gens = pack_rows(generators, n)
    steps = np.concatenate([gens, invert_rows(gens)])
    cols = step_columns(steps)
    step = _phase_step(steps)
    frontier = pack_rows([MonomialUnitary.identity(n)], n)
    layers = [frontier]
    size = 1
    # Before layer 1 the last two layers are the identity's, twice.
    previous = current = _keys(frontier, step)
    while len(frontier):
        frontier, fresh = _next_layer(frontier, cols, steps, step,
                                      (previous, current))
        previous, current = current, fresh
        layers.append(frontier)
        size += len(frontier)
        if size > ENUMERATION_CAP:
            raise RuntimeError(
                f"enumeration cap {ENUMERATION_CAP} exceeded "
                f"({size} elements so far)")
    return np.concatenate(layers)


def multiplication_table(rows: np.ndarray) -> np.ndarray:
    """table[i, j] is the index in rows of rows[i] @ rows[j], for the
    distinct rows of a finite group in any order; KeyError for a product
    outside rows."""
    m = len(rows)
    if m > MULTIPLICATION_TABLE_MAX:
        raise ValueError(
            f"table of {m}x{m} entries exceeds the size bound "
            f"{MULTIPLICATION_TABLE_MAX}")
    step = _phase_step(rows)
    keys = _keys(rows, step)
    index = _distinct(keys)
    sorted_keys = keys[:, index]
    table = np.empty((m, m), dtype=np.int64)
    cols = step_columns(rows)
    block = max(1, _BLOCK_PRODUCTS // m)
    for start in range(0, m, block):
        products = compose_steps(rows[start:start + block], cols, rows)
        at, found = _find(sorted_keys, _keys(products, step))
        if np.count_nonzero(found) < len(found):
            raise KeyError("a product of two rows is not a row")
        table[start:start + block] = index[at].reshape(-1, m)
    return table


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


def _power_rows(g: MonomialUnitary) -> np.ndarray:
    """The rows of g^0, g^1, ..., g^(n-1), each the one before times g."""
    step = pack_rows([g], g.n)
    cols = step_columns(step)
    rows = [pack_rows([MonomialUnitary.identity(g.n)], g.n)]
    for _ in range(1, g.n):
        rows.append(compose_steps(rows[-1], cols, step)[:, 0])
    return np.concatenate(rows)


def normal_form_enumerate(n: int, variant: str = "standard") -> np.ndarray:
    """The rows of every normal-form word evaluated on (A0, A1, z^4 I), in
    the order of ``normal_form_words(n, variant)``, checked pairwise
    distinct (each word names a distinct element).

    The 2^(n-1) tails, products of the optional factors, are built as
    prefix products with one more factor per mask bit, and then
    left-multiplied by the n^2 heads J^i P0^j, themselves every product of
    a power of J by a power of P0. A word count above ENUMERATION_CAP is
    refused before any of it.
    """
    if group_order_exceeds_cap(n):
        raise RuntimeError(
            f"{n}^2 * 2^{n - 1} normal forms exceed the enumeration cap "
            f"{ENUMERATION_CAP}")
    _check_variant(n, variant)
    images = alice_images(n)
    tails = pack_rows([MonomialUnitary.identity(n)], n)
    for k in range(1, n):
        factor = evaluate_word(_normal_form_factor(k, variant), images, n)
        step = pack_rows([factor], n)
        tails = np.concatenate(
            [tails, compose_steps(tails, step_columns(step), step)[:, 0]])
    j_powers = _power_rows(images["J"])
    p0_powers = _power_rows(images["P0"])
    heads = compose_steps(j_powers, step_columns(p0_powers), p0_powers
                          ).reshape(-1, n + 1)
    rows = compose_steps(heads, step_columns(tails), tails
                         ).reshape(-1, n + 1)
    keys = _keys(rows, _phase_step(np.concatenate([heads, tails])))
    index = _distinct(keys)
    if len(index) < len(rows):
        # A row that is not the one its key's index names repeats it.
        at = index[_find(keys[:, index], keys)[0]]
        second = np.flatnonzero(at != np.arange(len(rows)))[0]
        first, second = sorted([int(at[second]), int(second)])
        raise RuntimeError(
            f"normal-form collision: "
            f"{_normal_form_word(n, variant, second)} and "
            f"{_normal_form_word(n, variant, first)} "
            f"evaluate to the same element")
    return rows


def presentation_relators(n: int) -> List[GroupWord]:
    """Relator words of the group presentation: P0^n, P1^n, J^n, [J, P0],
    [J, P1] and J^i (P0^i P1^{-i})^2 for i = 1..floor(n/2)."""
    rels: List[GroupWord] = [
        (("P0", n),), (("P1", n),), (("J", n),),
        (("J", 1), ("P0", 1), ("J", -1), ("P0", -1)),
        (("J", 1), ("P1", 1), ("J", -1), ("P1", -1)),
    ]
    for i in range(1, n // 2 + 1):
        rels.append((("J", i), ("P0", i), ("P1", -i), ("P0", i), ("P1", -i)))
    return rels


def verify_presentation(n: int) -> List[GroupWord]:
    """Evaluate each relator exactly on (A0, A1, z^4 I); returns the
    (ideally empty) list of failing relators."""
    images = alice_images(n)
    identity = MonomialUnitary.identity(n)
    failures = []
    for rel in presentation_relators(n):
        if evaluate_word(rel, images, n).key() != identity.key():
            failures.append(rel)
    return failures


# ---------------------------------------------------------------------------
# Irreducible representations of the n = 3 group
# ---------------------------------------------------------------------------

class Irrep(Record):
    name: str
    degree: int
    images: Dict[str, np.ndarray]

    def relator_defect(self) -> float:
        eye = np.eye(self.degree)
        worst = 0.0
        for rel in presentation_relators(3):
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


def ring_relation_defect(rep: Irrep) -> float:
    """Norm of H_3 + I under the representation, where
    H_3 = omega * sum_i P0^i P1 P0^{2-i} and omega = e^{2 pi i / 3}."""
    P0, P1 = rep.images["P0"], rep.images["P1"]
    d = rep.degree
    H = np.zeros((d, d), dtype=complex)
    for i in range(3):
        H += (np.linalg.matrix_power(P0, i) @ P1
              @ np.linalg.matrix_power(P0, 2 - i))
    H *= np.exp(2j * np.pi / 3)
    return float(np.linalg.norm(H + np.eye(d)))
