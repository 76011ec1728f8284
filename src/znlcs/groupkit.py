"""Exact enumeration of the monomial-unitary groups behind the mod-n games.

Elements are stored exactly in ``monomial``'s format, which that module
owns with its arithmetic: ``MonomialUnitary``, the canonical generators,
and integer rows holding a batch of elements, with their products
(``compose_steps``), inverses and power tables. So group closure, normal
forms and relator checks involve no floating point at all. This module
evaluates words and checks relators on single elements, and compares rows
through exact integer keys (``_keys``: one mixed-radix number per row, in
as few uint64 words as hold it), which closures, the normal-form check and
the multiplication table sort, dedupe and search as arrays, with no Python
object per row. Closure (``enumerate_group``) and the normal forms
(``normal_form_enumerate``) both return rows. Every n has one normal form,
J^i P0^j prod_k (P0^k P1^{-k})^{q_k}, which names each element once.
No function here bounds its work: the callers bound n (``cli``'s ``--n``
flags), and the group's order, n^2 2^(n-1), fixes the work.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

# Names, not the module: the element type, generators and row kernels run
# whenever this module does, and are part of its interface. Above numpy,
# so that monomial compiles before numpy loads (the compile-order rule).
from .monomial import (MonomialUnitary, alice_generators, compose_steps,
                       invert_rows, pack_rows, power_rows, scalar_j,
                       step_columns)

import numpy as np

# A word is a sequence of (generator name, exponent) pairs over P0, P1, J.
GroupWord = Tuple[Tuple[str, int], ...]


# ---------------------------------------------------------------------------
# Exact keys of rows
# ---------------------------------------------------------------------------

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
    bytes. Equal keys are equal rows, so which of them keeps its position
    changes no row and no order: the sort is numpy's default one, a fifth
    faster than the stable sort on the closure's products."""
    order = np.argsort(keys[0])
    changes = _changes(keys, order)
    if (changes[1:] > changes[0]).any():
        order = np.argsort(_as_bytes(keys))
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
    among the sorted keys of the last two layers.
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
    # Before layer 1 the last two layers are the identity's, twice.
    previous = current = _keys(frontier, step)
    while len(frontier):
        frontier, fresh = _next_layer(frontier, cols, steps, step,
                                      (previous, current))
        previous, current = current, fresh
        layers.append(frontier)
    return np.concatenate(layers)


def multiplication_table(rows: np.ndarray) -> np.ndarray:
    """table[i, j] is the index in rows of rows[i] @ rows[j], for the
    distinct rows of a finite group in any order; KeyError for a product
    outside rows. All m^2 products are formed at once."""
    step = _phase_step(rows)
    keys = _keys(rows, step)
    index = _distinct(keys)
    products = compose_steps(rows, step_columns(rows), rows)
    at, found = _find(keys[:, index], _keys(products, step))
    if np.count_nonzero(found) < len(found):
        raise KeyError("a product of two rows is not a row")
    return index[at].reshape(len(rows), len(rows))


# ---------------------------------------------------------------------------
# Normal forms and presentation checks
# ---------------------------------------------------------------------------

def _normal_form_factor(k: int) -> GroupWord:
    """The k-th optional factor, P0^k P1^{-k}."""
    return (("P0", k), ("P1", -k))


def _normal_form_word(n: int, index: int) -> GroupWord:
    """Word number ``index`` of ``normal_form_words(n)``."""
    tails = 2 ** (n - 1)
    i, j, mask = index // (n * tails), (index // tails) % n, index % tails
    word: List[Tuple[str, int]] = [("J", i), ("P0", j)]
    for k in range(1, n):
        if (mask >> (k - 1)) & 1:
            word += _normal_form_factor(k)
    return tuple(word)


def normal_form_words(n: int) -> List[GroupWord]:
    """All n*n*2^(n-1) normal-form words J^i P0^j prod_k (P0^k P1^{-k})^{q_k}
    for k = 1..n-1, where q_k is bit k - 1 of the mask; i outermost and the
    mask innermost."""
    return [_normal_form_word(n, index) for index in range(group_order(n))]


def alice_images(n: int) -> Dict[str, MonomialUnitary]:
    a0, a1 = alice_generators(n)
    return {"P0": a0, "P1": a1, "J": scalar_j(n)}


def normal_form_enumerate(n: int) -> np.ndarray:
    """The rows of every normal-form word evaluated on (A0, A1, z^4 I), in
    the order of ``normal_form_words(n)``, checked pairwise
    distinct (each word names a distinct element).

    The 2^(n-1) tails, products of the optional factors, are built as
    prefix products with one more factor per mask bit, and then
    left-multiplied by the n^2 heads J^i P0^j, themselves every product of
    a power of J by a power of P0.
    """
    images = alice_images(n)
    tails = pack_rows([MonomialUnitary.identity(n)], n)
    for k in range(1, n):
        factor = evaluate_word(_normal_form_factor(k), images, n)
        step = pack_rows([factor], n)
        tails = np.concatenate(
            [tails, compose_steps(tails, step_columns(step), step)[:, 0]])
    j_powers = power_rows(images["J"])
    p0_powers = power_rows(images["P0"])
    heads = compose_steps(j_powers, step_columns(p0_powers), p0_powers
                          ).reshape(-1, n + 1)
    rows = compose_steps(heads, step_columns(tails), tails
                         ).reshape(-1, n + 1)
    keys = _keys(rows, _phase_step(np.concatenate([heads, tails])))
    index = _distinct(keys)
    if len(index) < len(rows):
        # The first row that repeats an earlier one, and the first row of
        # its element, whichever row of each element _distinct kept.
        at = index[_find(keys[:, index], keys)[0]]
        _, firsts, element = np.unique(at, return_index=True,
                                       return_inverse=True)
        first_of = firsts[element]
        second = int(np.flatnonzero(first_of != np.arange(len(rows)))[0])
        first = int(first_of[second])
        raise RuntimeError(
            f"normal-form collision: "
            f"{_normal_form_word(n, second)} and "
            f"{_normal_form_word(n, first)} "
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


# Command handlers: ``cli.COMMANDS`` reads each when its command runs,
# and it adds its results to the report ``rep``.
def enumerate_command(args, rep) -> None:
    """``group enumerate``."""
    rows = enumerate_group(list(alice_generators(args.n)))
    rep.result("group_order", len(rows), tolerance=0.0,
               target=group_order(args.n))
    failures = verify_presentation(args.n)
    rep.result("failed_relators", len(failures), tolerance=0.0, target=0)


def normal_form_command(args, rep) -> None:
    """``group normal-form``."""
    rows = normal_form_enumerate(args.n)
    rep.result("distinct_normal_forms", len(rows), tolerance=0.0,
               target=group_order(args.n))
