import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_numerics import random_state

from znlcs.ncpoly import (NCPolynomial, apply_nc, canonical_word, eval_nc,
                          word_adjoint)
from znlcs.numerics import random_order_n_observables, rng

KEYS = (("A", 0), ("A", 1), ("B", 0), ("B", 1))


def letter(n, player, idx):
    """The one-letter polynomial of operator (player, idx)."""
    return NCPolynomial(n, {((player, idx, 1),): 1.0})


def _eval_nc_reference(poly, assignment, dimA, dimB):
    """Per-term evaluation: sum_k c_k kron(P_k, Q_k) on one assignment."""
    dim = dimA * dimB
    total = np.zeros((dim, dim), dtype=np.complex128)
    for word, coeff in poly.terms.items():
        pa = np.eye(dimA, dtype=np.complex128)
        pb = np.eye(dimB, dtype=np.complex128)
        for player, idx, exp in word:
            M = np.linalg.matrix_power(assignment[(player, idx)],
                                       exp % poly.n)
            if player == "A":
                pa = pa @ M
            else:
                pb = pb @ M
        total += coeff * np.kron(pa, pb)
    return total


def test_canonical_word_sorts_and_merges():
    n = 3
    # B before A gets reordered; adjacent equal letters merge mod n.
    w = canonical_word([("B", 0, 1), ("A", 0, 2), ("A", 0, 2)], n)
    assert w == (("A", 0, 1), ("B", 0, 1))
    # Exponent zero drops.
    assert canonical_word([("A", 1, 3)], n) == ()
    assert canonical_word([("A", 0, 1), ("A", 1, 1), ("A", 1, 2)], n) == \
        (("A", 0, 1),)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 7))
def test_word_adjoint_matches_reducing_the_reversed_word(data, n):
    # Reference: reduce the reversed letters with negated exponents.
    raw = data.draw(st.lists(st.tuples(
        st.sampled_from("AB"), st.integers(0, 1), st.integers(-n, 2 * n)),
        max_size=12))
    w = canonical_word(raw, n)
    assert word_adjoint(w, n) == canonical_word(
        [(p, i, -e) for p, i, e in reversed(w)], n)


def test_polynomial_ring_axioms():
    n = 3
    x = letter(n, "A", 0)
    y = letter(n, "B", 1)
    one = NCPolynomial.one(n)
    assert x * one == x
    assert (x + y) - y == x
    assert x * (y + y) == 2.0 * (x * y)
    assert (x + y).adjoint().adjoint() == x + y


def _random_assignment(n, dim, seed, dimB=None):
    """Alice's operators at dim, Bob's at dimB (default dim)."""
    gen = rng(seed)
    dims = {"A": dim, "B": dim if dimB is None else dimB}
    return {key: random_order_n_observables(
                n, dims[key[0]], [int(gen.integers(2**31))])[0]
            for key in KEYS}


def test_eval_is_multiplicative():
    n, dim = 3, 3
    assign = _random_assignment(n, dim, 23)
    x = letter(n, "A", 0) + 2.0 * letter(n, "B", 1)
    y = letter(n, "A", 1) * letter(n, "B", 0)
    lhs = eval_nc(x * y, assign, dim, dim)
    rhs = eval_nc(x, assign, dim, dim) @ eval_nc(y, assign, dim, dim)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_eval_respects_adjoint():
    n, dim = 3, 3
    assign = _random_assignment(n, dim, 29)
    p = (letter(n, "A", 0) * letter(n, "B", 1)
         + 1j * letter(n, "A", 1))
    lhs = eval_nc(p.adjoint(), assign, dim, dim)
    rhs = eval_nc(p, assign, dim, dim).conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_letters_of_different_players_commute_under_eval():
    n, dim = 4, 4
    assign = _random_assignment(n, dim, 37)
    ab = letter(n, "A", 0) * letter(n, "B", 0)
    ba = letter(n, "B", 0) * letter(n, "A", 0)
    assert ab == ba  # canonicalization orders A before B
    lhs = eval_nc(ab, assign, dim, dim)
    rhs = eval_nc(ba, assign, dim, dim)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def _mixed_polynomial(n):
    """A constant, single letters, and multi-letter words on both sides."""
    return NCPolynomial(n, {
        (): 0.5,
        (("A", 1, 1),): -1.0,
        (("A", 0, 1), ("A", 1, 2), ("B", 1, 1)): 2.0 - 1j,
        (("B", 0, 2), ("B", 1, 1)): 1j,
        (("A", 1, 1), ("A", 0, 1), ("B", 0, 1), ("B", 1, 2)): 0.25,
    })


@pytest.mark.parametrize("dimA,dimB", [(2, 3), (3, 2), (1, 4), (3, 3)])
def test_eval_matches_per_term_kron_reference(dimA, dimB):
    n = 3
    assign = _random_assignment(n, dimA, 41, dimB)
    p = _mixed_polynomial(n)
    got = eval_nc(p, assign, dimA, dimB)
    assert got.shape == (dimA * dimB, dimA * dimB)
    ref = _eval_nc_reference(p, assign, dimA, dimB)
    assert np.linalg.norm(got - ref) < 1e-12
    const = eval_nc(NCPolynomial.one(n, 2.0 - 1j), assign, dimA, dimB)
    assert np.array_equal(const, (2.0 - 1j) * np.eye(dimA * dimB))
    zero = eval_nc(NCPolynomial(n), assign, dimA, dimB)
    assert zero.shape == (dimA * dimB, dimA * dimB)
    assert not zero.any()


def test_eval_and_apply_name_the_missing_operator():
    n, dim = 3, 2
    assign = _random_assignment(n, dim, 43)
    del assign[("B", 1)]
    p = letter(n, "A", 0) * letter(n, "B", 1)
    with pytest.raises(KeyError, match="missing operator"):
        eval_nc(p, assign, dim, dim)
    with pytest.raises(KeyError, match="missing operator"):
        apply_nc([p], assign, random_state(dim * dim, rng(3)), dim, dim)


_LETTER = st.tuples(st.sampled_from("AB"), st.integers(0, 1),
                    st.integers(0, 4))
_TERMS = st.lists(
    st.tuples(st.lists(_LETTER, max_size=4),
              st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                 allow_infinity=False)),
    max_size=6)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n=st.integers(2, 4), dimA=st.integers(1, 3), dimB=st.integers(1, 3),
       batch=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1), terms=_TERMS)
def test_eval_on_a_stack_equals_the_stack_of_evaluations(
        n, dimA, dimB, batch, seed, terms):
    p = NCPolynomial(n, {tuple(word): c for word, c in terms})
    gen = rng(seed)
    size = int(np.prod(batch))
    assign = {}
    for key in KEYS:
        d = dimA if key[0] == "A" else dimB
        seeds = gen.integers(2**63, size=size).tolist()
        assign[key] = random_order_n_observables(n, d, seeds).reshape(
            tuple(batch) + (d, d))
    got = eval_nc(p, assign, dimA, dimB)
    dim = dimA * dimB
    assert got.shape == tuple(batch) + (dim, dim)
    for t in np.ndindex(*batch):
        one = eval_nc(p, {k: v[t] for k, v in assign.items()}, dimA, dimB)
        assert np.linalg.norm(got[t] - one) <= 1e-12 * max(
            1.0, np.linalg.norm(one))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 4), dimA=st.integers(1, 3), dimB=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), p_terms=_TERMS, q_terms=_TERMS)
def test_eval_is_a_star_homomorphism(n, dimA, dimB, seed, p_terms, q_terms):
    p = NCPolynomial(n, {tuple(word): c for word, c in p_terms})
    q = NCPolynomial(n, {tuple(word): c for word, c in q_terms})
    assign = _random_assignment(n, dimA, seed, dimB)
    P = eval_nc(p, assign, dimA, dimB)
    Q = eval_nc(q, assign, dimA, dimB)
    scale = max(1.0, np.linalg.norm(P) * np.linalg.norm(Q))
    assert np.linalg.norm(eval_nc(p * q, assign, dimA, dimB) - P @ Q) \
        <= 1e-12 * scale
    assert np.linalg.norm(eval_nc(p.adjoint(), assign, dimA, dimB)
                          - P.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(P))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 4), dimA=st.integers(1, 3), dimB=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), terms=_TERMS)
@example(n=3, dimA=2, dimB=3, seed=5, terms=[])
def test_apply_matches_dense_evaluation(n, dimA, dimB, seed, terms):
    p = NCPolynomial(n, {tuple(word): c for word, c in terms})
    assign = _random_assignment(n, dimA, seed, dimB)
    state = random_state(dimA * dimB, rng(seed))
    [got] = apply_nc([p], assign, state, dimA, dimB)
    want = eval_nc(p, assign, dimA, dimB) @ state
    assert got.shape == (dimA * dimB,)
    assert np.linalg.norm(got - want) <= 1e-12 * max(
        1.0, np.linalg.norm(want))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 4), dimA=st.integers(1, 3), dimB=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1),
       polys=st.lists(_TERMS, min_size=1, max_size=4))
def test_shared_powers_change_no_bit(n, dimA, dimB, seed, polys):
    # Polynomials evaluated on one dict of operator powers equal, bit for
    # bit, their evaluations each on its own.
    polys = [NCPolynomial(n, {tuple(word): c for word, c in terms})
             for terms in polys]
    assign = _random_assignment(n, dimA, seed, dimB)
    powers = {}
    for p in polys:
        assert np.array_equal(eval_nc(p, assign, dimA, dimB, powers),
                              eval_nc(p, assign, dimA, dimB))


def test_shared_powers_take_each_power_once(monkeypatch):
    # Every word of these polynomials is a product of the eight powers
    # A_i^e, B_i^e (e = 1, 2): one dict of powers takes each of them once.
    calls = []
    power = np.linalg.matrix_power

    def counted(M, e):
        calls.append(e)
        return power(M, e)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    n = 3
    words = [((p, i, e),) for p, i in KEYS for e in (1, 2)]
    polys = [NCPolynomial(n, {w: 1.0 for w in words}),
             NCPolynomial(n, {w + v: 1.0 for w in words[:4]
                              for v in words[4:]}),
             letter(n, "A", 0) * letter(n, "A", 1) * letter(n, "A", 0)]
    assign = _random_assignment(n, 2, 7)
    powers = {}
    for p in polys:
        eval_nc(p, assign, 2, 2, powers)
    assert sorted(calls) == [1] * 4 + [2] * 4
