import ast
import hashlib
import subprocess
import sys
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znlcs import groupkit, monomial
from znlcs.groupkit import (MonomialUnitary, alice_generators, alice_images,
                            enumerate_group, evaluate_word,
                            evaluate_word_matrix, invert_rows,
                            multiplication_table, normal_form_enumerate,
                            normal_form_words, pack_rows,
                            presentation_relators, scalar_j,
                            verify_presentation)
from znlcs.monomial import bob_generators, shift_x
from znlcs.records import Record


# ---------------------------------------------------------------------------
# Reference: irreducible representations of the n = 3 group, which no
# command reports
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


def unpack_row(row):
    """The element of one row, the inverse of ``pack_rows``."""
    shift, *phases = row.tolist()
    return MonomialUnitary(len(phases), shift, tuple(phases))


def bob_relators(n):
    """The presentation of the group of (B0, B1, z^4 I): Alice's relators
    with J^i (P0^{-i} P1^{-i})^2 in place of J^i (P0^i P1^{-i})^2."""
    return presentation_relators(n)[:5] + [
        (("J", i), ("P0", -i), ("P1", -i), ("P0", -i), ("P1", -i))
        for i in range(1, n // 2 + 1)]


def _elements(rows):
    """The elements of rows, in their order."""
    return [unpack_row(row) for row in rows]


def _sorted(rows):
    """Rows in lexicographic order, the order of MonomialUnitary.key()."""
    return rows[np.lexsort(rows.T[::-1])]


def _order(g):
    """Reference: the least m >= 1 with g^m = I, by repeated products."""
    identity = MonomialUnitary.identity(g.n)
    power, m = g, 1
    while power != identity:
        power, m = power @ g, m + 1
    return m


def _sign_d(n, j):
    """D_j = diag with -1 in entry (j, j); -1 = z^{2n}."""
    return MonomialUnitary(
        n, 0, tuple(2 * n if k == j else 0 for k in range(n)))


def _center_size(rows):
    """Reference: the center is the set of elements that commute with both
    generators A0, A1 of the canonical group."""
    a0, a1 = alice_generators(rows.shape[1] - 1)
    return sum(x @ a0 == a0 @ x and x @ a1 == a1 @ x for x in _elements(rows))


def test_monomial_composition_matches_dense_product():
    n = 5
    a0, a1 = alice_generators(n)
    b0, b1 = bob_generators(n)
    pairs = [(a0, a1), (a1, a1), (a0 @ a1, b1), (b0.inverse(), a1 @ a0)]
    for x, y in pairs:
        assert np.allclose((x @ y).to_matrix(), x.to_matrix() @ y.to_matrix())
    for x in (a0, a1, b0, b1):
        assert np.allclose(x.inverse().to_matrix(),
                           x.to_matrix().conj().T)


def test_generator_matrices():
    n = 4
    z = np.exp(1j * np.pi / (2 * n))
    X = np.roll(np.eye(n), 1, axis=0)
    D0 = np.diag([-1.0] + [1.0] * (n - 1))
    a0, a1 = alice_generators(n)
    b0, b1 = bob_generators(n)
    assert np.allclose(a0.to_matrix(), X)
    assert np.allclose(b0.to_matrix(), X)
    assert np.allclose(a1.to_matrix(), z**2 * D0 @ X)
    assert np.allclose(b1.to_matrix(), z**2 * D0 @ X.conj().T)
    assert np.allclose(scalar_j(n).to_matrix(), z**4 * np.eye(n))


def test_orders_of_generators():
    for n in (2, 3, 5):
        a0, a1 = alice_generators(n)
        assert _order(a0) == n
        assert _order(a1) == n
        assert _order(scalar_j(n)) == n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_order_formula(n):
    rows = enumerate_group(list(alice_generators(n)))
    assert len(rows) == n * n * 2 ** (n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_forms_enumerate_whole_group(n):
    forms = normal_form_enumerate(n)
    assert len(forms) == n * n * 2 ** (n - 1)
    rows = enumerate_group(list(alice_generators(n)))
    assert {u.key() for u in _elements(forms)} == \
        {u.key() for u in _elements(rows)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("side", ["A", "B"])
def test_presentation_relators_hold(n, side):
    if side == "A":
        assert verify_presentation(n) == []
    else:
        b0, b1 = bob_generators(n)
        images = {"P0": b0, "P1": b1, "J": scalar_j(n)}
        identity = MonomialUnitary.identity(n)
        assert [rel for rel in bob_relators(n)
                if evaluate_word(rel, images, n) != identity] == []


def test_presentation_relator_detects_corruption():
    # Negative control: a wrong phase on A1 must break some relator.
    images = alice_images(3)
    a1 = images["P1"]
    bad = type(a1)(n=3, shift=a1.shift,
                   phases=tuple((p + 1) % 12 for p in a1.phases))
    images["P1"] = bad
    failing = [rel for rel in presentation_relators(3)
               if evaluate_word(rel, images, 3).key()
               != evaluate_word((), images, 3).key()]
    assert failing


def test_bob_group_equals_alice_group():
    # A0, A1, z^4 I and B0, B1, z^4 I generate the same matrix group, and
    # X^i D_j = D_{(j+i) mod n} X^i exactly.
    for n in (2, 3, 4):
        j = scalar_j(n)
        alice = enumerate_group([*alice_generators(n), j])
        bob = enumerate_group([*bob_generators(n), j])
        assert np.array_equal(_sorted(alice), _sorted(bob))
        for i in range(n):
            xi = shift_x(n).power(i)
            for k in range(n):
                assert xi @ _sign_d(n, k) == _sign_d(n, (k + i) % n) @ xi


def test_catalogue_table_and_orders():
    rows = enumerate_group(list(alice_generators(3)))
    table = multiplication_table(rows)
    size = len(rows)
    assert table.shape == (size, size)
    # Each row and column of a group's Cayley table is a permutation.
    for i in range(size):
        assert sorted(table[i]) == list(range(size))
        assert sorted(table[:, i]) == list(range(size))
    orders = [_order(g) for g in _elements(rows)]
    assert max(orders) <= 12  # exponent of the 36-element group


def test_g3_irreps_complete():
    irreps = g3_irreps()
    assert len(irreps) == 12
    assert sum(r.degree ** 2 for r in irreps) == 36
    for r in irreps:
        assert r.relator_defect() < 1e-12


def test_ring_relation_selects_g1():
    for r in g3_irreps():
        defect = ring_relation_defect(r)
        if r.name == "g1":
            assert defect < 1e-12
        else:
            assert defect > 0.1


def test_evaluate_word_matrix_inverse_exponents():
    images = {k: v.to_matrix() for k, v in alice_images(3).items()}
    M = evaluate_word_matrix((("P0", 1), ("P0", -1)), images)
    assert np.allclose(M, np.eye(3))


def compose_rows(a, b):
    """Reference row-wise products a @ b (apply b first) of two batches that
    broadcast against each other, gathered by ``take_along_axis`` and
    reduced by ``%``: shift a.shift + b.shift and
    phases[k] = b.phases[k] + a.phases[(k + b.shift) % n]."""
    n = a.shape[-1] - 1
    cols = 1 + (np.arange(n) + b[..., :1].astype(np.intp)) % n
    index = np.concatenate([np.zeros_like(cols[..., :1]), cols], axis=-1)
    sums = np.take_along_axis(a, index, axis=-1).astype(np.int64) + b
    return sums % np.array([n] + [4 * n] * n)


@st.composite
def monomials(draw, n, count, phase_step=1):
    """``count`` random monomial unitaries of dimension n whose phases are
    multiples of ``phase_step``."""
    return [MonomialUnitary(
        n, draw(st.integers(0, n - 1)),
        tuple(phase_step * draw(st.integers(0, 4 * n // phase_step - 1))
              for _ in range(n)))
        for _ in range(count)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), count=st.integers(1, 6))
def test_batched_product_and_inverse_match_scalar(data, n, count):
    xs = data.draw(monomials(n, count))
    ys = data.draw(monomials(n, count))
    rows_x, rows_y = pack_rows(xs, n), pack_rows(ys, n)
    # All pairs at once, as multiplication_table forms them.
    table = groupkit.compose_steps(rows_x, groupkit.step_columns(rows_y),
                                   rows_y)
    inverses = invert_rows(rows_x)
    assert table.dtype == inverses.dtype == rows_x.dtype
    for k, (x, y) in enumerate(zip(xs, ys)):
        assert unpack_row(table[k, k]) == x @ y
        assert unpack_row(inverses[k]) == x.inverse()
        assert np.allclose(unpack_row(table[k, k]).to_matrix(),
                           x.to_matrix() @ y.to_matrix())
        assert np.allclose(unpack_row(inverses[k]).to_matrix(),
                           x.to_matrix().conj().T)
    assert [[unpack_row(r) for r in row] for row in table] == \
        [[x @ y for y in ys] for x in xs]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 9))
def test_power_matches_repeated_multiplication(data, n):
    (g,) = data.draw(monomials(n, 1))
    e = data.draw(st.integers(-4 * n * n, 4 * n * n))
    step = g if e >= 0 else g.inverse()
    expected = MonomialUnitary.identity(n)
    for _ in range(abs(e)):
        expected = expected @ step
    assert g.power(e) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_power_rows_match_scalar_powers(data, n):
    (g,) = data.draw(monomials(n, 1))
    for h in (g, g.inverse()):
        rows = monomial.power_rows(h)
        assert rows.dtype == pack_rows([h], n).dtype
        assert np.array_equal(rows,
                              pack_rows([h.power(i) for i in range(n)], n))


def test_power_rows_at_the_value_cap():
    # n = 1448 (the largest `strategy value --via bias` takes) is no power
    # of two, so the last doubling fills a partial run of rows.
    n = 1448
    for g in alice_generators(n) + bob_generators(n):
        rows = monomial.power_rows(g)
        step = pack_rows([g], n)
        assert rows.shape == (n, n + 1)
        assert rows.dtype == step.dtype == np.uint16
        assert not rows[0].any()
        assert np.array_equal(
            rows[1:], monomial.compose_steps(
                rows[:-1], monomial.step_columns(step), step)[:, 0])


def _scalar_closure(generators):
    """Reference closure by scalar products, one element at a time."""
    n = generators[0].n
    steps = list(generators) + [g.inverse() for g in generators]
    seen = {MonomialUnitary.identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for g in steps:
                prod = g @ h
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(g.key() for g in seen)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), count=st.integers(1, 3))
def test_closure_matches_scalar_reference(data, n, count):
    # Phases in multiples of n keep every such group at most n * 4^n.
    gens = data.draw(monomials(n, count, phase_step=n))
    rows = enumerate_group(gens)
    assert sorted(g.key() for g in _elements(rows)) == _scalar_closure(gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closure_equals_normal_form_set(n):
    rows = enumerate_group(list(alice_generators(n)))
    forms = normal_form_enumerate(n)
    assert len(rows) == len(forms) == n * n * 2 ** (n - 1)
    assert np.array_equal(_sorted(rows), _sorted(forms))


@pytest.mark.parametrize("n", range(1, 14))
def test_fixed_step_products_match_compose_rows(n):
    # 13 is the largest n under the enumeration cap; its rows are uint8,
    # which must hold 8n - 2, the largest sum before the reduction.
    gen = np.random.default_rng(n)
    rows = pack_rows([MonomialUnitary(n, int(gen.integers(n)),
                                      tuple(gen.integers(4 * n, size=n)))
                      for _ in range(64)], n)
    gens = pack_rows([*alice_generators(n), *bob_generators(n),
                      scalar_j(n)], n)
    steps = np.concatenate([gens, invert_rows(gens)])
    products = groupkit.compose_steps(rows, groupkit.step_columns(steps),
                                      steps)
    assert products.shape == (len(rows), len(steps), n + 1)
    assert products.dtype == rows.dtype == np.uint8
    for k, step in enumerate(steps):
        assert np.array_equal(products[:, k],
                              compose_rows(rows, step[None, :]))


@pytest.mark.parametrize("n", [7, 8])
def test_closure_has_group_order_in_sorted_rows(n):
    # Sorted, distinct rows are strictly increasing.
    rows = enumerate_group(list(alice_generators(n)))
    assert len(rows) == groupkit.group_order(n)
    keys = [tuple(row) for row in _sorted(rows).tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_standard_normal_forms_index_words_in_order(n):
    # The heads J^i P0^j come from power tables, not from words: the rows
    # must still be the words' elements, in the words' order.
    forms = normal_form_enumerate(n)
    words = normal_form_words(n)
    images = alice_images(n)
    assert _elements(forms) == [evaluate_word(w, images, n) for w in words]


def test_normal_form_collision_raises(monkeypatch):
    images = alice_images(4)
    images["P1"] = images["P0"]  # every optional factor becomes I
    monkeypatch.setattr(groupkit, "alice_images", lambda n: images)
    with pytest.raises(RuntimeError, match="normal-form collision"):
        normal_form_enumerate(4)


def test_normal_form_collision_names_two_words_of_one_element(monkeypatch):
    images = alice_images(4)
    images["P1"] = images["P0"]
    monkeypatch.setattr(groupkit, "alice_images", lambda n: images)
    with pytest.raises(RuntimeError) as info:
        normal_form_enumerate(4)
    words = str(info.value).removeprefix("normal-form collision: ")
    words = words.removesuffix(" evaluate to the same element")
    a, b = map(ast.literal_eval, words.split(" and "))
    assert a != b
    assert evaluate_word(a, images, 4) == evaluate_word(b, images, 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_center_is_generated_by_j(n):
    # The center of the canonical group is <J> = {omega^i I}: order n.
    rows = enumerate_group(list(alice_generators(n)))
    assert _center_size(rows) == n


def test_catalogue_products_match_scalar_products():
    rows = enumerate_group(list(alice_generators(3)))
    table = multiplication_table(rows)
    inverses = invert_rows(rows)
    elements = _elements(rows)
    position = {g.key(): i for i, g in enumerate(elements)}
    for i, x in enumerate(elements):
        assert position[unpack_row(inverses[i]).key()] == \
            position[x.inverse().key()]
        for j, y in enumerate(elements):
            assert table[i, j] == position[(x @ y).key()]


def test_table_indexes_rows_in_any_order():
    rows = enumerate_group(list(alice_generators(3)))
    rows = rows[np.random.default_rng(3).permutation(len(rows))]
    table = multiplication_table(rows)
    elements = _elements(rows)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            assert elements[table[i, j]] == x @ y


def test_caps_refuse_large_groups(monkeypatch):
    # 14^2 * 2^13 > 10^6 words: refused before any is built.
    with pytest.raises(RuntimeError, match="enumeration cap"):
        normal_form_enumerate(14)
    assert not groupkit.group_order_exceeds_cap(13)
    assert groupkit.group_order_exceeds_cap(14)
    assert groupkit.group_order_exceeds_cap(10**12)
    # The closure reads the cap when it runs.
    monkeypatch.setattr(groupkit, "ENUMERATION_CAP", 100)
    with pytest.raises(RuntimeError, match="enumeration cap 100 exceeded"):
        enumerate_group(list(alice_generators(4)))


def _bytes_layers(generators):
    """Reference closure: the breadth-first layers of the generated group,
    each a set of row bytes, deduped on one bytes object per row."""
    n = generators[0].n
    gens = pack_rows(generators, n)
    steps = np.concatenate([gens, invert_rows(gens)])
    cols = groupkit.step_columns(steps)
    frontier = pack_rows([MonomialUnitary.identity(n)], n)
    layers = [{frontier.tobytes()}]
    seen = set(layers[0])
    while True:
        products = groupkit.compose_steps(frontier, cols, steps)
        fresh = {row.tobytes() for row in products.reshape(-1, n + 1)}
        fresh -= seen
        if not fresh:
            return layers
        seen |= fresh
        layers.append(fresh)
        frontier = np.frombuffer(b"".join(fresh), dtype=gens.dtype
                                 ).reshape(-1, n + 1)


CLOSURES = (
    [(f"alice-{n}", lambda n=n: list(alice_generators(n)))
     for n in range(2, 9)]
    + [(f"bob-j-{n}", lambda n=n: [*bob_generators(n), scalar_j(n)])
       for n in (3, 5)]
    # Keys of several words: <A1> at n = 40 and <A0, J> at n = 20.
    + [("a1-40", lambda: [alice_generators(40)[1]]),
       ("a0-j-20", lambda: [alice_generators(20)[0], scalar_j(20)])])


@pytest.mark.parametrize("make", [make for _, make in CLOSURES],
                         ids=[name for name, _ in CLOSURES])
def test_closure_matches_bytes_reference_layer_by_layer(make):
    generators = make()
    rows = enumerate_group(generators)
    n = generators[0].n
    # The same elements in the same layers, each layer in row order.
    expected = [_sorted(np.frombuffer(b"".join(layer), dtype=rows.dtype
                                      ).reshape(-1, n + 1))
                for layer in _bytes_layers(generators)]
    assert np.array_equal(rows, np.concatenate(expected))


@pytest.mark.parametrize("generators, words", [
    (lambda: alice_generators(2), 1),
    (lambda: alice_generators(12), 1),
    (lambda: alice_generators(13), 2),
    (lambda: [alice_generators(20)[0], scalar_j(20)], 2),
    (lambda: [alice_generators(40)[1]], 5),
], ids=["alice-2", "alice-12", "alice-13", "a0-j-20", "a1-40"])
def test_key_words(generators, words):
    # Alice's phases are even: radix 2n per phase, one word up to n = 12.
    generators = list(generators())
    rows = pack_rows(generators, generators[0].n)
    keys = groupkit._keys(rows, groupkit._phase_step(rows))
    assert keys.shape == (words, len(rows))
    assert keys.dtype == np.uint64


def test_closure_order_does_not_depend_on_the_hash_seed():
    from test_cli import subprocess_env
    code = ("import hashlib\n"
            "from znlcs.groupkit import alice_generators, enumerate_group\n"
            "rows = enumerate_group(list(alice_generators(5)))\n"
            "print(hashlib.sha256(rows.tobytes()).hexdigest())\n")
    digests = set()
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(subprocess_env(), PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    rows = enumerate_group(list(alice_generators(5)))
    assert digests == {hashlib.sha256(rows.tobytes()).hexdigest()}


@pytest.mark.parametrize("generators", [
    lambda: list(alice_generators(3)), lambda: [alice_generators(40)[1]]],
    ids=["alice-3", "a1-40"])
@pytest.mark.parametrize("drop", [0, 7, -1])
def test_table_raises_for_a_product_outside_the_rows(generators, drop):
    # Rows in key order less the first, a middle or the last one: the
    # missing product's insertion point holds another key, or is past the
    # end.
    rows = np.delete(_sorted(enumerate_group(generators())), drop, axis=0)
    with pytest.raises(KeyError):
        multiplication_table(rows)


def test_table_with_keys_of_several_words():
    rows = enumerate_group([alice_generators(40)[1]])
    table = multiplication_table(rows)
    elements = _elements(rows)
    for i, x in enumerate(elements):
        assert [elements[k] for k in table[i]] == [x @ y for y in elements]


@st.composite
def reduced_rows(draw):
    """(n, step, rows): rows of dimension n whose phases are multiples of
    step, a divisor of 4n. Each row repeats a leading run of columns of one
    base row, so rows often agree on their first key word and differ
    later, or are equal."""
    n = draw(st.integers(1, 40))
    step = draw(st.sampled_from([d for d in range(1, 4 * n + 1)
                                 if 4 * n % d == 0]))

    def row():
        return [draw(st.integers(0, n - 1))] + [
            step * draw(st.integers(0, 4 * n // step - 1))
            for _ in range(n)]

    base = row()
    rows = [base[:draw(st.integers(0, n + 1))] for _ in range(
        draw(st.integers(1, 8)))]
    rows = [r + row()[len(r):] for r in rows]
    return n, step, np.array(rows, dtype=groupkit._row_dtype(n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=reduced_rows())
def test_keys_are_equal_exactly_when_rows_are(case):
    n, step, rows = case
    keys = groupkit._keys(rows, step)
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert np.array_equal(keys[:, i], keys[:, j]) == \
                np.array_equal(rows[i], rows[j])
    # Distinct keys come out in the rows' lexicographic order.
    index = groupkit._distinct(keys)
    distinct = keys[:, index]
    assert [tuple(r) for r in rows[index].tolist()] == \
        sorted(set(map(tuple, rows.tolist())))
    at, found = groupkit._find(distinct, keys)
    assert found.all()
    assert np.array_equal(rows[index[at]], rows)
    if distinct.shape[1] > 1:
        # With the least key left out of the table, exactly the keys equal
        # to it are not found.
        at, found = groupkit._find(distinct[:, 1:], keys)
        assert np.array_equal(found, (keys != distinct[:, :1]).any(0))
        assert np.array_equal(rows[index[1:][at[found]]], rows[found])


def test_first_word_ties_sort_and_search_as_whole_keys():
    # Rows equal but for their last phase share every word of their keys
    # but the last, so the first word alone cannot order or find them.
    n = 40
    rows = np.zeros((5, n + 1), dtype=groupkit._row_dtype(n))
    rows[:, -1] = [8, 2, 6, 0, 4]
    keys = groupkit._keys(rows, 2)
    assert len(keys) > 1 and len(set(keys[0].tolist())) == 1
    index = groupkit._distinct(keys)
    distinct = keys[:, index]
    assert rows[index, -1].tolist() == [0, 2, 4, 6, 8]
    at, found = groupkit._find(distinct, keys)
    assert found.all()
    assert np.array_equal(rows[index[at]], rows)
    assert not groupkit._find(distinct[:, 1:], keys[:, index[:1]])[1][0]
