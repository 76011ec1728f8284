import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znlcs import groupkit
from znlcs.groupkit import (GroupCatalogue, MonomialUnitary,
                            alice_generators, alice_images,
                            bob_generators, commutation_check,
                            compose_rows, enumerate_group, evaluate_word,
                            evaluate_word_matrix, g3_irreps,
                            groups_equal_as_sets, invert_rows,
                            normal_form_enumerate, normal_form_words,
                            pack_rows, presentation_relators,
                            ring_relation_defect, scalar_j, shift_x,
                            unpack_row, verify_presentation)


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
        assert a0.order() == n
        assert a1.order() == n
        assert scalar_j(n).order() == n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_order_formula(n):
    cat = enumerate_group(list(alice_generators(n)))
    assert len(cat) == n * n * 2 ** (n - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_forms_enumerate_whole_group(n):
    pairs = normal_form_enumerate(n)
    assert len(pairs) == n * n * 2 ** (n - 1)
    cat = enumerate_group(list(alice_generators(n)))
    assert {u.key() for _, u in pairs} == {u.key() for u in cat.elements}


def test_alt_normal_form_same_set_for_n3():
    std = {evaluate_word(w, alice_images(3), 3).key()
           for w in normal_form_words(3, "standard")}
    alt = {evaluate_word(w, alice_images(3), 3).key()
           for w in normal_form_words(3, "alt")}
    assert std == alt
    assert len(std) == 36


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("side", ["A", "B"])
def test_presentation_relators_hold(n, side):
    assert verify_presentation(n, side) == []


def test_presentation_relator_detects_corruption():
    # Negative control: a wrong phase on A1 must break some relator.
    images = alice_images(3)
    a1 = images["P1"]
    bad = type(a1)(n=3, shift=a1.shift,
                   phases=tuple((p + 1) % 12 for p in a1.phases))
    images["P1"] = bad
    failing = [rel for rel in presentation_relators(3, "A")
               if evaluate_word(rel, images, 3).key()
               != evaluate_word((), images, 3).key()]
    assert failing


def test_bob_group_equals_alice_group():
    for n in (2, 3, 4):
        assert groups_equal_as_sets(n)
        assert commutation_check(n)


def test_catalogue_table_and_orders():
    cat = enumerate_group(list(alice_generators(3)))
    table = cat.multiplication_table()
    size = len(cat)
    assert table.shape == (size, size)
    # Each row and column of a group's Cayley table is a permutation.
    for i in range(size):
        assert sorted(table[i]) == list(range(size))
        assert sorted(table[:, i]) == list(range(size))
    orders = cat.element_orders()
    assert max(orders) <= 12  # exponent of the 36-element group
    assert cat.center_size() >= 1


def test_catalogue_csv(tmp_path):
    cat = enumerate_group(list(alice_generators(2)))
    path = tmp_path / "table.csv"
    cat.write_multiplication_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert len(rows) == len(cat)  # one row per element
    assert all(len(r.split(",")) == len(cat) for r in rows)


def test_g3_irreps_complete():
    irreps = g3_irreps()
    assert len(irreps) == 12
    assert sum(r.degree ** 2 for r in irreps) == 36
    for r in irreps:
        assert r.relator_defect(3) < 1e-12


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
    products = compose_rows(rows_x, rows_y)
    inverses = invert_rows(rows_x)
    assert products.dtype == inverses.dtype == rows_x.dtype
    for k, (x, y) in enumerate(zip(xs, ys)):
        assert unpack_row(products[k]) == x @ y
        assert unpack_row(inverses[k]) == x.inverse()
        assert np.allclose(unpack_row(products[k]).to_matrix(),
                           x.to_matrix() @ y.to_matrix())
        assert np.allclose(unpack_row(inverses[k]).to_matrix(),
                           x.to_matrix().conj().T)
    # All pairs at once by broadcasting, as the catalogue builds tables.
    table = compose_rows(rows_x[:, None, :], rows_y[None, :, :])
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
    cat = enumerate_group(gens)
    assert [g.key() for g in cat.elements] == _scalar_closure(gens)
    assert cat.index == {g.key(): i for i, g in enumerate(cat.elements)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closure_equals_normal_form_set(n):
    cat = enumerate_group(list(alice_generators(n)))
    pairs = normal_form_enumerate(n)
    assert len(cat) == len(pairs) == n * n * 2 ** (n - 1)
    assert np.array_equal(cat.rows, GroupCatalogue(pairs.rows).rows)


def test_normal_forms_index_words_in_order():
    pairs = normal_form_enumerate(3, "alt")
    words = normal_form_words(3, "alt")
    images = alice_images(3)
    assert [w for w, _ in pairs] == words
    assert [g for _, g in pairs] == [evaluate_word(w, images, 3)
                                     for w in words]
    assert pairs[-1] == pairs[len(pairs) - 1]
    with pytest.raises(IndexError):
        pairs[len(pairs)]


def test_normal_form_collision_raises(monkeypatch):
    images = alice_images(4)
    images["P1"] = images["P0"]  # every optional factor becomes I
    monkeypatch.setattr(groupkit, "alice_images", lambda n: images)
    with pytest.raises(RuntimeError, match="normal-form collision"):
        normal_form_enumerate(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_center_is_generated_by_j(n):
    # The center of the canonical group is <J> = {omega^i I}: order n.
    cat = enumerate_group(list(alice_generators(n)))
    assert cat.center_size() == n


def test_catalogue_products_match_scalar_products():
    cat = enumerate_group(list(alice_generators(3)))
    table = cat.multiplication_table()
    for i, x in enumerate(cat.elements):
        assert cat.inverse(i) == cat.index[x.inverse().key()]
        for j, y in enumerate(cat.elements):
            assert table[i, j] == cat.product(i, j) \
                == cat.index[(x @ y).key()]


def test_caps_refuse_large_groups():
    # 14^2 * 2^13 > 10^6 words: refused before any is built.
    with pytest.raises(RuntimeError, match="enumeration cap"):
        normal_form_enumerate(14)
    with pytest.raises(RuntimeError, match="enumeration cap 100 exceeded"):
        enumerate_group(list(alice_generators(4)), cap=100)
    assert not groupkit.group_order_exceeds_cap(13)
    assert groupkit.group_order_exceeds_cap(14)
    assert groupkit.group_order_exceeds_cap(10**12)
