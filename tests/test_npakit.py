import hashlib

import numpy as np
import pytest

from znlcs.gamekit import ModNGameParams
from znlcs.ncpoly import canonical_word
from znlcs.npakit import (build_moment_problem, export_sdpa, generate_words,
                          letters, moment_matrix, objective_value,
                          parse_sdpa, randomized_reduce, strategy_feasibility,
                          strategy_moments, word_adjoint)
from znlcs.numerics import rng
from znlcs.strategykit import canonical_strategy, random_strategy


def test_word_counts_level1():
    assert len(generate_words(2, 1)) == 5
    assert len(generate_words(3, 1)) == 9


def test_word_counts_level2():
    assert len(generate_words(2, 2)) == 13
    assert len(generate_words(3, 2)) == 41


def test_words_are_canonical_and_distinct():
    for n, level in ((2, 1), (3, 1), (3, 2)):
        words = generate_words(n, level)
        assert len(set(words)) == len(words)
        for w in words:
            assert canonical_word(w, n) == w


def test_word_adjoint_involution():
    n = 3
    for w in generate_words(n, 2):
        assert word_adjoint(word_adjoint(w, n), n) == w


def test_randomized_reduction_confluence():
    # Any order of rewrite steps must land on the canonical form.
    n = 3
    gen = rng(41)
    alphabet = letters(n)
    for _ in range(2000):
        length = int(gen.integers(1, 8))
        raw = [alphabet[int(gen.integers(len(alphabet)))]
               for _ in range(length)]
        raw = [(p, i, int(gen.integers(0, n))) for p, i, _ in raw]
        assert randomized_reduce(raw, n, gen) == canonical_word(raw, n)


@pytest.mark.parametrize("level", [1, 2])
def test_canonical_strategy_moments_feasible(level):
    mp = build_moment_problem(ModNGameParams(3, 0, 1), level)
    min_eig, objective = strategy_feasibility(mp, canonical_strategy(3))
    assert min_eig > -1e-8
    assert objective == pytest.approx(6.0, abs=1e-9)


def test_random_strategy_moments_feasible_but_suboptimal():
    mp = build_moment_problem(ModNGameParams(3, 0, 1), 1)
    s = random_strategy(3, 3, 3, 2024)
    min_eig, objective = strategy_feasibility(mp, s)
    assert min_eig > -1e-8
    assert objective < 6.0 - 1e-6


def test_moment_matrix_empty_word_normalization():
    mp = build_moment_problem(ModNGameParams(2, 0, 1), 1)
    moments = strategy_moments(mp, canonical_strategy(2))
    M = moment_matrix(mp, moments)
    k = mp.words.index(())
    assert M[k, k] == pytest.approx(1.0, abs=1e-12)
    assert objective_value(mp, moments) == pytest.approx(
        2 * np.sqrt(2), abs=1e-9)


def test_sdpa_round_trip(tmp_path):
    for n, level in ((2, 1), (3, 1), (2, 2)):
        mp = build_moment_problem(ModNGameParams(n, 0, 1), level)
        path = tmp_path / f"g{n}_l{level}.dat-s"
        prob = export_sdpa(mp, str(path))
        again = parse_sdpa(str(path))
        assert again.render() == prob.render()
        assert again.block_sizes[0] == 2 * mp.size
        assert again.block_sizes[1] == -2


def test_sdpa_header_structure(tmp_path):
    mp = build_moment_problem(ModNGameParams(2, 0, 1), 1)
    path = tmp_path / "chsh.dat-s"
    export_sdpa(mp, str(path))
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("*")]
    data = [ln for ln in lines if not ln.startswith("*")]
    assert comments  # format documents itself
    nvars = int(data[0])
    assert nvars >= 1
    assert int(data[1]) == 2  # two blocks
    assert len(data[3].split()) == nvars


# SHA-256 of the whole export file of `npa export --n 3 --level L`, taken
# from the exporter that embedded one dense coefficient matrix per
# variable; the one-pass exporter must reproduce it byte for byte.
SDPA_N3_SHA256 = {
    1: "e05f0dae25561b90f711b9f6e4d30add7648e6c489ed55307cfd0ca10da59686",
    2: "4e938a01513debc05c085e88c2fd5392b9b0601fb55ee4f344a8e76c5466790b",
}


@pytest.mark.parametrize("level", [1, 2])
def test_sdpa_export_bytes_pinned(tmp_path, level):
    mp = build_moment_problem(ModNGameParams(3, 0, 1), level)
    path = tmp_path / "g3.dat-s"
    export_sdpa(mp, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SDPA_N3_SHA256[level]


@pytest.mark.parametrize("n,level", [(2, 2), (3, 1)])
def test_cell_table_matches_word_reduction(n, level):
    mp = build_moment_problem(ModNGameParams(n, 0, 1), level)
    for r, u in enumerate(mp.words):
        for c, v in enumerate(mp.words):
            w = canonical_word(word_adjoint(u, n) + v, n)
            assert (mp.cell_class[r, c], mp.cell_conj[r, c]) == \
                mp.moment_index[w]
