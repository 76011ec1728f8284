import hashlib
import re
from typing import Dict, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_strategykit import random_strategy

from znlcs import ncpoly, numerics, strategykit
from znlcs.gamekit import ModNGameParams
from znlcs.ncpoly import canonical_word, word_adjoint
from znlcs.npakit import (MomentProblem, SDPAProblem, build_moment_problem,
                          export_sdpa, generate_words, letters, parse_sdpa,
                          sdpa_from_moment_problem)
from znlcs.numerics import rng
from znlcs.strategykit import canonical_strategy


# ---------------------------------------------------------------------------
# Reference: an explicit strategy's moments and their feasibility, and the
# rewrite steps in random order, which no command runs
# ---------------------------------------------------------------------------

# Largest Frobenius distance of a strategy's moment matrix from its adjoint.
MOMENT_HERMITIAN_TOL = 1e-8


def randomized_reduce(letters_seq: Sequence[ncpoly.Letter], n: int,
                      gen: numerics.Stream) -> ncpoly.Word:
    """Reduce a word by applying single rewrite steps (merge an adjacent
    equal pair, drop a zero exponent, or commute a B letter past an A
    letter) in random order until none applies."""
    word = [(p, i, e % n) for p, i, e in letters_seq]
    while True:
        moves = []
        for k, (p, i, e) in enumerate(word):
            if e % n == 0:
                moves.append(("drop", k))
        for k in range(len(word) - 1):
            p1, i1, _ = word[k]
            p2, i2, _ = word[k + 1]
            if p1 == p2 and i1 == i2:
                moves.append(("merge", k))
            elif p1 == "B" and p2 == "A":
                moves.append(("swap", k))
        if not moves:
            return tuple(word)
        kind, k = moves[gen.integers(len(moves))]
        if kind == "drop":
            word.pop(k)
        elif kind == "merge":
            p, i, e1 = word[k]
            _, _, e2 = word[k + 1]
            word[k:k + 2] = [(p, i, (e1 + e2) % n)]
        else:
            word[k], word[k + 1] = word[k + 1], word[k]


def strategy_moments(mp: MomentProblem,
                     s: strategykit.Strategy) -> Dict[int, complex]:
    """Moment value per variable for an explicit strategy:
    y(w) = <psi| w(A, B) |psi> evaluated at the class representative."""
    assignment = s.assignment()
    out: Dict[int, complex] = {}
    for cid, key in enumerate(mp.class_keys):
        word = ncpoly.NCPolynomial(mp.n, {key: 1.0}, _canonical=True)
        M = ncpoly.eval_nc(word, assignment, s.dimA, s.dimB)
        out[cid] = complex(np.vdot(s.state, M @ s.state))
    return out


def moment_matrix(mp: MomentProblem,
                  moments: Dict[int, complex]) -> np.ndarray:
    """Assemble M[u, v] from a moment-variable valuation."""
    y = np.array([moments[cid] for cid in range(len(mp.class_keys))],
                 dtype=np.complex128)
    M = y[np.array(mp.cell_class)]
    conj = np.array(mp.cell_conj)
    M[conj] = M[conj].conj()
    return M


def objective_value(mp: MomentProblem,
                    moments: Dict[int, complex]) -> float:
    total = sum(coeff * moments[cid]
                for cid, coeff in mp.objective.items())
    return float(total.real)


def strategy_feasibility(mp: MomentProblem,
                         s: strategykit.Strategy) -> Tuple[float, float]:
    """(min eigenvalue of the strategy's moment matrix, objective value);
    a genuine strategy always yields a feasible (PSD) matrix."""
    moments = strategy_moments(mp, s)
    M = moment_matrix(mp, moments)
    herm_defect = float(np.linalg.norm(M - M.conj().T))
    if herm_defect > MOMENT_HERMITIAN_TOL:
        raise RuntimeError(f"moment matrix Hermitian defect {herm_defect}")
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2)
    return float(eigs[0]), objective_value(mp, moments)


# ---------------------------------------------------------------------------
# Words, moment problems and the SDPA export
# ---------------------------------------------------------------------------


def test_word_counts_level1():
    assert len(generate_words(2, 1)) == 5
    assert len(generate_words(3, 1)) == 9


def test_word_counts_level2():
    assert len(generate_words(2, 2)) == 13
    assert len(generate_words(3, 2)) == 41


def test_word_count_is_the_generated_count():
    # The empty word, the 4(n - 1) letters and, at level 2, 8(n - 1)^2
    # reduced two-letter words.
    for n in range(2, 9):
        for level in (1, 2):
            assert len(generate_words(n, level)) == \
                1 + 4 * (n - 1) + (8 * (n - 1) ** 2 if level == 2 else 0)
    # npa export's --n bounds, 8 at level 2 and 106 at level 1, are the
    # largest n whose moment matrix indexes at most 421 words.
    assert len(generate_words(8, 2)) == len(generate_words(106, 1)) == 421
    assert len(generate_words(9, 2)) > 421
    assert len(generate_words(107, 1)) > 421


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
        again = parse_sdpa(path.read_text())
        assert again == prob
        assert again.block_sizes[0] == 2 * mp.size
        assert again.block_sizes[1] == -2


_SDPA_VALUE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sdpa_problems(draw):
    """Arbitrary sparse SDPA data: at least one variable and one block."""
    nvars = draw(st.integers(1, 6))
    block_sizes = draw(st.lists(st.integers(-4, 4).filter(bool),
                                min_size=1, max_size=3))
    objective = draw(st.lists(_SDPA_VALUE, min_size=nvars, max_size=nvars))
    keys = st.tuples(st.integers(0, nvars),
                     st.integers(1, len(block_sizes)),
                     st.integers(1, 4), st.integers(1, 4))
    entries = draw(st.dictionaries(keys, _SDPA_VALUE, max_size=12))
    return SDPAProblem(nvars, block_sizes, objective, entries)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(prob=sdpa_problems())
def test_sdpa_render_parse_render_is_identical(tmp_path_factory, prob):
    path = tmp_path_factory.mktemp("sdpa") / "p.dat-s"
    text = prob.render()
    path.write_text(text)
    again = parse_sdpa(path.read_text())
    assert (again.nvars, again.block_sizes) == (prob.nvars, prob.block_sizes)
    assert again.render() == text


@pytest.mark.parametrize("kept,missing", [
    (0, "variable count"), (1, "block count"), (2, "block sizes"),
    (3, "objective")])
def test_parse_sdpa_refuses_truncated_text(kept, missing):
    # "" and texts cut inside the header: the comments and the first
    # ``kept`` header lines of a real export, nothing after them.
    text = SDPAProblem(2, [2, -2], [1.0, -1.0], {(0, 1, 1, 1): 1.0}).render()
    lines = text.splitlines(keepends=True)
    comments = [ln for ln in lines if ln.startswith("*")]
    header = lines[len(comments):len(comments) + kept]
    for cut in ("".join(header), "".join(comments + header)):
        with pytest.raises(ValueError, match=f"before its {missing} line"):
            parse_sdpa(cut)


def _sdpa_lines():
    """A real export's rendered lines, and the index of its first entry."""
    mp = build_moment_problem(ModNGameParams(2, 0, 1), 1)
    lines = sdpa_from_moment_problem(mp).render().splitlines(keepends=True)
    comments = sum(ln.startswith("*") for ln in lines)
    return lines, comments + 4


@pytest.mark.parametrize("entry", ["1 1 1 2", "1 1 1 2 1 0", "1"])
def test_parse_sdpa_refuses_an_entry_without_five_fields(entry):
    lines, first = _sdpa_lines()
    lines.insert(first + 1, entry + "\n")
    with pytest.raises(ValueError,
                       match=f"line {first + 2}: entry has .* fields"):
        parse_sdpa("".join(lines))


@pytest.mark.parametrize("value", ["5", None])
def test_parse_sdpa_refuses_an_entry_stated_twice(value):
    # Again with a second value, and again word for word.
    lines, first = _sdpa_lines()
    mat, block, row, col, old = lines[first].split()
    twice = f"{mat} {block} {row} {col} {old if value is None else value}\n"
    lines.insert(first, twice)
    key = re.escape(f"({mat}, {block}, {row}, {col})")
    with pytest.raises(ValueError,
                       match=f"line {first + 2}: entry {key} stated twice"):
        parse_sdpa("".join(lines))


@pytest.mark.parametrize("objective", ["-1", "-1 0 0 0 0 0 0"])
def test_parse_sdpa_refuses_an_objective_not_of_nvars(objective):
    lines, first = _sdpa_lines()
    nvars = int(lines[first - 4])
    assert len(lines[first - 1].split()) == nvars != 1
    lines[first - 1] = objective + "\n"
    with pytest.raises(ValueError,
                       match=f"line {first}: objective has "
                             f"{len(objective.split())} coefficients for "
                             f"{nvars} variables"):
        parse_sdpa("".join(lines))


@pytest.mark.parametrize("nvars", [0, -1])
def test_sdpa_render_refuses_fewer_than_one_variable(nvars):
    # Its objective line would be blank, and parse_sdpa skips blank lines.
    prob = SDPAProblem(nvars, [1], [], {(0, 1, 1, 1): 1.0})
    with pytest.raises(ValueError, match=f"nvars must be >= 1, got {nvars}"):
        prob.render()


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


# SHA-256 of the whole export file of `npa export --n N --level L`, keyed
# (N, L). The constraint lines are those of the exporter that embedded one
# dense coefficient matrix per variable; the objective line holds minus the
# bias, and the header says so. The pins at n = 2, 4 and 5 hold the class
# numbering at sizes the n = 3 pins do not reach. The level-1 pins cover
# the benchmark's other exports whole: its digest skips the objective line,
# where a last-bit change in a bias coefficient would show.
SDPA_SHA256 = {
    (3, 1): "a7ad2844da7656240c9fb8d5841678fd177615be346807a78d9dd0ca99972af8",
    (3, 2): "26b7af227951cede7b785289d886a2b737fffac754fb97ac227d7a09e8371fee",
    (2, 2): "19bb2bde70540f8736b910ffc05937bef46e0eab11245c7bd1541a2f1a437679",
    (4, 2): "0650e58e00bc75e50a01aab7417e34e51f39c5f0bfa061d1cc897e354ff3cffc",
    (5, 2): "51153773e0d90cddbba1214ea5dada18e22a10a0ea80d1b2f53bddc9fad6f64a",
    (2, 1): "3bf1cac26fdb5de31100292ca761b5bca52a8f058c97121fd7e7f93bd4143dc4",
    (4, 1): "6454d9e2aa776d840738ffa8a77ad9db811de9aec95016e748670ded516b2d8f",
    (5, 1): "e512e8d9a8638c0cfcf1fd725f36d3aeac055497c4d5e4e9ee85f819e74a64ea",
    (8, 1): "6a1fe04e5211468700dedf1726905daa70f8c1585c82f481d13bdd78f316b957",
    # The widest table of run reductions: n = 8 is --level 2's bound.
    (8, 2): "e4aad31341615885735039117687bbefa77e5415fb308434f4a7d9702c75bdec",
}


@pytest.mark.parametrize("n,level", sorted(SDPA_SHA256))
def test_sdpa_export_bytes_pinned(tmp_path, n, level):
    mp = build_moment_problem(ModNGameParams(n, 0, 1), level)
    path = tmp_path / f"g{n}.dat-s"
    export_sdpa(mp, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SDPA_SHA256[n, level]


@pytest.mark.parametrize("n,level,bias", [(2, 1, 2 * np.sqrt(2)),
                                           (3, 2, 6.0)])
def test_sdpa_objective_is_minus_the_bias(tmp_path, n, level, bias):
    # SDPA minimizes c.x, so at the canonical strategy's moments the parsed
    # objective must read minus its bias, and no zero is written as "-0".
    mp = build_moment_problem(ModNGameParams(n, 0, 1), level)
    path = tmp_path / "g.dat-s"
    export_sdpa(mp, str(path))
    prob = parse_sdpa(path.read_text())
    moments = strategy_moments(mp, canonical_strategy(n))
    x = []
    for cid, key in enumerate(mp.class_keys):
        x.append(moments[cid].real)
        if word_adjoint(key, n) != key:
            x.append(moments[cid].imag)
    assert len(x) == prob.nvars
    assert np.dot(prob.objective, x) == pytest.approx(-bias, abs=1e-9)
    objective_line = [ln for ln in path.read_text().splitlines()
                      if not ln.startswith("*")][3]
    assert "-0" not in objective_line.split()


@pytest.mark.parametrize("n,level", [(2, 2), (3, 1), (4, 2), (3, 2),
                                     (5, 2), (8, 1)])
def test_cell_table_matches_word_reduction(n, level):
    # Every cell, above and below the diagonal, against its own reduction:
    # its class key is the lesser of the word and its adjoint, and the cell
    # is conjugated exactly when that key is not its word.
    mp = build_moment_problem(ModNGameParams(n, 0, 1), level)
    for r, u in enumerate(mp.words):
        for c, v in enumerate(mp.words):
            w = canonical_word(word_adjoint(u, n) + v, n)
            key = min(w, word_adjoint(w, n))
            assert mp.class_keys[mp.cell_class[r][c]] == key
            assert mp.cell_conj[r][c] == (key != w)


def test_render_keeps_the_sign_of_zero():
    # 0.0 and -0.0 are equal, so one cached text must not serve both.
    prob = SDPAProblem(nvars=1, block_sizes=[2], objective=[1.0],
                       entries={(1, 1, 1, 1): -0.0, (1, 1, 1, 2): 0.0,
                                (1, 1, 2, 2): -0.0, (0, 1, 1, 1): 0.5})
    assert prob.render().splitlines()[-4:] == [
        "0 1 1 1 0.5", "1 1 1 1 -0", "1 1 1 2 0", "1 1 2 2 -0"]


def test_reprs_name_sizes_not_contents():
    # At n = 6, level 2 the contents would print 1.09 MB.
    mp = build_moment_problem(ModNGameParams(6, 0, 1), 2)
    prob = sdpa_from_moment_problem(mp)
    assert repr(mp) == (
        "MomentProblem(n=6, level=2, words=<221>, class_keys=<5895>, "
        "objective=<12>, cell_class=<221>, cell_conj=<221>)")
    assert repr(prob) == (
        "SDPAProblem(nvars=11721, block_sizes=[442, -2], "
        "objective=<11721>, entries=<96878>)")
    assert len(repr(mp)) < 200 and len(repr(prob)) < 200
