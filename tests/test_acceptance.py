"""Acceptance gate: one test per headline claim, one printed verdict each.

Every test prints "[acceptance NN] <name>: PASS|FAIL" so the suite's output
doubles as a checklist. Tolerances are stated inline next to each assertion.
The oracles that no command runs (random strategies, the bias value of a
general strategy, the n = 3 irreps, moment feasibility, randomized word
reduction) are references in the unit-test module of the code they check.
"""

import functools
import math

import numpy as np
import pytest
from test_biaskit import bias_value
from test_groupkit import g3_irreps, ring_relation_defect
from test_npakit import randomized_reduce, strategy_feasibility
from test_strategykit import random_strategy

from znlcs.biaskit import (bias_eigenvalue_formula, bias_operator,
                           bias_polynomial, bias_spectrum,
                           eigenrelation_residual)
from znlcs.gamekit import ModNGameParams, classical_value, make_mod_n_game
from znlcs.groupkit import (alice_generators, enumerate_group,
                            normal_form_enumerate, verify_presentation)
from znlcs.ncpoly import canonical_word, eval_nc
from znlcs.npakit import (build_moment_problem, export_sdpa, generate_words,
                          letters, parse_sdpa)
from znlcs.numerics import random_order_n_observables, rng
from znlcs.soskit import (annihilation_residuals, certificate_chsh,
                          certificate_g3, derived_relations_g3,
                          verify_sos_identity)
from znlcs.strategykit import (canonical_state, canonical_strategy,
                               canonical_value_formula,
                               psi_representation_residuals, schmidt,
                               state_residuals, strategy_value_direct)
from znlcs import bcskit


def literal_glued_solution():
    """The glued system with E's second-square variable 9 + k playing the
    square observable at position k, not its mirror: the shared
    constraint's product is diag(I, -I), so this is no solution."""
    lcs, E, _ = bcskit.glued_magic_square()
    A = bcskit.magic_square_observables()
    eye4, zero4 = np.eye(4), np.zeros((4, 4))
    second = [np.block([[A[k], zero4], [zero4, eye4]]) for k in range(9)]
    return lcs, bcskit.OperatorSolution(
        dim=8, observables=E.observables[:9] + tuple(second))


def _verdict(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance {num:02d}] {name}: FAIL")
                raise
            print(f"\n[acceptance {num:02d}] {name}: PASS")
        return run
    return wrap


@_verdict(1, "classical value 3/4 for n = 2..6")
def test_01_classical_values():
    for n in range(2, 7):
        value, _ = classical_value(make_mod_n_game(ModNGameParams(n, 0, 1)))
        assert value == pytest.approx(0.75, abs=1e-12), n


@_verdict(2, "quantum value formula and reference coordinates")
def test_02_quantum_value_formula():
    for n in range(2, 13):
        g = make_mod_n_game(ModNGameParams(n, 0, 1))
        v = strategy_value_direct(g, canonical_strategy(n))
        assert v == pytest.approx(canonical_value_formula(n), abs=1e-10), n
    reference = {2: 0.853553, 3: 0.833333, 4: 0.826641,
                 5: 0.823607, 10: 0.819623, 40: 0.818392}
    for n, target in reference.items():
        g = make_mod_n_game(ModNGameParams(n, 0, 1))
        v = strategy_value_direct(g, canonical_strategy(n))
        assert v == pytest.approx(target, abs=1e-6), n


@_verdict(3, "bias eigenvalue relation and n = 3 spectrum")
def test_03_bias_eigenclaim():
    for n in range(2, 13):
        assert eigenrelation_residual(n) <= 1e-9, n
    p, s = ModNGameParams(3, 0, 1), canonical_strategy(3)
    report = bias_spectrum(p, s)
    assert report.top_eigenvalue == pytest.approx(6.0, abs=1e-9)
    assert report.multiplicity == 1
    top_vector = np.linalg.eigh(bias_operator(p, s))[1][:, -1]
    overlap = abs(np.vdot(top_vector, canonical_state(3)))
    assert overlap >= 1.0 - 1e-8


@_verdict(4, "direct and bias values agree on random strategies")
def test_04_value_formula_equivalence():
    for n in (2, 3, 4, 5):
        p = ModNGameParams(n, 0, 1)
        g = make_mod_n_game(p)
        for k in range(200):
            s = random_strategy(n, n, n, 10_000 * n + k)
            assert abs(bias_value(p, s)
                       - strategy_value_direct(g, s)) <= 1e-9, (n, k)


@_verdict(5, "root-of-unity identities for n = 2..40")
def test_05_root_of_unity_identities():
    for n in range(2, 41):
        z = np.exp(1j * np.pi / (2 * n))
        fwd = sum(z ** (2 * j + n + 1) for j in range(n))
        bwd = sum(z ** (-(2 * j + n + 1)) for j in range(n))
        assert abs(fwd - bwd) <= 1e-10, n
        assert abs(fwd - (-1.0 / math.sin(math.pi / (2 * n)))) <= 1e-10, n
        gamma_sq = 2 * n + 2.0 / math.sin(math.pi / (2 * n))
        total = sum(abs(1 - z ** (n + 2 * i + 1)) ** 2 for i in range(n))
        assert abs(gamma_sq - total) <= 1e-10, n


@_verdict(6, "Schmidt rank n and entropy-ratio coordinates")
def test_06_entropy():
    ratios = {}
    for n in range(2, 41):
        sd = schmidt(canonical_state(n), n, n)
        assert sd.rank == n, n
        ratios[n] = sd.entropy / math.log2(n)
    reference = {2: 1.000000, 3: 0.991159, 4: 0.990294, 40: 0.995008}
    for n, target in reference.items():
        assert ratios[n] == pytest.approx(target, abs=1e-5), n


@_verdict(7, "group order n^2 2^(n-1), normal forms, relators")
def test_07_group_orders():
    for n in range(2, 9):
        expected = n * n * 2 ** (n - 1)
        cat = enumerate_group(list(alice_generators(n)))
        assert len(cat) == expected, n
        forms = normal_form_enumerate(n)
        assert len(forms) == expected, n
        assert len(np.unique(forms, axis=0)) == expected, n
        assert verify_presentation(n) == [], n
    assert len(enumerate_group(list(alice_generators(8)))) == 8192


@_verdict(8, "SOS certificates verify, annihilate, and pincer")
def test_08_sos_certificates():
    chsh = certificate_chsh()
    b2 = bias_polynomial(ModNGameParams(2, 0, 1))
    assert verify_sos_identity(chsh, b2, trials=100, seed=71) <= 1e-9
    g3 = certificate_g3()
    b3 = bias_polynomial(ModNGameParams(3, 0, 1))
    assert verify_sos_identity(g3, b3, trials=100, seed=71) <= 1e-8
    for cert, n in ((chsh, 2), (g3, 3)):
        s = canonical_strategy(n)
        assert max(annihilation_residuals(cert, s)) <= 1e-9
    gen = rng(72)
    for _ in range(50):
        dim = int(gen.choice([3, 6]))
        assign = {key: random_order_n_observables(
            3, dim, [int(gen.integers(2**31))])[0]
            for key in (("A", 0), ("A", 1), ("B", 0), ("B", 1))}
        B = eval_nc(b3, assign, dim, dim)
        B = (B + B.conj().T) / 2
        assert np.linalg.eigvalsh(B).max() <= 6.0 + 1e-7


@_verdict(9, "derived relation suite holds and discriminates")
def test_09_relation_suite():
    s = canonical_strategy(3)
    rels = derived_relations_g3()
    assert len(rels) >= 14
    polys = [poly for _, poly in rels]
    for (name, _), r in zip(rels, state_residuals(s, polys)):
        assert r <= 1e-9, name
    bad = random_strategy(3, 3, 3, 90210)
    assert max(state_residuals(bad, polys)) > 1e-2


@_verdict(10, "twelve irreps, sum of squares 36, ring picks g1")
def test_10_irreps():
    irreps = g3_irreps()
    assert len(irreps) == 12
    assert sum(r.degree ** 2 for r in irreps) == 36
    for r in irreps:
        assert r.relator_defect() <= 1e-12, r.name
        defect = ring_relation_defect(r)
        if r.name == "g1":
            assert defect <= 1e-12
        else:
            assert defect >= 0.1, r.name


@_verdict(11, "psi-representation condition on all element pairs")
def test_11_psi_representation():
    for n in (2, 3):  # 64 and 1296 element pairs respectively
        res_a, res_b = psi_representation_residuals(canonical_strategy(n))
        assert res_a <= 1e-9, n
        assert res_b <= 1e-9, n


@_verdict(12, "glued magic square: two perfect solutions, witness")
def test_12_glued_magic_square():
    lcs, E, F = bcskit.glued_magic_square()
    for sol in (E, F):
        assert bcskit.verify_operator_solution(lcs, sol).clean
        _, value = bcskit.solution_to_strategy(lcs, sol)
        assert value == pytest.approx(1.0, abs=1e-9)
    inner, trace, anticomm = bcskit.nonrigidity_witness()
    assert inner == pytest.approx(0.5, abs=1e-9)
    assert trace == pytest.approx(4.0, abs=1e-9)
    assert anticomm == pytest.approx(0.0, abs=1e-9)
    lcs_lit, E_lit = literal_glued_solution()
    report = bcskit.verify_operator_solution(lcs_lit, E_lit)
    glue_index = next(i for i, (vs, _) in enumerate(lcs_lit.constraints)
                      if len(vs) == 6)
    assert glue_index in {i for i, _ in report.product_defects}
    prod = np.linalg.multi_dot(
        [E_lit.observables[v] for v in lcs_lit.constraints[glue_index][0]])
    assert np.allclose(prod, np.diag([1.0] * 4 + [-1.0] * 4), atol=1e-12)


@_verdict(13, "moment structure, confluence, feasibility, SDPA")
def test_13_npa_structure(tmp_path):
    assert len(generate_words(2, 1)) == 5
    assert len(generate_words(3, 1)) == 9
    gen = rng(131)
    alphabet = letters(3)
    for _ in range(10_000):
        length = int(gen.integers(1, 8))
        raw = [(p, i, int(gen.integers(0, 3)))
               for p, i, _ in (alphabet[int(gen.integers(len(alphabet)))]
                               for _ in range(length))]
        assert randomized_reduce(raw, 3, gen) == canonical_word(raw, 3)
    s = canonical_strategy(3)
    for level in (1, 2):
        mp = build_moment_problem(ModNGameParams(3, 0, 1), level)
        min_eig, objective = strategy_feasibility(mp, s)
        assert min_eig > -1e-8
        assert objective == pytest.approx(6.0, abs=1e-9)
    mp = build_moment_problem(ModNGameParams(3, 0, 1), 1)
    path = tmp_path / "g3.dat-s"
    prob = export_sdpa(mp, str(path))
    assert parse_sdpa(path.read_text()).render() == prob.render()


@_verdict(14, "self-testing consequences (property checks)")
def test_14_self_testing_consequences():
    # The uniqueness theorems quantify over all strategies; at desk scale
    # they are covered by their checkable consequences: the certified bound
    # is never exceeded, only the canonical strategy attains it among
    # sampled ones, and its state relations (criteria 8-11) pin it down.
    p = ModNGameParams(3, 0, 1)
    optimum = canonical_value_formula(3)
    assert bias_value(p, canonical_strategy(3)) == pytest.approx(
        optimum, abs=1e-10)
    for k in range(20):
        s = random_strategy(3, 3, 3, 140_000 + k)
        v = bias_value(p, s)
        assert v <= optimum + 1e-9
        assert v < optimum - 1e-6  # random strategies are not optimal
    assert bias_eigenvalue_formula(3) == pytest.approx(6.0, abs=1e-12)
