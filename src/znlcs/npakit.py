"""Moment-matrix relaxations (levels 1 and 2) for the mod-n games.

Builds the word list and moment-variable identification of the standard
semidefinite hierarchy and exports the problem in sparse SDPA text form.
The module certifies structure and the feasibility of explicit strategies;
solving the SDP is left to external tools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .biaskit import bias_polynomial
from .gamekit import ModNGameParams
from .ncpoly import (Letter, NCPolynomial, Word, canonical_word, eval_nc,
                     word_adjoint)
from .strategykit import Strategy

# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def letters(n: int) -> List[Letter]:
    """All single letters: party, operator index, exponent 1..n-1."""
    return [(p, i, e)
            for p in ("A", "B") for i in (0, 1) for e in range(1, n)]


def generate_words(n: int, level: int) -> List[Word]:
    """All reduced words of length up to ``level`` (the empty word
    included), deduplicated under the reduction rules."""
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    seen = {(): ()}
    frontier = [()]
    for _ in range(level):
        nxt = []
        for w in frontier:
            for let in letters(n):
                r = canonical_word(list(w) + [let], n)
                if r not in seen:
                    seen[r] = r
                    nxt.append(r)
        frontier = nxt
    return sorted(seen, key=lambda w: (len(w), w))


def randomized_reduce(letters_seq: Sequence[Letter], n: int,
                      gen: np.random.Generator) -> Word:
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
        kind, k = moves[int(gen.integers(len(moves)))]
        if kind == "drop":
            word.pop(k)
        elif kind == "merge":
            p, i, e1 = word[k]
            _, _, e2 = word[k + 1]
            word[k:k + 2] = [(p, i, (e1 + e2) % n)]
        else:
            word[k], word[k + 1] = word[k + 1], word[k]


# ---------------------------------------------------------------------------
# Moment problems
# ---------------------------------------------------------------------------

@dataclass
class MomentProblem:
    """Moment-matrix data: indexed words, one variable per conjugate pair of
    reduced words, and the bias objective over those variables.

    ``cell_class[r, c]`` is the class id of the moment-matrix cell
    reduce(words[r]^* words[c]) and ``cell_conj[r, c]`` marks a cell holding
    the conjugate of its class variable."""

    n: int
    level: int
    words: List[Word]
    class_keys: List[Word]
    moment_index: Dict[Word, Tuple[int, bool]] = field(repr=False)
    objective: Dict[int, complex] = field(repr=False)
    cell_class: np.ndarray = field(repr=False)
    cell_conj: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.words)


def _moment_class(w: Word, n: int) -> Tuple[Word, bool]:
    """Canonical representative of {w, w^*} plus a flag marking whether w is
    the conjugated member."""
    wa = word_adjoint(w, n)
    key = min(w, wa)
    return key, (key != w)


def build_moment_problem(p: ModNGameParams, level: int) -> MomentProblem:
    """Index the moment matrix M[u, v] = y(reduce(u^* v)) and map the bias
    polynomial onto moment variables."""
    n = p.n
    words = generate_words(n, level)
    index: Dict[Word, Tuple[int, bool]] = {}
    class_keys: List[Word] = []
    key_to_id: Dict[Word, int] = {}

    def register(w: Word) -> Tuple[int, bool]:
        if w in index:
            return index[w]
        key, conj = _moment_class(w, n)
        if key not in key_to_id:
            key_to_id[key] = len(class_keys)
            class_keys.append(key)
        for member, flag in ((key, False), (word_adjoint(key, n), True)):
            if member not in index:
                index[member] = (key_to_id[key], flag and member != key)
        return index[w]

    cell_class = np.empty((len(words), len(words)), dtype=np.int64)
    cell_conj = np.empty((len(words), len(words)), dtype=bool)
    for r, u in enumerate(words):
        ua = word_adjoint(u, n)
        for c, v in enumerate(words):
            cell_class[r, c], cell_conj[r, c] = register(
                canonical_word(ua + v, n))

    objective: Dict[int, complex] = {}
    for w, coeff in bias_polynomial(p).terms.items():
        if w not in index:
            raise RuntimeError(f"bias word {w} missing from moment index")
        cid, conj = index[w]
        c = np.conj(coeff) if conj else coeff
        objective[cid] = objective.get(cid, 0.0) + c
    return MomentProblem(n=n, level=level, words=words,
                         class_keys=class_keys, moment_index=index,
                         objective=objective, cell_class=cell_class,
                         cell_conj=cell_conj)


def strategy_moments(mp: MomentProblem, s: Strategy) -> Dict[int, complex]:
    """Moment value per variable for an explicit strategy:
    y(w) = <psi| w(A, B) |psi> evaluated at the class representative."""
    assignment = s.assignment()
    out: Dict[int, complex] = {}
    for cid, key in enumerate(mp.class_keys):
        M = eval_nc(NCPolynomial(mp.n, {key: 1.0}, _canonical=True),
                    assignment, s.dimA, s.dimB)
        out[cid] = complex(np.vdot(s.state, M @ s.state))
    return out


def moment_matrix(mp: MomentProblem,
                  moments: Dict[int, complex]) -> np.ndarray:
    """Assemble M[u, v] from a moment-variable valuation."""
    y = np.array([moments[cid] for cid in range(len(mp.class_keys))],
                 dtype=np.complex128)
    M = y[mp.cell_class]
    M[mp.cell_conj] = M[mp.cell_conj].conj()
    return M


def objective_value(mp: MomentProblem,
                    moments: Dict[int, complex]) -> float:
    total = sum(coeff * moments[cid]
                for cid, coeff in mp.objective.items())
    return float(np.real(total))


def strategy_feasibility(mp: MomentProblem, s: Strategy,
                         tol: float = 1e-8) -> Tuple[float, float]:
    """(min eigenvalue of the strategy's moment matrix, objective value);
    a genuine strategy always yields a feasible (PSD) matrix."""
    moments = strategy_moments(mp, s)
    M = moment_matrix(mp, moments)
    herm_defect = float(np.linalg.norm(M - M.conj().T))
    if herm_defect > tol:
        raise RuntimeError(f"moment matrix Hermitian defect {herm_defect}")
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2)
    return float(eigs[0]), objective_value(mp, moments)


# ---------------------------------------------------------------------------
# SDPA export
# ---------------------------------------------------------------------------

@dataclass
class SDPAProblem:
    """Parsed sparse SDPA data: variable count, block sizes, objective, and
    entries keyed (matrix index, block, row, col) -> value."""

    nvars: int
    block_sizes: List[int]
    objective: List[float]
    entries: Dict[Tuple[int, int, int, int], float]

    def render(self) -> str:
        lines = [
            "* moment relaxation export",
            "* complex Hermitian moment matrix embedded as the real block",
            "* [[Re, -Im], [Im, Re]] (doubling the block size); the final",
            "* diagonal block pins the empty-word moment to 1.",
            f"{self.nvars}",
            f"{len(self.block_sizes)}",
            " ".join(str(b) for b in self.block_sizes),
            " ".join(f"{c:.12g}" for c in self.objective),
        ]
        for (mat, block, row, col), value in sorted(self.entries.items()):
            lines.append(f"{mat} {block} {row} {col} {value:.12g}")
        return "\n".join(lines) + "\n"


def sdpa_from_moment_problem(mp: MomentProblem) -> SDPAProblem:
    """Real SDPA form of the relaxation.

    Variables are the real and imaginary parts of each moment class (the
    imaginary part is omitted when the class is self-adjoint). The moment
    block is the doubled real embedding; a 2-element diagonal block encodes
    the normalization x_e = 1. Objective coefficients reproduce the bias.
    """
    n = mp.n
    N = mp.size
    var_ids: List[Tuple[int, str]] = []
    for cid, key in enumerate(mp.class_keys):
        var_ids.append((cid, "re"))
        if word_adjoint(key, n) != key:
            var_ids.append((cid, "im"))
    var_pos = {vk: k + 1 for k, vk in enumerate(var_ids)}
    nvars = len(var_ids)

    # Cell (r, c) holds y = x_re + i x_im, or its conjugate, so in the real
    # embedding [[Re, -Im], [Im, Re]] it puts x_re at (r, c) and
    # (N + r, N + c), and -Im = -x_im (+x_im if conjugate) at (r, N + c);
    # upper triangle, 1-indexed.
    entries: Dict[Tuple[int, int, int, int], float] = {}
    for r, (classes, conjs) in enumerate(zip(mp.cell_class.tolist(),
                                             mp.cell_conj.tolist())):
        for c, (cid, conj) in enumerate(zip(classes, conjs)):
            if r <= c:
                re = var_pos[(cid, "re")]
                entries[(re, 1, r + 1, c + 1)] = 1.0
                entries[(re, 1, N + r + 1, N + c + 1)] = 1.0
            im = var_pos.get((cid, "im"))
            if im is not None:
                entries[(im, 1, r + 1, N + c + 1)] = 1.0 if conj else -1.0

    # Normalization block: x_e - 1 >= 0 and 1 - x_e >= 0.
    empty_id = mp.moment_index[()][0]
    e_var = var_pos[(empty_id, "re")]
    entries[(e_var, 2, 1, 1)] = 1.0
    entries[(e_var, 2, 2, 2)] = -1.0
    entries[(0, 2, 1, 1)] = 1.0
    entries[(0, 2, 2, 2)] = -1.0

    objective = [0.0] * nvars
    for cid, c in mp.objective.items():
        objective[var_pos[(cid, "re")] - 1] += float(np.real(c))
        if (cid, "im") in var_pos:
            objective[var_pos[(cid, "im")] - 1] += -float(np.imag(c))
    return SDPAProblem(nvars=nvars, block_sizes=[2 * N, -2],
                       objective=objective, entries=entries)


def export_sdpa(mp: MomentProblem, destination: str) -> SDPAProblem:
    prob = sdpa_from_moment_problem(mp)
    with open(destination, "w") as fh:
        fh.write(prob.render())
    return prob


def parse_sdpa(path: str) -> SDPAProblem:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = [ln for ln in lines if ln and not ln.startswith("*")]
    nvars = int(body[0])
    nblocks = int(body[1])
    block_sizes = [int(t) for t in body[2].split()]
    if len(block_sizes) != nblocks:
        raise ValueError("block size count mismatch")
    objective = [float(t) for t in body[3].split()]
    entries: Dict[Tuple[int, int, int, int], float] = {}
    for ln in body[4:]:
        mat, block, row, col, value = ln.split()
        entries[(int(mat), int(block), int(row), int(col))] = float(value)
    return SDPAProblem(nvars=nvars, block_sizes=block_sizes,
                       objective=objective, entries=entries)
