"""Moment-matrix relaxations (levels 1 and 2) for the mod-n games.

Builds the word list and moment-variable identification of the standard
semidefinite hierarchy and exports the problem in sparse SDPA text form.
It rewrites words and writes text, and imports no numpy; solving the SDP,
and checking an explicit strategy's moments against it, is left to
external tools and to the tests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import biaskit, gamekit, ncpoly
from .records import Record

# Most words a moment matrix may index: N = 421 at n = 8, level 2 and at
# n = 106, level 1, whose exports each take about 2.4 s and 229-238 MB
# (2-core Xeon, one run each).
WORDS_CAP = 421

# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def letters(n: int) -> List[ncpoly.Letter]:
    """All single letters: party, operator index, exponent 1..n-1."""
    return [(p, i, e)
            for p in ("A", "B") for i in (0, 1) for e in range(1, n)]


def word_count(n: int, level: int) -> int:
    """len(generate_words(n, level)) in closed form: the empty word, the
    4(n - 1) letters and, at level 2, 8(n - 1)^2 reduced two-letter
    words."""
    return 1 + 4 * (n - 1) + (8 * (n - 1) ** 2 if level == 2 else 0)


def generate_words(n: int, level: int) -> List[ncpoly.Word]:
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
                r = ncpoly.canonical_word(list(w) + [let], n)
                if r not in seen:
                    seen[r] = r
                    nxt.append(r)
        frontier = nxt
    return sorted(seen, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# Moment problems
# ---------------------------------------------------------------------------

class MomentProblem(Record):
    """Moment-matrix data: indexed words, one variable per conjugate pair of
    reduced words, and the bias objective over those variables.

    ``cell_class[r][c]`` is the class id of the moment-matrix cell
    reduce(words[r]^* words[c]) and ``cell_conj[r][c]`` marks a cell holding
    the conjugate of its class variable; both are lists of rows."""

    n: int
    level: int
    words: List[ncpoly.Word]
    class_keys: List[ncpoly.Word]
    objective: Dict[int, complex]
    cell_class: List[List[int]]
    cell_conj: List[List[bool]]

    @property
    def size(self) -> int:
        return len(self.words)

    def __repr__(self) -> str:
        sized = ", ".join(_sized(name, getattr(self, name))
                          for name in self._fields[2:])
        return f"MomentProblem(n={self.n}, level={self.level}, {sized})"


def _sized(name: str, value) -> str:
    """``name=<length>``: a repr that names sizes stays short where the
    contents would run to megabytes."""
    return f"{name}=<{len(value)}>"


def build_moment_problem(p: gamekit.ModNGameParams,
                         level: int) -> MomentProblem:
    """Index the moment matrix M[u, v] = y(reduce(u^* v)) and map the bias
    polynomial onto moment variables. Cell (c, r) holds the adjoint of cell
    (r, c)'s word, so only r <= c is reduced; each class {w, w^*} first
    appears on or above the diagonal and keeps its row-major number."""
    n = p.n
    words = generate_words(n, level)
    N = len(words)
    ids: Dict[ncpoly.Word, int] = {}
    cell_class = [[0] * N for _ in range(N)]
    cell_conj = [[False] * N for _ in range(N)]
    for r, u in enumerate(words):
        ua = ncpoly.word_adjoint(u, n)
        for c in range(r, N):
            w = ncpoly.canonical_word(ua + words[c], n)
            wa = ncpoly.word_adjoint(w, n)
            key = min(w, wa)
            cid = ids.setdefault(key, len(ids))
            cell_class[r][c] = cell_class[c][r] = cid
            cell_conj[r][c] = key != w
            cell_conj[c][r] = key != wa

    objective: Dict[int, complex] = {}
    for w, coeff in biaskit.bias_polynomial(p).terms.items():
        key = min(w, ncpoly.word_adjoint(w, n))
        if key not in ids:
            raise RuntimeError(f"no moment-matrix cell holds bias word {w}")
        cid = ids[key]
        c = coeff if key == w else coeff.conjugate()
        objective[cid] = objective.get(cid, 0.0) + c
    return MomentProblem(n=n, level=level, words=words,
                         class_keys=list(ids), objective=objective,
                         cell_class=cell_class, cell_conj=cell_conj)


# ---------------------------------------------------------------------------
# SDPA export
# ---------------------------------------------------------------------------

class SDPAProblem(Record):
    """Parsed sparse SDPA data: variable count, block sizes, objective, and
    entries keyed (matrix index, block, row, col) -> value."""

    nvars: int
    block_sizes: List[int]
    objective: List[float]
    entries: Dict[Tuple[int, int, int, int], float]

    def __repr__(self) -> str:
        return (f"SDPAProblem(nvars={self.nvars}, "
                f"block_sizes={self.block_sizes!r}, "
                f"{_sized('objective', self.objective)}, "
                f"{_sized('entries', self.entries)})")

    def render(self) -> str:
        lines = [
            "* moment relaxation export",
            "* complex Hermitian moment matrix embedded as the real block",
            "* [[Re, -Im], [Im, Re]] (doubling the block size); the final",
            "* diagonal block pins the empty-word moment to 1. SDPA minimizes",
            "* c.x, so c holds minus the bias: the optimum is minus the",
            "* largest bias.",
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
    the normalization x_e = 1. SDPA minimizes the objective, so its
    coefficients reproduce minus the bias.
    """
    n = mp.n
    N = mp.size
    # Variable numbers (1-indexed) of each class's real and imaginary
    # parts; im_var[cid] is 0 for a self-adjoint class.
    re_var: List[int] = []
    im_var: List[int] = []
    nvars = 0
    for key in mp.class_keys:
        has_im = ncpoly.word_adjoint(key, n) != key
        re_var.append(nvars + 1)
        im_var.append(nvars + 2 if has_im else 0)
        nvars += 1 + has_im

    # Cell (r, c) holds y = x_re + i x_im, or its conjugate, so in the real
    # embedding [[Re, -Im], [Im, Re]] it puts x_re at (r, c) and
    # (N + r, N + c), and -Im = -x_im (+x_im if conjugate) at (r, N + c);
    # upper triangle, 1-indexed.
    entries: Dict[Tuple[int, int, int, int], float] = {}
    for r, (classes, conjs) in enumerate(zip(mp.cell_class, mp.cell_conj)):
        for c, (cid, conj) in enumerate(zip(classes, conjs)):
            if r <= c:
                re = re_var[cid]
                entries[(re, 1, r + 1, c + 1)] = 1.0
                entries[(re, 1, N + r + 1, N + c + 1)] = 1.0
            im = im_var[cid]
            if im:
                entries[(im, 1, r + 1, N + c + 1)] = 1.0 if conj else -1.0

    # Normalization block: x_e - 1 >= 0 and 1 - x_e >= 0.
    # generate_words puts the empty word first.
    e_var = re_var[mp.cell_class[0][0]]
    entries[(e_var, 2, 1, 1)] = 1.0
    entries[(e_var, 2, 2, 2)] = -1.0
    entries[(0, 2, 1, 1)] = 1.0
    entries[(0, 2, 2, 2)] = -1.0

    # -Re(c y) = -Re(c) x_re + Im(c) x_im. Accumulating from +0.0 by
    # subtraction and addition never yields -0.0, so no "-0" token.
    objective = [0.0] * nvars
    for cid, c in mp.objective.items():
        objective[re_var[cid] - 1] -= c.real
        if im_var[cid]:
            objective[im_var[cid] - 1] += c.imag
    # Each coefficient as the file writes it (12 digits format back to the
    # same text), so parsing the rendered file returns an equal problem.
    objective = [float(f"{c:.12g}") for c in objective]
    return SDPAProblem(nvars=nvars, block_sizes=[2 * N, -2],
                       objective=objective, entries=entries)


def export_sdpa(mp: MomentProblem, destination: str) -> SDPAProblem:
    prob = sdpa_from_moment_problem(mp)
    with open(destination, "w") as fh:
        fh.write(prob.render())
    return prob


def parse_sdpa(text: str) -> SDPAProblem:
    """The SDPA problem written in ``text`` (a ``.dat-s`` file's content).
    Comment lines (``*``) and blank lines are skipped."""
    body = (ln for ln in text.splitlines() if ln and not ln.startswith("*"))

    def header(name: str) -> str:
        line = next(body, None)
        if line is None:
            raise ValueError(f"SDPA text ends before its {name} line")
        return line

    nvars = int(header("variable count"))
    nblocks = int(header("block count"))
    block_sizes = [int(t) for t in header("block sizes").split()]
    if len(block_sizes) != nblocks:
        raise ValueError("block size count mismatch")
    objective = [float(t) for t in header("objective").split()]
    entries: Dict[Tuple[int, int, int, int], float] = {}
    for ln in body:
        mat, block, row, col, value = ln.split()
        entries[(int(mat), int(block), int(row), int(col))] = float(value)
    return SDPAProblem(nvars=nvars, block_sizes=block_sizes,
                       objective=objective, entries=entries)
