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

# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def letters(n: int) -> List[ncpoly.Letter]:
    """All single letters: party, operator index, exponent 1..n-1."""
    return [(p, i, e)
            for p in ("A", "B") for i in (0, 1) for e in range(1, n)]


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


def _run_reductions(words: List[ncpoly.Word], n: int
                    ) -> Tuple[List[Tuple[int, int]], List[ncpoly.Word],
                               List[List[int]]]:
    """(parts, runs, table) for reduced words: parts[i] numbers the Alice
    run and the Bob run of words[i] in runs, and table[x][y] numbers
    reduce(runs[x]^* runs[y]) for any two of those runs of one party (the
    empty run, 0, is either party's). runs holds the words' runs, then the
    reductions that are not among them."""
    ids = {(): 0}
    parts = []
    for w in words:
        cut = sum(letter[0] == "A" for letter in w)
        parts.append((ids.setdefault(w[:cut], len(ids)),
                      ids.setdefault(w[cut:], len(ids))))
    runs = list(ids)
    table = [[0] * len(runs) for _ in runs]
    for party in ("A", "B"):
        own = [0] + [i for i, run in enumerate(runs) if run
                     and run[0][0] == party]
        for x in own:
            for y in own:
                run = ncpoly.word_adjoint(runs[x], n) + runs[y]
                if x and y:
                    run = ncpoly.canonical_word(run, n)
                table[x][y] = ids.setdefault(run, len(ids))
    return parts, list(ids), table


def build_moment_problem(p: gamekit.ModNGameParams,
                         level: int) -> MomentProblem:
    """Index the moment matrix M[u, v] = y(reduce(u^* v)) and map the bias
    polynomial onto moment variables. Cell (c, r) holds the adjoint of cell
    (r, c)'s word, so only r <= c is visited; each class {w, w^*} first
    appears on or above the diagonal and keeps its row-major number.

    The parties commute, so a cell's word is reduce(u_A^* v_A) followed by
    reduce(u_B^* v_B), and its adjoint reduce(v_A^* u_A) followed by
    reduce(v_B^* u_B), for the Alice runs u_A, v_A and Bob runs u_B, v_B of
    its two words. Each part is read from one table of run reductions
    (``_run_reductions``), and each distinct cell word is looked up once."""
    n = p.n
    words = generate_words(n, level)
    N = len(words)
    parts, runs, table = _run_reductions(words, n)
    R = len(runs)

    ids: Dict[ncpoly.Word, int] = {}
    # (class id, cell conjugated, transposed cell conjugated) of each cell
    # word, keyed by its two parts' numbers.
    seen: Dict[int, Tuple[int, bool, bool]] = {}
    cell_class = [[0] * N for _ in range(N)]
    cell_conj = [[False] * N for _ in range(N)]
    for r, (ua, ub) in enumerate(parts):
        row_a, row_b = table[ua], table[ub]
        for c in range(r, N):
            va, vb = parts[c]
            ta, tb = row_a[va], row_b[vb]
            cell = seen.get(ta * R + tb)
            if cell is None:
                w = runs[ta] + runs[tb]
                wa = runs[table[va][ua]] + runs[table[vb][ub]]
                key = min(w, wa)
                cell = seen[ta * R + tb] = (
                    ids.setdefault(key, len(ids)), key != w, key != wa)
            cell_class[r][c] = cell_class[c][r] = cell[0]
            cell_conj[r][c] = cell[1]
            cell_conj[c][r] = cell[2]

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
        """The ``.dat-s`` text; a ValueError for fewer than one variable,
        whose objective line would be blank, which ``parse_sdpa`` skips."""
        if self.nvars < 1:
            raise ValueError(f"SDPA problem: nvars must be >= 1, got "
                             f"{self.nvars}")
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
        # The entries hold few distinct values: each is formatted once.
        # 0.0 and -0.0 are one key but two texts, so zeros are not kept.
        texts: Dict[float, str] = {}
        entries = self.entries
        for key in sorted(entries):
            value = entries[key]
            text = texts.get(value)
            if text is None:
                text = f" {value:.12g}"
                if value:
                    texts[value] = text
            lines.append("%d %d %d %d" % key + text)
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
    Comment lines (``*``) and blank lines are skipped. A ValueError naming
    the line refuses an objective of other than nvars coefficients, an
    entry line of other than five fields, and an entry (mat, block, row,
    col) stated twice."""
    body = ((number, ln) for number, ln in enumerate(text.splitlines(), 1)
            if ln and not ln.startswith("*"))

    def header(name: str) -> Tuple[int, str]:
        item = next(body, None)
        if item is None:
            raise ValueError(f"SDPA text ends before its {name} line")
        return item

    nvars = int(header("variable count")[1])
    nblocks = int(header("block count")[1])
    block_sizes = [int(t) for t in header("block sizes")[1].split()]
    if len(block_sizes) != nblocks:
        raise ValueError("block size count mismatch")
    number, ln = header("objective")
    objective = [float(t) for t in ln.split()]
    if len(objective) != nvars:
        raise ValueError(f"line {number}: objective has {len(objective)} "
                         f"coefficients for {nvars} variables")
    entries: Dict[Tuple[int, int, int, int], float] = {}
    for number, ln in body:
        fields = ln.split()
        if len(fields) != 5:
            raise ValueError(f"line {number}: entry has {len(fields)} "
                             f"fields, not 5: {ln!r}")
        mat, block, row, col, value = fields
        key = (int(mat), int(block), int(row), int(col))
        if key in entries:
            raise ValueError(f"line {number}: entry {key} stated twice")
        entries[key] = float(value)
    return SDPAProblem(nvars=nvars, block_sizes=block_sizes,
                       objective=objective, entries=entries)


# The command handler: ``cli.COMMANDS`` reads it when its command runs,
# and it adds its results to the report ``rep``.
def export_command(args, rep) -> None:
    """``npa export``."""
    mp = build_moment_problem(gamekit.ModNGameParams(args.n, 0, 1),
                              args.level)
    prob = export_sdpa(mp, args.out)
    with open(args.out) as fh:
        written = fh.read()
    rep.result("moment_matrix_size", mp.size)
    rep.result("sdpa_block_size", prob.block_sizes[0])
    try:
        exact = parse_sdpa(written) == prob
    except ValueError:  # a file the parser refuses is not a round trip
        exact = False
    rep.result("round_trip_exact", int(exact), tolerance=0.0, target=1)
