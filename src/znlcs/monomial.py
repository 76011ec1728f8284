"""Monomial unitaries, one or a batch at a time, and the canonical
observables' generators.

Every operator in play (cyclic shifts, sign flips, the scalar z^4 I, and
all products of the canonical observables) is a monomial matrix whose
nonzero entries are powers of z = e^{i pi / 2n}. Such a matrix is stored
exactly as a cyclic shift amount plus a vector of phase exponents mod 4n,
so products, inverses and orders involve no floating point at all.

This module owns that format and its arithmetic. One element is a
``MonomialUnitary``; m elements of dimension n are one unsigned integer
array ``rows[m, n + 1]``, shifts in column 0 and phases in columns 1..n,
whose dtype (uint8 up to n = 32) holds the sum of two reduced entries. So
a product with fixed right factors is one gather, one add and one
conditional subtract (``compose_steps``, the one batched product), and
``power_rows`` is the one power table. ``groupkit`` (keys, closures,
normal forms, presentations) re-exports these names. A command that needs
only the canonical observables (strategy values, bias spectra, SOS and
relation checks) loads this module and not ``groupkit``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .records import Record


class MonomialUnitary(Record):
    """U e_k = z^{phases[k]} e_{(k+shift) mod n} with z = e^{i pi/2n}.

    shift lives mod n, each phase exponent mod 4n; composition and inverse
    stay in these coordinates exactly.
    """

    n: int
    shift: int
    phases: Tuple[int, ...]

    def __post_init__(self):
        if len(self.phases) != self.n:
            raise ValueError("phase vector length must equal the dimension")
        object.__setattr__(self, "shift", self.shift % self.n)
        object.__setattr__(
            self, "phases", tuple(p % (4 * self.n) for p in self.phases))

    @classmethod
    def identity(cls, n: int) -> "MonomialUnitary":
        return cls(n, 0, (0,) * n)

    def __matmul__(self, other: "MonomialUnitary") -> "MonomialUnitary":
        """Matrix product self @ other (apply ``other`` first)."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        phases = tuple(
            other.phases[k] + self.phases[(k + other.shift) % n]
            for k in range(n))
        return MonomialUnitary(n, self.shift + other.shift, phases)

    def inverse(self) -> "MonomialUnitary":
        n = self.n
        phases = tuple(-self.phases[(k - self.shift) % n] for k in range(n))
        return MonomialUnitary(n, -self.shift, phases)

    def power(self, e: int) -> "MonomialUnitary":
        """self^e by square-and-multiply (negative e via the inverse)."""
        base = self if e >= 0 else self.inverse()
        out = MonomialUnitary.identity(self.n)
        e = abs(e)
        while e:
            if e & 1:
                out = out @ base
            e >>= 1
            if e:
                base = base @ base
        return out

    def key(self) -> Tuple[int, Tuple[int, ...]]:
        return (self.shift, self.phases)

    def to_matrix(self) -> np.ndarray:
        n = self.n
        z = np.exp(1j * np.pi / (2 * n))
        M = np.zeros((n, n), dtype=np.complex128)
        for k in range(n):
            M[(k + self.shift) % n, k] = z ** self.phases[k]
        return M


# ---------------------------------------------------------------------------
# Generators of the canonical observables' groups
# ---------------------------------------------------------------------------

def shift_x(n: int) -> MonomialUnitary:
    """The cyclic shift X: e_k -> e_{k+1 mod n}."""
    return MonomialUnitary(n, 1, (0,) * n)


def scalar_j(n: int) -> MonomialUnitary:
    """J = z^4 I = omega_n I."""
    return MonomialUnitary(n, 0, (4,) * n)


def alice_generators(n: int) -> Tuple[MonomialUnitary, MonomialUnitary]:
    """A0 = X and A1 = z^2 D_0 X."""
    a0 = shift_x(n)
    a1_phases = tuple(2 + (2 * n if (k + 1) % n == 0 else 0)
                      for k in range(n))
    return a0, MonomialUnitary(n, 1, a1_phases)


def bob_generators(n: int) -> Tuple[MonomialUnitary, MonomialUnitary]:
    """B0 = X and B1 = z^2 D_0 X^*."""
    b0 = shift_x(n)
    b1_phases = tuple(2 + (2 * n if k == 1 else 0) for k in range(n))
    return b0, MonomialUnitary(n, n - 1, b1_phases)


# ---------------------------------------------------------------------------
# Batches of elements as integer rows
# ---------------------------------------------------------------------------

def _row_dtype(n: int) -> np.dtype:
    """Narrowest unsigned dtype holding 8n - 2, the largest sum of two
    reduced row entries."""
    return np.min_scalar_type(8 * n - 2)


def pack_rows(elements: Iterable[MonomialUnitary], n: int) -> np.ndarray:
    """The rows of elements of dimension n, in order."""
    values = []
    for g in elements:
        if g.n != n:
            raise ValueError("elements must share dimension n")
        values.append((g.shift,) + g.phases)
    rows = np.array(values, dtype=_row_dtype(n))
    return rows.reshape(len(values), n + 1)


def _moduli(n: int, dtype: np.dtype) -> np.ndarray:
    return np.array([n] + [4 * n] * n, dtype=dtype)


def _shifted_columns(n: int, by: np.ndarray) -> np.ndarray:
    """Column map reading phase k from phase (k + by) % n and keeping the
    shift column. ``by`` is an integer array of shape (..., 1); the map has
    shape (..., n + 1)."""
    cols = 1 + (np.arange(n) + by) % n
    return np.concatenate([np.zeros_like(cols[..., :1]), cols], axis=-1)


def step_columns(steps: np.ndarray) -> np.ndarray:
    """The column map of each fixed right factor ``steps[s]``:
    ``rows[:, cols[s]] + steps[s]``, reduced, is ``rows @ steps[s]``."""
    return _shifted_columns(steps.shape[-1] - 1,
                            steps[:, :1].astype(np.intp))


def compose_steps(rows: np.ndarray, cols: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
    """Every product rows[f] @ steps[s] (apply steps[s] first), shape
    (len(rows), len(steps), n + 1), given ``cols = step_columns(steps)``:
    shift rows.shift + steps.shift and
    phases[k] = steps.phases[k] + rows.phases[(k + steps.shift) % n], as one
    gather, one add and one conditional subtract of the moduli (in place:
    the sum of two reduced entries is under twice the modulus)."""
    out = rows[:, cols] + steps
    mod = _moduli(out.shape[-1] - 1, out.dtype)
    np.subtract(out, mod, out=out, where=out >= mod)
    return out


def invert_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise inverses: shift -shift and
    phases[k] = -phases[(k - shift) % n]."""
    mod = _moduli(rows.shape[-1] - 1, rows.dtype)
    cols = _shifted_columns(len(mod) - 1, -rows[..., :1].astype(np.intp))
    out = mod - np.take_along_axis(rows, cols, axis=-1)
    out[out == mod] = 0
    return out


def power_rows(g: MonomialUnitary) -> np.ndarray:
    """The rows of g^0, g^1, ..., g^(n-1), each the one before times g."""
    step = pack_rows([g], g.n)
    cols = step_columns(step)
    rows = [pack_rows([MonomialUnitary.identity(g.n)], g.n)]
    for _ in range(1, g.n):
        rows.append(compose_steps(rows[-1], cols, step)[:, 0])
    return np.concatenate(rows)
