"""Single monomial unitaries and the canonical observables' generators.

Every operator in play (cyclic shifts, sign flips, the scalar z^4 I, and
all products of the canonical observables) is a monomial matrix whose
nonzero entries are powers of z = e^{i pi / 2n}. Such a matrix is stored
exactly as a cyclic shift amount plus a vector of phase exponents mod 4n,
so products, inverses and orders involve no floating point at all.

This module owns single elements: ``MonomialUnitary`` and the generators
of the canonical strategy S_n. Batches of elements, group closure, normal
forms and presentations are ``groupkit``'s, which re-exports these names.
A command that needs only the canonical observables (strategy values, bias
spectra, SOS and relation checks) loads this module and not ``groupkit``.
"""

from __future__ import annotations

from typing import Tuple

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
