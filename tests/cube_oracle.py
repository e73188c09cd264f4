"""Dyadic cubes from (n, index) alone in exact ``Fraction`` arithmetic, kept as a test oracle.

The level-n cube around the bump-extremum tuple (i_1, ..., i_q) has, on
axis j, lo_j = 1 - 2**(1-n) + (4 i_j + 1) scale and hi_j = lo_j + 2 scale,
scale = 2**-(n*n + n + 2).  Nothing here reads translab's own geometry,
so the oracles built on it do not share it with the code they check.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from translab import certifier


@dataclass(frozen=True)
class OracleCube:
    n: int
    index: tuple[int, ...]

    @classmethod
    def of_rank(cls, n: int, q: int, rank: int) -> "OracleCube":
        """The cube numbered ``rank`` in lexicographic index order."""
        index = []
        for _ in range(q):
            rank, i = divmod(rank, 2 ** (n * n))
            index.append(i)
        return cls(n, tuple(reversed(index)))

    @property
    def q(self) -> int:
        return len(self.index)

    @property
    def rank(self) -> int:
        rank = 0
        for i in self.index:
            rank = rank * 2 ** (self.n * self.n) + i
        return rank

    @property
    def scale(self) -> Fraction:
        return Fraction(1, 2 ** (self.n * self.n + self.n + 2))

    @property
    def lo(self) -> tuple[Fraction, ...]:
        return tuple(1 - Fraction(2, 2**self.n) + (4 * i + 1) * self.scale for i in self.index)

    @property
    def hi(self) -> tuple[Fraction, ...]:
        return tuple(a + 2 * self.scale for a in self.lo)


def oracle_cubes(n: int, q: int) -> list[OracleCube]:
    """Every level-n cube in rank order."""
    return [OracleCube(n, index) for index in itertools.product(range(2 ** (n * n)), repeat=q)]


def miranda_verdict(h, beta, cube: OracleCube, z=(), p: int = 0) -> bool:
    """The certifier's Miranda kernel verdict on the one cube, by its rank."""
    return bool(certifier._miranda_verdicts(h, beta, cube.n, cube.q, np.array([cube.rank]), z, p)[0])
