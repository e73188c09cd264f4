import collections
import functools
import itertools
import math
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab import certifier
from translab.funcrep import MESH_CAP
from translab import (
    DomainError,
    EnumerationCapError,
    ExtremalFunction,
    ModulusSpec,
    ShapeError,
    certify,
    enumerate_cubes,
    identity_chart,
    level_schedule,
    polar_demo_chart,
    pullback_perturbation,
    resolve_depth,
    theory_lower_bound,
    transport_function,
)

from closed_form import holder_lower_bound, holder_lower_bound_log2
from cube_oracle import OracleCube, miranda_verdict, oracle_cubes

IDENTITY = ModulusSpec.power(1.0, 1.0)


def oracle_face_points(cube):
    """Face-lattice points of a cube as exact Fractions, kernel order."""
    q = cube.q
    lattice = [[cube.lo[j] + k * cube.scale / 4 for k in range(9)] for j in range(q)]
    for axis in range(q):
        free = [lattice[j] for j in range(q) if j != axis]
        for coord in (cube.lo[axis], cube.hi[axis]):
            for combo in itertools.product(*free):
                yield combo[:axis] + (coord,) + combo[axis:]


def oracle_verify(h, beta, cube, z=(), p=0):
    """The per-point face loop the level kernel replaced, kept as the reference.

    Exact Fraction lattice, slack beta(scale/4), one call of h per point,
    early exit on the first failure; it reads a NaN value as a negative sign.
    """
    q = cube.q
    slack = beta(float(cube.scale / 4))
    tail = [float(c) for c in np.asarray(z, dtype=float).ravel()]
    lattices = [[float(cube.lo[j] + k * cube.scale / 4) for k in range(9)] for j in range(q)]
    for axis in range(q):
        free = [j for j in range(q) if j != axis]
        orientation = 0.0
        for coord, side in ((cube.lo[axis], 1.0), (cube.hi[axis], -1.0)):
            for combo in itertools.product(*(lattices[j] for j in free)):
                y = [0.0] * q
                y[axis] = float(coord)
                for j, val in zip(free, combo):
                    y[j] = val
                value = float(np.asarray(h(np.array(y + tail)))[p + axis])
                if abs(value) <= slack:
                    return False
                sign = 1.0 if value > 0.0 else -1.0
                if orientation == 0.0:
                    orientation = sign * side
                if sign != orientation * side:
                    return False
    return True


# (lam, alpha, q) -> for r = 1, 3/2, sqrt(2): the first j at which resolve_depth(beta, q, r * 2**-j) > k, k = 0, 1, ...
BAND_STEPS = {
    (1, 1 / 4, 1): (
        [3, 4, 5, 7, 10, 13, 16, 20, 25, 30, 35, 41, 48, 55, 62, 70, 79, 88, 97, 107, 118, 129, 140, 152, 165, 178, 191, 205, 220, 235],
        [3, 4, 6, 8, 10, 13, 17, 21, 25, 30, 36, 42, 48, 55, 63, 71, 79, 88, 98, 108, 118, 129, 141, 153, 165, 178, 192],
        [3, 4, 6, 8, 10, 13, 17, 21, 25, 30, 36, 42, 48, 55, 63, 71, 79, 88, 98, 108, 118, 129, 141, 153, 165, 178, 192],
    ),
    (1, 1 / 4, 2): (
        [3, 4, 6, 8, 10, 13, 17, 21, 25, 30, 36, 42, 48, 55, 63, 71, 79, 88, 98, 108, 118, 129, 141, 153, 165, 178, 192, 206, 220, 235],
        [4, 5, 6, 8, 11, 14, 17, 21, 26, 31, 36, 42, 49, 56, 63, 71, 80, 89, 98, 108, 119, 130, 141, 153, 166, 179, 192],
        [4, 5, 6, 8, 11, 14, 17, 21, 26, 31, 36, 42, 49, 56, 63, 71, 80, 89, 98, 108, 119, 130, 141, 153, 166, 179, 192],
    ),
    (1, 1 / 4, 3): (
        [4, 5, 6, 8, 11, 14, 17, 21, 26, 31, 36, 42, 49, 56, 63, 71, 80, 89, 98, 108, 119, 130, 141, 153, 166, 179, 192, 206, 221, 236],
        [4, 5, 7, 9, 11, 14, 18, 22, 26, 31, 37, 43, 49, 56, 64, 72, 80, 89, 99, 109, 119, 130, 142, 154, 166, 179, 193],
        [4, 5, 7, 9, 11, 14, 18, 22, 26, 31, 37, 43, 49, 56, 64, 72, 80, 89, 99, 109, 119, 130, 142, 154, 166, 179, 193],
    ),
    (1, 1 / 3, 1): (
        [3, 4, 6, 9, 12, 16, 21, 26, 32, 39, 46, 54, 63, 72, 82, 93, 104, 116, 129, 142, 156, 171, 186, 202, 219, 236, 254, 273, 292, 312],
        [4, 5, 7, 10, 13, 17, 22, 27, 33, 40, 47, 55, 64, 73, 83, 94, 105, 117, 130, 143, 157, 172, 187],
        [4, 5, 7, 10, 13, 17, 22, 27, 33, 40, 47, 55, 64, 73, 83, 94, 105, 117, 130, 143, 157, 172, 187],
    ),
    (1, 1 / 3, 2): (
        [4, 5, 7, 10, 13, 17, 22, 27, 33, 40, 47, 55, 64, 73, 83, 94, 105, 117, 130, 143, 157, 172, 187, 203, 220, 237, 255, 274, 293, 313],
        [4, 6, 8, 10, 14, 18, 22, 28, 34, 40, 48, 56, 64, 74, 84, 94, 106, 118, 130, 144, 158, 172, 188],
        [4, 5, 7, 10, 13, 17, 22, 27, 33, 40, 47, 55, 64, 73, 83, 94, 105, 117, 130, 143, 157, 172, 187],
    ),
    (1, 1 / 3, 3): (
        [4, 5, 7, 10, 13, 17, 22, 27, 33, 40, 47, 55, 64, 73, 83, 94, 105, 117, 130, 143, 157, 172, 187, 203, 220, 237, 255, 274, 293, 313],
        [5, 6, 8, 11, 14, 18, 23, 28, 34, 41, 48, 56, 65, 74, 84, 95, 106, 118, 131, 144, 158, 173, 188],
        [4, 6, 8, 10, 14, 18, 22, 28, 34, 40, 48, 56, 64, 74, 84, 94, 106, 118, 130, 144, 158, 172, 188],
    ),
    (1, 1 / 2, 1): (
        [4, 6, 9, 13, 18, 24, 31, 39, 48, 58, 69, 81, 94, 108, 123, 139, 156, 174, 193, 213, 234, 256, 279, 303, 328, 354, 381, 409, 438, 468],
        [5, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194],
        [4, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194],
    ),
    (1, 1 / 2, 2): (
        [4, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194, 214, 235, 257, 280, 304, 329, 355, 382, 410, 439, 469],
        [5, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194],
        [5, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194],
    ),
    (1, 1 / 2, 3): (
        [5, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194, 214, 235, 257, 280, 304, 329, 355, 382, 410, 439, 469],
        [5, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194],
        [5, 7, 10, 14, 19, 25, 32, 40, 49, 59, 70, 82, 95, 109, 124, 140, 157, 175, 194],
    ),
    (1, 3 / 4, 1): (
        [5, 8, 13, 19, 26, 35, 46, 58, 71, 86, 103, 121, 140, 161, 184, 208, 233, 260, 289, 319, 350, 383, 418, 454, 491, 530, 571, 613, 656, 701],
        [6, 9, 13, 19, 27, 36, 46, 58, 72, 87, 103, 121, 141, 162, 184],
        [6, 9, 13, 19, 27, 36, 46, 58, 72, 87, 103, 121, 141, 162, 184],
    ),
    (1, 3 / 4, 2): (
        [6, 9, 13, 19, 27, 36, 46, 58, 72, 87, 103, 121, 141, 162, 184, 208, 234, 261, 289, 319, 351, 384, 418, 454, 492, 531, 571, 613, 657, 702],
        [6, 9, 14, 20, 27, 36, 47, 59, 72, 87, 104, 122, 141, 162, 185],
        [6, 9, 14, 20, 27, 36, 47, 59, 72, 87, 104, 122, 141, 162, 185],
    ),
    (1, 3 / 4, 3): (
        [6, 9, 14, 20, 27, 36, 47, 59, 72, 87, 104, 122, 141, 162, 185, 209, 234, 261, 290, 320, 351, 384, 419, 455, 492, 531, 572, 614, 657, 702],
        [7, 10, 14, 20, 28, 37, 47, 59, 73, 88, 104, 122, 142, 163, 185],
        [7, 10, 14, 20, 28, 37, 47, 59, 73, 88, 104, 122, 142, 163, 185],
    ),
    (3, 1 / 4, 1): (
        [1, 2, 4, 6, 8, 11, 15, 19, 23, 28, 34, 40, 46, 53, 61, 69, 77, 86, 96, 106, 116, 127, 139, 151, 163, 176, 190, 204, 218, 233],
        [2, 3, 4, 6, 9, 12, 15, 19, 24, 29, 34, 40, 47, 54, 61, 69, 78, 87, 96, 106, 117, 128, 139, 151, 164, 177, 190],
        [2, 3, 4, 6, 9, 12, 15, 19, 24, 29, 34, 40, 47, 54, 61, 69, 78, 87, 96, 106, 117, 128, 139, 151, 164, 177, 190],
    ),
    (3, 1 / 4, 2): (
        [2, 3, 4, 6, 9, 12, 15, 19, 24, 29, 34, 40, 47, 54, 61, 69, 78, 87, 96, 106, 117, 128, 139, 151, 164, 177, 190, 204, 219, 234],
        [2, 3, 5, 7, 9, 12, 16, 20, 24, 29, 35, 41, 47, 54, 62, 70, 78, 87, 97, 107, 117, 128, 140, 152, 164, 177, 191],
        [2, 3, 5, 7, 9, 12, 16, 20, 24, 29, 35, 41, 47, 54, 62, 70, 78, 87, 97, 107, 117, 128, 140, 152, 164, 177, 191],
    ),
    (3, 1 / 4, 3): (
        [2, 3, 4, 6, 9, 12, 15, 19, 24, 29, 34, 40, 47, 54, 61, 69, 78, 87, 96, 106, 117, 128, 139, 151, 164, 177, 190, 204, 219, 234],
        [3, 4, 5, 7, 10, 13, 16, 20, 25, 30, 35, 41, 48, 55, 62, 70, 79, 88, 97, 107, 118, 129, 140, 152, 165, 178, 191],
        [2, 3, 5, 7, 9, 12, 16, 20, 24, 29, 35, 41, 47, 54, 62, 70, 78, 87, 97, 107, 117, 128, 140, 152, 164, 177, 191],
    ),
    (3, 1 / 3, 1): (
        [2, 3, 5, 8, 11, 15, 20, 25, 31, 38, 45, 53, 62, 71, 81, 92, 103, 115, 128, 141, 155, 170, 185, 201, 218, 235, 253, 272, 291, 311],
        [2, 3, 5, 8, 11, 15, 20, 25, 31, 38, 45, 53, 62, 71, 81, 92, 103, 115, 128, 141, 155, 170, 185],
        [2, 3, 5, 8, 11, 15, 20, 25, 31, 38, 45, 53, 62, 71, 81, 92, 103, 115, 128, 141, 155, 170, 185],
    ),
    (3, 1 / 3, 2): (
        [2, 3, 5, 8, 11, 15, 20, 25, 31, 38, 45, 53, 62, 71, 81, 92, 103, 115, 128, 141, 155, 170, 185, 201, 218, 235, 253, 272, 291, 311],
        [3, 4, 6, 9, 12, 16, 21, 26, 32, 39, 46, 54, 63, 72, 82, 93, 104, 116, 129, 142, 156, 171, 186],
        [3, 4, 6, 9, 12, 16, 21, 26, 32, 39, 46, 54, 63, 72, 82, 93, 104, 116, 129, 142, 156, 171, 186],
    ),
    (3, 1 / 3, 3): (
        [2, 4, 6, 8, 12, 16, 20, 26, 32, 38, 46, 54, 62, 72, 82, 92, 104, 116, 128, 142, 156, 170, 186, 202, 218, 236, 254, 272, 292, 312],
        [3, 4, 6, 9, 12, 16, 21, 26, 32, 39, 46, 54, 63, 72, 82, 93, 104, 116, 129, 142, 156, 171, 186],
        [3, 4, 6, 9, 12, 16, 21, 26, 32, 39, 46, 54, 63, 72, 82, 93, 104, 116, 129, 142, 156, 171, 186],
    ),
    (3, 1 / 2, 1): (
        [2, 4, 7, 11, 16, 22, 29, 37, 46, 56, 67, 79, 92, 106, 121, 137, 154, 172, 191, 211, 232, 254, 277, 301, 326, 352, 379, 407, 436, 466],
        [3, 5, 8, 12, 17, 23, 30, 38, 47, 57, 68, 80, 93, 107, 122, 138, 155, 173, 192],
        [3, 5, 8, 12, 17, 23, 30, 38, 47, 57, 68, 80, 93, 107, 122, 138, 155, 173, 192],
    ),
    (3, 1 / 2, 2): (
        [3, 5, 8, 12, 17, 23, 30, 38, 47, 57, 68, 80, 93, 107, 122, 138, 155, 173, 192, 212, 233, 255, 278, 302, 327, 353, 380, 408, 437, 467],
        [3, 6, 9, 13, 18, 24, 31, 39, 48, 58, 69, 81, 94, 108, 123, 139, 156, 174, 193],
        [3, 5, 8, 12, 17, 23, 30, 38, 47, 57, 68, 80, 93, 107, 122, 138, 155, 173, 192],
    ),
    (3, 1 / 2, 3): (
        [3, 5, 8, 12, 17, 23, 30, 38, 47, 57, 68, 80, 93, 107, 122, 138, 155, 173, 192, 212, 233, 255, 278, 302, 327, 353, 380, 408, 437, 467],
        [4, 6, 9, 13, 18, 24, 31, 39, 48, 58, 69, 81, 94, 108, 123, 139, 156, 174, 193],
        [4, 6, 9, 13, 18, 24, 31, 39, 48, 58, 69, 81, 94, 108, 123, 139, 156, 174, 193],
    ),
    (3, 3 / 4, 1): (
        [4, 7, 11, 17, 25, 34, 44, 56, 70, 85, 101, 119, 139, 160, 182, 206, 232, 259, 287, 317, 349, 382, 416, 452, 490, 529, 569, 611, 655, 700],
        [4, 7, 12, 18, 25, 34, 45, 57, 70, 85, 102, 120, 139, 160, 183],
        [4, 7, 12, 18, 25, 34, 45, 57, 70, 85, 102, 120, 139, 160, 183],
    ),
    (3, 3 / 4, 2): (
        [4, 7, 12, 18, 25, 34, 45, 57, 70, 85, 102, 120, 139, 160, 183, 207, 232, 259, 288, 318, 349, 382, 417, 453, 490, 529, 570, 612, 655, 700],
        [5, 8, 12, 18, 26, 35, 45, 57, 71, 86, 102, 120, 140, 161, 183],
        [5, 8, 12, 18, 26, 35, 45, 57, 71, 86, 102, 120, 140, 161, 183],
    ),
    (3, 3 / 4, 3): (
        [4, 7, 12, 18, 25, 34, 45, 57, 70, 85, 102, 120, 139, 160, 183, 207, 232, 259, 288, 318, 349, 382, 417, 453, 490, 529, 570, 612, 655, 700],
        [5, 8, 13, 19, 26, 35, 46, 58, 71, 86, 103, 121, 140, 161, 184],
        [5, 8, 12, 18, 26, 35, 45, 57, 71, 86, 102, 120, 140, 161, 183],
    ),
}


class TestResolveDepth:
    @pytest.mark.parametrize(
        "j,want",
        [(6, 1), (7, 1), (8, 1), (10, 1), (11, 2), (12, 2), (15, 2), (16, 2), (17, 3)],
    )
    def test_identity_bands(self, j, want):
        assert resolve_depth(IDENTITY, 1, 2.0**-j) == want

    def test_large_budget_is_vacuous(self):
        assert resolve_depth(IDENTITY, 1, 0.5) == 0
        assert resolve_depth(IDENTITY, 1, 2.0**-5) == 0

    def test_band_edges_resolve_shallow(self):
        # shared endpoints belong to the band owning them as lower edge
        assert resolve_depth(IDENTITY, 1, 2.0**-10) == 1
        assert resolve_depth(IDENTITY, 1, 2.0**-16) == 2

    def test_q_scaling(self):
        # level-1 band top for q = 2 is 2**-5 / (2 sqrt 2)
        top = 2.0**-5 / (2.0 * math.sqrt(2.0))
        assert resolve_depth(IDENTITY, 2, top) == 1
        assert resolve_depth(IDENTITY, 2, top * 1.01) == 0

    def test_non_identity_modulus(self):
        beta = ModulusSpec.power(1.0, 0.5)
        # band top beta(2**-5)/2 = 2**-3.5
        assert resolve_depth(beta, 1, 2.0**-3.5) == 1
        assert resolve_depth(beta, 1, 2.0**-3) == 0

    @pytest.mark.parametrize("lam, alpha, q", BAND_STEPS, ids=str)
    def test_band_steps_below_alpha_one(self, lam, alpha, q):
        # every power budget 2**-j, j = -20..1074, and r * 2**-j, j < 200, at the depths pinned
        # when the point beta took Python's power; depth(j) is the count of steps at or before j
        beta = ModulusSpec.power(lam, alpha)
        families = zip((1.0, 1.5, math.sqrt(2.0)), (1075, 200, 200), BAND_STEPS[lam, alpha, q])
        for r, stop, steps in families:
            got = [resolve_depth(beta, q, math.ldexp(r, -j)) for j in range(-20, stop)]
            assert got == [sum(j >= step for step in steps) for j in range(-20, stop)]

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            resolve_depth(IDENTITY, 1, 0.0)
        with pytest.raises(DomainError, match="got nan"):
            resolve_depth(IDENTITY, 1, math.nan)

    @pytest.mark.parametrize("q, why", [(0, "need q >= 1, got 0"), (-1, "need q >= 1, got -1"),
                                        (1.5, "q must be an integer, got 1.5")])
    def test_q_validation(self, q, why):
        with pytest.raises(DomainError, match=re.escape(why)):
            resolve_depth(IDENTITY, q, 2.0**-8)


class TestCubes:
    def test_level_one_q_one(self):
        assert list(enumerate_cubes(1, 1)) == [(0,), (1,)]
        # q = 1 face points are each cube's lo and hi
        lo_hi = certifier._face_points(1, np.ones(2, int), np.arange(2))[:, 0]
        assert lo_hi.tolist() == [0.0625, 0.1875, 0.3125, 0.4375]

    def test_level_one_q_two(self):
        assert list(enumerate_cubes(1, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_level_two_q_one(self):
        assert len(list(enumerate_cubes(2, 1))) == 16
        assert certifier._face_points(1, np.array([2]), np.array([0]))[0, 0] == 0.5 + 2.0**-8

    @pytest.mark.parametrize("n,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_enumeration_is_rank_order(self, n, q):
        assert list(enumerate_cubes(n, q)) == [cube.index for cube in oracle_cubes(n, q)]
        assert [OracleCube.of_rank(n, q, rank) for rank in range(2 ** (q * n * n))] == oracle_cubes(n, q)

    def test_geometry_invariants(self):
        # q = 1 face points are (lo, hi) per cube: side 2 * scale, inside [0, 1], cubes disjoint and ascending
        for n in (1, 2, 3, 4):
            lo, hi = certifier._face_points(1, np.full(2 ** (n * n), n), np.arange(2 ** (n * n))).reshape(-1, 2).T
            assert np.all(hi - lo == 2 * level_schedule(n).scale)
            assert 0 <= lo[0] and hi[-1] <= 1
            assert np.all(hi[:-1] < lo[1:])

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_cubes(5, 1))
        with pytest.raises(EnumerationCapError):
            list(enumerate_cubes(4, 2))


class TestMiranda:
    def test_extremal_itself_passes(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        for cube in oracle_cubes(1, 1):
            assert miranda_verdict(F, IDENTITY, cube)

    def test_shifted_extremal_passes(self):
        # face values 2**-5 -+ 2**-7 keep their signs above the slack 2**-6
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        shifted = lambda x: F(x) + 2.0**-7
        assert miranda_verdict(shifted, IDENTITY, OracleCube(1, (0,)))

    def test_zero_function_fails(self):
        assert not miranda_verdict(lambda x: np.array([0.0]), IDENTITY, OracleCube(1, (0,)))

    def test_opposite_orientation_accepted(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        flipped = lambda x: -F(x)
        for cube in oracle_cubes(1, 1):
            assert miranda_verdict(flipped, IDENTITY, cube)

    def test_per_axis_orientation(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        mixed = lambda x: F(x) * np.array([1.0, -1.0])
        for cube in oracle_cubes(1, 2):
            assert miranda_verdict(mixed, IDENTITY, cube)

    def test_below_slack_fails(self):
        # scaling the extremal to half the slack kills every strict sign
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        tiny = lambda x: F(x) / 4.0  # face value 2**-7 <= slack 2**-6
        assert not miranda_verdict(tiny, IDENTITY, OracleCube(1, (0,)))

    def test_active_block_indexing(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        assert miranda_verdict(F, IDENTITY, OracleCube(1, (0,)), (), p=1)

    def test_z_slice_pass_through(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        assert miranda_verdict(F, IDENTITY, OracleCube(1, (0,)), (0.5,))

    def test_soundness_oracle(self):
        # a passing cube always contains a sign change, found by dense
        # sampling at step scale/64
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        rng = np.random.default_rng(31)
        base = F.sample(2.0**-8)
        for _ in range(10):
            noise = rng.uniform(-2.0**-7, 2.0**-7, size=base.values.shape)
            h = base.with_values(base.values + noise)
            for cube in oracle_cubes(1, 1):
                if miranda_verdict(h, IDENTITY, cube):
                    xs = np.arange(float(cube.lo[0]), float(cube.hi[0]), float(cube.scale) / 64.0)
                    vals = h.evaluate_many(xs[:, None])[:, 0]
                    assert vals.min() < 0.0 < vals.max()


@functools.lru_cache(maxsize=None)
def _sampled(d, q, p):
    """The extremal map sampled fine enough for level-1 (and, in d = 1, level-2) faces."""
    return ExtremalFunction(beta=IDENTITY, d=d, q=q, p=p).sample({1: 2.0**-9, 2: 2.0**-6, 3: 2.0**-5}[d])


@st.composite
def miranda_cases(draw):
    """A noisy, sign-flipped, partly zeroed sample of F, a level, a z-slice and a calling style."""
    q = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(0, 2))
    d = q + draw(st.integers(0, 1))
    n = draw(st.sampled_from([1, 2])) if d == 1 else 1
    base = _sampled(d, q, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = draw(st.sampled_from([0.0, 2.0**-9, 2.0**-7, 2.0**-6, 2.0**-5]))
    values = base.values + rng.uniform(-amp, amp, size=base.values.shape)
    values = values * np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=p + q, max_size=p + q)))
    if draw(st.booleans()):
        comp = draw(st.integers(0, p + q - 1))
        a = draw(st.floats(0.0, 1.0))
        knots = base.grid[0]
        values[(knots >= a) & (knots <= a + draw(st.floats(0.0, 0.25))), ..., comp] = 0.0
    h = base.with_values(values)
    if draw(st.booleans()):
        h = lambda x, h=h: h(x)  # hides evaluate_many: one call per point
    z = tuple(draw(st.lists(st.floats(0.01, 0.99), min_size=d - q, max_size=d - q)))
    return h, n, q, z, p


class Planted:
    """h with values planted at face points (keyed by their first q coordinates), per component, via evaluate_many.

    ``SampledFunction`` refuses non-finite values, so a NaN or an inf can
    reach the face test only through a wrapper like this one.
    """

    def __init__(self, h, q, plants):
        self.h, self.q, self.plants = h, q, plants

    def evaluate_many(self, pts):
        vals = np.array(self.h.evaluate_many(pts))
        for row, point in enumerate(np.asarray(pts)[:, : self.q].tolist()):
            for comp, value in self.plants.get(tuple(point), {}).items():
                vals[row, comp] = value
        return vals

    def __call__(self, x):
        return self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0]


@st.composite
def planted_cases(draw):
    """F's sample, sign-flipped per component, with NaN, +-inf, +-0.0, +-slack or a neighbour of +-slack planted.

    Each plant goes into the active component of the face its point was
    drawn from, so the face test reads it.
    """
    q = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(0, 1))
    d = q + draw(st.integers(0, 1))
    n = draw(st.sampled_from([1, 2])) if d == 1 else 1
    base = _sampled(d, q, p)
    h = base.with_values(base.values * np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=p + q, max_size=p + q))))
    cubes = oracle_cubes(n, q)
    slack = IDENTITY(float(cubes[0].scale / 4))
    edges = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    for s in (slack, -slack):
        edges += [s, float(np.nextafter(s, 0.0)), float(np.nextafter(s, math.copysign(math.inf, s)))]
    rows = 2 * q * 9 ** (q - 1)
    plants = {}
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, rows - 1))
        point = list(oracle_face_points(cubes[draw(st.integers(0, len(cubes) - 1))]))[row]
        plants.setdefault(tuple(map(float, point)), {})[p + row // (rows // q)] = draw(st.sampled_from(edges))
    z = tuple(draw(st.lists(st.floats(0.01, 0.99), min_size=d - q, max_size=d - q)))
    return Planted(h, q, plants), n, q, z, p


class TestMirandaKernel:
    @pytest.mark.parametrize("q,deepest", [(1, 4), (2, 3)])
    def test_face_points_match_fraction_lattice(self, q, deepest):
        # every face-lattice coordinate is its exact Fraction, so a double,
        # at every level the cap allows, in one call over mixed levels: all
        # cubes of the shallower levels, then a seeded sample of the deepest
        # with its first and last rank, then a cube of each level again
        assert 2 ** (q * deepest**2) <= MESH_CAP < 2 ** (q * (deepest + 1) ** 2)
        last = 2 ** (q * deepest**2) - 1
        sample = [0, *sorted(np.random.default_rng(q).choice(np.arange(1, last), 62, replace=False).tolist()), last]
        cubes = [OracleCube.of_rank(n, q, rank) for n in range(1, deepest) for rank in range(2 ** (q * n * n))]
        cubes += [OracleCube.of_rank(deepest, q, rank) for rank in sample]
        cubes += [OracleCube.of_rank(n, q, 2 ** (q * n * n) // 3) for n in range(deepest, 0, -1)]
        got = certifier._face_points(q, np.array([c.n for c in cubes]), np.array([c.rank for c in cubes]))
        want = [pt for cube in cubes for pt in oracle_face_points(cube)]
        assert got.shape == (len(want), q)
        assert all(Fraction(x) == c for row, pt in zip(got.tolist(), want) for x, c in zip(row, pt))

    @given(case=miranda_cases())
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_oracle(self, case):
        h, n, q, z, p = case
        cubes = oracle_cubes(n, q)
        want = [oracle_verify(h, IDENTITY, cube, z, p) for cube in cubes]
        levels, ranks = np.full(len(cubes), n), np.arange(len(cubes))
        assert certifier._miranda_verdicts(h, IDENTITY, q, levels, ranks, z, p).tolist() == want
        assert [miranda_verdict(h, IDENTITY, cube, z, p) for cube in cubes] == want
        with mock.patch.object(certifier, "SCAN_BLOCK_POINTS", 7):
            assert certifier._miranda_verdicts(h, IDENTITY, q, levels, ranks, z, p).tolist() == want

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_face_value_rejects(self, bad):
        # F except one non-finite value on the hi face of the first cube;
        # the old loop read it as a negative sign and accepted the cube
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cube = OracleCube(1, (0,))
        hi = float(cube.hi[0])
        h = lambda x: np.array([bad]) if x[0] == hi else F(x)
        assert oracle_verify(h, IDENTITY, cube)
        assert not miranda_verdict(h, IDENTITY, cube)
        cert = certify(F, 2.0**-7, h=h)
        assert cert.per_level_counts[0].verified == 1

    @given(case=planted_cases())
    @settings(max_examples=150, deadline=None)
    def test_planted_edge_values(self, case):
        # a cube with a non-finite value in an active component is rejected;
        # with finite plants only, the kernel gives the per-point loop's verdict
        h, n, q, z, p = case
        cubes = oracle_cubes(n, q)
        got = certifier._miranda_verdicts(h, IDENTITY, q, np.full(len(cubes), n), np.arange(len(cubes)), z, p)
        for cube, verdict in zip(cubes, got.tolist()):
            planted = [v for pt in oracle_face_points(cube) for v in h.plants.get(tuple(map(float, pt)), {}).values()]
            if not all(map(math.isfinite, planted)):
                assert not verdict
            else:
                assert verdict == oracle_verify(h, IDENTITY, cube, z, p)
                assert verdict or planted  # F's own faces pass: a rejection comes from a plant

    @pytest.mark.parametrize("q", [1, 2])
    def test_every_lattice_point_is_evaluated(self, q):
        # the zero function fails at the first point, and is still
        # evaluated at all 2q * 9**(q-1) face-lattice points
        calls = []
        h = lambda x: calls.append(x) or np.zeros(q)
        assert not miranda_verdict(h, IDENTITY, OracleCube(1, (0,) * q))
        assert len(calls) == 2 * q * 9 ** (q - 1)

    def test_evaluate_many_is_used_when_present(self):
        base = ExtremalFunction(beta=IDENTITY, d=2, q=2).sample(2.0**-6)
        batches = []

        class Batched:
            def evaluate_many(self, pts):
                batches.append(len(pts))
                return base.evaluate_many(pts)

            def __call__(self, x):
                pytest.fail("single-point call on an evaluator with evaluate_many")

        assert miranda_verdict(Batched(), IDENTITY, OracleCube(1, (0, 0)))
        assert batches == [36]

    @pytest.mark.parametrize(
        "h,shape",
        [(lambda x: np.array([1.0]), "({}, 1)"), (lambda x: 1.0, "({},)"), (lambda x: np.ones(3), "({}, 3)")],
        ids=["one value", "bare float", "three values"],
    )
    def test_wrong_width_is_a_shape_error(self, h, shape):
        # level 1 at q = 1: two cubes of two face points each
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
        cube = OracleCube(1, (0,))
        calls = [(lambda: certify(F, 2.0**-8, h=h), 4), (lambda: miranda_verdict(h, IDENTITY, cube, (0.5,), p=1), 2)]
        for call, n in calls:
            message = rf"h gave values of shape {re.escape(shape.format(n))} at {n} points, expected \({n}, 2\): "
            with pytest.raises(ShapeError, match=message + "m = 2 values per point$"):
                call()

    def test_slack_covers_face_cells_at_q6(self):
        # Component 0 is kappa * t(y_0) * (D - rho), rho the distance of
        # (y_1..y_5) to the face lattice, t = +1 on the lo face and -1 on
        # the hi face; it admits beta(s) = s on the cube (gradient norm
        # <= 0.985).  At every lattice point |value| = kappa*D clears the
        # old slack beta(scale/4), yet it changes sign at a face-cell
        # centre, where rho = (scale/8) sqrt(5) > D: the face holds a zero.
        cube = OracleCube(1, (0,) * 6)
        scale = float(cube.scale)
        step = scale / 4
        lo = np.array([float(c) for c in cube.lo])
        kappa, D = 0.95, 0.017

        class FaceZero:
            def evaluate_many(self, pts):
                rel = (pts - lo) / step
                rho = step * np.sqrt(((rel - np.round(rel))[:, 1:] ** 2).sum(axis=1))
                t = (lo + scale - pts) / scale
                out = 0.5 * scale * t
                out[:, 0] = kappa * t[:, 0] * (D - rho)
                return out

        h = FaceZero()
        old_slack = IDENTITY(step)
        assert kappa * D > old_slack
        assert scale / 8 * math.sqrt(5) > D
        pts = certifier._face_points(6, np.array([1]), np.array([0]))
        vals = h.evaluate_many(pts)
        axis0 = slice(0, 2 * 9**5)
        lo_face = slice(0, 9**5)
        assert np.all(np.abs(vals[axis0, 0]) > old_slack)
        assert np.all(vals[lo_face, 0] > 0.0)
        centre = lo + step * np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert h.evaluate_many(centre[None, :])[0, 0] < 0.0
        assert not miranda_verdict(h, IDENTITY, cube)

    def test_face_block_reaches_the_evaluator_uncopied_at_d_equal_q(self):
        # _face_points writes each block's rows into the block h gets, so no
        # rows are copied: one call fills the whole block, with no z or with
        # it, whether its cubes come from one level or from two
        F, built, seen = ExtremalFunction(beta=IDENTITY, d=3, q=2), [], []
        face_points = certifier._face_points

        class Recording:
            def evaluate_many(self, pts):
                seen.append(pts)
                return F.evaluate_many(np.hstack([pts, np.full((len(pts), 3 - pts.shape[1]), 0.5)]))

        def recorded(q, levels, ranks, out=None):
            built.append(face_points(q, levels, ranks, out))
            return built[-1]

        one = np.full(256, 2), np.arange(256)
        both = np.repeat([1, 2], [4, 256]), np.r_[np.arange(4), np.arange(256)]
        fresh = np.vstack([face_points(2, np.ones(4, int), np.arange(4)), face_points(2, *one)])
        with mock.patch.object(certifier, "_face_points", recorded):
            bare = certifier._miranda_verdicts(Recording(), IDENTITY, 2, *one)
            assert len(seen) == len(built) == 1 and built[0].shape == seen[0].shape
            assert np.shares_memory(built[0], seen[0])
            assert seen[0].shape == (256 * 36, 2) and seen[0].flags.f_contiguous
            for z in ((), (0.5,)):
                seen.clear(), built.clear()
                shared = certifier._miranda_verdicts(Recording(), IDENTITY, 2, *both, z)
                assert len(seen) == len(built) == 1
                block = seen[0]
                assert block.shape == (260 * 36, 2 + len(z)) and block.flags["F_CONTIGUOUS" if not z else "C_CONTIGUOUS"]
                assert np.shares_memory(built[0], block)
                assert np.array_equal(block[:, :2], fresh) and (block[:, 2:] == 0.5).all()
                assert shared[:4].all() and np.array_equal(shared[4:], bare)
        assert bare.all()  # every level-2 cube of F verifies

    @staticmethod
    def _rippled(d, q, p):
        """F plus a deterministic ripple of size 2**-9, its active components 0 on a comb of bands in x_0."""
        F = ExtremalFunction(beta=IDENTITY, d=d, q=q, p=p)

        class Rippled:
            def evaluate_many(self, pts):
                pts = np.asarray(pts, dtype=float)
                ripple = 2.0**-9 * np.sin(13.0 * pts[:, 0] + 41.0 * pts[:, -1])
                vals = F.evaluate_many(pts) + ripple[:, None]
                vals[(37.0 * pts[:, 0]) % 1.0 < 0.3, p:] = 0.0
                return vals

        return Rippled()

    @pytest.mark.parametrize(
        "d,q,p,z,chart",
        [(1, 1, 0, (), None), (2, 2, 0, (), None), (2, 1, 1, (0.3,), None), (2, 1, 1, (0.6,), "polar")],
        ids=["q1", "q2", "q1 with z", "q1 through a chart"],
    )
    @pytest.mark.parametrize("block", [None, 7, 108])
    def test_one_call_over_levels_matches_one_call_per_level(self, d, q, p, z, chart, block):
        # live cubes of several levels, some passing and some failing, in one
        # call or level by level: the same verdicts, whether a block holds one
        # cube, whole levels, or the end of one level and the start of the next
        h = self._rippled(d, q, p)
        if chart == "polar":
            chart = polar_demo_chart(r0=0.5)
            h = pullback_perturbation(chart, transport_function(chart, h))[0]
        rng = np.random.default_rng(3)
        live = {n: np.sort(rng.choice(2 ** (q * n * n), min(2 ** (q * n * n), 40), replace=False))
                for n in range(1, 4 - q)}
        want = {n: certifier._miranda_verdicts(h, IDENTITY, q, np.full(len(ranks), n), ranks, z, p)
                for n, ranks in live.items()}
        assert all(0 < w.sum() < len(w) for w in list(want.values())[1:])  # a mix of passes and failures
        levels = np.concatenate([np.full(len(ranks), n) for n, ranks in live.items()])
        blocks = []
        real = certifier.evaluate_rows
        with mock.patch.object(certifier, "SCAN_BLOCK_POINTS", block or certifier.SCAN_BLOCK_POINTS), \
                mock.patch.object(certifier, "evaluate_rows", lambda h, pts: blocks.append(len(pts)) or real(h, pts)):
            got = certifier._miranda_verdicts(h, IDENTITY, q, levels, np.concatenate(list(live.values())), z, p)
        rows = 2 * q * 9 ** (q - 1)
        step = max(1, (block or certifier.SCAN_BLOCK_POINTS) // rows)
        assert blocks == [rows * min(step, len(levels) - lo) for lo in range(0, len(levels), step)]
        assert got.tolist() == np.concatenate(list(want.values())).tolist()

    def test_each_cube_meets_its_own_levels_slack(self):
        # F's signs at magnitude 2**-8, between the level-2 slack 2**-10 and
        # the level-1 slack 2**-6: in one call over both levels, the level-1
        # cubes fail and the level-2 cubes pass
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)

        class Signs:
            def evaluate_many(self, pts):
                return 2.0**-8 * np.sign(F.evaluate_many(pts))

        levels, ranks = np.repeat([1, 2, 1], [1, 16, 1]), np.r_[0, np.arange(16), 1]
        got = certifier._miranda_verdicts(Signs(), IDENTITY, 1, levels, ranks)
        assert got.tolist() == [False] + [True] * 16 + [False]

    def test_slack_unchanged_up_to_q5(self):
        # sqrt(q-1)/2 <= 1 keeps the slack at beta(scale/4) bit for bit
        for q in (1, 2, 3, 4, 5):
            seen = []
            beta = lambda s: seen.append(s) or 1.0
            certifier._miranda_verdicts(lambda x: np.ones(q), beta, q, np.array([1]), np.array([0]))
            assert seen == [2.0**-6]



@functools.lru_cache(maxsize=None)
def _noisy_q2_base():
    return ExtremalFunction(beta=IDENTITY, d=2, q=2).sample(2.0**-10)

class TestCertify:
    def test_theoretical_level_one(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 2.0**-7)
        assert (cert.n0, cert.certified_count, cert.paper_bound) == (1, 2, 2)
        assert cert.mode == "theoretical"
        assert not cert.vacuous
        assert cert.envelope_ok

    def test_theoretical_level_two(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 2.0**-12)
        assert (cert.n0, cert.certified_count, cert.paper_bound) == (2, 18, 16)
        assert [lc.total for lc in cert.per_level_counts] == [2, 16]
        assert cert.theory_bound == pytest.approx(3.325337653108057, rel=1e-12)

    def test_vacuous_certificate(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 0.5)
        assert cert.n0 == 0
        assert cert.certified_count == 0
        assert cert.paper_bound == 0
        assert cert.vacuous

    @pytest.mark.parametrize(
        "points, reason",
        [
            ([(0.0, 2.0**-20), (2.0**-10, -0.25)], "vanishes_at_zero fails at (0.0)"),
            ([(0.013, 0.5), (0.026, 1.5)], "subadditive fails at (0.013, 0.013)"),
        ],
    )
    def test_table_that_is_not_a_modulus_is_refused(self, points, reason):
        # refused when F is built, so no certify, theoretical or empirical, meets it
        with pytest.raises(DomainError, match=re.escape(f"beta is not a modulus of continuity: {reason}")):
            ExtremalFunction(beta=ModulusSpec.table(points), d=1, q=1)

    def test_saturated_modulus_flags_vacuous_even_at_depth(self):
        # the modulus rises steeply and saturates at 0.5, so the depth
        # band accepts eps = 0.25 while the inverse at 2*eps is infinite;
        # the certificate keeps its count but is flagged vacuous
        beta = ModulusSpec.table([(2.0**-6, 0.5), (1.0, 0.5)])
        F = ExtremalFunction(beta=beta, d=1, q=1)
        cert = certify(F, 0.25)
        assert cert.n0 == 1
        assert cert.certified_count == 2
        assert cert.theory_bound == 0.0
        assert cert.vacuous

    def test_rectangle_halfwidth_guard(self):
        from translab import identity_chart

        F = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        small = certify(F, 2.0**-7, chart=identity_chart(2, r0=1.0))
        assert small.n0 == 1 and not small.vacuous
        # a budget beyond the rectangle half-width voids the flat reduction
        wide = certify(F, 2.0**-7, chart=identity_chart(2, r0=2.0**-8))
        assert wide.n0 == 0 and wide.vacuous

    def test_monotone_in_budget(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        counts = []
        theory = []
        for j in range(6, 18):
            cert = certify(F, 2.0**-j)
            counts.append(cert.certified_count)
            theory.append(cert.theory_bound)
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(theory, theory[1:]))

    def test_empirical_matches_theoretical_counts(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        h = F.sample(2.0**-8)
        cert = certify(F, 2.0**-7, h=h)
        assert cert.mode == "empirical"
        assert cert.certified_count == 2
        assert cert.per_level_counts[0].verified == 2

    def test_empirical_failure_is_reported(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 2.0**-7, h=lambda x: np.array([0.0]))
        assert cert.certified_count == 0
        assert cert.per_level_counts[0].verified == 0
        assert not cert.envelope_ok

    def test_z_grid_slices(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        h = F.sample(2.0**-6)
        cert = certify(F, 2.0**-7, h=h, z_grid=3)
        assert cert.certified_count == 2

    def test_budget_validation(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        with pytest.raises(DomainError):
            certify(F, 0.0)
        # NaN fails every band comparison; it is refused on every path, not resolved to a depth
        padded = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        for fn, chart in ((F, None), (padded, None), (padded, identity_chart(2))):
            with pytest.raises(DomainError, match="budget must be positive, got nan"):
                certify(fn, math.nan, chart=chart)

    @pytest.mark.parametrize("d,q", [(1, 1), (2, 2), (2, 1)])
    def test_z_grid_validated_before_any_work(self, d, q):
        F = ExtremalFunction(beta=IDENTITY, d=d, q=q)

        def never(x):
            pytest.fail("evaluator called before z_grid was checked")

        for h in (None, never):
            with pytest.raises(DomainError, match="z-grid must be >= 1, got 0"):
                certify(F, 2.0**-7, h=h, z_grid=0)

    @pytest.mark.parametrize(
        "d,q,h,why",
        [
            (1, 1, True, r"d = q = 1 leaves none"),
            (2, 2, True, r"d = q = 2 leaves none"),
            (2, 1, False, r"theoretical mode \(no h\) runs none"),
            (1, 1, False, r"d = q = 1 leaves none"),
        ],
    )
    def test_z_grid_that_slices_nothing_is_refused_before_any_work(self, monkeypatch, d, q, h, why):
        F = ExtremalFunction(beta=IDENTITY, d=d, q=q)

        def never(*args):
            pytest.fail("evaluated before z_grid was checked")

        monkeypatch.setattr(ModulusSpec, "__call__", never)
        monkeypatch.setattr(ModulusSpec, "many", never)
        with pytest.raises(DomainError, match=rf"^z-grid 3 slices .*{why}$"):
            certify(F, 2.0**-7, h=never if h else None, z_grid=3)

    def test_z_grid_matches_oracle_over_slices(self):
        # different cubes fail on different slices; a cube counts only
        # when it passes on all of them
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        base = F.sample(2.0**-9)
        values = base.values.copy()
        x, y = np.meshgrid(*base.grid, indexing="ij")
        values[(x < 0.25) & (np.abs(y - 1 / 6) < 0.05), 0] = 0.0
        values[(x > 0.55) & (x < 0.6) & (np.abs(y - 0.5) < 0.05), 0] = 0.0
        h = base.with_values(values)
        eps = 2.0**-12
        cert = certify(F, eps, h=h, z_grid=3)
        slices = [(1 / 6,), (0.5,), (5 / 6,)]
        want = [
            sum(all(oracle_verify(h, IDENTITY, cube, z) for z in slices) for cube in oracle_cubes(n, 1))
            for n in (1, 2)
        ]
        assert [c.verified for c in cert.per_level_counts] == want
        assert 0 < want[0] < 2 and 0 < want[1] < 16

    def test_cap_preflight_starts_no_work(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)

        def never(x):
            pytest.fail("evaluator called before the enumeration cap check")

        assert certify(F, 2.0**-35).n0 == 5  # theoretical mode has no cap
        with pytest.raises(EnumerationCapError, match=r"^certify's level 5 at q = 1 needs 33554432 cubes, over the cap of 16777216$"):
            certify(F, 2.0**-35, h=never)
        F2 = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        with pytest.raises(EnumerationCapError, match=r"^certify's level 4 at q = 2 needs 4294967296 cubes, over the cap of 16777216$"):
            certify(F2, 2.0**-28, h=never)

    def test_evaluation_preflight_names_the_cost(self):
        # d = q = 6 at eps = 1e-4 is depth 2: level 2's 2**24 cubes pass the cube cap, but
        # (2**6 + 2**24) cubes of 12 * 9**5 face points each are about 99 days of work
        F = ExtremalFunction(beta=IDENTITY, d=6, q=6)

        def never(x):
            pytest.fail("evaluator called before the evaluation preflight")

        assert certify(F, 1e-4).per_level_counts[-1] == certifier.LevelCount(n=2, verified=2**24, total=2**24)
        with pytest.raises(EnumerationCapError, match=r" needs 11888179280640 evaluations, over the cap of 1073741824$"):
            certify(F, 1e-4, h=never)

    def test_too_large_z_grid_is_refused_before_any_slice(self, monkeypatch):
        # 10**6 slices on each of 3 free axes: building them would not end
        F = ExtremalFunction(beta=IDENTITY, d=4, q=1)
        monkeypatch.setattr(certifier.np, "ndindex", lambda *shape: pytest.fail("a slice was built"))
        with pytest.raises(EnumerationCapError, match=r"z-grid 1000000 needs 36000000000000000000 evaluations"):
            certify(F, 2.0**-12, h=F, z_grid=10**6)

    def test_evaluation_count_is_exact_and_the_cap_inclusive(self, monkeypatch):
        # h = F passes every cube on every slice, so h sees exactly the counted points:
        # (2 + 16) cubes * 2 face points * 3 slices at depth 2, q = 1, d = 2, z_grid = 3
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        seen = []

        class Counted:
            def evaluate_many(self, pts):
                seen.append(len(pts))
                return F.evaluate_many(pts)

        monkeypatch.setattr(certifier, "EVALUATION_CAP", 108)
        assert certify(F, 2.0**-12, h=Counted(), z_grid=3).certified_count == 18
        assert sum(seen) == 108
        monkeypatch.setattr(certifier, "EVALUATION_CAP", 107)
        with pytest.raises(EnumerationCapError, match="needs 108 evaluations, over the cap of 107$"):
            certify(F, 2.0**-12, h=Counted(), z_grid=3)
        assert sum(seen) == 108

    def test_slice_count_is_refused_before_h_is_called(self):
        # depth 1 at d = 2, q = 1: 2 cubes of 2 face points, so 2**28 slices are
        # 2**30 evaluations, inside the inclusive evaluation cap, but each slice
        # is a Miranda call with a fixed cost, and so many would run for hours
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)

        def spy(x):
            pytest.fail("h called before the slice cap check")

        message = r"^certify to depth 1, q = 1, z-grid 268435456 needs 268435456 slices, over the cap of 8388608$"
        with pytest.raises(EnumerationCapError, match=message):
            certify(F, 2.0**-7, h=spy, z_grid=2**28)

    def test_slice_cap_is_inclusive(self, monkeypatch):
        # depth 2 at z_grid = 3 on one free axis: 2 levels * 3 slices
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        monkeypatch.setattr(certifier, "SLICE_CAP", 6)
        assert certify(F, 2.0**-12, h=F, z_grid=3).certified_count == 18
        monkeypatch.setattr(certifier, "SLICE_CAP", 5)
        with pytest.raises(EnumerationCapError, match="z-grid 3 needs 6 slices, over the cap of 5$"):
            certify(F, 2.0**-12, h=F, z_grid=3)

    @pytest.mark.parametrize(
        "eps,z_grid,dead_above,dead_left_of,calls,verified",
        [
            (2.0**-7, 4000, -1.0, 1.0, [(1,)], [0]),  # every cube fails on the first slice
            (2.0**-12, 4000, -1.0, 1.0, [(1, 2)], [0, 0]),
            (2.0**-12, 4, 0.5, 1.0, [(1, 2)] * 3, [0, 0]),  # z = 1/8, 3/8 pass, z = 5/8 empties both levels
            (2.0**-12, 4, 0.5, 0.5, [(1, 2)] * 3 + [(2,)], [0, 16]),  # z = 5/8 empties level 1 (x_0 < 1/2) only
        ],
    )
    def test_an_emptied_level_stops_slicing(self, monkeypatch, eps, z_grid, dead_above, dead_left_of, calls, verified):
        # one Miranda call per slice tests every level with a live cube; a
        # level whose cubes have all failed drops out of the later calls, and
        # once no level is left the remaining slices make no call at all
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        seen, made = [], []

        class Vanishing:
            """F, but 0 where the free coordinate is past dead_above and x_0 is left of dead_left_of."""

            def evaluate_many(self, pts):
                seen.append(len(pts))
                dead = (pts[:, 1:] > dead_above) & (pts[:, :1] < dead_left_of)
                return np.where(dead, 0.0, F.evaluate_many(pts))

        verdicts = certifier._miranda_verdicts

        def counted(h, beta, q, levels, ranks, *args):
            made.append(tuple(np.unique(levels).tolist()))
            return verdicts(h, beta, q, levels, ranks, *args)

        monkeypatch.setattr(certifier, "_miranda_verdicts", counted)
        cert = certify(F, eps, h=Vanishing(), z_grid=z_grid)
        assert [c.verified for c in cert.per_level_counts] == verified
        assert made == calls
        assert len(seen) == len(calls)  # one h call per slice: all its levels fit one block

    def test_h_sees_each_live_cube_once_per_slice(self):
        # the points h is asked for in a run are, as a multiset, the face
        # points of each level's cubes still alive at each slice, z
        # appended, with the live cubes decided by the per-point oracle and
        # a level left once it is empty: different cubes of every level
        # fail on different slices, and level 1 empties before the last
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        seen = []

        class Recorded:
            """F, 0 where x_0 < 1/2 and z > 0.6, where 0.6 < x_0 < 0.7 and z > 0.2, and where x_0 > 0.8."""

            def evaluate_many(self, pts):
                seen.extend(map(tuple, pts.tolist()))
                return self.values(pts)

            def __call__(self, x):
                return self.values(np.asarray(x)[None, :])[0]

            @staticmethod
            def values(pts):
                x, z = pts[:, :1], pts[:, 1:]
                dead = (x < 0.5) & (z > 0.6) | (x > 0.6) & (x < 0.7) & (z > 0.2) | (x > 0.8)
                return np.where(dead, 0.0, F.evaluate_many(pts))

        h, eps, slices = Recorded(), 2.0**-19, [(1 / 6,), (0.5,), (5 / 6,)]
        cert = certify(F, eps, h=h, z_grid=3)
        want, alive = [], {}
        for n in range(1, cert.n0 + 1):
            live = oracle_cubes(n, 1)
            for z in slices:
                if not live:
                    break
                want += [tuple(float(c) for c in pt) + z for cube in live for pt in oracle_face_points(cube)]
                live = [cube for cube in live if oracle_verify(h, IDENTITY, cube, z)]
            alive[n] = len(live)
        assert cert.n0 == 3 and alive[1] == 0 and 0 < alive[2] < 16 and 0 < alive[3] < 512
        assert [c.verified for c in cert.per_level_counts] == list(alive.values())
        assert collections.Counter(seen) == collections.Counter(want)

    def test_one_evaluator_call_at_the_certify_q2_shape(self):
        # d = q = 2 at eps = 2**-12: the 4 + 256 cubes of both levels are
        # 9360 face points, under SCAN_BLOCK_POINTS, so one call of h
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        eps = 2.0**-12
        base = _noisy_q2_base()
        h = base.with_values(base.values + np.random.default_rng(2).uniform(-eps, eps, base.values.shape))
        real, blocks = certifier.evaluate_rows, []
        with mock.patch.object(certifier, "evaluate_rows", lambda h, pts: blocks.append(len(pts)) or real(h, pts)):
            cert = certify(F, eps, h=h)
        assert [(c.n, c.verified, c.total) for c in cert.per_level_counts] == [(1, 4, 4), (2, 256, 256)]
        assert blocks == [9360]

    def test_empirical_counts_are_python_ints(self):
        # the verified counts are tallied in numpy and reach the certificate as ints
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        cert = certify(F, 2.0**-12, h=F, z_grid=2)
        assert [lc.verified for lc in cert.per_level_counts] == [2, 16] and cert.certified_count == 18
        assert all(type(lc.verified) is int for lc in cert.per_level_counts)
        assert type(cert.certified_count) is int

    @pytest.mark.parametrize("z_grid", [2.5, 2.0, "3", None, np.float64(3.0)])
    def test_z_grid_that_is_no_integer_is_refused_before_any_work(self, monkeypatch, z_grid):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)

        def never(*args):
            pytest.fail("evaluated before z_grid was checked")

        monkeypatch.setattr(ModulusSpec, "__call__", never)
        monkeypatch.setattr(ModulusSpec, "many", never)
        with pytest.raises(DomainError, match=rf"^z-grid must be an integer, got {re.escape(repr(z_grid))}$"):
            certify(F, 2.0**-7, h=never, z_grid=z_grid)

    def test_numpy_integer_z_grid_passes(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        assert certify(F, 2.0**-12, h=F, z_grid=np.int64(3)) == certify(F, 2.0**-12, h=F, z_grid=3)

    @pytest.mark.parametrize("zeroed", [(), (3,), (0, 9), (1, 5, 15)])
    def test_noisy_q2_counts_pinned(self, zeroed):
        # a noisy 2-D sample at eps = 2**-12 (n0 = 2); component 0 vanishes
        # on each zeroed level-2 bump, so the 16 cubes whose first
        # coordinate lies on that bump fail, and no other cube does
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        eps = 2.0**-12
        base = _noisy_q2_base()
        values = base.values + np.random.default_rng(len(zeroed)).uniform(-eps, eps, base.values.shape)
        lev = level_schedule(2)
        knots = base.grid[0]
        for i in zeroed:
            a = float(lev.start + 4 * i * lev.scale)
            values[(knots >= a) & (knots <= a + float(4 * lev.scale)), :, 0] = 0.0
        h = base.with_values(values)
        want = [(1, 4, 4), (2, 256 - 16 * len(zeroed), 256)]
        cert = certify(F, eps, h=h)
        assert [(c.n, c.verified, c.total) for c in cert.per_level_counts] == want
        with mock.patch.object(certifier, "SCAN_BLOCK_POINTS", 7):
            assert certify(F, eps, h=h) == cert


class TestFlatEvaluator:
    """With no chart, certify evaluates h itself, not its identity pullback."""

    def test_noisy_q2_sample_matches_the_identity_chart(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        eps = 2.0**-12
        base = _noisy_q2_base()
        values = base.values + np.random.default_rng(11).uniform(-eps, eps, base.values.shape)
        lev, knots = level_schedule(2), base.grid[0]
        a = float(lev.start)  # component 0 vanishes on level 2's first bump: 16 cubes fail
        values[(knots >= a) & (knots <= a + float(4 * lev.scale)), :, 0] = 0.0
        h = base.with_values(values)
        cert = certify(F, eps, h=h)
        assert [(c.n, c.verified, c.total) for c in cert.per_level_counts] == [(1, 4, 4), (2, 240, 256)]
        assert cert == certify(F, eps, h=h, chart=identity_chart(2, r0=math.inf))

    def test_per_point_h_on_slices_matches_the_identity_chart(self):
        # d > q, z_grid = 3: h vanishes on part of the last slice of the free axes
        F = ExtremalFunction(beta=IDENTITY, d=3, q=1, p=1)
        eps = 2.0**-12
        seen = {None: [], "identity": []}

        def recorded(key):
            def h(x):
                seen[key].append(tuple(x))
                v = F(x)
                if x[2] > 0.8 and x[0] > 0.7:
                    v[1] = 0.0
                return v

            return h

        cert = certify(F, eps, h=recorded(None), z_grid=3)
        assert cert == certify(F, eps, h=recorded("identity"), chart=identity_chart(2, r0=math.inf), z_grid=3)
        assert 0 < cert.certified_count < 18
        assert seen[None] == seen["identity"]

    @pytest.mark.parametrize("chart", [None, identity_chart(2, r0=math.inf)], ids=["no chart", "identity chart"])
    def test_wrong_width_batched_h_names_m(self, chart):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)

        class Wide:
            def evaluate_many(self, pts):
                return np.zeros((len(pts), 3))

        with pytest.raises(ShapeError, match=r"^h gave values of shape \(144, 3\) at 144 points, expected \(144, 2\): m = 2 values per point$"):
            certify(F, 2.0**-7, h=Wide(), chart=chart)

    def test_cached_face_offsets_are_read_only(self):
        offsets = certifier._face_offsets(2)
        assert offsets is certifier._face_offsets(2) and offsets.shape == (2, 36)
        with pytest.raises(ValueError):
            offsets[0, 0] = 3


class TestTheoryBounds:
    def test_spot_value(self):
        # independent route: Psi(2 * 2**-12) = 2**-11, so the bound is
        # 2**15 * 2**(-4 sqrt 11)
        ref = math.ldexp(1.0, 15) * 2.0 ** (-4.0 * math.sqrt(11.0))
        got = theory_lower_bound(IDENTITY, 2.0**-12, 1, 0, 2.0)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_square_root_modulus_value(self):
        # beta = s**0.5, eps = 2**-9, gamma = 2: Psi(2**-8) = 2**-16,
        # bound = 2**20 * 2**(-4*4) = 16 exactly
        beta = ModulusSpec.power(1.0, 0.5)
        assert theory_lower_bound(beta, 2.0**-9, 1, 0, 2.0) == pytest.approx(16.0, rel=1e-12)

    def test_unit_inverse_log_term(self):
        # Psi(gamma eps) = 16 gives the pure 2**-8 correction
        assert theory_lower_bound(IDENTITY, 8.0, 1, 0, 2.0) == pytest.approx(2.0**-8, rel=1e-12)

    def test_saturated_modulus_is_vacuous(self):
        beta = ModulusSpec.table([(1.0, 0.5)])
        assert theory_lower_bound(beta, 0.3, 1, 0, 2.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            theory_lower_bound(IDENTITY, -1.0, 1, 0, 2.0)
        with pytest.raises(DomainError):
            theory_lower_bound(IDENTITY, math.nan, 1, 0, 2.0)
        with pytest.raises(DomainError):
            theory_lower_bound(IDENTITY, 0.5, 1, 1, 2.0)
        for gamma in (0.0, -2.0, math.nan):
            with pytest.raises(DomainError, match="need gamma > 0"):
                theory_lower_bound(IDENTITY, 0.5, 1, 0, gamma)

    def test_holder_closed_form_consistency(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            lam = rng.uniform(0.3, 3.0)
            alpha = rng.uniform(0.3, 1.0)
            eps = 2.0 ** rng.uniform(-18.0, -3.0)
            via_inverse = theory_lower_bound(ModulusSpec.power(lam, alpha), eps, 1, 0, 2.0)
            closed = holder_lower_bound(lam, alpha, eps, 1, 0, 2.0)
            assert closed == pytest.approx(via_inverse, rel=1e-10)

    def test_holder_no_log_term_at_unit_ratio(self):
        # gamma eps = lam makes the correction vanish: bound = 16**(m-p)
        assert holder_lower_bound(0.7, 1.0, 0.35, 1, 0, 2.0) == pytest.approx(16.0, rel=1e-12)
        assert holder_lower_bound(0.7, 0.5, 0.35, 2, 0, 2.0) == pytest.approx(16.0**2, rel=1e-12)

    def test_holder_validation(self):
        with pytest.raises(DomainError):
            holder_lower_bound(1.0, 1.5, 0.1, 1, 0, 2.0)
        with pytest.raises(DomainError):
            holder_lower_bound(0.0, 1.0, 0.1, 1, 0, 2.0)
        with pytest.raises(DomainError):
            holder_lower_bound(1.0, 1.0, math.nan, 1, 0, 2.0)

    @pytest.mark.parametrize("q", [1, 2])
    def test_envelope_past_the_quotient_overflow_matches_closed_form_in_log2(self, q):
        # (16/psi)**q overflows a double from j = 1021 at q = 1 and j = 510 at
        # q = 2; the envelope itself passes 2**1024 only from j = 608 at q = 2
        gamma = 2.0 * math.sqrt(q)
        for j in [*range(500, 520), *range(600, 615), *range(1015, 1030), 1074]:
            eps = 2.0**-j
            got = theory_lower_bound(IDENTITY, eps, q, 0, gamma)
            want = holder_lower_bound_log2(1.0, 1.0, eps, q, 0, gamma)
            psi = IDENTITY.inverse(gamma * eps)
            try:  # the direct form, which must stay bit for bit wherever it is finite
                direct = (16.0 / psi) ** q * 2.0 ** (-4.0 * q * math.sqrt(abs(math.log2(psi))))
            except OverflowError:
                direct = math.inf
            if math.isfinite(direct):
                assert got == direct
            if want < 1024.0:
                assert math.log2(got) == pytest.approx(want, abs=1e-9)
            else:
                assert got == math.inf
        assert (j, q == 1) == (1074, math.isfinite(got))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("q", [1, 2])
    def test_envelope_across_the_double_range_matches_closed_form_in_log2(self, alpha, q):
        # the power inverse (gamma eps)**(1/alpha) underflows from about j = 1022 alpha; log2 psi
        # is then formed from logs, so the envelope never reads 0.0, and reads inf exactly
        # where its closed form passes 2**1024
        beta, gamma = ModulusSpec.power(1.0, alpha), 2.0 * math.sqrt(q)
        for j in range(6, 1075):
            got = theory_lower_bound(beta, 2.0**-j, q, 0, gamma)
            want = holder_lower_bound_log2(1.0, alpha, 2.0**-j, q, 0, gamma)
            if want < 1024.0:
                assert 0.0 < got < math.inf and math.log2(got) == pytest.approx(want, abs=1e-9), j
            else:
                assert got == math.inf, j

    def test_subnormal_quotient_envelope_matches_closed_form_in_log2(self):
        # at lam = 3 the quotient gamma * eps / lam is subnormal here, so its log2 would
        # round: taken as one quotient, the oracle was off by 0.39 and 0.55 at j = 1073, 1074
        beta = ModulusSpec.power(3.0, 1.0)
        for j in range(1060, 1075):
            eps = 2.0**-j
            assert 2.0 * eps / 3.0 < sys.float_info.min
            got = math.log2(theory_lower_bound(beta, eps, 1, 0, 2.0))
            assert got == pytest.approx(holder_lower_bound_log2(3.0, 1.0, eps, 1, 0, 2.0), abs=1e-9), j

    def test_quarter_power_envelope_past_the_inverse_underflow_is_pinned(self):
        # at alpha = 1/4 the inverse (2 eps)**4 is the subnormal 2**-1072 at j = 269 and
        # underflows to 0.0 from j = 270; the bound is 2**(4 + 4 (j - 1) - 4 sqrt(4 (j - 1))),
        # past 2**1024 from j = 290
        beta = ModulusSpec.power(1.0, 0.25)
        assert beta.inverse(2.0 * 2.0**-269) == 2.0**-1072 and beta.inverse(2.0 * 2.0**-270) == 0.0
        got = [theory_lower_bound(beta, 2.0**-j, 1, 0, 2.0) for j in (269, 270, 1074)]
        assert got == [2.0 ** (1076.0 - 4.0 * math.sqrt(1072.0)), 2.0 ** (1080.0 - 4.0 * math.sqrt(1076.0)), math.inf]
        assert f"{got[0]:.3g}" == "3.05e+284"
        F = ExtremalFunction(beta=beta, d=1, q=1)
        cert = certify(F, 2.0**-270)
        assert cert.theory_bound == got[1] and not cert.vacuous

    def test_certify_past_the_quotient_overflow(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        cert = certify(F, 2.0**-510)
        want = holder_lower_bound_log2(1.0, 1.0, 2.0**-510, 2, 0, 2.0 * math.sqrt(2.0))
        assert math.log2(cert.theory_bound) == pytest.approx(want, abs=1e-9)
        assert cert.envelope_ok and not cert.vacuous

    def test_envelope_below_certified_on_dyadic_grid(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        for j in range(6, 17):
            cert = certify(F, 2.0**-j)
            assert cert.n0 >= 1
            assert cert.theory_bound <= cert.certified_count


class TestEmpiricalGuarantee:
    def test_random_perturbations_all_verify(self):
        # perturbations within 2**-7 of the sampled extremal always pass
        # level 1 and keep at least two zero components
        from translab import count_zero_components, sup_distance

        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        base = F.sample(2.0**-8)
        eps = 2.0**-7
        amp = eps - 2.0**-15  # headroom for sampling aliasing above level 2
        rng = np.random.default_rng(41)
        cubes = oracle_cubes(1, 1)
        for _ in range(100):
            h = base.with_values(base.values + rng.uniform(-amp, amp, size=base.values.shape))
            assert sup_distance(h, base) <= eps
            assert all(miranda_verdict(h, IDENTITY, cube) for cube in cubes)
            assert count_zero_components(h).component_count >= 2

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 7: the lattice face test's slack beta(scale/4) swallows F's own face values at "
        "alpha <= 1/2 (q = 1) and alpha <= 3/4 (q = 2), so certify(F, eps, h=F) verifies no cube there",
    )
    @pytest.mark.parametrize("q,alpha,depths", [(1, 0.25, 3), (1, 0.5, 3), (2, 0.25, 2), (2, 0.5, 2), (2, 0.75, 2)])
    def test_the_target_verifies_every_cube_of_its_own_certificate(self, q, alpha, depths):
        # h = F is at distance 0 from F, so each of its cubes must pass the
        # face test at every budget of depth 1..depths; alpha = 1, and 3/4 at
        # q = 1, already do
        beta = ModulusSpec.power(1.0, alpha)
        F = ExtremalFunction(beta=beta, d=q, q=q)
        budgets = [2.0**-j for j in range(1, 40) if 1 <= resolve_depth(beta, q, 2.0**-j) <= depths]
        if not budgets:  # not an AssertionError, so an empty list fails instead of counting as the known defect
            pytest.fail(f"no budget of depth 1..{depths}")
        for eps in budgets:
            cert = certify(F, eps, h=F)
            assert [lc.verified for lc in cert.per_level_counts] == [lc.total for lc in cert.per_level_counts], eps
