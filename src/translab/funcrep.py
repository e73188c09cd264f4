"""Piecewise-multilinear grid functions on [0,1]^d.

A ``SampledFunction`` stores per-axis knot lists covering [0,1] and an
array of R^m values at every knot tuple; evaluation is multilinear
interpolation, exact at knots.  The module provides the operations the
rest of the package builds on: exact sup-distance in every dimension,
connected-component counting of the zero set of scalar functions on
[0,1], knot-zero nudging, and ``evaluate_rows``, the one place that
tells an evaluator with ``evaluate_many`` from a per-point callable.

Plain-text file format: a header line ``d m`` followed by one line per
knot tuple, ``x1 ... xd v1 ... vm``, sorted lexicographically by knots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ShapeError


def _as_grid(grid: Iterable[Sequence[float]]) -> tuple[np.ndarray, ...]:
    axes = []
    for knots in grid:
        k = np.asarray(knots, dtype=float)
        if k.ndim != 1 or len(k) < 2:
            raise ShapeError("each axis needs at least two knots")
        if k[0] != 0.0 or k[-1] != 1.0:
            raise DomainError(f"knot lists must start at 0 and end at 1, got [{k[0]}, {k[-1]}]")
        if np.any(np.diff(k) <= 0.0):
            raise DomainError("knot lists must be strictly increasing")
        k.setflags(write=False)
        axes.append(k)
    return tuple(axes)


def evaluate_rows(h: Callable, pts: np.ndarray) -> np.ndarray:
    """h at every row of pts as an (N, m) array: one ``h.evaluate_many`` call, else one call per row."""
    many = getattr(h, "evaluate_many", None)
    if many is not None:
        return np.asarray(many(pts), dtype=float)
    return np.array([np.asarray(h(row), dtype=float) for row in pts])


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values of a map [0,1]^d -> R^m on a rectilinear knot grid."""

    grid: tuple[np.ndarray, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = _as_grid(self.grid)
        lens = tuple(len(k) for k in grid)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == len(lens):  # scalar codomain given without the m axis
            vals = vals[..., None]
        if vals.shape[:-1] != lens:
            raise ShapeError(f"values shape {vals.shape} does not match grid lengths {lens}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.grid)

    @property
    def m(self) -> int:
        return int(self.values.shape[-1])

    @classmethod
    def from_callable(
        cls, fn: Callable, grid: Iterable[Sequence[float]], m: int | None = None
    ) -> "SampledFunction":
        """Sample ``fn`` at every knot tuple of ``grid``, one call per tuple."""
        axes = _as_grid(grid)
        lens = tuple(len(k) for k in axes)
        rows = [np.atleast_1d(np.asarray(fn(np.array(x)), dtype=float)) for x in itertools.product(*axes)]
        m = len(rows[0]) if m is None else m
        vals = np.empty(lens + (m,), dtype=float)
        vals.reshape(-1, m)[:] = rows
        return cls(grid=axes, values=vals)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at an (N, d) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ShapeError(f"expected points of shape (N, {self.d}), got {pts.shape}")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            bad = pts[np.any((pts < 0.0) | (pts > 1.0), axis=1)][0]
            raise DomainError(f"point {tuple(bad)} outside [0,1]^{self.d}")
        n = len(pts)
        cell = []
        frac = []
        for axis, knots in enumerate(self.grid):
            i = np.clip(np.searchsorted(knots, pts[:, axis], side="right") - 1, 0, len(knots) - 2)
            w = (pts[:, axis] - knots[i]) / (knots[i + 1] - knots[i])
            cell.append(i)
            frac.append(w)
        out = np.zeros((n, self.m))
        for corner in itertools.product((0, 1), repeat=self.d):
            weight = np.ones(n)
            sel = []
            for axis, c in enumerate(corner):
                weight = weight * (frac[axis] if c else 1.0 - frac[axis])
                sel.append(cell[axis] + c)
            out += weight[:, None] * self.values[tuple(sel)]
        return out

    def evaluate(self, x) -> np.ndarray:
        return self.evaluate_many(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]

    __call__ = evaluate

    def knot_points(self) -> np.ndarray:
        """All knot tuples as an (N, d) array in lexicographic order."""
        mesh = np.meshgrid(*self.grid, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def refine(self, extra: Iterable[Sequence[float]]) -> "SampledFunction":
        """Insert knots per axis; the interpolant is unchanged."""
        merged = tuple(np.union1d(k, np.asarray(e, dtype=float)) for k, e in zip(self.grid, extra))
        for k in merged:
            if k[0] < 0.0 or k[-1] > 1.0:
                raise DomainError("refinement knots must stay inside [0,1]")
        lens = tuple(len(k) for k in merged)
        mesh = np.meshgrid(*merged, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = self.evaluate_many(pts).reshape(lens + (self.m,))
        return SampledFunction(grid=merged, values=vals)

    def component(self, i: int) -> "SampledFunction":
        """The i-th scalar component as its own grid function."""
        if not (0 <= i < self.m):
            raise ShapeError(f"component {i} out of range for m={self.m}")
        return SampledFunction(grid=self.grid, values=self.values[..., i : i + 1])

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(grid=self.grid, values=values)

    def save(self, path) -> None:
        pts = self.knot_points()
        vals = self.values.reshape(-1, self.m)
        with open(path, "w") as fh:
            fh.write(f"{self.d} {self.m}\n")
            for x, v in zip(pts, vals):
                fields = [f"{c:.17g}" for c in x] + [f"{c:.17g}" for c in v]
                fh.write(" ".join(fields) + "\n")

    @classmethod
    def load(cls, path) -> "SampledFunction":
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ShapeError("function file must start with a 'd m' header line")
            d, m = int(header[0]), int(header[1])
            rows = [[float(tok) for tok in line.split()] for line in fh if line.strip()]
        if any(len(r) != d + m for r in rows):
            raise ShapeError(f"every row must have {d + m} fields")
        data = np.asarray(rows, dtype=float)
        axes = tuple(np.unique(data[:, a]) for a in range(d))
        lens = tuple(len(k) for k in axes)
        if math.prod(lens) != len(rows):
            raise ShapeError("rows do not form a full knot-tuple product")
        vals = data[:, d:].reshape(lens + (m,))
        return cls(grid=axes, values=vals)


@dataclass(frozen=True)
class ZeroSetSummary:
    """Connected components of {x : h(x) = 0} for scalar h on [0,1]."""

    component_count: int
    has_flat_zero_interval: bool
    components: tuple[tuple[float, float], ...]

    @property
    def h0(self) -> float:
        """Counting measure of the zero set: +inf once an interval of zeros exists."""
        return math.inf if self.has_flat_zero_interval else float(self.component_count)


def _require_scalar_1d(h: SampledFunction, op: str) -> tuple[np.ndarray, np.ndarray]:
    if h.d != 1 or h.m != 1:
        raise ShapeError(f"{op} needs d = 1 and m = 1, got d={h.d}, m={h.m}")
    return h.grid[0], h.values[:, 0]


def count_zero_components(h: SampledFunction) -> ZeroSetSummary:
    """Exact zero-component count of a piecewise-linear scalar function.

    Works segment by segment from the knot values: a segment contributes
    its whole extent when both endpoint values vanish, an endpoint when
    exactly one vanishes, and one interior crossing on a strict sign
    change.  Touching pieces merge into a single component: a piece
    opens a new one exactly when it starts right of every earlier end.
    """
    x, v = _require_scalar_1d(h, "count_zero_components")
    x0, x1, v0, v1 = x[:-1], x[1:], v[:-1], v[1:]
    z0, z1 = v0 == 0.0, v1 == 0.0
    cross = ~z0 & ~z1 & ((v0 > 0.0) != (v1 > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        root = x0 + (x1 - x0) * v0 / (v0 - v1)
    start = np.where(z0, x0, np.where(z1, x1, root))
    end = np.where(z1, x1, np.where(z0, x0, root))
    piece = z0 | z1 | cross
    start, end = start[piece], end[piece]
    reach = np.maximum.accumulate(end)  # equals the open component's end
    opens = np.ones(len(start), dtype=bool)
    opens[1:] = start[1:] > reach[:-1]
    closes = np.roll(opens, -1)  # the last piece of each component
    comps = tuple(zip(start[opens].tolist(), reach[closes].tolist()))
    flat = any(b > a for a, b in comps)
    return ZeroSetSummary(component_count=len(comps), has_flat_zero_interval=flat, components=comps)


def nudge_knot_zeros(h: SampledFunction, eta: float) -> SampledFunction:
    """Replace every knot value with |value| < eta by +eta.

    The sign convention is fixed to +eta for reproducibility.  The
    result differs from h by at most 2*eta in sup norm.
    """
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    _require_scalar_1d(h, "nudge_knot_zeros")
    vals = h.values.copy()
    vals[np.abs(vals) < eta] = eta
    return h.with_values(vals)


def sup_distance(h1: SampledFunction, h2: SampledFunction) -> float:
    """C0 distance of two grid functions, exact in every dimension.

    On each cell of the merged knot grid both interpolants are
    multilinear, so their difference is too; its norm is convex along
    each coordinate with the others fixed, so the maximum over a cell
    sits at one of its vertices, and the merged knots suffice.
    """
    if h1.d != h2.d or h1.m != h2.m:
        raise ShapeError(
            f"shape mismatch: ({h1.d},{h1.m}) vs ({h2.d},{h2.m})"
        )
    merged = tuple(np.union1d(a, b) for a, b in zip(h1.grid, h2.grid))
    mesh = np.meshgrid(*merged, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    diff = h1.evaluate_many(pts) - h2.evaluate_many(pts)
    return float(np.sqrt((diff**2).sum(-1)).max())
