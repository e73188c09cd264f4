"""Piecewise-multilinear grid functions on [0,1]^d.

A ``SampledFunction`` stores per-axis knot lists covering [0,1] and an
array of R^m values at every knot tuple; evaluation is multilinear
interpolation, exact at knots.  The module provides the operations the
rest of the package builds on: exact sup-distance in every dimension,
exact zero-component counting of scalar functions on [0,1] from knot
signs, knot-zero nudging, and ``evaluate_rows``, the one place that
tells an evaluator with ``evaluate_many`` from a per-point callable.

``evaluate_many`` is a flat gather.  Each point's cell is folded into
one row index of the values viewed as a (knot tuples, m) table, so each
of the 2^d cell corners costs one ``take`` of rows at a fixed offset.
The weights, the corner order and the sums are those of a per-corner
multilinear formula: a corner's weight is the product of its per-axis
factors in axis order, and the corners add into a zeroed output in
``itertools.product`` order.  The result therefore does not depend on
how the values are gathered, and is bit for bit the same as indexing
the value array with one index array per axis.

Plain-text file format: a header line ``d m`` followed by one line per
knot tuple, ``x1 ... xd v1 ... vm``, sorted lexicographically by knots.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ShapeError

# Size caps shared by the layers that lay out grids and call f in blocks;
# they live here so that the certify path never imports the adversary.
SCAN_BLOCK_POINTS = 2**15  # points per call of f in a block scan (flatten, Miranda faces)
MESH_CAP = 2**24  # refine cells, flatten breakpoint-table cells or sample cells; refine reaches it at eps = 2**-22


def _as_grid(grid: Iterable[Sequence[float]]) -> tuple[np.ndarray, ...]:
    axes = []
    for knots in grid:
        k = np.asarray(knots, dtype=float)
        if k.ndim != 1 or len(k) < 2:
            raise ShapeError("each axis needs at least two knots")
        if k[0] != 0.0 or k[-1] != 1.0:
            raise DomainError(f"knot lists must start at 0 and end at 1, got [{k[0]}, {k[-1]}]")
        if not (k[1:] > k[:-1]).all():  # false for a NaN knot too
            raise DomainError("knot lists must be strictly increasing")
        k.setflags(write=False)
        axes.append(k)
    if not axes:
        raise ShapeError("a grid needs at least one axis")
    return tuple(axes)


def evaluate_rows(h: Callable, pts: np.ndarray) -> np.ndarray:
    """h at every row of pts as an (N, m) array: one ``h.evaluate_many`` call, else one call per row."""
    many = getattr(h, "evaluate_many", None)
    if many is not None:
        return np.asarray(many(pts), dtype=float)
    return np.array([h(row) for row in pts], dtype=float)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values of a map [0,1]^d -> R^m on a rectilinear knot grid.

    Every value must be finite: a NaN or infinite one is refused at
    construction, naming the first knot that holds it, since multilinear
    weights would spread it to the neighbouring knots (0 * NaN = NaN).

    Knots are shared, not copied: a float64 knot array passed in is made
    read-only in place and kept as the grid axis, while any other input
    (a list, an int array) is converted to a new array.  Read-only stops
    writes through that array only.  If it is a view of a writable base
    array, writing to the base still changes the grid after validation,
    so pass arrays that own their data or that no one writes to again.
    Values are always copied into a C-contiguous read-only array.
    """

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
        if vals.shape[-1] < 1:
            raise ShapeError(f"values need m >= 1 components, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            idx = np.unravel_index(np.argmin(np.isfinite(vals)), vals.shape)
            knot = tuple(float(k[i]) for k, i in zip(grid, idx))
            raise DomainError(f"values must be finite, got {vals[idx]} at knot {knot}")
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
        """Multilinear interpolation at an (N, d) array of points.

        Per axis, a point's cell is the last knot at or below it (the
        last cell for 1.0) and its fraction is w = (x - k[i]) / (k[i+1] - k[i]).
        The cells fold into a flat row index, and each corner gathers its
        rows with one ``take`` at that index plus the corner's offset.
        Its weight is the product of w or 1 - w over the axes in axis
        order, and ``weight * rows`` adds into a zeroed output, corners in
        ``itertools.product((0, 1), repeat=d)`` order.  The zero start
        turns a -0.0 sum into +0.0.  An empty (0, d) block gives (0, m).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ShapeError(f"expected points of shape (N, {self.d}), got {pts.shape}")
        inside = (pts >= 0.0) & (pts <= 1.0)  # NaN fails both comparisons
        if not inside.all():
            row = int(np.argmin(inside.all(axis=1)))
            raise DomainError(f"point {tuple(pts[row].tolist())} (row {row}) outside [0,1]^{self.d}")
        base = 0
        frac = []
        for axis, knots in enumerate(self.grid):
            x = pts[:, axis]
            i = np.searchsorted(knots, x, side="right") - 1
            np.clip(i, 0, len(knots) - 2, out=i)
            w = (x - knots[i]) / (knots[i + 1] - knots[i])
            frac.append(w)
            base = base * len(knots) + i
        rows = self.values.reshape(-1, self.m)  # a view: values is C-contiguous
        lens = self.values.shape[:-1]
        strides = [math.prod(lens[axis + 1 :]) for axis in range(self.d)]
        out = np.zeros((len(pts), self.m))
        for corner in itertools.product((0, 1), repeat=self.d):
            # 1 - w is formed per corner, not kept per axis: fewer live arrays
            weight = functools.reduce(operator.mul, (w if c else 1.0 - w for w, c in zip(frac, corner)))
            offset = sum(c * s for c, s in zip(corner, strides))
            out += weight[:, None] * rows.take(base + offset, axis=0)
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
            try:
                d, m = map(int, fh.readline().split())
            except ValueError:
                raise ShapeError(f"{path} line 1: function file must start with a 'd m' header line") from None
            if d < 1 or m < 1:
                raise ShapeError(f"{path} line 1: need d >= 1 and m >= 1, got d={d}, m={m}")
            rows = []
            for n, line in enumerate(fh, start=2):
                try:
                    row = [float(tok) for tok in line.split()]
                except ValueError as exc:
                    raise ShapeError(f"{path} line {n}: {exc}") from None
                if row and len(row) != d + m:
                    raise ShapeError(f"{path} line {n}: every row must have {d + m} fields")
                rows += [row] if row else []
        if not rows:
            raise ShapeError(f"{path}: no knot rows after the 'd m' header")
        data = np.asarray(rows, dtype=float)
        axes = tuple(np.unique(data[:, a]) for a in range(d))
        lens = tuple(len(k) for k in axes)
        if math.prod(lens) != len(rows):
            raise ShapeError("rows do not form a full knot-tuple product")
        vals = data[:, d:].reshape(lens + (m,))
        return cls(grid=axes, values=vals)


@dataclass(frozen=True)
class ZeroSetSummary:
    """Connected-component count of the zero set {x : h(x) = 0} of scalar h on [0,1]."""

    component_count: int
    has_flat_zero_interval: bool

    @property
    def h0(self) -> float:
        """Counting measure of the zero set: +inf once an interval of zeros exists."""
        return math.inf if self.has_flat_zero_interval else float(self.component_count)


def _require_scalar_1d(h: SampledFunction, op: str) -> np.ndarray:
    if h.d != 1 or h.m != 1:
        raise ShapeError(f"{op} needs d = 1 and m = 1, got d={h.d}, m={h.m}")
    return h.values[:, 0]


def count_zero_components(h: SampledFunction) -> ZeroSetSummary:
    """Exact zero-component count of a piecewise-linear scalar function: ``count_value_zeros`` of its knot values."""
    return count_value_zeros(_require_scalar_1d(h, "count_zero_components"))


def count_value_zeros(v: np.ndarray) -> ZeroSetSummary:
    """Exact zero-component count of the piecewise-linear function through finite knot values v, from their signs alone.

    v is a 1-D array of any stride, such as every s-th value of a finer
    mesh.  Each maximal run of zero knots is one component, an interval
    when it holds two or more knots.  Each strict sign change between
    neighbouring knots is one more: a zero strictly inside its segment,
    which touches no other component, since the rest of that segment is
    nonzero.  With no zero knot the count is the sign changes alone.
    """
    zero, pos = v == 0.0, v > 0.0
    if not zero.any():
        return ZeroSetSummary(component_count=int(np.count_nonzero(pos[1:] != pos[:-1])), has_flat_zero_interval=False)
    neg = v < 0.0
    runs = int(zero[0]) + np.count_nonzero(zero[1:] & ~zero[:-1])
    crossings = np.count_nonzero(pos[:-1] & neg[1:] | neg[:-1] & pos[1:])
    flat = bool((zero[:-1] & zero[1:]).any())
    return ZeroSetSummary(component_count=int(runs + crossings), has_flat_zero_interval=flat)


def _nudge(vals: np.ndarray, eta: float) -> None:
    """Replace every value with |value| < eta by +eta, in place, as one masked copy."""
    np.copyto(vals, eta, where=(vals < eta) & (vals > -eta))  # |v| < eta for every double, without an |v| array


def nudge_knot_zeros(h: SampledFunction, eta: float) -> SampledFunction:
    """Replace every knot value with |value| < eta by +eta.

    The sign convention is fixed to +eta for reproducibility.  The
    result differs from h by at most 2*eta in sup norm.  eta must be
    finite and positive: a NaN eta would nudge nothing, and an infinite
    one would make every value infinite.
    """
    if not 0.0 < eta < math.inf:
        raise DomainError(f"eta must be finite and positive, got {eta}")
    _require_scalar_1d(h, "nudge_knot_zeros")
    vals = h.values.copy()
    _nudge(vals, eta)
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
