"""Piecewise-multilinear grid functions on [0,1]^d.

A ``SampledFunction`` stores per-axis knot lists covering [0,1] and an
array of R^m values at every knot tuple; evaluation is multilinear
interpolation, exact at knots.  The module provides the operations the
rest of the package builds on: exact sup-distance in every dimension,
exact zero-component counting of scalar functions on [0,1] from knot
signs, knot-zero nudging, and ``evaluate_rows``, the one place that
tells an evaluator with ``evaluate_many`` from a per-point callable.

``evaluate_many`` finds each point's cell per axis by one of two rules,
fixed per axis when the function is built.  A point's cell i is the last
knot at or below x, clipped to the last cell for x = 1.0, and its
fraction is w = (x - knots[i]) / (knots[i + 1] - knots[i]).  On K cells
of any axis but a dyadic one, that is what it computes: one
``searchsorted(knots, x, side="right") - 1`` over every row, clipped to
K - 1, then the offset x - knots[i] divided by the width.

A dyadic axis reads no knot: one of K = 2**k cells whose knot i is
exactly i / K, bit for bit ``np.linspace(0, 1, K + 1)``, as
``F.sample`` builds at a dyadic step and ``refine_interpolant`` at a
dyadic budget.  There t = x * K is exact, since it scales by a power of
two, so its truncation i is the cell, and w = t - i is
(x - knots[i]) / (knots[i + 1] - knots[i]) bit for bit.  For i >= 1,
i / K <= x <= 2 * i / K, so x - i / K is exact (Sterbenz); for i = 0 it
is x itself.  The width is exactly 1 / K, and dividing by it is the
exact scaling by K, which keeps a -0.0; t - i is that same exact value.
Which axes are dyadic is decided once, when the function is built,
against linspace's knots a block of ``BLOCK_POINTS`` at a time.  The
axes are the function's own read-only copies, so no later write can
leave the decision stale.

The clip matters only for x = 1.0: the search returns K for it, and on
a dyadic axis so does t = x * K, while a double x < 1.0 is at most
1 - 2**-53 and makes t < K.  The search clips every row.  The range
test reads the block's min and max, one whole-block reduction each,
which also tells whether 1.0 is in the block; a block without it skips
the dyadic clip.  The row mask that names the first point outside
[0, 1] is built only once the range test fails.

``evaluate_many`` is a flat gather.  Each point's cell is folded into
one row index of the values viewed as a (knot tuples, m) table, so each
of the 2^d cell corners costs one ``take`` of rows at a fixed offset.
The weights, the corner order and the sums are those of a per-corner
multilinear formula: a corner's weight is the product of its per-axis
factors in axis order, and the corners add into a zeroed output in
``itertools.product`` order.  The result therefore does not depend on
how the values are gathered, and is bit for bit the same as indexing
the value array with one index array per axis.

An axis on which every point of the block sits on a knot, so that
every w is 0 (x = 1.0 is not one: it lies in the last cell at w = 1),
drops its hi corners and its factor 1 - w from every corner weight.  A
block on knots along every axis, such as the face lattice of a dyadic
cube on ``F.sample``'s grid, costs one ``take`` of rows and one add in
place of 2^d gathers, multiplies and adds.  The result keeps every bit:
values are finite, so a dropped hi-corner term is w * value = +-0.0; a
sum that starts at +0.0 can never become -0.0, so adding +-0.0 to it
changes nothing; and the dropped factor 1 - 0 is exactly 1.0.  Off a
dyadic axis w is the offset x - knots[i] divided by a width of at most
1.0, which never turns a nonzero offset into 0, so w is 0 exactly where
x = knots[i].  The check reads row 0's w per axis and scans the whole
axis with ``any()`` only when that w is 0, so a block off the knots
nearly always pays one scalar read per axis and nothing else.

The sums run component-major.  The output is an (m, N) C-order buffer.
Each corner's gathered (N, m) rows are read transposed and multiplied
by the weight into one (m, N) scratch term with ``out=``, which is then
added in; a block on knots along every axis weighs no corner, allocates
no term and adds its one gathered corner directly.  So every numpy
inner loop of the sums runs over the N points, not over the m
components.  The block returned is the buffer's transpose: an (N, m)
array in Fortran order, so a row's m values lie N apart.  The layout
changes no element, only the memory order; a caller whose arithmetic
depends on the order, such as numpy's pairwise sum along rows of eight
or more values, copies to C order first.

Plain-text file format: a header line ``d m`` followed by one line per
knot tuple, ``x1 ... xd v1 ... vm``, sorted lexicographically by knots.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, EnumerationCapError, ShapeError

# Size caps shared by the layers that lay out grids and call f in blocks;
# they live here so that the certify path never imports the adversary.
SCAN_BLOCK_POINTS = 2**15  # points per call of f in a block scan (flatten, Miranda faces)
MESH_CAP = 2**24  # refine, flatten-table or sample cells, or cubes per certify level; refine reaches it at eps = 2**-22
# Points per block of profile_many and of refine's calls of f: 64 KiB per float temporary,
# under glibc's default mmap threshold of 128 KiB, so blocks reuse freed heap memory.
BLOCK_POINTS = 2**13


def blocks(count: int) -> list[tuple[int, int]]:
    """Blocks [lo, hi) covering range(count) in order, each of ``BLOCK_POINTS`` points but the last, which takes in
    a lone last point: n >= 2 points make ceil((n - 1) / ``BLOCK_POINTS``) blocks, none of one point."""
    edges = [0, *range(BLOCK_POINTS, count - 1, BLOCK_POINTS), count] if count else []
    return list(zip(edges, edges[1:]))


def _uniform(cells: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """Knots lo..hi-1 (all by default) of np.linspace(0, 1, cells + 1), bit for bit, in a new array:
    linspace makes knot i as i * (1/cells) + 0.0, rounded once, and the last exactly 1."""
    hi = cells + 1 if hi is None else hi
    xs = np.arange(lo, hi, dtype=float)
    xs *= 1.0 / cells
    if hi == cells + 1:
        xs[-1] = 1.0
    return xs


def _dyadic(knots: np.ndarray) -> bool:
    """Whether knots are, bit for bit, np.linspace(0, 1, K + 1)'s with K = len(knots) - 1 a power of two,
    so that knot i is exactly i / K; compared a block of ``BLOCK_POINTS`` knots at a time."""
    cells = len(knots) - 1
    if cells & (cells - 1):
        return False
    return all(np.array_equal(knots[lo:hi].view(np.uint64), _uniform(cells, lo, hi).view(np.uint64))
               for lo, hi in blocks(cells + 1))


def check_work(count, cap, what: str, unit: str = "cells") -> None:
    """Refuse more than cap units of work, naming count (an int, or a float that may be inf).
    The one place ``EnumerationCapError`` is raised, so every cap has one message shape."""
    if count > cap:
        text = f"{count:.15g}" if isinstance(count, float) else str(count)
        raise EnumerationCapError(f"{what} needs {text} {unit}, over the cap of {cap}")


def _as_grid(grid: Iterable[Sequence[float]]) -> tuple[np.ndarray, ...]:
    axes = []
    for knots in grid:
        k = np.array(knots, dtype=float)  # a copy, so no caller can write to an axis
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

    Knots and values are copied into new read-only arrays, so a later
    write to the caller's arrays changes nothing here.  An axis is
    flagged dyadic when its knots are ``np.linspace(0, 1, K + 1)``'s,
    bit for bit, with K a power of two; ``evaluate_many`` then finds its
    cells by arithmetic alone (see the module docstring).
    """

    grid: tuple[np.ndarray, ...]
    values: np.ndarray
    _dyadic: tuple[bool, ...] = field(init=False, repr=False)  # per axis: evaluate_many finds cells by arithmetic

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
        object.__setattr__(self, "_dyadic", tuple(map(_dyadic, grid)))

    @property
    def d(self) -> int:
        return len(self.grid)

    @property
    def m(self) -> int:
        return int(self.values.shape[-1])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at an (N, d) array of points.

        Per axis, a point's cell is the last knot at or below it (the
        last cell for 1.0) and its fraction is w = (x - k[i]) / (k[i+1] - k[i]).
        A dyadic axis (see the class docstring) finds them by arithmetic:
        t = x * K on K cells, i = trunc(t), clipped to K - 1 only when
        the block holds 1.0, and w = t - i, which is exact, so no knot
        is read.  Any other axis binary-searches every row once,
        i = min(searchsorted(k, x, "right") - 1, K - 1), and divides the
        offset x - k[i] by the width.  The block's min and max decide
        the range test.
        The cells fold into a flat row index, and each corner gathers its
        rows with one ``take`` at that index plus the corner's offset.
        Its weight is the product of w or 1 - w over the axes in axis
        order, 1 - w formed once per axis, and ``weight * rows`` adds
        into a zeroed output, corners in ``itertools.product((0, 1),
        repeat=d)`` order.  The zero start turns a -0.0 sum into +0.0.
        An axis where w is 0 on every row keeps only its lo corners and
        leaves out its factor 1 - w = 1.0, which changes no bit.  The
        output accumulates as an (m, N) C-order block, so the returned
        (N, m) block is Fortran-ordered (see the module docstring).  An
        empty (0, d) block gives (0, m).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ShapeError(f"expected points of shape (N, {self.d}), got {pts.shape}")
        top = pts.max(initial=0.0)  # whole-block reductions: along axis 0 of a C-order block numpy crawls
        if not (pts.min(initial=0.0) >= 0.0 and top <= 1.0):  # NaN propagates into both
            inside = (pts >= 0.0) & (pts <= 1.0)  # NaN fails both comparisons
            row = int(np.argmin(inside.all(axis=1)))
            raise DomainError(f"point {tuple(pts[row].tolist())} (row {row}) outside [0,1]^{self.d}")
        ends = top == 1.0  # only x = 1.0 makes t = K on a dyadic axis
        base = 0
        frac = []
        for axis, (knots, dyadic) in enumerate(zip(self.grid, self._dyadic)):
            x = pts[:, axis]
            last = len(knots) - 2  # the last cell
            if dyadic:  # t is exact, and t - i is w bit for bit (module docstring): no knot is read
                t = x * (last + 1)
                i = t.astype(np.intp)  # truncation is floor on [0, 1], -0.0 included
                if ends:
                    np.minimum(i, last, out=i)
                w = np.subtract(t, i, out=t)
            else:  # the last knot at or below x, clipped to the last cell for x = 1.0
                i = np.minimum(np.searchsorted(knots, x, side="right") - 1, last)
                lo = knots.take(i)  # w is 0 only where x = lo: a quotient by a width of at most 1.0 never underflows
                w = (x - lo) / (knots[1:].take(i) - lo)
            # None: every w is 0, each point on a knot of this axis; row 0 settles most other blocks
            live = len(w) and w[0] or w.any()
            frac.append((1.0 - w, w) if live else None)
            base = base * len(knots) + i
        rows = self.values.reshape(-1, self.m)  # a view: values is C-contiguous
        lens = self.values.shape[:-1]
        kept = [(f, math.prod(lens[axis + 1 :])) for axis, f in enumerate(frac) if f is not None]  # (factors, stride)
        out = np.zeros((self.m, len(pts)))
        term = np.empty_like(out) if kept else None
        for corner in itertools.product((0, 1), repeat=len(kept)):
            offset = sum(c * stride for c, (_, stride) in zip(corner, kept))
            gathered = rows.take(base + offset, axis=0).T
            if kept:
                weight = functools.reduce(operator.mul, (f[c] for c, (f, _) in zip(corner, kept)))
                gathered = np.multiply(gathered, weight, out=term)
            out += gathered
        return out.T

    def evaluate(self, x) -> np.ndarray:
        return self.evaluate_many(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]

    __call__ = evaluate

    def knot_points(self) -> np.ndarray:
        """All knot tuples as an (N, d) array in lexicographic order."""
        mesh = np.meshgrid(*self.grid, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

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
                rows += [(n, row)] if row else []
        if not rows:
            raise ShapeError(f"{path}: no knot rows after the 'd m' header")
        linenos, data = zip(*rows)
        data = np.asarray(data, dtype=float)
        axes = tuple(np.unique(data[:, a]) for a in range(d))
        lens = tuple(len(k) for k in axes)
        n = min(len(rows), math.prod(lens))
        k, want = np.arange(n), np.empty((n, d))
        for a in reversed(range(d)):  # save's order: the knot product, unravelled only as far as the file goes
            k, i = np.divmod(k, lens[a])
            want[:, a] = axes[a][i]
        first = next(iter(np.flatnonzero((data[:n, :d] != want).any(axis=1))), n)  # n: the file or the product ended
        if first < len(rows) or n < math.prod(lens):
            line = (*linenos, linenos[-1] + 1)[first]  # a short file departs on the line after its last row
            raise ShapeError(f"{path} line {line}: knot rows must follow save's lexicographic order")
        return cls(grid=axes, values=data[:, d:].reshape(lens + (m,)))  # values placed by row order


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
    sits at one of its vertices, and the merged knots suffice.  A merged
    grid of more than ``MESH_CAP`` knot tuples is refused before either
    function is evaluated.  A function whose grid is the merged grid is
    read off its values, which are its interpolant at the merged knots
    up to the sign of a zero, a sign that squaring drops.
    """
    if h1.d != h2.d or h1.m != h2.m:
        raise ShapeError(
            f"shape mismatch: ({h1.d},{h1.m}) vs ({h2.d},{h2.m})"
        )
    merged = tuple(np.union1d(a, b) for a, b in zip(h1.grid, h2.grid))
    check_work(math.prod(len(k) for k in merged), MESH_CAP, "sup_distance's merged grid", "knot tuples")
    # a merged axis holds the function's own knots, so equal lengths mean equal axes
    own = [all(len(a) == len(k) for a, k in zip(h.grid, merged)) for h in (h1, h2)]
    pts = None if all(own) else np.stack(np.meshgrid(*merged, indexing="ij"), axis=-1).reshape(-1, h1.d)
    v1, v2 = (h.values.reshape(-1, h.m) if on else h.evaluate_many(pts) for h, on in zip((h1, h2), own))
    # evaluate_many returns Fortran order; numpy sums the rows of a C-order
    # block pairwise for m >= 8, a different rounding from the column sweep
    diff = np.ascontiguousarray(v1 - v2)
    return float(np.sqrt((diff**2).sum(-1)).max())
