"""flatten as it was built one budget at a time, kept as a test oracle.

``flatten_arrays`` lays several budgets out in one interval table; this is
the per-budget body it replaced, with its own F calls per stage.  Its
table is laid out in blocks of whole intervals, about 2**18 cells each,
and the running maximum of the breakpoints carries the comparison rule
from block to block, so the lift is the one-table lift bit for bit while
memory stays flat at the finest budgets the cap admits.  ``runs``
is the greedy grouping loop that flatten's groups, runs and scan blocks
used before ``adversary._runs`` wrote it with ``cumsum`` and
``searchsorted``.
"""

import math
from typing import Callable, Iterator

import numpy as np

from translab.adversary import SCAN_STEP_DIVISOR, _check_budget, _partition, _probe, _scan, _values
from translab.funcrep import MESH_CAP, SampledFunction, check_work


def flatten_perturbation(f: Callable, eps: float, C: float) -> SampledFunction:
    """The zero-removing lift of f at budget eps.

    Intervals are classified by a sampled maximum with a Lipschitz
    safety margin of half the scan step, so a lifted interval truly
    satisfies max |f| <= eps/2 whenever f is 1-Lipschitz; borderline
    intervals fall through to the piecewise-linear branch, which is
    within eps regardless.  An interval with a partition endpoint above
    the threshold is classified without an interior scan: the endpoints
    are the scan's first and last samples, so the verdict is the same.
    For the same reason the scan sends f only each interval's interior
    samples: both ends are partition points already at or below the
    threshold, so the interior decides the verdict.  When f has
    ``sup_from``, an interval [a, b] with both endpoints low and
    ``sup_from(a)`` at or below the threshold is lifted unscanned:
    every scan sample lies in [a, b], where |f| is at most that bound,
    so the scan would have lifted it too.  When f has ``peak_from``, each
    interval still to be scanned is first probed at the two scan samples
    next to ``peak_from(a)``; a probe value above the threshold rejects
    it unscanned, since the scan's maximum counts that sample too.  Only
    the scan's points, and any ``ResolutionWarning`` or refusal of a
    non-finite value they would raise, are skipped.  A layout of more
    than ``MESH_CAP`` breakpoint-table cells is refused before f is
    called.  An interval that is not lifted is re-interpolated on a mesh
    whose ends are exactly its partition points, so f is called only at
    the mesh's interior points and the ends reuse the partition values.
    Candidate breakpoints are laid out interval by interval; one that
    does not lie strictly right of every earlier candidate (a duplicate
    or a collapsed ramp) is dropped, so the first value at a point wins.
    """
    _check_budget(eps, C)
    cells = np.ceil(C / (3.0 * eps)) * max(4.0, np.ceil(3.0 / C) + 1.0)  # in floats: inf, not an error, for subnormals
    check_work(cells, MESH_CAP, f"flatten_perturbation at eps = {eps!r}, C = {C!r}")
    cuts = _partition(eps, C)
    step = eps / SCAN_STEP_DIVISOR
    thr = eps / 2.0 - step / 2.0
    fc = _values(f, cuts)
    a, b, fa, fb = cuts[:-1], cuts[1:], fc[:-1], fc[1:]
    low = np.abs(fc) <= thr
    lifted = low[:-1] & low[1:]
    scan = lifted.copy()
    sup_from = getattr(f, "sup_from", None)
    if sup_from is not None:
        scan[lifted] = sup_from(a[lifted]) > thr  # a bound at or below thr settles the lift
    peak_from = getattr(f, "peak_from", None)
    if peak_from is not None and scan.any():
        k = np.flatnonzero(scan)
        high = k[_probe(f, a[k], b[k], step, peak_from(a[k])) > thr]  # one sample above thr settles the rejection
        lifted[high] = scan[high] = False
    lifted[scan] = _scan(f, a[scan], b[scan], step) <= thr
    k1 = math.ceil(3.0 / C)
    width = max(4, k1 + 1)
    per = max(1, 2**18 // width)  # intervals per block of the table
    top, kept = -np.inf, []
    for lo in range(0, len(a), per):
        xs, vs = _layout(f, *(c[lo:lo + per] for c in (a, b, fa, fb, lifted)), eps, k1, width)
        earlier = np.maximum.accumulate(np.concatenate(([top], xs)))  # the largest breakpoint before each
        keep = xs > earlier[:-1]
        kept.append((xs[keep], vs[keep]))
        top = earlier[-1]
    xs, vs = (np.concatenate(c) for c in zip(*kept))
    return SampledFunction(grid=(xs,), values=vs[:, None])


def _layout(f, a, b, fa, fb, lifted, eps, k1, width):
    """The candidate breakpoints and values of a block of intervals, interval by interval."""
    half = np.full(len(a), eps / 2.0)
    xs, vs = np.zeros((len(a), width)), np.zeros((len(a), width))
    used = np.zeros((len(a), width), dtype=bool)
    # lifted intervals: two unit-slope ramps onto the plateau eps/2
    xs[lifted, :4] = np.stack([a, a - fa + half, b + fb - half, b], axis=1)[lifted]
    vs[lifted, :4] = np.stack([fa, half, half, fb], axis=1)[lifted]
    used[lifted, :4] = True
    # the others: f interpolated on k1 equal subintervals; linspace puts
    # a and b exactly at the mesh ends, where fa and fb hold f already
    rest = ~lifted
    mesh = np.linspace(a[rest], b[rest], k1 + 1, axis=1)
    inner = mesh[:, 1:-1]
    xs[rest, : k1 + 1] = mesh
    vs[rest, 0], vs[rest, k1] = fa[rest], fb[rest]
    vs[rest, 1:k1] = _values(f, inner.ravel()).reshape(inner.shape)
    used[rest, : k1 + 1] = True
    return xs[used], vs[used]


def runs(sizes: list[int], most: int) -> Iterator[tuple[int, int]]:
    """Slices [lo, hi) of consecutive sizes, each growing while its total stays within most (one size at least)."""
    lo = 0
    while lo < len(sizes):
        hi, total = lo + 1, sizes[lo]
        while hi < len(sizes) and total + sizes[hi] <= most:
            total += sizes[hi]
            hi += 1
        yield lo, hi
        lo = hi
