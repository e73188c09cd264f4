"""Single-chart flattening of the target set.

A chart is a diffeomorphism phi between open sets U, V in R^m carrying
the target onto the coordinate plane R^p x {0}, together with its
analytic Lipschitz constants

    lam1 = inf |grad phi|,   lam2 = sup |grad phi|

(operator norms of the Jacobian; lam1 is the reciprocal of the sup of
the inverse Jacobian's norm).  Charts are a closed set of built-ins so
the constants never have to be estimated numerically:

* ``identity_chart``     phi = id, lam1 = lam2 = 1;
* ``affine_chart``       phi(y) = A y + b, constants from the singular
  values of A;
* ``polar_demo_chart``   a curved example flattening a circular arc,
  with exact constants on a half-annulus.

Transporting a flat-model function g into the chart composes
phi^{-1}(lam1 * g(x)); pulling a perturbation h back composes
phi(h(x))/lam1 and inflates the distance budget by lam2/lam1.  All
built-in charts have convex V, which is what makes the mean-value
bounds behind those factors valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, RangeEscapeError
from .funcrep import evaluate_rows


def _everywhere(y) -> np.ndarray:
    return np.ones(np.shape(y)[:-1], dtype=bool)


@dataclass(frozen=True)
class Chart:
    """A chart and its Lipschitz constants.

    ``phi``, ``phi_inv``, ``in_domain`` and ``in_image`` take an array of
    shape (..., m), read coordinate i as ``y[..., i]``, and act on each
    row alone: a point of shape (m,) and a block of rows of shape (N, m)
    go through the same formula, and row k of the block comes out bit
    for bit as the point would.  The maps return arrays of the input's
    shape, the membership tests a bool for a point and a bool mask of
    shape (N,) for a block.  User-built charts must follow the same
    contract, since the batched transport and pullback rely on it.
    """

    name: str
    m: int
    phi: Callable[[np.ndarray], np.ndarray]
    phi_inv: Callable[[np.ndarray], np.ndarray]
    lam1: float
    lam2: float
    r0: float = 1.0
    in_domain: Callable[[np.ndarray], np.ndarray] = field(default=_everywhere)
    in_image: Callable[[np.ndarray], np.ndarray] = field(default=_everywhere)

    def __post_init__(self) -> None:
        if not (0.0 < self.lam1 <= self.lam2 < math.inf):
            raise DomainError(f"need 0 < lam1 <= lam2 < inf, got {self.lam1}, {self.lam2}")
        if not self.r0 > 0.0:  # false for NaN; inf stays allowed, as certify's default identity chart has it
            raise DomainError(f"rectangle half-width must be positive, got {self.r0}")

    @property
    def distortion(self) -> float:
        return self.lam2 / self.lam1


def identity_chart(m: int, r0: float = 1.0) -> Chart:
    return Chart(
        name="identity",
        m=m,
        phi=lambda y: np.array(y, dtype=float),
        phi_inv=lambda w: np.array(w, dtype=float),
        lam1=1.0,
        lam2=1.0,
        r0=r0,
    )


def _rows_times(mat: np.ndarray, y) -> np.ndarray:
    """mat @ y for each row y[..., :]; unlike ``@``, it rounds a row alike in every block size."""
    y = np.asarray(y, dtype=float)
    return sum(mat[:, j] * y[..., j, None] for j in range(mat.shape[1]))


def affine_chart(A, b=None, r0: float = 1.0) -> Chart:
    """phi(y) = A y + b with Lipschitz constants from the singular values of A."""
    mat = np.asarray(A, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"affine chart needs a square matrix, got shape {mat.shape}")
    m = mat.shape[0]
    off = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    if off.shape != (m,):
        raise DomainError(f"offset must have length {m}, got shape {off.shape}")
    if not (np.isfinite(mat).all() and np.isfinite(off).all()):
        raise DomainError(f"affine chart needs finite numbers, got matrix {mat.tolist()} and offset {off.tolist()}")
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= 0.0:
        raise DomainError("affine chart matrix must be nonsingular")
    inv = np.linalg.inv(mat)
    return Chart(
        name="affine",
        m=m,
        phi=lambda y: _rows_times(mat, y) + off,
        phi_inv=lambda w: _rows_times(inv, np.asarray(w, dtype=float) - off),
        lam1=float(svals[-1]),
        lam2=float(svals[0]),
        r0=r0,
    )


def polar_demo_chart(rho: float = 2.0, radius: float = 1.0, r0: float = 1.0) -> Chart:
    """Flatten the arc {|y| = radius, y_1 > 0} in R^2 to the u-axis.

    phi(y) = (radius * atan2(y2, y1), |y| - radius) on the half-annulus
    radius/rho < |y| < radius*rho, y_1 > 0.  The Jacobian has singular
    values radius/|y| and 1, so lam1 = 1/rho and lam2 = rho exactly.
    The image is the open rectangle (-pi*radius/2, pi*radius/2) x
    (radius/rho - radius, radius*rho - radius), which is convex.
    """
    if not 1.0 < rho < math.inf:  # NaN too
        raise DomainError(f"annulus ratio must be finite and exceed 1, got {rho}")
    if not 0.0 < radius < math.inf:  # NaN too
        raise DomainError(f"radius must be positive and finite, got {radius}")
    if r0 >= math.pi * radius / 2.0:
        raise DomainError(f"r0 must stay below pi*radius/2 = {math.pi * radius / 2.0}")
    u_max = math.pi * radius / 2.0
    v_lo, v_hi = radius / rho - radius, radius * rho - radius

    def phi(y):
        y = np.asarray(y, dtype=float)
        u = radius * np.arctan2(y[..., 1], y[..., 0])
        return np.stack([u, np.hypot(y[..., 0], y[..., 1]) - radius], axis=-1)

    def phi_inv(w):
        w = np.asarray(w, dtype=float)
        r = radius + w[..., 1]
        theta = w[..., 0] / radius
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def in_domain(y):
        y = np.asarray(y, dtype=float)
        r = np.hypot(y[..., 0], y[..., 1])
        return (radius / rho < r) & (r < radius * rho) & (y[..., 0] > 0.0)

    def in_image(w):
        w = np.asarray(w, dtype=float)
        return (np.abs(w[..., 0]) < u_max) & (v_lo < w[..., 1]) & (w[..., 1] < v_hi)

    return Chart(
        name="polar-demo",
        m=2,
        phi=phi,
        phi_inv=phi_inv,
        lam1=1.0 / rho,
        lam2=rho,
        r0=r0,
        in_domain=in_domain,
        in_image=in_image,
    )


def gamma_w(chart: Chart, p: int) -> float:
    """Distortion constant 2*sqrt(m - p) * lam2/lam1 of the flattening, m the chart's dimension."""
    if p >= chart.m:
        raise DomainError(f"need p < m, got p={p}, m={chart.m}")
    return 2.0 * math.sqrt(chart.m - p) * chart.lam2 / chart.lam1


def _require(inside, vals: np.ndarray, pts, what: str, region: str) -> None:
    """Raise at the first row of vals, the values at the rows of pts, that the mask ``inside`` rejects."""
    bad = np.flatnonzero(~np.asarray(inside, dtype=bool))
    if len(bad):
        value = tuple(vals[bad[0]].tolist())
        point = tuple(np.ravel(pts[bad[0]]).tolist())
        raise RangeEscapeError(f"{what} = {value} escapes the chart {region} at x = {point}")


def _block_map(evaluate_many: Callable) -> Callable:
    """A map whose point call is row 0 of ``evaluate_many`` on the block x.reshape(1, -1)."""

    def f(x):
        return evaluate_many(np.reshape(x, (1, -1)))[0]

    f.evaluate_many = evaluate_many
    return f


def transport_function(chart: Chart, g: Callable) -> Callable:
    """Carry a flat-model map into the chart: x -> phi^{-1}(lam1 * g(x)).

    The result admits the same modulus of continuity as g.  Its
    ``evaluate_many`` maps an (N, d) block of points: g on every row
    (one ``g.evaluate_many`` call when g has it), one range check that
    raises ``RangeEscapeError`` at the first row with lam1 * g(x)
    outside the chart image, one ``phi_inv`` call.  A point call is the
    one-row block, so it equals the rows of any block bit for bit.
    """

    def evaluate_many(pts):
        w = chart.lam1 * evaluate_rows(g, pts)
        _require(chart.in_image(w), w, pts, "lam1*g(x)", "image")
        return chart.phi_inv(w)

    return _block_map(evaluate_many)


def pullback_perturbation(chart: Chart, h: Callable) -> tuple[Callable, float]:
    """Flatten a perturbation: x -> phi(h(x))/lam1, plus the budget factor.

    If h stays within eps of the transported map, the returned function
    stays within factor*eps of the flat model, factor = lam2/lam1.  The
    function is built as ``transport_function``'s is, with h, the chart
    domain and ``phi``: a block map whose point call is a one-row block.
    """

    def evaluate_many(pts):
        y = evaluate_rows(h, pts)
        _require(chart.in_domain(y), y, pts, "h(x)", "domain")
        return chart.phi(y) / chart.lam1

    return _block_map(evaluate_many), chart.distortion
