"""Budget sweeps: certify, attack, and compare against both envelopes.

A sweep walks the dyadic budgets eps = 2**(-j) for j in [j_min, j_max],
certifies the theoretical lower bound at each budget, optionally runs
the adversary constructions to get an achieved upper count, evaluates
the theoretical upper curve, and emits one CSV row per budget.  The
dyadic grid keeps depth resolution exact at band edges.

Configuration is a plain-text key=value file; unknown or repeated keys
are errors.  Keys: alpha, lambda, d, m, p, j_min, j_max, adversary, C, cw.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adversary import flatten_arrays, refine_interpolant, theory_upper_curve
from .adversary import flatten_perturbation  # noqa: F401  perfbench's tracer wraps driver.flatten_perturbation by name
from .certifier import certify
from .errors import ConfigError, DomainError
from .extremal import ExtremalFunction
from .funcrep import MESH_CAP, count_value_zeros
from .funcrep import count_zero_components  # noqa: F401  perfbench's tracer wraps driver.count_zero_components by name
from .modulus import ModulusSpec

CSV_HEADER = ("eps", "n0", "certified_lb", "paper_lb", "theory_lb", "adversary_ub", "theory_ub", "wall_ms")


def adversary_refusal(alpha: float, lam: float) -> Optional[str]:
    """Why the adversary refuses the extremal profile of lam * s**alpha as its target, or None.

    flatten and refine stay within eps of a 1-Lipschitz target only.  The
    profile rises along beta/2, so at alpha = 1 its Lipschitz constant is
    lambda/2, at most 1 exactly when lambda <= 2; at alpha < 1 it is not
    Lipschitz.  Outside that range their outputs were measured up to
    32 eps away from F.
    """
    if alpha < 1.0:
        return f"adversary runs need a 1-Lipschitz F (alpha = 1, lambda <= 2); F is not Lipschitz at alpha = {alpha!r}"
    if lam > 2.0:
        return (
            f"adversary runs need a 1-Lipschitz F (alpha = 1, lambda <= 2); "
            f"F's Lipschitz constant at lambda = {lam!r} is lambda/2 = {lam / 2.0!r}"
        )
    return None


@dataclass(frozen=True)
class SweepConfig:
    alpha: float
    lam: float
    d: int
    m: int
    p: int
    j_min: int
    j_max: int
    adversary: bool = False
    C: float = 1.0
    cw: float = 1.0

    def validate(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.lam < math.inf):
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        q = self.m - self.p
        if not (1 <= q <= self.d):
            raise ConfigError(f"need d >= m - p >= 1, got d={self.d}, m={self.m}, p={self.p}")
        if self.p < 0:
            raise ConfigError(f"p must be nonnegative, got {self.p}")
        # j_min > j_max is allowed: an empty range sweeps zero budgets.
        # Every budget 2**-j must be a finite positive double, checked before any row runs.
        if self.j_max > 1074:
            raise ConfigError(f"j_max must be at most 1074 (2**-1075 rounds to 0.0), got {self.j_max}")
        if self.j_min < -1023:
            raise ConfigError(f"j_min must be at least -1023 (2**1024 overflows a double), got {self.j_min}")
        if self.adversary and (self.d != 1 or self.m != 1 or self.p != 0):
            raise ConfigError("adversary runs need d = m = 1 and p = 0")
        if self.adversary and (refusal := adversary_refusal(self.alpha, self.lam)):
            raise ConfigError(refusal)
        # refine's mesh at eps = 2**-j has 2**(j + 2) cells, the most an adversary row lays out
        if self.adversary and self.j_max + 2 > math.log2(MESH_CAP):
            raise ConfigError(
                f"adversary runs at j_max = {self.j_max} need 2**{self.j_max + 2} refine cells, "
                f"over the cap of {MESH_CAP}"
            )
        if not (0.0 < self.C <= 1.0):
            raise ConfigError(f"C must lie in (0, 1], got {self.C}")
        # flatten needs eps <= C/6 at every budget, so at the first and largest
        # one; C <= 1 makes j_min <= 2 fail too, without forming 2.0**-j_min
        if self.adversary and self.j_min <= self.j_max and (self.j_min <= 2 or 2.0**-self.j_min > self.C / 6.0):
            raise ConfigError(
                f"adversary runs need 2**-j_min <= C/6 = {self.C / 6.0!r}; "
                f"j_min = {self.j_min} with C = {self.C!r} starts at 2**{-self.j_min}"
            )
        if not (0.0 < self.cw < math.inf):
            raise ConfigError(f"cw must be positive and finite, got {self.cw}")


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_CONFIG_KEYS = {
    "alpha": ("alpha", float),
    "lambda": ("lam", float),
    "d": ("d", int),
    "m": ("m", int),
    "p": ("p", int),
    "j_min": ("j_min", int),
    "j_max": ("j_max", int),
    "adversary": ("adversary", lambda s: _BOOLEANS[s.lower()]),
    "c": ("C", float),
    "cw": ("cw", float),
}


def parse_config(text: str) -> SweepConfig:
    """Parse a key=value config; blank lines and #-comments are skipped."""
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, cast = _CONFIG_KEYS[key]
        if field in seen:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        try:
            seen[field] = cast(value.strip())
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    required = ("alpha", "lam", "d", "m", "p", "j_min", "j_max")
    missing = [f for f in required if f not in seen]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    cfg = SweepConfig(**seen)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class SweepRecord:
    eps: float
    n0: int
    certified_lb: int
    paper_lb: int
    theory_lb: float
    adversary_ub: Optional[int]
    theory_ub: float
    wall_ms: int


def sweep(cfg: SweepConfig, chart=None) -> list[SweepRecord]:
    """One record per dyadic budget, ordered by decreasing eps.

    With the adversary on, a row's achieved count is the smaller zero
    count of flatten's lift and refine's interpolant at its budget, each
    read by ``count_value_zeros`` off a bare value array.  flatten's lifts
    come from one ``flatten_arrays`` call over every budget, built a
    group of rows at a time (a j = 6..14 sweep is one group), each bit for
    bit the one ``flatten_perturbation`` builds at that budget alone; a
    group's work lands in the ``wall_ms`` of its first row.  Row j_min
    takes its lift before refine's mesh is built, so the lift table's
    temporaries are freed before the mesh's 2**(j_max + 2) + 1 knots are
    allocated.

    refine's interpolant is built once, at 2**-j_max, in the first row,
    and row j counts the view ``finest.values[::s, 0]``, s = 2**(j_max - j),
    which holds bit for bit the values ``refine_interpolant`` builds at
    2**-j.  That mesh has K = 2**(j + 2) cells, and np.linspace(0, 1, K + 1)
    puts knot i at i * (1/K) rounded once; 1/(K/s) is exactly s * (1/K)
    for a power of two s, so each coarse knot is the same double as the
    fine knot i * s, and f and the knot nudge act point by point (the
    nudge leaves its own output alone).  An empty range builds no mesh
    and calls F for neither construction.
    """
    cfg.validate()
    if chart is not None and cfg.adversary:
        raise ConfigError("adversary runs are flat-model only; drop the chart")
    beta = ModulusSpec.power(cfg.lam, cfg.alpha)
    q = cfg.m - cfg.p
    fn = ExtremalFunction(beta=beta, d=cfg.d, q=q, p=cfg.p)
    budgets = [2.0**-j for j in range(cfg.j_min, cfg.j_max + 1)]
    if cfg.adversary:
        scalar = fn.as_scalar()
        lifts = flatten_arrays(scalar, budgets, cfg.C)
    finest = None
    records = []
    for j, eps in enumerate(budgets, start=cfg.j_min):
        t0 = time.perf_counter()
        cert = certify(fn, eps, chart=chart)
        ub: Optional[int] = None
        if cfg.adversary:
            flattened = count_value_zeros(next(lifts)[1]).h0  # before the mesh: the lift table's temporaries go first
            if finest is None:
                finest = refine_interpolant(scalar, 2.0**-cfg.j_max)
            best = min(flattened, count_value_zeros(finest.values[:: 2 ** (cfg.j_max - j), 0]).h0)
            ub = int(best) if math.isfinite(best) else None
        records.append(
            SweepRecord(
                eps=eps,
                n0=cert.n0,
                certified_lb=cert.certified_count,
                paper_lb=cert.paper_bound,
                theory_lb=cert.theory_bound,
                adversary_ub=ub,
                theory_ub=theory_upper_curve(cfg.lam, eps, cfg.alpha, cfg.m, cfg.p, cfg.cw),
                wall_ms=int(round(1000.0 * (time.perf_counter() - t0))),
            )
        )
    return records


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(records: Sequence[SweepRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [
                    _fmt(r.eps),
                    r.n0,
                    r.certified_lb,
                    r.paper_lb,
                    _fmt(r.theory_lb),
                    "" if r.adversary_ub is None else r.adversary_ub,
                    _fmt(r.theory_ub),
                    r.wall_ms,
                ]
            )


def read_csv(path) -> list[SweepRecord]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ConfigError(f"bad CSV header in {path}")
    records = []
    for row in rows[1:]:
        if not row:
            continue
        records.append(
            SweepRecord(
                eps=float(row[0]),
                n0=int(row[1]),
                certified_lb=int(row[2]),
                paper_lb=int(row[3]),
                theory_lb=float(row[4]),
                adversary_ub=None if row[5] == "" else int(row[5]),
                theory_ub=float(row[6]),
                wall_ms=int(row[7]),
            )
        )
    return records


def fit_slope(records: Sequence[SweepRecord], column: str) -> float:
    """Least-squares slope of log2(column) against log2(eps).

    Rows with missing, nonpositive or infinite values are skipped; at
    least three usable rows are required.
    """
    pts = []
    for r in records:
        value = getattr(r, column)
        if value is not None and 0 < value < math.inf:
            pts.append((math.log2(r.eps), math.log2(value)))
    if len(pts) < 3:
        raise DomainError(f"need >= 3 positive finite rows in {column!r}, have {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])
