"""Budget sweeps: certify, attack, and compare against both envelopes.

A sweep walks the dyadic budgets eps = 2**(-j) for j in [j_min, j_max],
certifies the theoretical lower bound at each budget, optionally runs
the adversary constructions to get an achieved upper count, evaluates
the theoretical upper curve, and emits one CSV row per budget.  The
dyadic grid keeps depth resolution exact at band edges.

Configuration is a plain-text key=value file; unknown or repeated keys
are errors.  Keys, read in lower case: alpha, lambda, d, m, p, j_min,
j_max, adversary, c, cw.  A ``SweepConfig`` is checked when it is built,
from a file or in code, and ``sweep`` trusts it.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .adversary import check_budget, flatten_arrays, refine_values, target_refusal
from .adversary import flatten_perturbation, refine_interpolant  # noqa: F401  perfbench's tracer wraps these driver names
from .certifier import certify, theory_upper_curve
from .errors import ConfigError, DomainError, TranslabError, require_int
from .extremal import ExtremalFunction
from .funcrep import count_value_zeros
from .funcrep import count_zero_components  # noqa: F401  perfbench's tracer wraps driver.count_zero_components by name
from .modulus import ModulusSpec


@dataclass(frozen=True)
class SweepConfig:
    """One sweep's settings, checked when built, so ``sweep`` trusts them: an invalid config raises ``ConfigError``."""

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

    def __post_init__(self) -> None:
        for name in ("d", "m", "p", "j_min", "j_max"):
            require_int(getattr(self, name), name, ConfigError)
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.lam < math.inf):
            raise ConfigError(f"lambda must be positive and finite, got {self.lam}")
        if not (1 <= self.m - self.p <= self.d):
            raise ConfigError(f"need d >= m - p >= 1, got d={self.d}, m={self.m}, p={self.p}")
        if self.p < 0:
            raise ConfigError(f"p must be nonnegative, got {self.p}")
        # j_min > j_max is allowed: an empty range sweeps zero budgets.
        # Every budget 2**-j must be a finite positive double, checked before any row runs.
        if self.j_max > 1074:
            raise ConfigError(f"j_max must be at most 1074 (2**-1075 rounds to 0.0), got {self.j_max}")
        if self.j_min < -1023:
            raise ConfigError(f"j_min must be at least -1023 (2**1024 overflows a double), got {self.j_min}")
        if self.adversary:
            if refusal := target_refusal(self.extremal()):
                raise ConfigError(refusal)
            for j in range(self.j_min, self.j_max + 1):  # the budgets swept, none when the range is empty
                try:
                    check_budget(2.0**-j, self.C)
                except TranslabError as exc:
                    raise ConfigError(f"adversary runs at j = {j}, C = {self.C!r}: {exc}") from None
        elif self.C != 1.0:  # only flatten reads C
            raise ConfigError(f"C = {self.C!r} sets flatten's partition constant, but the adversary is off")
        if not (0.0 < self.cw < math.inf):
            raise ConfigError(f"cw must be positive and finite, got {self.cw}")

    def extremal(self) -> ExtremalFunction:
        return ExtremalFunction(beta=ModulusSpec.power(self.lam, self.alpha), d=self.d, q=self.m - self.p, p=self.p)


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# a config value or CSV cell is read, and a CSV cell written, by its field's declared type
_PARSE = {float: float, int: int, bool: lambda s: _BOOLEANS[s.lower()], Optional[int]: lambda s: int(s) if s else None}
_FORMAT = {float: "{:.17g}".format, int: "{:d}".format, Optional[int]: lambda x: "" if x is None else f"{x:d}"}
_ALIASES = {"lam": "lambda"}  # the one config key that is not its field's name in lower case
_CONFIG_TYPES = get_type_hints(SweepConfig)
_CONFIG_KEYS = {_ALIASES.get(f.name, f.name.lower()): (f, _PARSE[_CONFIG_TYPES[f.name]]) for f in fields(SweepConfig)}


def parse_config(text: str) -> SweepConfig:
    """Parse a key=value config; blank lines and #-comments are skipped, and C needs the adversary on."""
    seen: dict[str, object] = {}
    lines: dict[str, int] = {}
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
        if field.name in seen:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        try:
            seen[field.name] = cast(value.strip())
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    missing = [key for key, (f, _) in _CONFIG_KEYS.items() if f.default is MISSING and f.name not in seen]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    if "C" in seen and not seen.get("adversary", False):
        raise ConfigError(f"line {lines['c']}: key 'c' sets flatten's partition constant, but the adversary is off")
    return SweepConfig(**seen)  # type: ignore[arg-type]


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


CSV_HEADER = tuple(f.name for f in fields(SweepRecord))
_CSV_TYPES = tuple(get_type_hints(SweepRecord)[name] for name in CSV_HEADER)


def sweep(cfg: SweepConfig, chart=None) -> list[SweepRecord]:
    """One record per dyadic budget, ordered by decreasing eps.

    With the adversary on, a row's achieved count is the smaller zero
    count of flatten's lift and refine's interpolant at its budget, each
    read by ``count_value_zeros`` off a bare value array.  Row j_min
    counts refine's mesh for every row, then makes flatten's calls of F
    for a group of rows; its ``wall_ms`` holds that work.

    refine's knot values are built once, by ``refine_values`` at
    2**-j_max, and every row's count is read off them before anything
    else is built: row j counts ``finest[::s]``, s = 2**(j_max - j), which
    holds bit for bit the values ``refine_interpolant`` builds at 2**-j.
    That mesh has K = 2**(j + 2) cells, and np.linspace(0, 1, K + 1) puts
    knot i at i * (1/K) rounded once; 1/(K/s) is exactly s * (1/K) for a
    power of two s, so each coarse knot is the same double as the fine
    knot i * s, and f and the knot nudge act point by point.  The value
    array is then dropped, so the 2**(j_max + 2) + 1 values are freed
    before flatten's lift table is built.

    flatten's lifts come from one ``flatten_arrays`` call over every
    budget, each bit for bit the one ``flatten_perturbation`` builds at
    that budget alone.  f is called for a whole group of rows (a j =
    6..14 sweep is one group) at its first row, and each lift is laid
    out from those values when its row is reached.  An empty range
    builds no mesh and calls F for neither construction.
    """
    if chart is not None and cfg.adversary:
        raise ConfigError("adversary runs are flat-model only; drop the chart")
    fn = cfg.extremal()
    budgets = [2.0**-j for j in range(cfg.j_min, cfg.j_max + 1)]
    if cfg.adversary:
        scalar = fn.as_scalar()
        lifts = flatten_arrays(scalar, budgets, cfg.C)
    refined: list[float] = []
    records = []
    for j, eps in enumerate(budgets, start=cfg.j_min):
        t0 = time.perf_counter()
        cert = certify(fn, eps, chart=chart)
        ub: Optional[int] = None
        if cfg.adversary:
            if not refined:  # every row's count off one mesh, freed before the lift table is built
                finest = refine_values(scalar, budgets[-1])
                refined = [count_value_zeros(finest[:: 2**k]).h0 for k in range(cfg.j_max - cfg.j_min, -1, -1)]
                del finest
            best = min(count_value_zeros(next(lifts)[1]).h0, refined[j - cfg.j_min])
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


def write_csv(records: Sequence[SweepRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([_FORMAT[kind](getattr(r, name)) for name, kind in zip(CSV_HEADER, _CSV_TYPES)])


def read_csv(path) -> list[SweepRecord]:
    """Records from a sweep CSV; a row of the wrong width or with a bad cell is refused, naming its line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_HEADER:
            raise ConfigError(f"bad CSV header in {path}")
        for row in filter(None, reader):
            where = f"{path} line {reader.line_num}"
            if len(row) != len(CSV_HEADER):
                raise ConfigError(f"{where}: expected {len(CSV_HEADER)} cells, got {len(row)}")
            try:
                records.append(SweepRecord(*(_PARSE[kind](cell) for kind, cell in zip(_CSV_TYPES, row))))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
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
