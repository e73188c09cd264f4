"""Command-line interface.

Subcommands: modulus (evaluate/invert/check a modulus), eval (evaluate a
stored grid function), build (materialize the extremal map), certify
(lower-bound certificate at one budget), perturb (adversary
constructions), sweep (dyadic budget sweep to CSV).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .certifier import certify
from .chart import Chart, affine_chart, identity_chart, polar_demo_chart
from .errors import TranslabError
from .extremal import ExtremalFunction
from .funcrep import SampledFunction, count_zero_components
from .modulus import ModulusSpec, check_modulus_axioms


def _modulus_from_args(args) -> ModulusSpec:
    if args.kind == "power":
        if args.file is not None:
            raise TranslabError(f"--file {args.file} gives a table modulus, but --kind power ignores it")
        return ModulusSpec.power(*(1.0 if v is None else v for v in (args.lam, args.alpha)))
    for flag, value in (("--lambda", args.lam), ("--alpha", args.alpha)):
        if value is not None:
            raise TranslabError(f"{flag} sets a power modulus, but --kind table reads its modulus from --file")
    if args.file is None:
        raise TranslabError("--kind table needs --file")
    with open(args.file) as fh:
        pts = []
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                d, v = map(float, line.split())
            except ValueError:
                raise TranslabError(f"{args.file} line {n}: expected two numbers 'delta value', got {line!r}") from None
            pts.append((d, v))
    return ModulusSpec.table(pts)


def _numbers(flag: str, text: str) -> list[float]:
    """A flag's comma-separated numbers; a token that is not one is refused, named."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise TranslabError(f"{flag}: {exc}") from None


def _extremal_from_args(args) -> ExtremalFunction:
    beta = ModulusSpec.power(args.lam, args.alpha)
    return ExtremalFunction(beta=beta, d=args.d, q=args.m - args.p, p=args.p)


def _chart_from_args(args, m: int) -> Chart | None:
    """The --chart chart at --r0 (default 1), or None; --r0 alone is refused."""
    if args.chart is None:
        if args.r0 is not None:
            raise TranslabError("--r0 sets the chart's rectangle half-width, but no --chart is given")
        return None
    return _chart_from_spec(args.chart, m, 1.0 if args.r0 is None else args.r0)


def _chart_from_spec(spec: str, m: int, r0: float) -> Chart:
    if spec == "identity":
        return identity_chart(m, r0=r0)
    if spec == "polar-demo":
        return polar_demo_chart(r0=r0)
    if spec.startswith("affine:"):
        nums = _numbers("--chart", spec[len("affine:"):])
        if len(nums) != m * m + m:
            raise TranslabError(f"affine chart needs {m * m + m} numbers, got {len(nums)}")
        mat = np.array(nums[: m * m]).reshape(m, m)
        off = np.array(nums[m * m:])
        return affine_chart(mat, off, r0=r0)
    raise TranslabError(f"unknown chart spec {spec!r}")


def _cmd_modulus(args) -> int:
    beta = _modulus_from_args(args)
    if args.eval is not None:
        print(f"{beta(args.eval):.17g}")
    elif args.invert is not None:
        print(f"{beta.inverse(args.invert):.17g}")
    else:
        report = check_modulus_axioms(beta)
        for axiom in ("monotone", "subadditive", "vanishes_at_zero"):
            print(f"{axiom}={str(getattr(report, axiom)).lower()}")
        if report.failure:
            print(f"failure={report.failure}")
    return 0


def _cmd_eval(args) -> int:
    h = SampledFunction.load(args.func)
    value = h.evaluate(_numbers("--at", args.at))
    print(" ".join(f"{v:.17g}" for v in value))
    return 0


def _cmd_build(args) -> int:
    fn = _extremal_from_args(args)
    if args.sample is not None:
        if args.out is None:
            raise TranslabError("--sample needs --out")
        fn.sample(args.sample).save(args.out)
        print(f"wrote sampled function (d={fn.d}, m={fn.m}, step={args.sample}) to {args.out}")
    else:
        print(f"extremal map defined: d={fn.d} m={fn.m} p={fn.p} q={fn.q} "
              f"alpha={args.alpha} lambda={args.lam} (use --sample STEP --out PATH to materialize)")
    return 0


def _cmd_certify(args) -> int:
    fn = _extremal_from_args(args)
    h = SampledFunction.load(args.h) if args.h else None
    chart = _chart_from_args(args, args.m)
    cert = certify(fn, args.eps, h=h, chart=chart, z_grid=args.z_grid)
    print(f"eps={cert.eps:.17g}")
    print(f"n0={cert.n0}")
    for lc in cert.per_level_counts:
        print(f"level_{lc.n}={lc.verified}/{lc.total}")
    print(f"certified_count={cert.certified_count}")
    print(f"paper_bound={cert.paper_bound}")
    print(f"theory_bound={cert.theory_bound:.17g}")
    print(f"mode={cert.mode}")
    print(f"vacuous={str(cert.vacuous).lower()}")
    print(f"envelope_ok={str(cert.envelope_ok).lower()}")
    if args.csv:
        header_needed = not os.path.exists(args.csv)
        with open(args.csv, "a") as fh:
            if header_needed:
                fh.write("eps,n0,certified_count,paper_bound,theory_bound,mode\n")
            fh.write(
                f"{cert.eps:.17g},{cert.n0},{cert.certified_count},"
                f"{cert.paper_bound},{cert.theory_bound:.17g},{cert.mode}\n"
            )
    return 0


def _cmd_perturb(args) -> int:
    from .adversary import flatten_perturbation, improvement_envelope, iterate_improvement, refine_interpolant
    from .driver import adversary_refusal

    if args.rounds is not None and args.mode != "iterate":
        raise TranslabError(f"--rounds counts the rounds of --mode iterate, but --mode {args.mode} runs one construction")
    if args.func:
        for flag, value in (("--alpha", args.alpha), ("--lambda", args.lam)):
            if value is not None:
                raise TranslabError(f"{flag} sets the extremal map's modulus, but --func {args.func} replaces that map")
        sampled = SampledFunction.load(args.func)
        if sampled.d != 1 or sampled.m != 1:
            raise TranslabError("perturb needs a scalar function on [0,1]")
        # a grid function's Lipschitz constant is its steepest knot segment; a
        # difference of doubles rounds monotonely, so a 1-Lipschitz file passes
        x, v = sampled.grid[0], sampled.values[:, 0]
        dx, dv = np.diff(x), np.abs(np.diff(v))
        steep = np.flatnonzero(dv > dx)
        if len(steep):
            k = steep[np.argmax(dv[steep] / dx[steep])]
            slope, a, b = float(dv[k] / dx[k]), float(x[k]), float(x[k + 1])
            raise TranslabError(
                f"adversary runs need a 1-Lipschitz target; {args.func} has slope {slope!r} on [{a!r}, {b!r}]"
            )
        f = lambda s: sampled.evaluate_many(np.reshape(s, (-1, 1)))[:, 0]
    else:
        args.alpha, args.lam = (1.0 if v is None else v for v in (args.alpha, args.lam))
        refusal = adversary_refusal(args.alpha, args.lam)
        if refusal:
            raise TranslabError(refusal)
        f = _extremal_from_args(args).as_scalar()
    if args.mode in ("flatten", "refine") and not args.out:
        raise TranslabError(f"--mode {args.mode} needs --out")
    if args.mode == "flatten":
        h = flatten_perturbation(f, args.eps, args.C)
    elif args.mode == "refine":
        h = refine_interpolant(f, args.eps)
    else:
        rows = iterate_improvement(f, args.eps, args.C, 2 if args.rounds is None else args.rounds)
        print("k eps zero_count envelope")
        for k, (eps_k, count) in enumerate(rows, start=1):
            print(f"{k} {eps_k:.17g} {count} {improvement_envelope(args.eps, args.C, k):.17g}")
        return 0
    h.save(args.out)
    summary = count_zero_components(h)
    print(f"wrote {args.mode} perturbation to {args.out}: "
          f"{summary.component_count} zero components, flat={str(summary.has_flat_zero_interval).lower()}")
    return 0


def _cmd_sweep(args) -> int:
    from .driver import parse_config, sweep, write_csv

    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    chart = _chart_from_args(args, cfg.m)
    records = sweep(cfg, chart=chart)
    write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="translab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_power_args(p, d_default=1):
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0)
        p.add_argument("--d", type=int, default=d_default)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--p", type=int, default=0)

    p = sub.add_parser("modulus", help="evaluate, invert, or axiom-check a modulus")
    p.add_argument("--kind", choices=("power", "table"), required=True)
    p.add_argument("--lambda", dest="lam", type=float, help="--kind power only (default 1)")
    p.add_argument("--alpha", type=float, help="--kind power only (default 1)")
    p.add_argument("--file", help="--kind table only: two-column table, delta value")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eval", type=float)
    group.add_argument("--invert", type=float)
    group.add_argument("--check", action="store_true", help="decide the three modulus axioms exactly")
    p.set_defaults(handler=_cmd_modulus)

    p = sub.add_parser("eval", help="evaluate a stored grid function")
    p.add_argument("--func", required=True)
    p.add_argument("--at", required=True, help="comma-separated coordinates")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("build", help="define or materialize the extremal map")
    add_power_args(p)
    p.add_argument("--sample", type=float, help="uniform grid step")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("certify", help="lower-bound certificate at one budget")
    add_power_args(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--h", help="perturbation function file (empirical mode)")
    p.add_argument("--chart", help="identity | affine:a11,...,b1,... | polar-demo")
    p.add_argument("--r0", type=float, help="--chart only (default 1)")
    p.add_argument("--z-grid", type=int, default=1)
    p.add_argument("--csv", help="append a summary row to this CSV")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("perturb", help="adversary constructions")
    p.add_argument("--mode", choices=("flatten", "refine", "iterate"), required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--func", help="scalar function file; omit to use the extremal map")
    p.add_argument("--alpha", type=float, help="extremal map only (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, help="extremal map only (default 1)")
    p.add_argument("--rounds", type=int, help="--mode iterate only (default 2)")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_perturb, d=1, m=1, p=0)

    p = sub.add_parser("sweep", help="dyadic budget sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chart", help="identity | affine:a11,...,b1,... | polar-demo")
    p.add_argument("--r0", type=float, help="--chart only (default 1)")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TranslabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
