"""Command-line front-end.

Subcommands: ot, compat, lift, norms, bb, example.
Exit codes: 0 success; 1 domain-negative result (infeasible / no lift);
2 input error; 3 resource limit.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import families, lifts, norms, serialize, spaces, transport
from .errors import (
    BudgetExceededError,
    IncompatibleCurveError,
    NoContinuousLiftError,
    ValidationError,
)
from .paths import PiecewiseGeodesicPath, geodesic_segment

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _parse_params(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValidationError(f"--param expects key=val, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v
    return out


def _number(text, kind, what):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{what} expects {kind.__name__} values, got {text!r}") from None


def _parse_levels(text):
    if ".." in text:
        a, b = (_number(x, int, "--levels") for x in text.split("..", 1))
        levels = list(range(a, b + 1))
    else:
        levels = [_number(x, int, "--levels") for x in text.split(",") if x]
    if not levels:
        raise ValidationError(f"--levels {text!r} names no level")
    return levels


def _parse_times(text):
    return [_number(x, float, "--times") for x in text.split(",") if x]


def _int_param(params, key, default):
    value = params.get(key, default)
    if type(value) is not int:
        raise ValidationError(f"--param {key} expects an integer, got {value!r}")
    return value


def _float_param(params, key, default):
    value = params.get(key, default)
    if type(value) not in (int, float):
        raise ValidationError(f"--param {key} expects a number, got {value!r}")
    return float(value)


# the --param keys each family reads; any other key is an input error
_FAMILY_PARAMS = {
    "jump": (),
    "two_tent": (),
    "circle_splitting": ("j",),
    "oscillating_tents": ("J", "p", "upsilon", "a"),
    "cylinder_family": ("J", "p", "alpha", "a"),
}


def _family_spec(name, params, args):
    if name not in _FAMILY_PARAMS:
        raise ValidationError(f"unknown family {name!r}")
    unknown = sorted(set(params) - set(_FAMILY_PARAMS[name]))
    if unknown:
        known = ", ".join(_FAMILY_PARAMS[name]) or "none"
        raise ValidationError(
            f"family {name!r} takes no --param {', '.join(unknown)} (its keys: {known})"
        )
    if name == "jump":
        return families.jump()
    if name == "two_tent":
        return families.two_tent()
    if name == "circle_splitting":
        return families.circle_splitting(_int_param(params, "j", 0))
    if name == "oscillating_tents":
        return families.oscillating_tents(
            _int_param(params, "J", 4),
            _float_param(params, "p", args.p),
            _float_param(params, "upsilon", 0.8),
            _float_param(params, "a", 2.0),
        )
    return families.cylinder_family(  # the one family left in _FAMILY_PARAMS
        _int_param(params, "J", 4),
        _float_param(params, "p", args.p),
        _float_param(params, "alpha", args.alpha),
        _float_param(params, "a", 3.0),
    )


def cmd_ot(args):
    mu = serialize.measure_from_json(serialize.load_json(args.mu))
    nu = serialize.measure_from_json(serialize.load_json(args.nu))
    coupling, cost = transport.optimal_coupling(mu, nu, args.p)
    report = {
        "p": args.p,
        "cost": cost,
        "wasserstein": cost ** (1.0 / args.p),
    }
    if args.coupling:
        report["coupling"] = coupling.weights.tolist()
    serialize.dump_json(report, args.out)
    return EXIT_OK


def cmd_compat(args):
    if args.measures:
        meas = [
            serialize.measure_from_json(serialize.load_json(f)) for f in args.measures
        ]
    elif args.family:
        spec = _family_spec(args.family, _parse_params(args.param), args)
        curve = families.make_curve(spec)
        times = _parse_times(args.times) if args.times else [0.0, 0.5, 1.0]
        meas = [curve(t) for t in times]
    else:
        raise ValidationError("compat needs --measures or --family")
    report = transport.compatibility_multicoupling(meas, args.p, tol=args.tol)
    out = {
        "feasible": report.feasible,
        "max_pair_gap": report.max_pair_gap,
        "product_size": report.product_size,
        "lp_columns": report.lp_columns,
    }
    if report.feasible and args.out:
        out["certificate"] = serialize.multicoupling_to_json(report.certificate)
    serialize.dump_json(out, args.out)
    return EXIT_OK if report.feasible else EXIT_NEGATIVE


def cmd_lift(args):
    spec = _family_spec(args.family, _parse_params(args.param), args)
    curve = families.make_curve(spec)
    levels = _parse_levels(args.levels) if args.levels else [args.level]
    rows = lifts.convergence_diagnostics(
        curve, args.p, args.alpha, levels, construction=args.construction
    )
    fields = ["level", "energy", "max_marginal_err", "max_pair_gap", "error"]
    if args.format == "json":
        serialize.dump_json(rows, args.out)
    else:
        serialize.dump_csv(rows, fields, args.out)
    if any(r["error"] for r in rows):
        return EXIT_NEGATIVE
    return EXIT_OK


def _builtin_path(name):
    sp = spaces.euclidean(1)
    if name == "geodesic":
        return geodesic_segment(sp, [0.0], [1.0])
    if name == "tent":
        return PiecewiseGeodesicPath(sp, [[0.0], [1.0], [0.0]], 1)
    raise ValidationError(f"unknown builtin path {name!r}")


def cmd_norms(args):
    entry = lifts._FUNCTIONALS[args.norm]
    if "alpha" in entry.params and args.alpha * args.p <= 1:
        raise ValidationError("alpha * p > 1 required for the fractional norms")

    if args.family:
        spec = _family_spec(args.family, _parse_params(args.param), args)
        curve = families.make_curve(spec)
        if entry.curve is None:
            raise ValidationError(f"norm {args.norm!r} not available for curves")
        params = {name: getattr(args, name) for name in entry.params + ("p",)}
        value = lifts.curve_norm_power(
            curve, lifts.EnergySpec(args.norm, params), M=args.truncation
        )
        report = serialize.norm_report(
            args.norm + " (curve, p-th power, OT-backed)",
            params,
            value,
            truncation_level=args.truncation,
        )
        serialize.dump_json(report, args.out)
        return EXIT_OK

    if args.path:
        path = serialize.path_from_json(serialize.load_json(args.path))
    else:
        path = _builtin_path(args.builtin)

    params = {"p": args.p, "alpha": args.alpha, "gamma": args.gamma, "q": args.q,
              "delta": args.delta}
    one_path = lifts.Lift((path,), np.ones(1), path.level)
    value = entry.paths(one_path, params, args.truncation)[0]
    tail = None
    if args.norm == "besov":
        tail = norms.besov_norm_truncated(path, args.alpha, args.p, args.truncation)[1]
    report = serialize.norm_report(
        args.norm + (" (p-th power)" if entry.power else ""),
        params,
        value,
        truncation_level=args.truncation,
        tail_estimate=tail,
    )
    serialize.dump_json(report, args.out)
    return EXIT_OK


def cmd_bb(args):
    if args.mu and args.nu:
        mu = serialize.measure_from_json(serialize.load_json(args.mu))
        nu = serialize.measure_from_json(serialize.load_json(args.nu))
    else:
        rng = np.random.default_rng(args.seed)
        sp = spaces.euclidean(2)
        from .measures import make_measure

        k = args.atoms
        mu = make_measure(sp, rng.normal(size=(k, 2)), np.full(k, 1.0 / k))
        nu = make_measure(sp, rng.normal(size=(k, 2)) + 1.0, np.full(k, 1.0 / k))
    report = lifts.benamou_brenier_check(mu, nu, args.alpha, args.p)
    serialize.dump_json(report, args.out)
    return EXIT_OK


def cmd_example(args):
    spec = _family_spec(args.family_name, _parse_params(args.param), args)
    curve = families.make_curve(spec)
    mu = curve(args.t)
    serialize.dump_json(
        {
            "family": spec.name,
            "params": spec.params,
            "t": args.t,
            "measure": serialize.measure_to_json(mu),
        },
        args.out,
    )
    return EXIT_OK


def _add_common(p):
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--levels", type=str, default=None, help="e.g. 1..5 or 1,3,5")
    p.add_argument("--truncation", "-M", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--family", type=str, default=None)
    p.add_argument("--param", action="append", default=[], help="key=val (repeatable)")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="csv")


def build_parser():
    ap = argparse.ArgumentParser(prog="wlift", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ot", help="Wasserstein distance between two measures")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--coupling", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_ot)

    p = sub.add_parser("compat", help="compatibility feasibility LP")
    p.add_argument("--measures", nargs="*", default=None)
    p.add_argument("--times", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("lift", help="dyadic lift construction diagnostics")
    p.add_argument("--construction", choices=["A", "B"], default="B")
    _add_common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("norms", help="path / curve norms")
    p.add_argument("--norm", required=True, choices=list(lifts._FUNCTIONALS))
    p.add_argument("--path", type=str, default=None, help="path JSON file")
    p.add_argument("--builtin", type=str, default="geodesic")
    _add_common(p)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("bb", help="dynamic-formula identity check")
    p.add_argument("--mu", type=str, default=None)
    p.add_argument("--nu", type=str, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--atoms", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_bb)

    p = sub.add_parser("example", help="emit a family measure at time t")
    p.add_argument("family_name", metavar="family", type=str)
    p.add_argument("--t", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_example)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (IncompatibleCurveError, NoContinuousLiftError) as exc:
        print(f"negative result: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
