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
        levels = range(a, b + 1)  # never a list: a..b may span 10^8 levels
    else:
        levels = [_number(x, int, "--levels") for x in text.split(",") if x]
    if not levels:
        raise ValidationError(f"--levels {text!r} names no level")
    return levels


def _parse_times(text):
    return [_number(x, float, "--times") for x in text.split(",") if x]


def _family_spec(name, args):
    """The named family with its parameters: --p and --alpha for the keys
    the family has, then the --param pairs."""
    keys = {key for key, _, _ in families._PARAMS.get(name, ())}
    given = {key: getattr(args, key) for key in ("p", "alpha") if key in keys}
    return families.FamilySpec(name, given | _parse_params(args.param))


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
        spec = _family_spec(args.family, args)
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
    spec = _family_spec(args.family, args)
    curve = families.make_curve(spec)
    rows = lifts.convergence_diagnostics(
        curve, args.p, args.alpha, _parse_levels(args.levels), construction=args.construction
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
        spec = _family_spec(args.family, args)
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
        norms._check_count(k, "--atoms", 1)
        mu = make_measure(sp, rng.normal(size=(k, 2)), np.full(k, 1.0 / k))
        nu = make_measure(sp, rng.normal(size=(k, 2)) + 1.0, np.full(k, 1.0 / k))
    report = lifts.benamou_brenier_check(mu, nu, args.alpha, args.p)
    serialize.dump_json(report, args.out)
    return EXIT_OK


def cmd_example(args):
    spec = _family_spec(args.family, args)
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


# every option of every subcommand, declared once: its flags and argparse
# keywords; each subcommand adds the ones its handler reads
_OPTIONS = {
    "mu": (("--mu",), {}),
    "nu": (("--nu",), {}),
    "coupling": (("--coupling",), {"action": "store_true"}),
    "measures": (("--measures",), {"nargs": "*"}),
    "times": (("--times",), {}),
    "construction": (("--construction",), {"choices": ["A", "B"], "default": "B"}),
    "norm": (("--norm",), {"required": True, "choices": list(lifts._FUNCTIONALS)}),
    "path": (("--path",), {"help": "path JSON file"}),
    "builtin": (("--builtin",), {"default": "geodesic"}),
    "seed": (("--seed",), {"type": int, "default": 0}),
    "atoms": (("--atoms",), {"type": int, "default": 4}),
    "t": (("--t",), {"type": float, "default": 0.0}),
    "family": (("--family",), {}),
    "param": (("--param",), {"action": "append", "default": [], "help": "key=val (repeatable)"}),
    "p": (("--p",), {"type": float, "default": 2.0}),
    "alpha": (("--alpha",), {"type": float, "default": 0.75}),
    "gamma": (("--gamma",), {"type": float, "default": 1.0}),
    "q": (("--q",), {"type": float, "default": 2.0}),
    "delta": (("--delta",), {"type": float, "default": 1.0}),
    "levels": (("--levels",), {"default": "3", "help": "e.g. 1..5 or 1,3,5"}),
    "truncation": (("--truncation", "-M"), {"type": int, "default": 8}),
    "tol": (("--tol",), {"type": float, "default": transport.FEASIBILITY_TOL}),
    "format": (("--format",), {"choices": ["json", "csv"], "default": "csv"}),
    "out": (("--out",), {}),
}


def _add(parser, *names, **overrides):
    for name in names:
        flags, kw = _OPTIONS[name]
        parser.add_argument(*flags, **kw, **overrides)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line, an option the subcommand does not take
    among them, as an input error after the usage line.  Options are matched
    by their full names only; each subcommand's parser is a _Parser too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(prog="wlift", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ot", help="Wasserstein distance between two measures")
    _add(p, "mu", "nu", required=True)
    _add(p, "coupling", "p", "out")
    p.set_defaults(func=cmd_ot)

    p = sub.add_parser("compat", help="compatibility feasibility LP")
    _add(p, "measures", "times", "family", "param", "p", "alpha", "tol", "out")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("lift", help="dyadic lift construction diagnostics")
    _add(p, "construction", "family", "param", "p", "alpha", "levels", "format", "out")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("norms", help="path / curve norms")
    _add(p, "norm", "path", "builtin", "family", "param", "p", "alpha", "gamma", "q",
         "delta", "truncation", "out")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("bb", help="dynamic-formula identity check")
    _add(p, "mu", "nu", "seed", "atoms", "p", "alpha", "out")
    p.set_defaults(func=cmd_bb)

    p = sub.add_parser("example", help="emit a family measure at time t")
    p.add_argument("family")
    _add(p, "t", "param", "p", "alpha", "out")
    p.set_defaults(func=cmd_example)

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # only --help exits parse_args, as _Parser.error raises
        return EXIT_OK
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
