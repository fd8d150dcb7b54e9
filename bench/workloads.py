"""The benchmark's four workloads.

A workload is `make_inputs(seed)`, which builds the seeded inputs during
set-up, and a tuple of tasks.  A task's `run(inputs, tmp)` calls the library
and returns its raw output; it is the only timed code.  Its
`check(inputs, out)` compares that output with a reference afterwards and
returns a list of `(label, ok, detail)`.  Sizes, atom counts, levels and
product sizes are constants, so the seed changes the data but not the work.
Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import wlift
from wlift import cli, families, lifts, norms, transport
from wlift.lifts import EnergySpec
from wlift.paths import PiecewiseGeodesicPath, dyadic_times

import references as ref

P = 2.0
ALPHA = 0.75
PROBE_TIMES = (0.0, 0.3, 0.5, 0.8, 1.0)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    tasks: tuple


def _close(label, got, want, rtol):
    ok = abs(got - want) <= rtol * max(1.0, abs(want))
    return (label, bool(ok), f"got {got!r}, want {want!r} (rtol {rtol:g})")


def _at_most(label, got, limit):
    return (label, bool(got <= limit), f"got {got!r}, limit {limit!r}")


def _is(label, got, want):
    return (label, got == want, f"got {got!r}, want {want!r}")


def _read_json(path):
    return json.loads(Path(path).read_text())


def _space(kind):
    return {
        "r1": wlift.euclidean(1),
        "r2": wlift.euclidean(2),
        "r3": wlift.euclidean(3),
        "circle": wlift.circle(2.0),
        "cylinder": wlift.cylinder(2.0),
    }[kind]


def _seeded_geodesic(rng, kind, n_atoms):
    """Two uniform n-atom measures and the curve between them obtained by
    moving each atom along its geodesic to its partner under a brute-force
    optimal permutation: a constant-speed Wasserstein geodesic, so
    W_p(mu_s, mu_t) = |t - s| W_p(mu_0, mu_1) exactly."""
    space = _space(kind)
    X = ref.random_points(rng, space.kind, space.perimeter, space.dim, n_atoms)
    Y = ref.random_points(rng, space.kind, space.perimeter, space.dim, n_atoms)
    wpp, perm = ref.wpp_permutation(space.kind, space.perimeter, X, Y, P)
    Yp = Y[perm]
    step = Yp - X
    if space.kind != "euclidean":
        step[:, 0] = ref.arc_step(space.perimeter, X[:, 0], Yp[:, 0])
    weights = np.full(n_atoms, 1.0 / n_atoms)

    def evaluate(t):
        return wlift.make_measure(space, X + t * step, weights)

    # a factory, so every iteration starts with an empty curve cache
    def make():
        return lifts.WassersteinCurve(space, evaluate, level=0, name=f"geodesic_{kind}")

    return {"make": make, "wpp": wpp}


# ---------------------------------------------------------------------------
# curve_norms: thousands of small exact OT problems behind curve functionals

GEODESIC_M = 4
MODULUS_DELTA = 0.25


def _curve_norms_inputs(seed):
    rng = np.random.default_rng(seed)
    return {kind: _seeded_geodesic(rng, kind, 5) for kind in ("r2", "circle")}


def _two_tent_holder_run(inputs, tmp):
    out = Path(tmp) / "two_tent_holder.json"
    code = cli.main(["norms", "--norm", "holder", "--family", "two_tent",
                     "--gamma", "1", "--p", "2", "-M", "5", "--out", str(out)])
    return code, out


def _two_tent_holder_check(inputs, out):
    code, path = out
    # the curve's W_2 Holder-1 constant squared is 1/2 (1^2 + 2^2) = 2.5
    return [_is("exit", code, 0),
            _close("holder_power", _read_json(path)["value"], 2.5, 1e-9)]


def _circle_holder_run(inputs, tmp):
    curve = families.make_curve(families.circle_splitting(2))
    return lifts.curve_norm_power(curve, EnergySpec.holder(1.0, P), M=5)


def _osc_spec():
    return families.oscillating_tents(8, P, 0.8)


def _osc_variation_run(inputs, tmp):
    curve = families.make_curve(_osc_spec())
    return norms.limsup_variation_dyadic(
        curve, 1.0 / 0.8, range(1, 9),
        dist=lambda a, b: transport.wasserstein_distance(a, b, P))


def _osc_variation_check(inputs, out):
    spec = _osc_spec()
    return [_close(f"level{m}", float(v),
                   families.reference_value(spec, "dyadic_variation", m=m), 1e-8)
            for m, v in zip(range(1, 9), out)]


def _cyl_spec(J):
    return families.cylinder_family(J, P, ALPHA)


def _cylinder_besov_run(inputs, tmp):
    return lifts.curve_besov_norm(families.make_curve(_cyl_spec(3)), ALPHA, P, 8)


def _cylinder_besov_check(inputs, report):
    want = families.reference_value(_cyl_spec(3), "curve_besov_power")
    return [_is("exact", report.exact, True),
            _close("besov_power", report.value, want, 1e-8)]


def _geodesic_norm_task(kind, tag):
    if tag == "holder":
        spec, factor = EnergySpec.holder(1.0, P), 1.0
    else:
        spec, factor = EnergySpec.modulus(MODULUS_DELTA, P), MODULUS_DELTA**P

    def run(inputs, tmp):
        return lifts.curve_norm_power(inputs[kind]["make"](), spec, M=GEODESIC_M)

    def check(inputs, value):
        return [_close("power", value, factor * inputs[kind]["wpp"], 1e-8)]

    return Task(f"geodesic_{kind}_{tag}", run, check)


CURVE_NORMS = Workload(_curve_norms_inputs, (
    Task("two_tent_holder_cli", _two_tent_holder_run, _two_tent_holder_check),
    Task("circle_splitting_holder", _circle_holder_run,
         lambda inputs, v: [_close("holder_power", v, 1.0, 1e-9)]),
    Task("oscillating_tents_variation", _osc_variation_run, _osc_variation_check),
    Task("cylinder_besov", _cylinder_besov_run, _cylinder_besov_check),
    _geodesic_norm_task("r2", "holder"),
    _geodesic_norm_task("r2", "modulus"),
    _geodesic_norm_task("circle", "holder"),
    _geodesic_norm_task("circle", "modulus"),
))


# ---------------------------------------------------------------------------
# lift_build: constructions A and B, lift checks and lift energies

LIFT_LEVELS = range(1, 7)
CYLINDER_J = 4
CYLINDER_LEVEL = 10
VARIATION_Q = 2.0


def _lift_build_inputs(seed):
    rng = np.random.default_rng(seed)
    known = families.known_lift(_cyl_spec(CYLINDER_J)).discretize(CYLINDER_LEVEL)
    return {"geodesic": _seeded_geodesic(rng, "r2", 4), "cylinder_lift": known}


def _jump_a_run(inputs, tmp):
    out = Path(tmp) / "jump_A.json"
    code = cli.main(["lift", "--family", "jump", "--levels", "1..7", "--construction", "A",
                     "--p", "2", "--alpha", str(ALPHA), "--format", "json", "--out", str(out)])
    return code, out


def _jump_a_check(inputs, out):
    code, path = out
    rows = _read_json(path)
    res = [_is("exit", code, 0), _is("levels", [r["level"] for r in rows], list(range(1, 8)))]
    res += [_at_most(f"pair_gap_level{r['level']}", r["max_pair_gap"], 1e-10) for r in rows]
    floor = 2.0 ** (ALPHA * P - 1.0) - 0.01
    res += [(f"energy_ratio_level{b['level']}", b["energy"] / a["energy"] >= floor,
             f"ratio {b['energy'] / a['energy']!r} < {floor!r}")
            for a, b in zip(rows, rows[1:])]
    return res


def _lift_b_sweep(curve):
    """Per level: construction B, its marginal and dyadic-pattern checks, and
    its Besov lift energy next to the curve's Besov norm."""
    besov = EnergySpec.besov(ALPHA, P)
    rows = []
    for n in LIFT_LEVELS:
        lift = lifts.construct_lift_B(curve, n, P)
        ts = dyadic_times(n)
        pairs = [(ts[i], ts[j]) for (i, j) in transport.dyadic_pattern_pairs(n)]
        rows.append({
            "level": n,
            "marginal_err": lifts.marginal_check(lift, curve, PROBE_TIMES, P, 1e-8)["max_err"],
            "pair_gap": lifts.pairwise_optimality_check(lift, curve, pairs, P, 1e-10)["max_gap"],
            "lift_energy": lifts.lift_energy(lift, besov),
            "curve_power": lifts.curve_besov_norm(curve, ALPHA, P, max(n, 6)).value,
            "lift": lift,
        })
    return rows


def _lift_b_checks(rows):
    res = []
    for r in rows:
        n = r["level"]
        res.append(_at_most(f"marginal_err_level{n}", r["marginal_err"], 1e-8))
        res.append(_at_most(f"pair_gap_level{n}", r["pair_gap"], 1e-10))
        res.append(_close(f"energy_vs_curve_level{n}", r["lift_energy"], r["curve_power"], 1e-8))
    return res


def _two_tent_b_run(inputs, tmp):
    rows = _lift_b_sweep(families.make_curve(families.two_tent()))
    level4 = next(r["lift"] for r in rows if r["level"] == 4)
    return rows, lifts.lift_energy(level4, EnergySpec.holder(1.0, P))


def _two_tent_b_check(inputs, out):
    rows, holder4 = out
    # the level-4 lift B moves its particles at speeds 1 and 2, so its
    # Holder-1 energy 1/2 (1 + 4) equals the curve's: the gap is exactly 0
    return _lift_b_checks(rows) + [_close("holder_energy_level4", holder4, 2.5, 1e-9)]


def _geodesic_b_check(inputs, rows):
    want = inputs["geodesic"]["wpp"] / ref.geodesic_besov_factor(ALPHA, P)
    return _lift_b_checks(rows) + [_close("curve_power", rows[0]["curve_power"], want, 1e-8)]


def _cylinder_energy_run(inputs, tmp):
    lift = inputs["cylinder_lift"]
    return {
        "besov": lifts.lift_energy(lift, EnergySpec.besov(ALPHA, P)),
        "w1p": lifts.lift_energy(lift, EnergySpec.w1p(P)),
        "variation": lifts.lift_energy(lift, EnergySpec.variation(VARIATION_Q, P)),
    }


def _cylinder_energy_check(inputs, out):
    spec = _cyl_spec(CYLINDER_J)
    besov = (CYLINDER_J + 1) * families.reference_value(spec, "per_circle_lift_energy")
    return [
        _close("besov", out["besov"], besov, 1e-9),
        _close("w1p", out["w1p"], ref.cylinder_lift_w1p(CYLINDER_J, P, ALPHA), 1e-9),
        _close("variation", out["variation"],
               ref.cylinder_lift_variation(CYLINDER_J, VARIATION_Q, P, ALPHA), 1e-9),
    ]


LIFT_BUILD = Workload(_lift_build_inputs, (
    Task("jump_A_cli", _jump_a_run, _jump_a_check),
    Task("two_tent_B", _two_tent_b_run, _two_tent_b_check),
    Task("geodesic_B", lambda inputs, tmp: _lift_b_sweep(inputs["geodesic"]["make"]()),
         _geodesic_b_check),
    Task("cylinder_lift_energy", _cylinder_energy_run, _cylinder_energy_check),
))


# ---------------------------------------------------------------------------
# compat_lp: a few product-support compatibility LPs

COMPAT_TIMES = [k / 8 for k in range(8)]
RANDOM_MEASURES = 7
RANDOM_ATOMS = 5


def _compat_lp_inputs(seed):
    rng = np.random.default_rng(seed)
    space = wlift.euclidean(1)
    measures = []
    for _ in range(RANDOM_MEASURES):
        w = rng.uniform(0.2, 1.0, size=RANDOM_ATOMS)
        measures.append(wlift.make_measure(space, rng.normal(scale=2.0, size=(RANDOM_ATOMS, 1)),
                                           w / w.sum()))
    return {"measures": measures}


def _circle_compat_run(inputs, tmp):
    out = Path(tmp) / "compat.json"
    code = cli.main(["compat", "--family", "circle_splitting", "--param", "j=1",
                     "--times", ",".join(map(str, COMPAT_TIMES)), "--out", str(out)])
    return code, out


def _circle_compat_check(inputs, out):
    code, path = out
    report = _read_json(path)
    return [_is("exit", code, 1), _is("feasible", report["feasible"], False),
            _close("gap", report["max_pair_gap"], 0.5, 1e-8),
            _is("product_size", report["product_size"], 4**8)]


def _circle_lift_b_run(inputs, tmp):
    """The expected outcome is IncompatibleCurveError; it is returned, not
    raised, so that only an unexpected exception fails the task."""
    try:
        return {"lift": lifts.construct_lift_B(families.make_curve(families.circle_splitting(1)), 3, P)}
    except wlift.IncompatibleCurveError as exc:
        return {"error": exc}


def _circle_lift_b_check(inputs, out):
    if "error" not in out:
        return [("incompatible", False, "construct_lift_B returned a lift")]
    report = out["error"].report
    return [("incompatible", True, ""),
            _close("gap", report.max_pair_gap, 0.25, 1e-8),
            _is("product_size", report.product_size, 4**9)]


def _random_compat_run(inputs, tmp):
    return transport.compatibility_multicoupling(inputs["measures"], P)


def _random_compat_check(inputs, report):
    # measures on the line are always compatible: the monotone coupling is
    # optimal for every pair at once
    res = [_is("feasible", report.feasible, True),
           _is("product_size", report.product_size, RANDOM_ATOMS**RANDOM_MEASURES)]
    if not report.feasible:
        return res
    cert = report.certificate
    res.append(_at_most("marginal_error", cert.marginal_error(), 1e-10))
    ms = inputs["measures"]
    for (i, j) in transport.all_pairs(len(ms)):
        want = ref.wpp_1d(ms[i].atoms[:, 0], ms[i].weights, ms[j].atoms[:, 0], ms[j].weights, P)
        res.append(_close(f"pair_cost_{i}_{j}", cert.pair_cost(i, j, P), want, 1e-9))
        res.append(_close(f"pair_opt_{i}_{j}", report.pair_costs[(i, j)], want, 1e-9))
    return res


COMPAT_LP = Workload(_compat_lp_inputs, (
    Task("circle_compat_cli", _circle_compat_run, _circle_compat_check),
    Task("circle_lift_B", _circle_lift_b_run, _circle_lift_b_check),
    Task("random_1d_compat", _random_compat_run, _random_compat_check),
))


# ---------------------------------------------------------------------------
# path_functionals: quadrature and dyadic path kernels, no OT at all

SPACES = ("r1", "r2", "r3", "circle", "cylinder")
GRR_PATHS = 2
GEODESIC_LEVELS = range(0, 4)
RANDOM_LEVELS = range(0, 8)
RANDOM_PER_LEVEL = 2
EMBED_ALPHA, EMBED_GAMMA = 0.6, 0.9


def _path_functionals_inputs(seed):
    rng = np.random.default_rng(seed)
    grr, geodesics, randoms = [], [], []
    for kind in SPACES:
        sp = _space(kind)

        def points(n):
            return ref.random_points(rng, sp.kind, sp.perimeter, sp.dim, n)

        grr += [PiecewiseGeodesicPath(sp, points(5), 2) for _ in range(GRR_PATHS)]
        x, y = points(2)
        speed = float(ref.distances(sp.kind, sp.perimeter, x, y))
        for n in GEODESIC_LEVELS:
            bp = ref.geodesic_breakpoints(sp.kind, sp.perimeter, x, y, dyadic_times(n))
            geodesics.append((PiecewiseGeodesicPath(sp, bp, n), speed))
        for n in RANDOM_LEVELS:
            for _ in range(RANDOM_PER_LEVEL):
                bp = points(2**n + 1)
                seg = ref.distances(sp.kind, sp.perimeter, bp[:-1], bp[1:])
                d01 = float(ref.distances(sp.kind, sp.perimeter, bp[0], bp[-1]))
                randoms.append((PiecewiseGeodesicPath(sp, bp, n), seg, d01))
    unit = wlift.geodesic_segment(wlift.euclidean(1), [0.0], [1.0])
    return {"grr": grr, "geodesics": geodesics, "randoms": randoms, "unit": unit}


def _grr_run(inputs, tmp):
    return [norms.grr_check(path, ALPHA, P, level=2, gl_order=4, corner_splits=5)["max_ratio"]
            for path in inputs["grr"]]


def _frac_sobolev_run(inputs, tmp):
    return [norms.frac_sobolev_energy(path, ALPHA, P) for path, _ in inputs["geodesics"]]


def _frac_sobolev_check(inputs, values):
    # measured quadrature error at the seed commit is ~1e-8 relative; the
    # corner cells of the singular kernel are refined only geometrically
    return [_close(f"geodesic{k}_level{path.level}", v,
                   ref.frac_sobolev_geodesic(speed, ALPHA, P), 1e-6)
            for k, ((path, speed), v) in enumerate(zip(inputs["geodesics"], values))]


def _dyadic_run(inputs, tmp):
    return [{
        "besov": norms.besov_energy_pg(path, ALPHA, P),
        "besov_embed": norms.besov_energy_pg(path, EMBED_ALPHA, P),
        "holder": norms.holder_norm_dyadic(path, EMBED_GAMMA, max(path.level, 6)),
        "variation": norms.p_variation(path, VARIATION_Q, mode="vertex"),
    } for path, _, _ in inputs["randoms"]]


def _dyadic_check(inputs, values):
    factor = ref.geodesic_besov_factor(ALPHA, P)
    embed = 1.0 - 2.0 ** (EMBED_ALPHA * P - EMBED_GAMMA * P)
    res = []
    for k, ((path, seg, d01), v) in enumerate(zip(inputs["randoms"], values)):
        tag = f"path{k}_level{path.level}"
        # Besov lower bound: d(X_0, X_1)^p <= factor |X|^p
        res.append(_at_most(f"{tag}_besov_lower", d01**P, factor * v["besov"] * (1 + 1e-10) + 1e-10))
        # Holder-Besov embedding: |X|^p_{b^{a,p}} <= H_g^p / (1 - 2^{ap - gp})
        res.append(_at_most(f"{tag}_embedding", v["besov_embed"],
                            v["holder"] ** P / embed * (1 + 1e-10) + 1e-10))
        # q-variation lies between its finest/coarsest partitions and the length
        low = max(d01, float(np.sum(seg**VARIATION_Q)) ** (1.0 / VARIATION_Q))
        ok = low * (1 - 1e-10) - 1e-12 <= v["variation"] <= seg.sum() * (1 + 1e-10) + 1e-12
        res.append((f"{tag}_variation", bool(ok),
                    f"{v['variation']!r} outside [{low!r}, {seg.sum()!r}]"))
    return res


def _characterization_run(inputs, tmp):
    unit = inputs["unit"]
    check = norms.geodesic_characterization_check
    return {
        "unit_besov": norms.besov_energy_pg(unit, ALPHA, P),
        "unit": check(unit, ALPHA, P),
        "geodesics": [check(path, ALPHA, P) for path, _ in inputs["geodesics"]],
        "randoms": [check(path, ALPHA, P) for path, _, _ in inputs["randoms"] if path.level > 0],
    }


def _characterization_check(inputs, out):
    res = [_close("unit_besov", out["unit_besov"], 2.0 + np.sqrt(2.0), 1e-12),
           _is("unit", out["unit"], True)]
    res += [_is(f"geodesic{k}", v, True) for k, v in enumerate(out["geodesics"])]
    res += [_is(f"random{k}", v, False) for k, v in enumerate(out["randoms"])]
    return res


PATH_FUNCTIONALS = Workload(_path_functionals_inputs, (
    Task("grr_check", _grr_run,
         lambda inputs, ratios: [_at_most(f"path{k}", r, 1.0 + 1e-10) for k, r in enumerate(ratios)]),
    Task("frac_sobolev_geodesics", _frac_sobolev_run, _frac_sobolev_check),
    Task("dyadic_functionals", _dyadic_run, _dyadic_check),
    Task("geodesic_characterization", _characterization_run, _characterization_check),
))


WORKLOADS = {
    "curve_norms": CURVE_NORMS,
    "lift_build": LIFT_BUILD,
    "compat_lp": COMPAT_LP,
    "path_functionals": PATH_FUNCTIONALS,
}
