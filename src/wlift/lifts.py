"""Dyadic lift constructions (A and B), lift energies, curve-level Besov
norms with OT-backed distances, verification reports, and the dynamic
(Benamou-Brenier style) identity check.

Lift energies, curve norms and the CLI all dispatch on a functional's tag
through one registry, `_FUNCTIONALS`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import norms, spaces, transport
from .errors import IncompatibleCurveError, ValidationError
from .measures import DiscreteMeasure, make_measure
from .paths import PiecewiseGeodesicPath, _interpolate, dyadic_times
from .transport import (
    dyadic_pattern_pairs,
    glue_chain,
    optimal_coupling,
    wasserstein_distance,
    wasserstein_many,
)


class WassersteinCurve:
    """Measure-valued path t in [0,1] |-> DiscreteMeasure.

    `level`: if not None, the curve is piecewise geodesic in Wasserstein
    space between level-`level` dyadic times, which lets curve_besov_norm
    switch to the exact closed form.
    `period`: if not None, mu_{t+period} = mu_t exactly (atomwise); level
    sums then only sample one period.
    """

    def __init__(self, space, evaluator, level=None, period=None, name="", params=None):
        self.space = space
        self._evaluator = evaluator
        self.level = level
        self.period = period
        self.name = name
        self.params = dict(params or {})
        self._cache = {}

    def __call__(self, t: float) -> DiscreteMeasure:
        t = float(t)
        if t not in self._cache:
            if not -1e-15 <= t <= 1 + 1e-15:  # eval_many's slack
                raise ValidationError(f"time {t} outside [0, 1]")
            self._cache[t] = self._evaluator(t)
            if len(self._cache) > 4096:  # evict the oldest entry
                del self._cache[next(iter(self._cache))]
        return self._cache[t]


@dataclass(frozen=True)
class Lift:
    """Finite weighted bundle of piecewise-geodesic paths, all on one space
    at one level n.  `breakpoints` is their (K, 2^n + 1, dim) breakpoint
    tensor, stacked once; marginals, pair checks and the batched lift
    functionals read it instead of evaluating K path objects."""

    paths: tuple
    weights: np.ndarray
    level: int
    multicoupling: transport.MultiCoupling | None = None
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        paths = tuple(self.paths)
        w = np.asarray(self.weights, dtype=float)
        if not paths:
            raise ValidationError("a lift needs at least one path")
        if not all(isinstance(x, PiecewiseGeodesicPath) for x in paths):
            raise ValidationError("lift paths must be piecewise-geodesic paths")
        if any(x.level != self.level for x in paths):
            raise ValidationError(f"every lift path must have level {self.level}")
        if any(x.space != paths[0].space for x in paths):
            raise ValidationError("lift paths must lie on one space")
        if w.shape != (len(paths),):
            raise ValidationError(f"need {len(paths)} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("lift weights must be finite and nonnegative")
        X = np.stack([x.breakpoints for x in paths])
        X.setflags(write=False)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "breakpoints", X)

    @property
    def space(self) -> spaces.Space:
        return self.paths[0].space

    def points_at(self, ts) -> np.ndarray:
        """Every path at every time: (K, len(ts), dim)."""
        return _interpolate(self.space, self.breakpoints, ts)

    def marginal_at(self, t: float) -> DiscreteMeasure:
        return make_measure(self.space, self.points_at([t])[:, 0], self.weights)


@dataclass(frozen=True)
class EnergySpec:
    """Path functional tag for lift energies; `p` is the outer power in
    Sum_i w_i * |gamma_i|^p (plus d(gamma_0, base_point)^p when a base point
    is given)."""

    tag: str
    params: dict
    base_point: object = None

    @property
    def p(self) -> float:
        return self.params["p"]

    @staticmethod
    def besov(alpha, p, base_point=None):
        return EnergySpec("besov", {"alpha": alpha, "p": p}, base_point)

    @staticmethod
    def frac_sobolev(alpha, p, base_point=None):
        return EnergySpec("frac_sobolev", {"alpha": alpha, "p": p}, base_point)

    @staticmethod
    def w1p(p, base_point=None):
        return EnergySpec("w1p", {"p": p}, base_point)

    @staticmethod
    def holder(gamma, p, base_point=None):
        return EnergySpec("holder", {"gamma": gamma, "p": p}, base_point)

    @staticmethod
    def variation(q, p, base_point=None):
        return EnergySpec("variation", {"q": q, "p": p}, base_point)

    @staticmethod
    def modulus(delta, p, base_point=None):
        return EnergySpec("modulus", {"delta": delta, "p": p}, base_point)


@dataclass(frozen=True)
class _Functional:
    """A registry entry: the parameter names besides p; the K per-path values
    of a lift (one path is K = 1), as paths(lift, params, grid level M), all
    read off its breakpoint tensor at once; the value on a curve of measures,
    as curve(c, params, M, dist), or None when there is no curve version; and
    whether those values are already p-th powers (else the norm itself)."""

    params: tuple
    paths: object
    curve: object
    power: bool


def _holder(x, q, M, dist=None):
    return norms.holder_norm_dyadic(x, q["gamma"], M, dist=dist)


def _modulus(x, q, M, dist=None):
    return norms.modulus_of_continuity(x, q["delta"], M, dist=dist)


# lift energies, curve norms and the CLI dispatch on a functional's tag here
_FUNCTIONALS = {
    "besov": _Functional(
        ("alpha",),
        lambda x, q, M: norms.besov_energy_pg(x, q["alpha"], q["p"]),
        lambda c, q, M, dist: curve_besov_norm(c, q["alpha"], q["p"], M).value,
        True,
    ),
    "frac_sobolev": _Functional(
        ("alpha",),
        lambda x, q, M: norms.frac_sobolev_energy(x, q["alpha"], q["p"]),
        None,
        True,
    ),
    "w1p": _Functional(
        (),
        lambda x, q, M: norms._w1p_energy(x, q["p"], x.level),
        lambda c, q, M, dist: norms._w1p_energy(c, q["p"], M, dist),
        True,
    ),
    "holder": _Functional(("gamma",), _holder, _holder, False),
    "variation": _Functional(
        ("q",),
        lambda x, q, M: norms.p_variation(x, q["q"], mode="vertex"),
        lambda c, q, M, dist: norms.p_variation(c, q["q"], "dyadic", M, dist=dist),
        False,
    ),
    "modulus": _Functional(("delta",), _modulus, _modulus, False),
}


def lift_energy(lift: Lift, spec: EnergySpec, M=None) -> float:
    """Sum_i w_i Psi(gamma_i) with Psi the p-th power of the requested path
    norm, plus the p-th power of the base-point distance when given.
    Hölder and modulus use the level-M grid, by default max(level + 2, 6)."""
    entry = _FUNCTIONALS.get(spec.tag)
    if entry is None:
        raise ValidationError(f"unknown energy tag {spec.tag!r}")
    M = M if M is not None else max(lift.level + 2, 6)
    vals = entry.paths(lift, spec.params, M)
    total = 0.0
    for x0, w, val in zip(lift.breakpoints[:, 0], lift.weights, vals):
        if not entry.power:
            val = val**spec.p
        if spec.base_point is not None:
            val += spaces.distance(lift.space, x0, spec.base_point) ** spec.p
        total += w * val
    return float(total)


# ---------------------------------------------------------------------------
# curve-level Besov norm (W_p distances through the OT kernel)


def _wp(p: float):
    """W_p as a distance callback for the `norms` functionals; its `many`
    form computes a whole pair list in one `wasserstein_many` call."""

    def dist(a, b):
        return wasserstein_distance(a, b, p)

    dist.many = lambda pairs: wasserstein_many(pairs, p) ** (1.0 / p)
    return dist


@dataclass(frozen=True)
class CurveBesovReport:
    value: float  # |mu|_{b^{alpha,p}}^p (exact or truncated partial sum)
    increments: np.ndarray  # per-level contributions, m = 0..M
    exact: bool
    tail: float  # closed-form contribution beyond level M (0 when truncated)


def curve_besov_norm(
    curve: WassersteinCurve, alpha: float, p: float, M: int
) -> CurveBesovReport:
    """Dyadic Besov sum of t -> mu_t with W_p distances, from the same
    engine as the path sums (`norms._dyadic_besov`).  Exact (closed-form
    tail) when the curve is measure-piecewise-geodesic at a declared level
    <= M; otherwise the truncated partial sum."""
    incs, tail = norms._dyadic_besov(curve, alpha, p, M, _wp(p))
    if tail is None:
        return CurveBesovReport(float(np.sum(incs)), incs, False, 0.0)
    return CurveBesovReport(float(np.sum(incs[: curve.level + 1])) + tail, incs, True, tail)


# ---------------------------------------------------------------------------
# constructions


def _lift_from_breakpoints(space, X, weights, n: int, mc=None) -> Lift:
    """The lift whose path k joins the breakpoints X[k] at the level-n dyadic
    times; X has shape (K, 2^n + 1, dim).  The one builder of lift paths."""
    w = np.asarray(weights, dtype=float)
    paths = tuple(PiecewiseGeodesicPath(space, x, n) for x in X)
    return Lift(paths, w / w.sum(), n, mc)


def _lift_from_multicoupling(mc: transport.MultiCoupling, n: int) -> Lift:
    X = np.stack(
        [mu.atoms[mc.indices[:, i]] for i, mu in enumerate(mc.marginals)], axis=1
    )
    return _lift_from_breakpoints(mc.marginals[0].space, X, mc.weights, n, mc)


def _charge_breakpoints(n) -> None:
    """Charge the 2^n + 1 breakpoints of each path of a level-n lift
    against `transport.product_budget()`, as inf from n = 1024 on, before
    anything is allocated."""
    transport._charge(2**n + 1 if n < 1024 else np.inf, "lift breakpoints per path")


def _glued_chain(curve: WassersteinCurve, n: int, p: float):
    """The level-n dyadic times, the measures there, the left-to-right glue
    of the consecutive optimal couplings, and those couplings' costs.  The
    2^n couplings come from one batch (`transport._optimal_couplings`).
    The level's breakpoints are charged first (`_charge_breakpoints`)."""
    _charge_breakpoints(n)
    ts = dyadic_times(n)
    mus = [curve(t) for t in ts]
    plans = transport._optimal_couplings(zip(mus, mus[1:]), p)
    mc = glue_chain([c for c, _ in plans], labels=tuple(ts))
    return ts, mus, mc, [cost for _, cost in plans]


def construct_lift_A(curve: WassersteinCurve, n: int, p: float) -> Lift:
    """Optimal coupling on each consecutive dyadic pair, glued left-to-right,
    then geodesic interpolation.  Only consecutive 2-D marginals are pinned
    to be optimal."""
    return _lift_from_multicoupling(_glued_chain(curve, n, p)[2], n)


def construct_lift_B(curve: WassersteinCurve, n: int, p: float) -> Lift:
    """Lift from a compatibility multi-coupling whose 2-D marginals on the
    dyadic pair pattern are all optimal.

    The glued chain of consecutive optimal couplings is tried first (for
    Wasserstein geodesics and monotone real-line curves it already satisfies
    the pattern); otherwise the compatibility certificate on the pattern
    (`transport._certificate`) decides, and a refused one raises
    IncompatibleCurveError with the report.  Both pass the one check of
    every compatibility certificate, `transport._certify`, against the
    pattern's W_p^p, computed once: the chain's plan costs for consecutive
    pairs, one `wasserstein_many` call for the rest.  The chain passes at
    tol 1e-10, the certificate at FEASIBILITY_TOL: marginals to
    FEASIBILITY_TOL, total excess <= tol * max(1, sum of the W_p^p), and
    each pair's excess <= tol * max(1, its W_p^p).
    """
    ts, mus, mc, chain_costs = _glued_chain(curve, n, p)
    pattern = dyadic_pattern_pairs(n)
    far = [(i, j) for (i, j) in pattern if j > i + 1]
    opt = dict(zip(far, wasserstein_many([(mus[i], mus[j]) for (i, j) in far], p)))
    opt.update(((k, k + 1), cost) for k, cost in enumerate(chain_costs))
    pair_opt = {pr: float(opt[pr]) for pr in pattern}
    report = transport._certify(mus, p, pair_opt, 1e-10, ts, (mc.indices, mc.weights, None, 0))
    if not report.feasible:
        candidate = transport._certificate(mus, pattern, p)
        report = transport._certify(mus, p, pair_opt, transport.FEASIBILITY_TOL, ts, candidate)
        if not report.feasible:
            raise IncompatibleCurveError(report)
    return _lift_from_multicoupling(report.certificate, n)


# ---------------------------------------------------------------------------
# verification reports


def marginal_check(lift: Lift, curve: WassersteinCurve, times, p: float, tol: float):
    """W_p between the lift's time-t marginal and mu_t for each probe time."""
    times = [float(t) for t in times]
    wpp = wasserstein_many([(lift.marginal_at(t), curve(t)) for t in times], p)
    dists = {t: float(v) ** (1.0 / p) for t, v in zip(times, wpp)}
    worst = max(dists.values()) if dists else 0.0
    return {"distances": dists, "max_err": worst, "passed": worst <= tol}


def pairwise_optimality_check(
    lift: Lift, curve: WassersteinCurve, pairs, p: float, tol: float
):
    """For each time pair (s,t): lift transport cost vs W_p^p(mu_s, mu_t)."""
    pairs, gaps = list(pairs), {}
    opt = wasserstein_many([(curve(s), curve(t)) for (s, t) in pairs], p)
    X = lift.points_at([t for pair in pairs for t in pair])
    X = X.reshape(len(lift.paths), len(pairs), 2, lift.space.dim)
    # one contiguous row of K path distances per pair, so that each pair's
    # power and sum run exactly as on a single pair's 1-D array
    d = np.ascontiguousarray(spaces._distance_arrays(lift.space, X[..., 0, :], X[..., 1, :]).T)
    for (s, t), wpp, row in zip(pairs, opt, d):
        cost = float(np.sum(lift.weights * row**p))
        gaps[(float(s), float(t))] = cost - float(wpp)
    worst = max(gaps.values()) if gaps else 0.0
    return {"gaps": gaps, "max_gap": worst, "passed": worst <= tol}


def curve_norm_power(curve: WassersteinCurve, spec: EnergySpec, M: int = 6) -> float:
    """p-th power of the requested functional applied to t -> mu_t with W_p
    distances (dyadic-grid approximations except for the exact Besov form)."""
    entry = _FUNCTIONALS.get(spec.tag)
    if entry is None or entry.curve is None:
        raise ValidationError(f"unsupported curve functional {spec.tag!r}")
    value = entry.curve(curve, spec.params, M, _wp(spec.p))
    return value if entry.power else value**spec.p


def energy_vs_curve_gap(lift: Lift, curve: WassersteinCurve, spec: EnergySpec, M: int = 6):
    """gap = lift_energy - curve_norm^p; nonnegative (up to numerics) by the
    marginal-regularity lower bound, and ~0 exactly for realizing lifts."""
    e = lift_energy(lift, spec)
    c = curve_norm_power(curve, spec, M)
    return {"lift_energy": e, "curve_norm_power": c, "gap": e - c}


def convergence_diagnostics(
    curve: WassersteinCurve,
    p: float,
    alpha: float,
    levels,
    construction: str = "B",
):
    """Finite-level stand-in for the narrow limit: per level, the Besov lift
    energy, worst marginal error at the probe times 0, 0.3, 0.5, 0.8 and 1,
    and worst pairwise optimality gap on the dyadic pattern (or, for
    construction A, on the consecutive pairs).  `construction` is "A" or
    "B", in either case (ValidationError otherwise).  The deepest level's
    breakpoints are charged before any lift is built, so a level sweep
    that would end over the budget does no work; a range's deepest level
    is read off its ends, not by walking it."""
    build = {"A": construct_lift_A, "B": construct_lift_B}.get(str(construction).upper())
    if build is None:
        raise ValidationError(f"construction must be 'A' or 'B', got {construction!r}")
    levels = levels if isinstance(levels, range) else list(levels)
    if levels:
        _charge_breakpoints(max(levels[0], levels[-1]) if isinstance(levels, range)
                            else max(levels))
    spec = EnergySpec.besov(alpha, p)
    rows = []
    for n in levels:
        row = {"level": n, "energy": np.nan, "max_marginal_err": np.nan,
               "max_pair_gap": np.nan, "error": ""}
        try:
            lift = build(curve, n, p)
            row["energy"] = lift_energy(lift, spec)
            row["max_marginal_err"] = marginal_check(
                lift, curve, (0.0, 0.3, 0.5, 0.8, 1.0), p, 1e-8
            )["max_err"]
            ts = dyadic_times(n)
            if build is construct_lift_B:
                pairs = [(ts[i], ts[j]) for (i, j) in dyadic_pattern_pairs(n)]
            else:
                pairs = [(ts[k], ts[k + 1]) for k in range(2**n)]
            row["max_pair_gap"] = pairwise_optimality_check(
                lift, curve, pairs, p, 1e-8
            )["max_gap"]
        except IncompatibleCurveError as exc:
            row["error"] = f"incompatible: gap {exc.report.max_pair_gap:.3e}"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# dynamic formula


def benamou_brenier_check(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    alpha: float,
    p: float,
):
    """Check W_p^p(mu,nu) = (1 - 2^{-(p - alpha p)}) * Besov energy of the
    lift pushed from an optimal coupling through single geodesics, and that a
    lift from a coupling with excess cost e (the optimal plan mixed half and
    half with the independent coupling) has right-side excess e."""
    norms._check_alpha_p(alpha, p)
    factor = 1.0 - 2.0 ** (-(p - alpha * p))
    spec = EnergySpec.besov(alpha, p)

    plan, wpp = optimal_coupling(mu, nu, p)
    lift_opt = _lift_from_multicoupling(glue_chain([plan]), 0)
    energy_opt = lift_energy(lift_opt, spec)
    identity_error = abs(wpp - factor * energy_opt)

    # deliberately suboptimal: mix with the independent coupling
    mix = 0.5 * plan.weights + 0.5 * np.outer(mu.weights, nu.weights)
    mix_coupling = transport.Coupling(mu, nu, mix)
    excess = mix_coupling.cost(p) - wpp
    lift_mix = _lift_from_multicoupling(glue_chain([mix_coupling]), 0)
    rhs_excess = factor * lift_energy(lift_mix, spec) - wpp
    return {
        "wpp": wpp,
        "factor": factor,
        "energy_opt": energy_opt,
        "identity_error": identity_error,
        "excess": excess,
        "rhs_excess": rhs_excess,
        "excess_error": abs(rhs_excess - excess),
    }
