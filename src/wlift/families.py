"""Generators for the example curve families with closed-form reference
values.

Families (all on the time interval [0,1]):
  * jump:              mu_t = (1-t) delta_0 + t delta_1 on R.
  * two_tent:          1/2 delta_{t} + 1/2 delta_{3-|2t-1|} on R.
  * oscillating_tents: atoms (j*a, y^j_t) in R^2, where y^j is a train of
        2^j unit tents traversed at speed 2^{j+1}; weights w_j proportional
        to 2^{-j p upsilon}, truncated at J and renormalized.
  * circle_splitting:  2^{j+1} equally spaced atoms rotating at unit speed
        on the circle of perimeter 2.
  * cylinder_family:   circles at heights j*a on the cylinder; circle j
        carries 2^{j+1} atoms rotating at speed 2^{j+1} with total mass
        proportional to 2^{-j p alpha}, truncated at J and renormalized.

Every family except jump is a finite system of weighted particles moving
along explicit piecewise-geodesic trajectories, written once as its
`known_lift`; the family's curve is the time marginals of that lift.

`_PARAMS` is the one table of each family's parameter keys, kinds and
defaults; `FamilySpec` checks its parameters against it, and the CLI's
`--param` keys are its keys.

Truncated families carry the renormalization factor wbar_J explicitly in
every reference formula.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import spaces
from .errors import NoContinuousLiftError, ValidationError
from .lifts import Lift, WassersteinCurve, _charge_breakpoints, _lift_from_breakpoints
from .measures import make_measure
from .paths import PiecewiseGeodesicPath, dyadic_times

# Each family's parameters, in order, as (key, kind, default); a default of
# None marks a required key.  This table is the one place that names them.
_PARAMS = {
    "jump": (),
    "two_tent": (),
    "oscillating_tents": (("J", int, 4), ("p", float, None), ("upsilon", float, 0.8),
                          ("a", float, 2.0)),
    "circle_splitting": (("j", int, 0),),
    "cylinder_family": (("J", int, 4), ("p", float, None), ("alpha", float, None),
                        ("a", float, 3.0)),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family and its parameters, checked against `_PARAMS` and stored
    converted, in table order, with the defaults filled in."""

    name: str
    params: dict

    def __post_init__(self):
        if self.name not in _PARAMS:
            raise ValidationError(f"unknown family {self.name!r}")
        table = _PARAMS[self.name]
        unknown = sorted(set(self.params) - {key for key, _, _ in table})
        if unknown:
            known = ", ".join(key for key, _, _ in table) or "none"
            raise ValidationError(
                f"family {self.name!r} takes no parameter {', '.join(unknown)}"
                f" (its parameters: {known})"
            )
        q = {}
        for key, kind, default in table:
            value = self.params.get(key, default)
            if value is None:
                raise ValidationError(f"family {self.name!r} needs parameter {key}")
            # an int is an integer and not a bool; a float is any real number
            # that is finite as a float (nan and inf pass the range checks
            # below), compared exactly so that a huge int is refused too
            if (not isinstance(value, numbers.Integral if kind is int else numbers.Real)
                    or isinstance(value, bool)
                    or (kind is float and not abs(value) <= sys.float_info.max)):
                what = "an integer" if kind is int else "a finite number"
                raise ValidationError(
                    f"family {self.name!r} parameter {key} expects {what}, got {value!r}"
                )
            q[key] = kind(value)
        object.__setattr__(self, "params", q)
        if self.name == "oscillating_tents":
            if not (1.0 / q["p"] < q["upsilon"] < 1.0):
                raise ValidationError("need upsilon in (1/p, 1)")
            if q["a"] <= 1.0:
                raise ValidationError("need spacing a > 1")
            if q["J"] < 0:
                raise ValidationError("need J >= 0")
        elif self.name == "cylinder_family":
            if not (1.0 / q["p"] < q["alpha"] < 1.0):
                raise ValidationError("need alpha in (1/p, 1)")
            if q["a"] <= 2.0:
                raise ValidationError("need spacing a > 2")
            if q["J"] < 0:
                raise ValidationError("need J >= 0")
        elif self.name == "circle_splitting":
            if q["j"] < 0:
                raise ValidationError("need j >= 0")


def jump(**kw) -> FamilySpec:
    return FamilySpec("jump", kw)  # any keyword is an unknown key


def two_tent(**kw) -> FamilySpec:
    return FamilySpec("two_tent", kw)


def oscillating_tents(J, p, upsilon, a=2.0) -> FamilySpec:
    return FamilySpec("oscillating_tents", {"J": J, "p": p, "upsilon": upsilon, "a": a})


def circle_splitting(j) -> FamilySpec:
    return FamilySpec("circle_splitting", {"j": j})


def cylinder_family(J, p, alpha, a=3.0) -> FamilySpec:
    return FamilySpec("cylinder_family", {"J": J, "p": p, "alpha": alpha, "a": a})


# ---------------------------------------------------------------------------
# trajectory building blocks


def _tent_profile(j: int, t: float) -> float:
    """Height of the 2^j-tent train at time t: zero at multiples of 2^-j,
    peaks of height 1 at odd multiples of 2^-(j+1); slopes +-2^{j+1}."""
    cell = 2.0**-j
    u = t % cell if t < 1.0 else 0.0
    return max(1.0 - 2.0 ** (j + 1) * abs(u - cell / 2.0), 0.0)


def _tent_weights(J: int, p: float, exponent: float) -> np.ndarray:
    """Renormalized truncated weights w_j = wbar_J 2^{-j p exponent}."""
    raw = 2.0 ** (-np.arange(J + 1) * p * exponent)
    return raw / raw.sum()


def wbar(J: int, p: float, exponent: float) -> float:
    """Renormalization constant: 1 / sum_{j<=J} 2^{-j p exponent}."""
    return 1.0 / float(np.sum(2.0 ** (-np.arange(J + 1) * p * exponent)))


# ---------------------------------------------------------------------------
# known lifts and the curves they carry


class KnownLift:
    """Exact particle lift: positions(t) -> (K, dim) array of the K weighted
    particles at time t, discretizable to any dyadic level >= natural_level.
    `period`, when not None, is the exact period of the particle system up
    to relabeling (so of its time marginals)."""

    def __init__(self, space, positions, weights, natural_level, period=None):
        self.space = space
        self.positions = positions
        self.weights = np.asarray(weights, dtype=float)
        self.natural_level = natural_level
        self.period = period

    def curve(self, name: str, params=None) -> WassersteinCurve:
        """The curve of time marginals t -> sum_k w_k delta_{x_k(t)}."""
        return WassersteinCurve(
            self.space,
            lambda t: make_measure(self.space, self.positions(t), self.weights),
            level=self.natural_level,
            period=self.period,
            name=name,
            params=params,
        )

    def discretize(self, n: int) -> Lift:
        if n < self.natural_level:
            raise ValidationError(
                f"level {n} below the natural breakpoint level {self.natural_level}"
            )
        _charge_breakpoints(n)
        X = np.stack([self.positions(t) for t in dyadic_times(n)], axis=1)
        return _lift_from_breakpoints(self.space, X, self.weights, n)


def _circle_positions(j: int, t: float, a: float) -> np.ndarray:
    """The 2^{j+1} equally spaced particles of cylinder circle j (height
    j*a), rotating at speed 2^{j+1}, as (arc, height) rows."""
    arc = 2.0 ** (j + 1) * t + np.arange(2 ** (j + 1)) * 2.0**-j
    return np.stack([arc, np.full_like(arc, j * a)], axis=1)


def known_lift(spec: FamilySpec) -> KnownLift:
    q = spec.params
    if spec.name == "jump":
        raise NoContinuousLiftError(
            "the jump family has no lift concentrated on continuous paths"
        )
    if spec.name == "two_tent":
        return KnownLift(
            spaces.euclidean(1),
            lambda t: np.array([[t], [3.0 - abs(2.0 * t - 1.0)]]),
            [0.5, 0.5],
            1,
        )
    if spec.name == "oscillating_tents":
        J, p, ups, a = q["J"], q["p"], q["upsilon"], q["a"]
        return KnownLift(
            spaces.euclidean(2),
            lambda t: np.array([[j * a, _tent_profile(j, t)] for j in range(J + 1)]),
            _tent_weights(J, p, ups),
            J + 1,
        )
    if spec.name == "circle_splitting":
        j = q["j"]
        k = np.arange(2 ** (j + 1))
        return KnownLift(
            spaces.circle(2.0),
            lambda t: (t + k * 2.0**-j)[:, None],
            np.full(2 ** (j + 1), 2.0 ** -(j + 1)),
            j + 1,
            period=2.0**-j,  # rotation by the atom spacing restores the state
        )
    if spec.name == "cylinder_family":
        J, p, al, a = q["J"], q["p"], q["alpha"], q["a"]
        sizes = 2 ** np.arange(1, J + 2)  # particles per circle
        # circle j repeats with period 2^{-(2j+1)}; all of these divide 1/2,
        # so the full measure path has exact period 1/2
        return KnownLift(
            spaces.cylinder(2.0),
            lambda t: np.concatenate([_circle_positions(j, t, a) for j in range(J + 1)]),
            np.repeat(_tent_weights(J, p, al) / sizes, sizes),
            2 * (J + 1),
            period=0.5,
        )
    raise ValidationError(f"unknown family {spec.name!r}")


def make_curve(spec: FamilySpec) -> WassersteinCurve:
    """The family's curve of measures: the time marginals of its known lift,
    except for jump, which has none."""
    if spec.name == "jump":
        space = spaces.euclidean(1)

        def ev(t):
            if t <= 0.0:
                return make_measure(space, [[0.0]], [1.0])
            if t >= 1.0:
                return make_measure(space, [[1.0]], [1.0])
            return make_measure(space, [[0.0], [1.0]], [1.0 - t, t])

        return WassersteinCurve(space, ev, level=None, name="jump", params=spec.params)
    return known_lift(spec).curve(spec.name, spec.params)


def single_circle_curve(j: int, J: int, p: float, alpha: float, a: float = 3.0) -> WassersteinCurve:
    """The j-th circle component of the cylinder family, as a curve of
    probability measures in its own right (unit mass on circle j)."""
    return KnownLift(
        spaces.cylinder(2.0),
        lambda t: _circle_positions(j, t, a),
        np.full(2 ** (j + 1), 2.0 ** -(j + 1)),
        2 * (j + 1),
        period=2.0 ** -(2 * j + 1),
    ).curve(f"cylinder_circle_{j}")


def cylinder_circle_energies(J: int, p: float, alpha: float, a: float = 3.0):
    """Besov lift-energy contribution of each circle j <= J of the cylinder
    family: sum over the circle's particles of weight times path energy,
    discretizing each trajectory at its own natural level 2(j+1)."""
    from .norms import besov_energy_pg

    space = spaces.cylinder(2.0)
    w = _tent_weights(J, p, alpha)
    out = []
    for j in range(J + 1):
        n = 2 * (j + 1)
        ts = dyadic_times(n)
        # the 2^{j+1} particles of circle j are arc rotations of one another,
        # so they share the same path energy
        arc = 2.0 ** (j + 1) * ts
        bp = np.stack([arc, np.full_like(arc, j * a)], axis=1)
        path = PiecewiseGeodesicPath(space, bp, n)
        out.append(w[j] * besov_energy_pg(path, alpha, p))
    return np.array(out)


# ---------------------------------------------------------------------------
# closed-form reference values


def reference_value(spec: FamilySpec, quantity: str, **kw) -> float:
    """Closed-form reference values, truncation-aware (wbar_J factors)."""
    q = spec.params
    if spec.name == "jump":
        if quantity == "wpp":
            return abs(kw["t"] - kw["s"])
        raise ValidationError(f"unsupported quantity {quantity!r} for jump")

    if spec.name == "two_tent":
        if quantity == "wpp":
            s, t, p = kw["s"], kw["t"], kw["p"]
            d2 = abs(abs(2.0 * t - 1.0) - abs(2.0 * s - 1.0))
            return 0.5 * abs(t - s) ** p + 0.5 * d2**p
        raise ValidationError(f"unsupported quantity {quantity!r} for two_tent")

    if spec.name == "oscillating_tents":
        J, p, ups = q["J"], q["p"], q["upsilon"]
        wJ = wbar(J, p, ups)
        if quantity == "wpp_consecutive":
            # W_p^p between consecutive level-m dyadic times (same for all k);
            # curves j >= m are flat at those times, so truncation at J >= m
            # is invisible
            m = kw["m"]
            if m > J:
                raise ValidationError("need truncation J >= level m")
            dt_m = 2.0**-m
            return wJ * sum(
                2.0 ** (-j * p * ups) * (dt_m * 2.0 ** (j + 1)) ** p
                for j in range(m)
            )
        if quantity == "dyadic_variation":
            # sum over level-m pairs of W_p^{1/upsilon}
            m = kw["m"]
            if m > J:
                raise ValidationError("need truncation J >= level m")
            cJ = (wJ / (2.0 ** (-ups * p) - 2.0**-p)) ** (1.0 / p)
            return cJ ** (1.0 / ups) * (1.0 - 2.0 ** (m * p * (ups - 1.0))) ** (
                1.0 / (p * ups)
            )
        if quantity == "variation_constant":
            cJ = (wJ / (2.0 ** (-ups * p) - 2.0**-p)) ** (1.0 / p)
            return cJ ** (1.0 / ups)
        if quantity == "lift_besov_energy":
            al = kw["alpha"]
            return (
                wJ
                / (2.0 ** (-al * p) - 2.0**-p)
                * sum(2.0 ** (j * (al * p - ups * p)) for j in range(J + 1))
            )
        raise ValidationError(f"unsupported quantity {quantity!r}")

    if spec.name == "circle_splitting":
        j = q["j"]
        if quantity == "curve_besov_power":
            al, p = kw["alpha"], kw["p"]
            c = 2.0 ** (p - al * p) / (2.0 ** (p - al * p) - 1.0)
            return c * 2.0 ** (-(j + 1) * p * (1.0 - al))
        if quantity == "lift_besov_energy":
            al, p = kw["alpha"], kw["p"]
            return 1.0 / (1.0 - 2.0 ** (-(p - al * p)))
        raise ValidationError(f"unsupported quantity {quantity!r}")

    if spec.name == "cylinder_family":
        J, p, al = q["J"], q["p"], q["alpha"]
        wJ = wbar(J, p, al)
        if quantity == "component_besov_power":
            # |mu^j|^p for the unit-mass circle-j component
            j = kw["j"]
            return (
                2.0 ** (2 * al * p - p)
                / (1.0 - 2.0 ** (al * p - p))
                * 2.0 ** (j * (2 * al * p - p))
            )
        if quantity == "curve_besov_power":
            # sum_j w_j |mu^j|^p (block decomposition, spacing a > 2)
            comp = [
                reference_value(spec, "component_besov_power", j=j)
                for j in range(J + 1)
            ]
            w = _tent_weights(J, p, al)
            return float(np.dot(w, comp))
        if quantity == "per_circle_lift_energy":
            # each circle contributes the same Besov energy to the lift
            return wJ / (2.0 ** (-al * p) - 2.0**-p)
        raise ValidationError(f"unsupported quantity {quantity!r}")

    raise ValidationError(f"unknown family {spec.name!r}")
