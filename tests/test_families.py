import math

import numpy as np
import pytest

import wlift as w
from wlift.families import _tent_profile, _tent_weights
from wlift.lifts import EnergySpec, curve_besov_norm
from wlift.norms import limsup_variation_dyadic


def test_family_parameter_validation():
    with pytest.raises(w.ValidationError):
        w.oscillating_tents(3, 2.0, 0.4)  # upsilon <= 1/p
    with pytest.raises(w.ValidationError):
        w.oscillating_tents(3, 2.0, 0.8, a=1.0)  # spacing too small
    with pytest.raises(w.ValidationError):
        w.cylinder_family(3, 2.0, 0.75, a=2.0)  # spacing too small
    with pytest.raises(w.ValidationError):
        w.circle_splitting(-1)
    with pytest.raises(w.ValidationError):
        w.FamilySpec("nope", {})


BAD_PARAMS = {
    "unknown_key": lambda: w.FamilySpec("circle_splitting", {"k": 1}),
    "missing_key": lambda: w.FamilySpec("cylinder_family", {"p": 2.0}),
    "j_not_integer": lambda: w.circle_splitting(1.5),
    "J_bool": lambda: w.oscillating_tents(True, 2.0, 0.8),
    "J_not_integer": lambda: w.cylinder_family(2.5, 2.0, 0.75),
    "p_not_number": lambda: w.FamilySpec("oscillating_tents", {"p": "2"}),
    "jump_keyword": lambda: w.jump(foo=3),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_family_parameter_keys_and_kinds(case):
    with pytest.raises(w.ValidationError):
        BAD_PARAMS[case]()


# a non-finite number passes every range check of the spec (1/inf = 0 and
# nan compares false), so each is refused as a kind error, naming its key
NON_FINITE = {
    "oscillating_tents_a_nan": ("oscillating_tents", {"J": 3, "p": 2.0, "upsilon": 0.8,
                                                      "a": math.nan}, "a"),
    "oscillating_tents_a_inf": ("oscillating_tents", {"J": 3, "p": 2.0, "upsilon": 0.8,
                                                      "a": math.inf}, "a"),
    "oscillating_tents_p_inf": ("oscillating_tents", {"J": 3, "p": math.inf, "upsilon": 0.8},
                                "p"),
    "cylinder_family_a_inf": ("cylinder_family", {"J": 2, "p": 2.0, "alpha": 0.75,
                                                  "a": math.inf}, "a"),
    "cylinder_family_p_inf": ("cylinder_family", {"J": 2, "p": math.inf, "alpha": 0.75}, "p"),
    "cylinder_family_a_huge_int": ("cylinder_family", {"J": 2, "p": 2.0, "alpha": 0.75,
                                                       "a": 10**400}, "a"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_family_parameter_is_refused(case):
    name, params, key = NON_FINITE[case]
    with pytest.raises(w.ValidationError, match=f"parameter {key} expects a finite number"):
        w.FamilySpec(name, params)


def test_family_parameters_are_converted_and_defaulted():
    spec = w.FamilySpec("oscillating_tents", {"p": 2})
    assert spec.params == {"J": 4, "p": 2.0, "upsilon": 0.8, "a": 2.0}
    assert type(spec.params["p"]) is float
    spec = w.FamilySpec("cylinder_family", {"a": 4, "alpha": 0.75, "p": 2.0, "J": np.int64(1)})
    assert list(spec.params.items()) == [("J", 1), ("p", 2.0), ("alpha", 0.75), ("a", 4.0)]
    assert w.FamilySpec("circle_splitting", {}).params == {"j": 0}


def test_tent_profile():
    assert _tent_profile(0, 0.0) == 0.0
    assert _tent_profile(0, 0.5) == 1.0
    assert _tent_profile(0, 1.0) == 0.0
    assert _tent_profile(2, 1.0 / 8.0) == 1.0  # first peak of the 4-tent train
    assert _tent_profile(2, 1.0 / 4.0) == 0.0
    # slope is +-2^{j+1}
    assert _tent_profile(1, 0.1) == pytest.approx(0.4)


def test_tent_weights_normalized():
    for J in (0, 3, 7):
        wts = _tent_weights(J, 2.0, 0.8)
        assert wts.sum() == pytest.approx(1.0)
        assert np.all(np.diff(wts) < 0) or J == 0
        assert wts[0] == pytest.approx(w.wbar(J, 2.0, 0.8))


def test_jump_wasserstein():
    curve = w.make_curve(w.jump())
    for p in (1.5, 2.0, 3.0):
        for s, t in [(0.0, 1.0), (0.2, 0.7), (0.5, 0.5)]:
            got = w.wasserstein_power(curve(s), curve(t), p)
            assert got == pytest.approx(abs(t - s), abs=1e-12)


def test_jump_has_no_continuous_lift():
    with pytest.raises(w.NoContinuousLiftError):
        w.known_lift(w.jump())


def test_two_tent_wasserstein():
    curve = w.make_curve(w.two_tent())
    for s, t in [(0.0, 0.5), (0.25, 0.75), (0.1, 0.9)]:
        got = w.wasserstein_power(curve(s), curve(t), 2.0)
        want = w.reference_value(w.two_tent(), "wpp", s=s, t=t, p=2.0)
        assert got == pytest.approx(want, abs=1e-12)


def test_oscillating_tents_consecutive_wpp():
    spec = w.oscillating_tents(5, 2.0, 0.8)
    curve = w.make_curve(spec)
    for m in (1, 2, 4):
        dt = 2.0**-m
        want = w.reference_value(spec, "wpp_consecutive", m=m)
        for k in (0, 2**m // 2, 2**m - 1):
            got = w.wasserstein_power(curve(k * dt), curve((k + 1) * dt), 2.0)
            assert got == pytest.approx(want, rel=1e-10)


def test_oscillating_tents_dyadic_variation():
    spec = w.oscillating_tents(6, 2.0, 0.8)
    curve = w.make_curve(spec)
    q = 1.0 / 0.8
    dist = lambda a, b: w.wasserstein_distance(a, b, 2.0)  # noqa: E731
    sums = limsup_variation_dyadic(curve, q, range(1, 6), dist=dist)
    for m, S in zip(range(1, 6), sums):
        # the closed form gives the level sum itself
        want = w.reference_value(spec, "dyadic_variation", m=m)
        assert S == pytest.approx(want, rel=1e-9)


def test_oscillating_tents_lift_energy():
    spec = w.oscillating_tents(4, 2.0, 0.8)
    lift = w.known_lift(spec).discretize(5)
    got = w.lift_energy(lift, EnergySpec.besov(0.6, 2.0))
    want = w.reference_value(spec, "lift_besov_energy", alpha=0.6)
    assert got == pytest.approx(want, rel=1e-10)


def test_circle_splitting_curve_norm():
    for j in (0, 1, 2):
        spec = w.circle_splitting(j)
        curve = w.make_curve(spec)
        rep = curve_besov_norm(curve, 0.75, 2.0, 8)
        want = w.reference_value(spec, "curve_besov_power", alpha=0.75, p=2.0)
        assert rep.exact
        assert rep.value == pytest.approx(want, rel=1e-10)


def test_circle_splitting_lift_energy_constant():
    want = w.reference_value(
        w.circle_splitting(0), "lift_besov_energy", alpha=0.75, p=2.0
    )
    assert want == pytest.approx(2.0 + math.sqrt(2.0))
    for j in (0, 1, 2):
        lift = w.known_lift(w.circle_splitting(j)).discretize(j + 1)
        got = w.lift_energy(lift, EnergySpec.besov(0.75, 2.0))
        assert got == pytest.approx(want, rel=1e-10)


def test_cylinder_component_norms():
    spec = w.cylinder_family(4, 2.0, 0.75)
    for j in (0, 1, 2):
        comp = w.single_circle_curve(j, 4, 2.0, 0.75)
        rep = curve_besov_norm(comp, 0.75, 2.0, 2 * (j + 1))
        want = w.reference_value(spec, "component_besov_power", j=j)
        assert rep.exact
        assert rep.value == pytest.approx(want, rel=1e-9)


def test_cylinder_curve_norm_block_decomposition():
    spec = w.cylinder_family(3, 2.0, 0.75)
    curve = w.make_curve(spec)
    rep = curve_besov_norm(curve, 0.75, 2.0, 2 * (3 + 1))
    want = w.reference_value(spec, "curve_besov_power")
    assert rep.value == pytest.approx(want, rel=1e-9)


def test_cylinder_per_circle_energies_constant():
    J, p, al = 5, 2.0, 0.75
    spec = w.cylinder_family(J, p, al)
    es = w.cylinder_circle_energies(J, p, al)
    want = w.reference_value(spec, "per_circle_lift_energy")
    assert np.allclose(es, want, rtol=1e-10)


def test_known_lift_marginals_match_curve():
    for spec in [
        w.two_tent(),
        w.oscillating_tents(3, 2.0, 0.8),
        w.circle_splitting(1),
        w.cylinder_family(2, 2.0, 0.75),
    ]:
        curve = w.make_curve(spec)
        lift = w.known_lift(spec).discretize(curve.level)
        for t in (0.0, 0.3, 0.5, 0.8, 1.0):
            assert (
                w.wasserstein_distance(lift.marginal_at(t), curve(t), 2.0) <= 1e-9
            )


def test_discretize_below_natural_level_rejected():
    kl = w.known_lift(w.oscillating_tents(3, 2.0, 0.8))
    with pytest.raises(w.ValidationError):
        kl.discretize(kl.natural_level - 1)


def test_reference_value_unknown_quantity():
    with pytest.raises(w.ValidationError):
        w.reference_value(w.jump(), "nope")
