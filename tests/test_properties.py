"""Property-based invariant tests (hypothesis) complementing the
deterministic bulk runs in test_acceptance.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlift as w
from conftest import ALL_SPACES, measure_strategy, random_measure, random_path
from wlift.norms import besov_energy_pg, holder_norm_dyadic
from wlift.spaces import distance

@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_wasserstein_triangle_inequality(space):
    rng = np.random.default_rng(401)
    p = 2.0
    for _ in range(25):
        mu, nu, rho = (random_measure(rng, space, rng.integers(1, 5)) for _ in range(3))
        a = w.wasserstein_distance(mu, rho, p)
        b = w.wasserstein_distance(mu, nu, p)
        c = w.wasserstein_distance(nu, rho, p)
        assert a <= b + c + 1e-9


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coupling_marginals_hypothesis(data):
    sp = w.euclidean(1)
    mu = data.draw(measure_strategy(sp))
    nu = data.draw(measure_strategy(sp))
    plan, cost = w.optimal_coupling(mu, nu, 2.0)
    r, c = plan.marginal_errors()
    assert r <= 1e-9 and c <= 1e-9
    assert cost >= -1e-12
    assert np.all(plan.weights >= 0.0)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_wasserstein_identity_of_indiscernibles(data):
    sp = w.euclidean(2)
    mu = data.draw(measure_strategy(sp))
    assert w.wasserstein_distance(mu, mu, 2.0) == 0.0


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_besov_lower_bound(space):
    # d(X_0, X_1)^p <= (1 - 2^{-(p - alpha p)}) |X|^p, equality iff geodesic
    rng = np.random.default_rng(402)
    alpha, p = 0.75, 2.0
    factor = 1.0 - 2.0 ** (-(p - alpha * p))
    for _ in range(40):
        path = random_path(rng, space, rng.integers(0, 4))
        e = besov_energy_pg(path, alpha, p)
        d01 = distance(space, path.breakpoints[0], path.breakpoints[-1])
        assert d01**p <= factor * e + 1e-10


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_holder_besov_embedding(space):
    # |X|^p_{b} <= |X|^p_{Hol(ups)} / (1 - 2^{-(ups p - alpha p)})
    rng = np.random.default_rng(403)
    alpha, ups, p = 0.6, 0.9, 2.0
    for _ in range(30):
        path = random_path(rng, space, rng.integers(0, 4))
        M = max(path.level, 6)
        H = holder_norm_dyadic(path, ups, M)
        e = besov_energy_pg(path, alpha, p)
        bound = H**p / (1.0 - 2.0 ** (alpha * p - ups * p))
        assert e <= bound * (1 + 1e-10) + 1e-10


def test_grr_inequality_random_paths():
    rng = np.random.default_rng(404)
    for _ in range(15):
        space = ALL_SPACES[rng.integers(0, len(ALL_SPACES))]
        path = random_path(rng, space, 2)
        out = w.grr_check(path, 0.75, 2.0, level=2, gl_order=6, corner_splits=6)
        assert out["max_ratio"] <= 1.0 + 1e-10


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_benamou_brenier_identity_hypothesis(data):
    sp = w.euclidean(1)
    mu = data.draw(measure_strategy(sp, max_atoms=3))
    nu = data.draw(measure_strategy(sp, max_atoms=3))
    out = w.benamou_brenier_check(mu, nu, 0.75, 2.0)
    scale = max(1.0, out["wpp"])
    assert out["identity_error"] <= 1e-9 * scale
    assert out["excess_error"] <= 1e-9 * scale


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_glued_lift_energy_dominates_curve_norm(space):
    # marginal-regularity lower bound: lift Besov energy >= curve Besov power
    rng = np.random.default_rng(405)
    alpha, p = 0.75, 2.0
    for _ in range(8):
        ms = {
            0.0: random_measure(rng, space, 3),
            0.5: random_measure(rng, space, 3),
            1.0: random_measure(rng, space, 3),
        }
        curve = w.WassersteinCurve(space, lambda t: ms[round(2 * t) / 2], level=1)
        lift = w.construct_lift_A(curve, 1, p)
        e = w.lift_energy(lift, w.EnergySpec.besov(alpha, p))
        c = w.curve_besov_norm(curve, alpha, p, 1).value
        assert e >= c - 1e-9 * max(1.0, c)
