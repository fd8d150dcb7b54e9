import math
import time

import numpy as np
import pytest

import wlift as w
from conftest import (ALL_SPACES, counted_lp_solves, loop_glue_chain, on_plane, random_measure,
                      random_path)
from wlift.lifts import EnergySpec, _lift_from_breakpoints, curve_besov_norm
from wlift.paths import dyadic_times


def geodesic_curve(space, mu, nu, p):
    """Measure geodesic pushed from an optimal coupling through point geodesics."""
    plan, _ = w.optimal_coupling(mu, nu, p)
    idx = np.argwhere(plan.weights > 1e-15)
    wts = plan.weights[idx[:, 0], idx[:, 1]]

    def ev(t):
        pts = np.stack(
            [w.geodesic_point(space, mu.atoms[i], nu.atoms[j], t) for i, j in idx]
        )
        return w.make_measure(space, pts, wts)

    return w.WassersteinCurve(space, ev, level=0)


def test_curve_rejects_times_outside_unit_interval():
    curve = w.make_curve(w.two_tent())
    for t in (1.5, -0.25, float("nan"), float("inf")):
        with pytest.raises(w.ValidationError):
            curve(t)
    # times within eval_many's 1e-15 slack of [0, 1] are evaluated
    for t, end in ((1.0 + 1e-16, 1.0), (-1e-16, 0.0)):
        assert np.allclose(curve(t).atoms, curve(end).atoms, rtol=0.0, atol=1e-15)


def test_curve_cache_evicts_oldest_entry():
    """A sweep over more than the cache's 4096 times keeps the most recent
    4096 measures, so re-querying them evaluates nothing."""
    calls = []

    def ev(t):
        calls.append(t)
        return w.dirac(w.euclidean(1), [t])

    curve = w.WassersteinCurve(w.euclidean(1), ev)
    ts = np.arange(5000) / 4999
    for t in ts:
        curve(t)
    assert len(calls) == 5000
    for t in ts[-100:]:
        curve(t)
    for t in ts[-4096:]:
        curve(t)
    assert len(calls) == 5000
    curve(ts[0])
    assert len(calls) == 5001


def _lift_times():
    # dyadic knots, times inside segments, both ends and the 1e-15 slack
    return np.concatenate([np.linspace(0.0, 1.0, 37), [0.3, 0.999, 1.0, 1.0 + 1e-16, -1e-16]])


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_points_at_and_marginals_equal_per_path_evaluation(space):
    rng = np.random.default_rng(ALL_SPACES.index(space) + 70)
    ts = _lift_times()
    for level in (0, 1, 3, 5):
        K = 4
        X = np.stack([random_path(rng, space, level).breakpoints for _ in range(K)])
        lift = _lift_from_breakpoints(space, X, rng.uniform(0.2, 1.0, K), level)
        want = np.stack([path.eval_many(ts) for path in lift.paths])
        assert np.array_equal(lift.points_at(ts), want)
        for t in ts:
            atoms = np.stack([path(t) for path in lift.paths])
            assert lift.marginal_at(t) == w.make_measure(space, atoms, lift.weights)


@pytest.mark.parametrize("space", [w.circle(2.0), w.cylinder(2.0)], ids=["circle", "cylinder"])
def test_points_at_wraps_around_the_circle(space):
    """Segments that cross arc coordinate 0 in either direction."""
    arcs = np.array([[1.9, 0.1, 1.95, 0.0, 1.0], [0.05, 1.85, 0.2, 1.99, 0.0]])
    X = np.stack([arcs, np.zeros_like(arcs)], axis=-1)[..., : space.dim]
    lift = _lift_from_breakpoints(space, X, [1.0, 3.0], 2)
    ts = _lift_times()
    got = lift.points_at(ts)
    assert np.array_equal(got, np.stack([path.eval_many(ts) for path in lift.paths]))
    assert np.all((got[..., 0] >= 0.0) & (got[..., 0] < 2.0))
    x = lift.points_at([0.125])[0, 0, 0]  # halfway along the short arc 1.9 -> 0.1
    assert min(x, 2.0 - x) < 1e-12
    assert lift.marginal_at(1.0) == w.make_measure(space, X[:, -1], lift.weights)


@pytest.mark.parametrize("t", [1.5, -0.25, 1.0 + 1e-9, float("nan")])
def test_points_at_rejects_times_outside_unit_interval(t):
    lift = w.known_lift(w.two_tent()).discretize(2)
    with pytest.raises(w.ValidationError):
        lift.points_at([0.5, t])
    with pytest.raises(w.ValidationError):
        lift.marginal_at(t)
    with pytest.raises(w.ValidationError, match="1-D"):
        lift.points_at(0.5)


def test_pairwise_check_equals_per_path_costs():
    """Each pair's cost is the weighted sum over the paths evaluated one
    at a time, bit for bit."""
    curve = w.make_curve(w.circle_splitting(2))
    lift = w.construct_lift_A(curve, 4, 2.0)
    ts = dyadic_times(4)
    pairs = [(ts[k], ts[k + 1]) for k in range(16)] + [(0.1, 0.9), (0.0, 1.0)]
    gaps = w.pairwise_optimality_check(lift, curve, pairs, 2.0, 1e-10)["gaps"]
    for (s, t) in pairs:
        Xs = np.stack([path(s) for path in lift.paths])
        Xt = np.stack([path(t) for path in lift.paths])
        d = w.spaces._distance_arrays(lift.space, Xs, Xt)
        cost = float(np.sum(lift.weights * d**2.0))
        assert gaps[(s, t)] == cost - w.wasserstein_power(curve(s), curve(t), 2.0)


def _bad_lifts():
    line, circ = w.euclidean(1), w.circle(2.0)
    a = w.PiecewiseGeodesicPath(line, [[0.0], [1.0], [0.0]], 1)
    b = w.PiecewiseGeodesicPath(line, [[1.0], [0.5], [0.0]], 1)
    return {
        "no_paths": ((), np.ones(0), 1),
        "not_a_path": ((a, np.zeros((3, 1))), np.full(2, 0.5), 1),
        "level_differs": ((a, w.geodesic_segment(line, [0.0], [1.0])), np.full(2, 0.5), 1),
        "lift_level_differs": ((a, b), np.full(2, 0.5), 2),
        "two_spaces": ((a, w.PiecewiseGeodesicPath(circ, [[0.0], [1.0], [0.0]], 1)),
                       np.full(2, 0.5), 1),
        "short_weights": ((a, b), np.ones(1), 1),
        "long_weights": ((a, b), np.full(3, 1 / 3), 1),
        "nan_weight": ((a, b), np.array([0.5, np.nan]), 1),
        "inf_weight": ((a, b), np.array([np.inf, 0.5]), 1),
        "negative_weight": ((a, b), np.array([1.5, -0.5]), 1),
    }


@pytest.mark.parametrize("case", sorted(_bad_lifts()))
def test_lift_rejects_malformed_bundles(case):
    paths, weights, level = _bad_lifts()[case]
    with pytest.raises(w.ValidationError):
        w.Lift(paths, weights, level)


def test_lift_keeps_its_constructor():
    a = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    lift = w.Lift([a], [1.0], 1)
    assert lift.paths == (a,) and lift.weights.dtype == float
    assert np.array_equal(lift.breakpoints, a.breakpoints[None])
    assert not lift.breakpoints.flags.writeable


def test_lift_energy_besov_two_tent():
    kl = w.known_lift(w.two_tent())
    lift = kl.discretize(2)
    spec = EnergySpec.besov(0.75, 2.0)
    # 1/2 (2 + sqrt 2) + 1/2 (4 + 4 sqrt 2)
    want = 0.5 * (2 + math.sqrt(2)) + 0.5 * (4 + 4 * math.sqrt(2))
    assert w.lift_energy(lift, spec) == pytest.approx(want, abs=1e-12)


def test_lift_marginals_match_curve():
    curve = w.make_curve(w.two_tent())
    lift = w.construct_lift_B(curve, 3, 2.0)
    for t in (0.0, 0.25, 0.5, 0.875, 1.0):
        assert w.wasserstein_distance(lift.marginal_at(t), curve(t), 2.0) <= 1e-10


def test_construct_A_consecutive_optimality():
    curve = w.make_curve(w.jump())
    lift = w.construct_lift_A(curve, 3, 2.0)
    ts = dyadic_times(3)
    pairs = [(ts[k], ts[k + 1]) for k in range(8)]
    out = w.pairwise_optimality_check(lift, curve, pairs, 2.0, 1e-10)
    assert out["passed"]
    mc = w.marginal_check(lift, curve, ts, 2.0, 1e-10)
    assert mc["passed"]


def test_construct_B_pattern_optimality_on_geodesic():
    rng = np.random.default_rng(301)
    sp = w.euclidean(2)
    mu = random_measure(rng, sp, 4)
    nu = random_measure(rng, sp, 4)
    curve = geodesic_curve(sp, mu, nu, 2.0)
    for n in (1, 2, 3):
        lift = w.construct_lift_B(curve, n, 2.0)
        ts = dyadic_times(n)
        pairs = [(ts[i], ts[j]) for (i, j) in w.dyadic_pattern_pairs(n)]
        out = w.pairwise_optimality_check(lift, curve, pairs, 2.0, 1e-10)
        assert out["max_gap"] <= 1e-10


def requested_wpp(monkeypatch):
    """Record how many W_p^p values each `wasserstein_many` call requests,
    from lifts and from transport."""
    counts = []
    many = w.transport.wasserstein_many

    def spy(pairs, p):
        pairs = list(pairs)
        counts.append(len(pairs))
        return many(pairs, p)

    monkeypatch.setattr(w.transport, "wasserstein_many", spy)
    monkeypatch.setattr(w.lifts, "wasserstein_many", spy)
    return counts


def test_construct_B_computes_each_pattern_optimum_once(monkeypatch):
    # the consecutive optima are the glued chain's plan costs and the 2^n - 1
    # far pairs take one call; a refused chain reuses them for the LP's
    # certificate, so circle_splitting(1) at n = 3 requests 7 values, not 7 + 15
    counts = requested_wpp(monkeypatch)
    with pytest.raises(w.IncompatibleCurveError):
        w.construct_lift_B(w.make_curve(w.circle_splitting(1)), 3, 2.0)
    assert counts == [7]
    rng = np.random.default_rng(301)
    sp = w.euclidean(2)
    mu, nu = random_measure(rng, sp, 4), random_measure(rng, sp, 4)
    for n in (1, 2, 3, 4):
        counts.clear()
        w.construct_lift_B(geodesic_curve(sp, mu, nu, 2.0), n, 2.0)
        assert counts == [2**n - 1]


def test_level_sweep_on_one_curve_solves_each_pattern_pair_once(monkeypatch):
    """Level n's dyadic pattern holds level n - 1's, so lift B at levels
    1..4 on one curve solves each pair of level 4's pattern once: the
    consecutive pairs as each level's glued chain, the far pairs from the
    curve's memo; the pattern checks after each build solve nothing."""
    rng = np.random.default_rng(302)
    sp = w.euclidean(2)
    curve = geodesic_curve(sp, random_measure(rng, sp, 4), random_measure(rng, sp, 4), 2.0)
    solved = []
    many, couplings = w.transport.wasserstein_many, w.transport._optimal_couplings

    def spy(solve):
        def run(pairs, p):
            pairs = list(pairs)
            solved.extend(pairs)
            return solve(pairs, p)
        return run

    monkeypatch.setattr(w.lifts, "wasserstein_many", spy(many))
    monkeypatch.setattr(w.transport, "_optimal_couplings", spy(couplings))
    for n in (1, 2, 3, 4):
        lift = w.construct_lift_B(curve, n, 2.0)
        ts = dyadic_times(n)
        pattern = [(ts[i], ts[j]) for i, j in w.transport.dyadic_pattern_pairs(n)]
        assert w.pairwise_optimality_check(lift, curve, pattern, 2.0, 1e-8)["passed"]
    ts = dyadic_times(4)
    time_of = {id(curve(t)): t for t in ts}
    got = sorted((time_of[id(a)], time_of[id(b)]) for a, b in solved)
    assert got == sorted((ts[i], ts[j]) for i, j in w.transport.dyadic_pattern_pairs(4))


@pytest.mark.parametrize("family", [w.two_tent(), w.circle_splitting(1)], ids=["line", "circle"])
def test_pairwise_check_after_lift_B_requests_no_wpp(monkeypatch, family):
    curve = w.make_curve(family)
    lift = w.construct_lift_B(curve, 2, 2.0)
    counts = requested_wpp(monkeypatch)
    ts = dyadic_times(2)
    pattern = [(ts[i], ts[j]) for i, j in w.transport.dyadic_pattern_pairs(2)]
    report = w.pairwise_optimality_check(lift, curve, pattern, 2.0, 1e-8)
    assert counts == [] and report["passed"] and len(report["gaps"]) == len(pattern)


def test_curve_wpp_memo_is_symmetric_and_keeps_p_apart(monkeypatch):
    rng = np.random.default_rng(303)
    sp = w.circle(2.0)
    mus = {t: random_measure(rng, sp, 4) for t in (0.0, 0.5, 1.0)}
    curve = w.WassersteinCurve(sp, lambda t: mus[t])
    want = {(a, b, p): w.wasserstein_power(mus[a], mus[b], p)
            for a, b in ((0.0, 0.5), (0.5, 1.0)) for p in (1.0, 2.0)}
    counts = requested_wpp(monkeypatch)
    # a batch may move a value's last bits (see wasserstein_many), so the
    # solved values are compared to a tolerance, the memoised ones exactly
    got = curve._wpp_many([(0.0, 0.5), (1.0, 0.5), (0.5, 0.0)], 2.0)
    assert got == pytest.approx([want[0.0, 0.5, 2.0], want[0.5, 1.0, 2.0], want[0.0, 0.5, 2.0]],
                                rel=1e-12)
    assert counts == [2] and got[0] == got[2]  # each pair once, either way round
    assert curve._wpp_many([(0.5, 1.0), (0.5, 0.0)], 2.0) == got[1::-1]
    assert counts == [2]
    other = curve._wpp_many([(0.5, 0.0), (1.0, 0.5)], 1.0)
    assert other == pytest.approx([want[0.0, 0.5, 1.0], want[0.5, 1.0, 1.0]], rel=1e-12)
    assert counts == [2, 2]  # another p is another value
    assert curve._wpp_many([(0.0, 0.5), (0.5, 1.0)], 1.0) == other and counts == [2, 2]
    assert curve._wpp_many([(0.0, 0.5)], 2.0) == got[:1] and counts == [2, 2]


def test_curve_wpp_memo_evicts_its_oldest_entry_at_the_cap(monkeypatch):
    """The memo keeps the latest 4096 pairs (the measure cache's cap), and a
    request holding more misses than that still gets every value."""
    curve = w.WassersteinCurve(w.euclidean(1), lambda t: w.dirac(w.euclidean(1), [t]))
    counts = requested_wpp(monkeypatch)
    ts = np.arange(4098) / 4097
    pairs = [(0.0, t) for t in ts[1:]]
    assert curve._wpp_many(pairs, 1.0) == [t for t in ts[1:]]
    assert counts == [4097]
    assert curve._wpp_many(pairs[1:], 1.0) == [t for t in ts[2:]]
    assert counts == [4097]
    assert curve._wpp_many(pairs[:1], 1.0) == [ts[1]]
    assert counts == [4097, 1]  # the oldest was evicted; solving it again evicts the next
    assert curve._wpp_many(pairs[1:2], 1.0) == [ts[2]]
    assert counts == [4097, 1, 1]


def antipodal_pair_measure(deg):
    sp = w.euclidean(2)
    th = math.radians(deg)
    a = [math.cos(th), math.sin(th)]
    b = [-a[0], -a[1]]
    return w.make_measure(sp, [a, b], [0.5, 0.5])


def test_construct_B_raises_on_incompatible():
    # antipodal atom pairs at angles 0, 61, 122 degrees: the optimal matchings
    # 0 -> 61 -> 122 compose to a 122-degree rotation, but the optimal (0, 122)
    # matching is the -58-degree rotation; no joint coupling satisfies all three
    ms = {0.0: antipodal_pair_measure(0), 0.5: antipodal_pair_measure(61),
          1.0: antipodal_pair_measure(122)}
    curve = w.WassersteinCurve(w.euclidean(2), lambda t: ms[round(2 * t) / 2])
    with pytest.raises(w.IncompatibleCurveError) as exc_info:
        w.construct_lift_B(curve, 1, 2.0)
    assert exc_info.value.report.max_pair_gap > 1e-6


def test_construct_B_circle_splitting_gap_grows_with_level(monkeypatch):
    # each level's pattern pairs contain the previous level's (time k/2^n is
    # index 2k at level n + 1), so the least total excess cannot fall
    monkeypatch.delenv("WLIFT_BUDGET", raising=False)
    curve = w.make_curve(w.circle_splitting(1))
    gaps = []
    for n in range(1, 6):
        try:
            w.construct_lift_B(curve, n, 2.0)
            gaps.append(0.0)
        except w.IncompatibleCurveError as exc:
            gaps.append(exc.report.max_pair_gap)
            assert exc.report.product_size == 4 ** (2**n + 1)
    assert gaps[:3] == [0.0, 0.0, pytest.approx(0.25, abs=1e-9)]
    assert min(gaps[3:]) > 0.25
    assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))


def test_construct_A_is_the_loop_glue_of_consecutive_plans():
    for spec in (w.jump(), w.two_tent(), w.circle_splitting(1)):
        curve = w.make_curve(spec)
        for n in (1, 3, 5):
            lift = w.construct_lift_A(curve, n, 2.0)
            ts = dyadic_times(n)
            plans = [w.optimal_coupling(curve(s), curve(t), 2.0)[0] for s, t in zip(ts, ts[1:])]
            idx, wts = loop_glue_chain(plans)
            assert np.array_equal(lift.multicoupling.indices, idx)
            assert np.array_equal(lift.multicoupling.weights, wts)


def test_glued_chain_solves_one_lp_per_run(monkeypatch):
    # the level-7 jump chain has 126 couplings of 2 x 2 atoms, 504 plan
    # entries, and two with a point mass.  On the real line every one is a
    # monotone plan; the same atoms on a line of R^2 make one LP
    widths = counted_lp_solves(monkeypatch)
    curve = w.make_curve(w.jump())
    w.construct_lift_A(curve, 7, 2.0)
    assert widths == []
    w.construct_lift_A(w.WassersteinCurve(w.euclidean(2), lambda t: on_plane(curve(t))), 7, 2.0)
    assert widths == [504]


def test_line_lifts_run_no_lp_and_no_assignment(monkeypatch):
    # real-line plans are monotone, line values closed-form and line
    # certificates comonotone: neither HiGHS nor the assignment solver runs
    widths = counted_lp_solves(monkeypatch)

    def no_assignment():
        raise AssertionError("assignment solver called")

    monkeypatch.setattr(w.transport, "_lsap", no_assignment)
    for p in (1.0, 2.0):
        w.construct_lift_A(w.make_curve(w.jump()), 7, p)
        for n in range(1, 7):
            w.construct_lift_B(w.make_curve(w.two_tent()), n, p)
    rng = np.random.default_rng(303)
    ms = [random_measure(rng, w.euclidean(1), 5) for _ in range(9)]
    assert w.compatibility_multicoupling(ms, 2.0, pairs=w.dyadic_pattern_pairs(3)).feasible
    assert widths == []


@pytest.mark.parametrize("spec, n", [(w.circle_splitting(2), 3),
                                     (w.cylinder_family(3, 2.0, 0.75), 6)],
                         ids=["circle_splitting2-n3", "cylinder_family3-n6"])
def test_batched_chain_plans_are_optimal_under_ties(spec, n):
    # on these chains many couplings tie, and each plan is whichever
    # optimal vertex its assignment or LP finds; every plan is still
    # optimal and meets its marginals
    curve = w.make_curve(spec)
    ts = dyadic_times(n)
    pairs = [(curve(s), curve(t)) for s, t in zip(ts, ts[1:])]
    opt = w.wasserstein_many(pairs, 2.0)
    plans = w.transport._optimal_couplings(pairs, 2.0)
    for (plan, cost), want in zip(plans, opt):
        assert abs(cost - want) <= 1e-12 and abs(plan.cost(2.0) - want) <= 1e-12
        assert max(plan.marginal_errors()) <= w.transport.MARGINAL_TOL
    mc = w.construct_lift_A(curve, n, 2.0).multicoupling
    for k, (plan, _) in enumerate(plans):
        assert np.abs(mc.pair_coupling(k, k + 1).weights - plan.weights).max() <= 1e-12


@pytest.mark.parametrize("spec, n, energy", [
    (w.circle_splitting(1), 2, 1.7071067811865472),
    (w.circle_splitting(2), 3, 1.2071067811865477),
    (w.cylinder_family(2, 2.0, 0.75), 4, 9.796928177498078),
    (w.cylinder_family(2, 2.0, 0.75), 6, 15.371729019699593),
], ids=["circle_splitting1-n2", "circle_splitting2-n3", "cylinder_family2-n4",
        "cylinder_family2-n6"])
def test_lift_A_does_not_depend_on_the_lp_batching(spec, n, energy, monkeypatch):
    # every coupling of these particle chains is settled in closed form or
    # by assignments of equal-weight square blocks, never by an LP, so
    # lift A is the same however few plan entries one LP may take, and
    # each plan is the one the pair gets alone
    lift = w.construct_lift_A(w.make_curve(spec), n, 2.0)
    monkeypatch.setattr(w.transport, "_LP_COLUMNS", 4)
    small = w.construct_lift_A(w.make_curve(spec), n, 2.0)
    assert np.array_equal(lift.breakpoints, small.breakpoints)
    assert np.array_equal(lift.weights, small.weights)
    curve = w.make_curve(spec)
    ts = dyadic_times(n)
    for k, (s, t) in enumerate(zip(ts, ts[1:])):
        alone, _ = w.optimal_coupling(curve(s), curve(t), 2.0)
        assert np.array_equal(lift.multicoupling.pair_coupling(k, k + 1).weights > 0,
                              alone.weights > 0)
    assert w.lift_energy(lift, EnergySpec.besov(0.75, 2.0)) == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize(
    "times, p, kept",
    [
        # W_1(mu_0, mu_1): an LP plan costs 1.7e-9 more than the exact value
        ({0.0: ([0.0, 1.0], [2 / 3, 1 / 3]),
          1.0: ([0.0, 1e-8, 1.0], [1 / 2, 1 / 4, 1 / 4])}, 1.0, True),
        ({0.0: ([0.0, 1.0], [2 / 3, 1 / 3]),
          1.0: ([0.0, 1e-8, 1.0], [1 / 2, 1 / 4, 1 / 4])}, 2.0, True),
        ({0.0: ([0.0, 1.0], [2 / 3, 1 / 3]),
          0.5: ([0.0, 1e-8, 1.0], [1 / 2, 1 / 4, 1 / 4]),
          1.0: ([3.0, 4.0], [1 / 2, 1 / 2])}, 1.0, True),
        # the glue of the two monotone plans is not monotone: its (0, 2)
        # pair costs 1.87e-9 more than the exact W_1
        ({0.0: ([0.0, 1e-8, 1.00000001, 2.0], [3 / 9, 2 / 9, 3 / 9, 1 / 9]),
          0.5: ([0.0, 1.000000001, 2.0], [5 / 9, 3 / 9, 1 / 9]),
          1.0: ([0.0, 1e-8], [0.4, 0.6])}, 1.0, False),
    ],
    ids=["n0-p1", "n0-p2", "n1-p1", "n1-p1-far"],
)
def test_construct_B_keeps_glue_on_near_degenerate_line(times, p, kept, monkeypatch):
    # atoms 1e-8 apart on the real line: the glued chain is made of monotone
    # plans and checked against the closed-form values, with no LP.  Where
    # it is optimal on every pattern pair it is kept, as it is for exact
    # inputs; where it is not, lift B takes the comonotone certificate,
    # optimal on every pair, also with no LP
    sp = w.euclidean(1)
    ms = {t: w.make_measure(sp, np.array(a)[:, None], wt) for t, (a, wt) in times.items()}
    curve = w.WassersteinCurve(sp, lambda t: ms[t])
    n = len(ms) - 2  # 2^n + 1 dyadic times, n = 0 or 1

    def no_lp(*args, **kwargs):
        raise AssertionError("glued chain rejected")

    widths = counted_lp_solves(monkeypatch)
    if kept:
        monkeypatch.setattr(w.transport, "compatibility_multicoupling", no_lp)
    lift = w.construct_lift_B(curve, n, p)
    glued = w.construct_lift_A(curve, n, p)
    assert widths == []
    if kept:
        assert np.array_equal(lift.multicoupling.indices, glued.multicoupling.indices)
        assert np.array_equal(lift.multicoupling.weights, glued.multicoupling.weights)
        return
    mus = list(ms.values())
    mc = lift.multicoupling
    idx, wts = w.transport._comonotone(mus)
    assert np.array_equal(mc.indices, idx[wts > 0]) and np.array_equal(mc.weights, wts[wts > 0])
    for (i, j) in w.dyadic_pattern_pairs(n):
        assert mc.pair_cost(i, j, p) - w.wasserstein_power(mus[i], mus[j], p) == 0.0
    excess = glued.multicoupling.pair_cost(0, 2, p) - w.wasserstein_power(mus[0], mus[2], p)
    assert excess == pytest.approx(1.87e-9, rel=1e-2)


def test_curve_besov_closed_form_tail():
    # two_tent declares level 1, so curve_besov_norm is exact for any M >= 1
    curve = w.make_curve(w.two_tent())
    r1 = curve_besov_norm(curve, 0.75, 2.0, 1)
    r2 = curve_besov_norm(curve, 0.75, 2.0, 8)
    assert r1.exact and r2.exact
    assert r1.value == pytest.approx(r2.value, rel=1e-12)
    # matches the lift energy times the geodesic factor structure:
    # |mu|^p = 1/2 |gamma1|^p + 1/2 |gamma2|^p here (independent components)
    want = 0.5 * (2 + math.sqrt(2)) + 0.5 * (4 + 4 * math.sqrt(2))
    assert r1.value == pytest.approx(want, abs=1e-10)


def test_curve_besov_truncated_when_level_unknown():
    curve = w.make_curve(w.jump())
    rep = curve_besov_norm(curve, 0.75, 2.0, 6)
    assert not rep.exact
    assert rep.tail == 0.0
    # jump: W_p^p over a consecutive pair of length dt is dt, so each level
    # contributes 2^{m(ap-1)} * 1 = 2^{m/2}; partial sums diverge
    want = sum(2.0 ** (m * 0.5) for m in range(7))
    assert rep.value == pytest.approx(want, rel=1e-10)


def test_energy_vs_curve_gap_nonnegative():
    curve = w.make_curve(w.two_tent())
    lift = w.construct_lift_B(curve, 4, 2.0)
    for spec in [
        EnergySpec.besov(0.75, 2.0),
        EnergySpec.variation(2.0, 2.0),
        EnergySpec.modulus(1.0, 2.0),
    ]:
        out = w.energy_vs_curve_gap(lift, curve, spec, M=6)
        assert out["gap"] >= -1e-9


def test_convergence_diagnostics_rows():
    curve = w.make_curve(w.two_tent())
    rows = w.convergence_diagnostics(curve, 2.0, 0.75, [1, 2, 3])
    assert [r["level"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert r["error"] == ""
        assert r["max_marginal_err"] <= 1e-8
        assert r["max_pair_gap"] <= 1e-8
    # Besov lift energies converge (here: constant in the level)
    assert rows[-1]["energy"] == pytest.approx(rows[0]["energy"], rel=1e-9)


def test_benamou_brenier_identity_random():
    rng = np.random.default_rng(302)
    sp = w.euclidean(2)
    for _ in range(10):
        mu = random_measure(rng, sp, 4)
        nu = random_measure(rng, sp, 4)
        out = w.benamou_brenier_check(mu, nu, 0.75, 2.0)
        scale = max(1.0, out["wpp"])
        assert out["identity_error"] <= 1e-10 * scale
        assert out["excess"] >= -1e-12
        assert out["excess_error"] <= 1e-10 * scale


def test_benamou_brenier_factor():
    out = w.benamou_brenier_check(
        w.dirac(w.euclidean(1), [0.0]), w.dirac(w.euclidean(1), [1.0]), 0.75, 2.0
    )
    assert out["factor"] == pytest.approx(1.0 - 2.0**-0.5)
    assert out["wpp"] == pytest.approx(1.0)
    assert out["energy_opt"] == pytest.approx(2.0 + math.sqrt(2.0))


PARITY_PARAMS = {"alpha": 0.75, "gamma": 0.6, "q": 2.5, "delta": 0.3}


@pytest.mark.parametrize("space", [w.euclidean(1), w.euclidean(2), w.circle(2.0), w.cylinder(2.0)],
                         ids=["R1", "R2", "circle", "cylinder"])
def test_registry_curve_of_diracs_matches_path(space):
    """A curve of Diracs that follows a piecewise-geodesic path, with its
    level declared, has every curve functional at M = level equal to the
    path functional: exact Besov on both sides, Hölder and modulus on the
    same grid, W^{1,p} on both sides, dyadic variation vs vertex variation."""
    from wlift.lifts import _FUNCTIONALS

    level = 3
    path = random_path(np.random.default_rng(41), space, level)
    curve = w.WassersteinCurve(space, lambda t: w.dirac(space, path(t)), level=level)
    single = w.Lift((path,), np.ones(1), level)
    tags = [tag for tag, entry in _FUNCTIONALS.items() if entry.curve is not None]
    assert sorted(tags) == ["besov", "holder", "modulus", "variation", "w1p"]
    for tag in tags:
        for p in (2.0, 3.0):
            params = {k: PARITY_PARAMS[k] for k in _FUNCTIONALS[tag].params}
            spec = EnergySpec(tag, {**params, "p": p})
            on_curve = w.curve_norm_power(curve, spec, M=level)
            on_path = w.lift_energy(single, spec, M=level)
            assert on_curve == pytest.approx(on_path, rel=1e-12), (tag, p)
    rep = curve_besov_norm(curve, 0.75, 2.0, level)
    assert rep.exact
    assert rep.value == pytest.approx(w.besov_energy_pg(path, 0.75, 2.0), rel=1e-12)


@pytest.mark.parametrize("spec", [w.circle_splitting(1), w.cylinder_family(1, 2.0, 0.75)],
                         ids=["circle_splitting", "cylinder_family"])
def test_declared_period_leaves_level_sums_unchanged(spec):
    periodic = w.make_curve(spec)
    assert periodic.period is not None
    plain = w.WassersteinCurve(periodic.space, periodic._evaluator, level=periodic.level)

    def dist(a, b):
        return w.wasserstein_distance(a, b, 2.0)

    levels = range(0, 6)
    a = w.limsup_variation_dyadic(periodic, 2.0, levels, dist=dist)
    b = w.limsup_variation_dyadic(plain, 2.0, levels, dist=dist)
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)
    assert a[-1] > 0.0
    for tag_spec in (EnergySpec.w1p(2.0), EnergySpec.besov(0.75, 2.0)):
        assert w.curve_norm_power(periodic, tag_spec, M=5) == pytest.approx(
            w.curve_norm_power(plain, tag_spec, M=5), rel=1e-12
        )


@pytest.mark.parametrize(
    "spec",
    [w.jump(), w.two_tent(), w.oscillating_tents(2, 2.0, 0.8), w.circle_splitting(1),
     w.cylinder_family(1, 2.0, 0.75)],
    ids=lambda s: s.name,
)
def test_batched_curve_norms_match_per_pair(spec, monkeypatch):
    """`curve_norm_power` batches every pair list through `wasserstein_many`;
    with the W_p callback swapped for a plain lambda, the same functionals
    take the per-pair path."""
    from wlift import lifts

    curve = w.make_curve(spec)
    energies = [
        EnergySpec(tag, {**{k: PARITY_PARAMS[k] for k in entry.params}, "p": 2.0})
        for tag, entry in lifts._FUNCTIONALS.items() if entry.curve is not None
    ]
    batched = [w.curve_norm_power(curve, e, M=4) for e in energies]
    monkeypatch.setattr(lifts, "_wp", lambda p: lambda a, b: w.wasserstein_distance(a, b, p))
    per_pair = [w.curve_norm_power(curve, e, M=4) for e in energies]
    for e, x, y in zip(energies, batched, per_pair):
        assert x == pytest.approx(y, rel=1e-12, abs=0.0), e.tag


def test_lift_breakpoints_count_against_the_budget():
    # 2^100 + 1 breakpoints per path: refused before the curve is evaluated
    calls = []
    curve = w.WassersteinCurve(w.euclidean(1), lambda t: calls.append(t))
    for build in (w.construct_lift_A, w.construct_lift_B):
        with pytest.raises(w.BudgetExceededError,
                           match=f"lift breakpoints per path {2**100 + 1} exceeds"):
            build(curve, 100, 2.0)
    assert calls == []


@pytest.mark.parametrize("n", [20_000, 10**7])
def test_lift_levels_too_deep_to_count_are_charged_as_inf(n):
    """From level 1024 on the breakpoints are charged as inf, so neither a
    count too long to print (20 000) nor a big integer (10^7) is made."""
    curve = w.make_curve(w.two_tent())
    start = time.perf_counter()
    for build in (w.construct_lift_A, w.known_lift(w.two_tent()).discretize):
        with pytest.raises(w.BudgetExceededError,
                           match="lift breakpoints per path inf exceeds budget"):
            build(curve, n, 2.0) if build is w.construct_lift_A else build(n)
    assert time.perf_counter() - start < 1.0


def test_known_lift_discretize_charges_its_breakpoints(monkeypatch):
    kl = w.known_lift(w.two_tent())
    calls = []
    monkeypatch.setattr(kl, "positions", lambda t: calls.append(t))
    with pytest.raises(w.BudgetExceededError,
                       match=f"lift breakpoints per path {2**20 + 1} exceeds budget 1000000"):
        kl.discretize(20)
    assert calls == []


def test_convergence_diagnostics_charges_the_deepest_level_first(monkeypatch):
    """Level 25's breakpoints exceed the budget, so no level is built."""
    built = []
    for name in ("construct_lift_A", "construct_lift_B"):
        monkeypatch.setattr(w.lifts, name, lambda curve, n, p: built.append(n))
    curve = w.make_curve(w.two_tent())
    for levels in ([1, 25, 2], range(1, 26), range(1, 10**8 + 1)):
        with pytest.raises(w.BudgetExceededError, match="lift breakpoints per path"):
            w.convergence_diagnostics(curve, 2.0, 0.75, levels)
    assert built == []


@pytest.mark.parametrize("construction", ["min", "", "AB", None])
def test_convergence_diagnostics_takes_only_constructions_a_and_b(construction):
    curve = w.make_curve(w.two_tent())
    with pytest.raises(w.ValidationError, match="construction must be 'A' or 'B'"):
        w.convergence_diagnostics(curve, 2.0, 0.75, [1], construction=construction)
    rows = w.convergence_diagnostics(curve, 2.0, 0.75, [1], construction="a")
    assert rows[0]["error"] == "" and rows[0]["max_pair_gap"] <= 1e-8


def test_frac_sobolev_lift_energy_checks_the_budget_once_for_all_paths():
    """The fractional Sobolev lift energy counts the quadrature rectangles
    of all K paths against the budget before evaluating any: the level-10,
    62-path cylinder lift (62 x 646 536 rectangles) is refused at once."""
    lift = w.known_lift(w.cylinder_family(4, 2.0, 0.75)).discretize(10)
    start = time.perf_counter()
    with pytest.raises(w.BudgetExceededError, match=f"{62 * 646_536} exceeds"):
        w.lift_energy(lift, EnergySpec.frac_sobolev(0.75, 2.0))
    assert time.perf_counter() - start < 1.0


def test_frac_sobolev_lift_energy_is_the_weighted_path_sum():
    rng = np.random.default_rng(31)
    space = w.cylinder(2.0)
    paths = tuple(random_path(rng, space, 3) for _ in range(3))
    lift = w.Lift(paths, np.array([0.2, 0.3, 0.5]), 3)
    want = 0.0
    for wk, path in zip(lift.weights, paths):
        want += wk * w.frac_sobolev_energy(path, 0.75, 2.0)
    assert w.lift_energy(lift, EnergySpec.frac_sobolev(0.75, 2.0)) == want
    assert w.frac_sobolev_energy(lift, 0.75, 2.0) == [
        w.frac_sobolev_energy(path, 0.75, 2.0) for path in paths]


@pytest.mark.parametrize("spec", [lambda x0: EnergySpec.besov(0.75, 2.5, x0),
                                  lambda x0: EnergySpec.holder(0.5, 2.5, x0)],
                         ids=["besov", "holder"])
@pytest.mark.parametrize("space", [w.euclidean(2), w.circle(2.0)], ids=["R2", "circle"])
def test_lift_energy_base_point_adds_the_start_moment(space, spec):
    # besov's registry values are already p-th powers, holder's are norms
    # raised to p; on the circle the start points straddle arc 0, so the
    # shorter arc from the base point 0.02 to some of them crosses it
    rng = np.random.default_rng(37)
    K, level = 4, 2
    X = np.stack([random_path(rng, space, level).breakpoints for _ in range(K)])
    if space.kind == "circle":
        X[:, 0, 0] = [1.9, 0.05, 1.97, 0.1]
        x0 = [0.02]
    else:
        x0 = [0.5, -1.0]
    lift = _lift_from_breakpoints(space, X, rng.uniform(0.2, 1.0, K), level)
    with_base = w.lift_energy(lift, spec(x0))
    want = w.lift_energy(lift, spec(None)) + w.p_moment(lift.marginal_at(0.0), x0, 2.5)
    assert with_base == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [2.5, True, -1, "3", None])
def test_lift_levels_must_be_integers_at_least_0(n):
    """A level is an integer >= 0 (a float or a bool is not) for both
    constructions and `KnownLift.discretize`, before anything is built."""
    curve = w.make_curve(w.two_tent())
    for build in (lambda m: w.construct_lift_A(curve, m, 2.0),
                  lambda m: w.construct_lift_B(curve, m, 2.0),
                  w.known_lift(w.two_tent()).discretize):
        with pytest.raises(w.ValidationError, match="n must be an integer >= 0"):
            build(n)


def test_numpy_integer_lift_levels_are_charged_in_python_integers():
    """2^100 + 1 in int64 wraps to 1; the level is charged as a Python int,
    and a numpy level inside the budget builds the same lift as an int."""
    curve = w.make_curve(w.two_tent())
    for build in (lambda m: w.construct_lift_A(curve, m, 2.0),
                  lambda m: w.construct_lift_B(curve, m, 2.0),
                  w.known_lift(w.two_tent()).discretize):
        with pytest.raises(w.BudgetExceededError,
                           match=f"lift breakpoints per path {2**100 + 1} exceeds"):
            build(np.int64(100))
        lift, want = build(np.int64(3)), build(3)
        assert type(lift.level) is int and lift.level == 3
        assert np.array_equal(lift.breakpoints, want.breakpoints)
