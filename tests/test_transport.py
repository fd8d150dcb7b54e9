import functools
import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlift as w
from conftest import (ALL_SPACES, counted_lp_solves, loop_glue_chain, loop_marginal_error,
                      measure_strategy, on_plane, random_measure, random_points)
from wlift.paths import dyadic_times
from wlift.spaces import distance_matrix
from wlift.transport import Coupling


# ---------------------------------------------------------------------------
# independent oracles


def permutation_oracle(mu, nu, p):
    """Exact optimal cost for uniform measures with equal support size:
    the optimum is attained at a permutation (Birkhoff), found by brute force."""
    assert mu.size == nu.size
    assert np.allclose(mu.weights, 1.0 / mu.size)
    assert np.allclose(nu.weights, 1.0 / nu.size)
    D = distance_matrix(mu.space, mu.atoms, nu.atoms) ** p
    best = min(
        sum(D[i, pi[i]] for i in range(mu.size))
        for pi in itertools.permutations(range(mu.size))
    )
    return best / mu.size


def monotone_oracle(mu, nu, p):
    """Exact 1-D optimal cost by monotone (north-west corner) rearrangement of
    the sorted supports; optimal for the convex cost |x-y|^p, p >= 1."""
    xs = mu.atoms[:, 0]
    ys = nu.atoms[:, 0]
    ix, iy = np.argsort(xs), np.argsort(ys)
    xs, wx = xs[ix], mu.weights[ix].copy()
    ys, wy = ys[iy], nu.weights[iy].copy()
    i = j = 0
    cost = 0.0
    while i < len(xs) and j < len(ys):
        m = min(wx[i], wy[j])
        cost += m * abs(xs[i] - ys[j]) ** p
        wx[i] -= m
        wy[j] -= m
        if wx[i] <= 1e-16:
            i += 1
        if j < len(ys) and wy[j] <= 1e-16:
            j += 1
    return cost


# ---------------------------------------------------------------------------
# optimal_coupling against the oracles


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_matches_permutation_oracle(space, p):
    rng = np.random.default_rng(101)
    for k in [2, 3, 4, 5]:
        for _ in range(8):
            mu = w.make_measure(space, random_points(rng, space, k), np.full(k, 1.0 / k))
            nu = w.make_measure(space, random_points(rng, space, k), np.full(k, 1.0 / k))
            if mu.size != k or nu.size != k:
                continue
            _, cost = w.optimal_coupling(mu, nu, p)
            assert cost == pytest.approx(permutation_oracle(mu, nu, p), abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_lp_matches_monotone_oracle_1d(p):
    rng = np.random.default_rng(102)
    sp = w.euclidean(1)
    for _ in range(40):
        mu = random_measure(rng, sp, rng.integers(1, 7))
        nu = random_measure(rng, sp, rng.integers(1, 7))
        _, cost = w.optimal_coupling(mu, nu, p)
        assert cost == pytest.approx(monotone_oracle(mu, nu, p), abs=1e-10)


def test_coupling_marginals_and_cost():
    rng = np.random.default_rng(103)
    for space in ALL_SPACES:
        mu = random_measure(rng, space, 4)
        nu = random_measure(rng, space, 3)
        plan, cost = w.optimal_coupling(mu, nu, 2.0)
        r, c = plan.marginal_errors()
        assert r <= 1e-10 and c <= 1e-10
        assert plan.cost(2.0) == pytest.approx(cost, abs=1e-12)


def test_coupling_exact_for_nearly_equal_measures():
    # same atoms, weights 4.4e-10 apart: within HiGHS's default feasibility
    # tolerance, which returned the identity plan at cost 0
    sp = w.euclidean(1)
    wts = np.array([0.05 + 1e-10, 0.05, 0.05])
    mu = w.make_measure(sp, np.array([[1.0], [-4.0], [0.0]]), wts / wts.sum())
    nu = w.make_measure(sp, np.array([[0.0], [1.0], [-4.0]]), np.full(3, 1.0 / 3))
    plan, cost = w.optimal_coupling(mu, nu, 2.0)
    r, c = plan.marginal_errors()
    assert r <= 1e-12 and c <= 1e-12
    assert cost == pytest.approx(monotone_oracle(mu, nu, 2.0), rel=1e-6)
    assert cost > 3e-9


def test_wasserstein_metric_properties():
    rng = np.random.default_rng(104)
    sp = w.euclidean(2)
    mu = random_measure(rng, sp, 4)
    nu = random_measure(rng, sp, 4)
    rho = random_measure(rng, sp, 3)
    p = 2.0
    assert w.wasserstein_distance(mu, mu, p) == 0.0
    dmn = w.wasserstein_distance(mu, nu, p)
    assert dmn == pytest.approx(w.wasserstein_distance(nu, mu, p), abs=1e-10)
    assert w.wasserstein_distance(mu, rho, p) <= dmn + w.wasserstein_distance(
        nu, rho, p
    ) + 1e-10


def test_dirac_shortcut():
    sp = w.euclidean(1)
    mu = w.dirac(sp, [0.0])
    nu = w.make_measure(sp, [[1.0], [3.0]], [0.5, 0.5])
    assert w.wasserstein_power(mu, nu, 2.0) == pytest.approx(0.5 + 4.5)


# ---------------------------------------------------------------------------
# wasserstein_many against per-pair optimal_coupling and the oracles


# HiGHS stops once every reduced cost is within its dual feasibility
# tolerance (1e-7).  On near-degenerate draws, such as atoms 1e-8 apart, two
# LP solves of the same problem, batched or not, can then differ by that
# much, and an LP value can sit that far above the exact optimum; on
# generic inputs they agree to round-off (next tests).  The real line
# reaches no LP, so no line value needs it.  This slack is the transport
# LP's open dual-tolerance defect, not a property of the dispatch: tighten
# it to rel=1e-12 once that tolerance is fixed.
LP_SLACK = 1e-7


@pytest.mark.parametrize(
    "space", [w.euclidean(1), w.euclidean(2), w.circle(2.0), w.cylinder(2.0)],
    ids=["R1", "R2", "circle", "cylinder"],
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_many_matches_single_pair_lp_hypothesis(space, data):
    p = data.draw(st.sampled_from([1.0, 2.0, 3.0]))
    pairs = data.draw(
        st.lists(st.tuples(measure_strategy(space), measure_strategy(space)), min_size=1, max_size=6)
    )
    got = w.wasserstein_many(pairs, p)
    assert got.shape == (len(pairs),)
    for (mu, nu), value in zip(pairs, got):
        slack = LP_SLACK * max(1.0, value)
        assert w.wasserstein_power(mu, nu, p) == pytest.approx(value, rel=1e-12, abs=slack)
        _, cost = w.optimal_coupling(mu, nu, p)
        if space.dim == 1 and space.kind == "euclidean":
            # the closed form is exact, and the value and the plan's cost
            # come from the same monotone plan
            assert value == pytest.approx(monotone_oracle(mu, nu, p), rel=1e-12, abs=1e-14)
            assert value == cost
        else:
            assert value == pytest.approx(max(cost, 0.0), rel=1e-12, abs=slack)


def test_line_plan_is_exact_where_the_lp_tolerance_is_not():
    # the weights differ by 5e-12, within the LP's primal tolerance
    # (MARGINAL_TOL), which accepted the identity plan at cost 0; the
    # monotone plan moves the 5e-12 from atom 1 to atom 0
    sp = w.euclidean(1)
    mu = w.make_measure(sp, [[0.0], [1.0]], [0.5 - 5e-12, 0.5 + 5e-12])
    nu = w.make_measure(sp, [[0.0], [1.0]], [0.5, 0.5])
    exact = 5.000000413701855e-12  # 0.5 - (0.5 - 5e-12) in floating point
    for p in (1.0, 2.0):
        plan, cost = w.optimal_coupling(mu, nu, p)
        assert cost == exact and plan.cost(p) == exact
        assert w.wasserstein_many([(mu, nu)], p)[0] == exact
        assert max(plan.marginal_errors()) <= 1e-16


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_line_plan_is_exact_below_the_balance_tolerance(p):
    # the weights differ by 1.1e-15, below the nearest-neighbour split's
    # _BALANCE_TOL, which accepted the identity plan at cost 0; the
    # monotone plan moves the 1.1e-15 from atom 0 to atom 3
    sp = w.euclidean(1)
    mu = w.make_measure(sp, [[0.0], [3.0]], [0.5, 0.5])
    nu = w.make_measure(sp, [[0.0], [3.0]], [0.5 - 1.1e-15, 0.5 + 1.1e-15])
    plan, cost = w.optimal_coupling(mu, nu, p)
    assert cost == w.wasserstein_many([(mu, nu)], p)[0] == w.wasserstein_power(mu, nu, p)
    assert cost > 0
    assert max(plan.marginal_errors()) <= 1e-15


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_line_formula_matches_permutation_oracle(p):
    rng = np.random.default_rng(107)
    sp = w.euclidean(1)
    pairs = []
    for n in range(2, 7):
        for _ in range(6):
            mu = w.make_measure(sp, rng.normal(size=(n, 1)), np.full(n, 1.0 / n))
            nu = w.make_measure(sp, rng.normal(size=(n, 1)), np.full(n, 1.0 / n))
            pairs.append((mu, nu))
    got = w.wasserstein_many(pairs, p)
    for (mu, nu), value in zip(pairs, got):
        assert value == pytest.approx(permutation_oracle(mu, nu, p), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_line_formula_matches_lp_nonuniform(p, monkeypatch):
    rng = np.random.default_rng(108)
    sp = w.euclidean(1)
    pairs = [(random_measure(rng, sp, rng.integers(2, 8)), random_measure(rng, sp, rng.integers(2, 8)))
             for _ in range(40)]
    widths = counted_lp_solves(monkeypatch)
    got = w.wasserstein_many(pairs, p)
    assert widths == []  # the real line never reaches the LP
    for (mu, nu), value in zip(pairs, got):
        _, cost = w.optimal_coupling(mu, nu, p)
        assert value == pytest.approx(cost, rel=1e-12, abs=1e-14)
        assert value == pytest.approx(monotone_oracle(mu, nu, p), rel=1e-12, abs=1e-14)


def test_many_spans_several_lp_solves(monkeypatch):
    rng = np.random.default_rng(109)
    sp = w.circle(2.0)
    sizes = [(8, 8), (5, 7), (8, 6), (3, 8)] * 30
    pairs = [(random_measure(rng, sp, n), random_measure(rng, sp, m)) for n, m in sizes]
    single = [w.optimal_coupling(mu, nu, 2.0)[1] for mu, nu in pairs]
    widths = counted_lp_solves(monkeypatch)
    got = w.wasserstein_many(pairs, 2.0)
    assert sum(widths) == sum(mu.size * nu.size for mu, nu in pairs)
    assert len(widths) >= 3 and max(widths) <= w.transport._LP_COLUMNS
    for value, cost in zip(got, single):
        assert value == pytest.approx(cost, rel=1e-12, abs=1e-14)


def test_many_holds_one_solves_cost_matrices(monkeypatch):
    # a long list of large blocks: each solve's cost matrices are built when
    # it runs, so memory does not grow with the number of pairs
    import gc
    import weakref

    rng = np.random.default_rng(111)
    sp = w.circle(2.0)
    sizes = [(40, 40)] * 4 + [(20, 20)] * 10 + [(60, 50)] * 2
    pairs = [(random_measure(rng, sp, n), random_measure(rng, sp, m)) for n, m in sizes]
    built, seen = [], []
    cost_matrix, transport_lp = w.transport._cost_matrix, w.transport._transport_lp

    def tracked(mu, nu, p):
        D = cost_matrix(mu, nu, p)
        built.append(weakref.ref(D))
        return D

    def solve(blocks):
        gc.collect()
        seen.append((sum(r() is not None for r in built), len(blocks)))
        return transport_lp(blocks)

    monkeypatch.setattr(w.transport, "_cost_matrix", tracked)
    monkeypatch.setattr(w.transport, "_transport_lp", solve)
    got = w.wasserstein_many(pairs, 2.0)
    # blocks of 1600, 400 and 3000 columns, at most 2048 per solve
    assert [b for _, b in seen] == [1, 1, 1, 2, 5, 4, 1, 1]
    assert all(live == b for live, b in seen)
    monkeypatch.undo()
    for (mu, nu), value in zip(pairs, got):
        assert value == pytest.approx(w.optimal_coupling(mu, nu, 2.0)[1], rel=1e-12, abs=1e-14)


def test_many_edge_cases():
    rng = np.random.default_rng(110)
    mu = random_measure(rng, w.circle(2.0), 4)
    nu = random_measure(rng, w.circle(2.0), 3)
    same = w.make_measure(mu.space, mu.atoms.copy(), mu.weights.copy())
    got = w.wasserstein_many([(mu, same), (mu, nu), (nu, nu)], 2.0)
    assert got[0] == 0.0 and got[2] == 0.0 and got[1] > 0.0
    assert w.wasserstein_many([], 2.0).shape == (0,)
    line = random_measure(rng, w.euclidean(1), 3)
    with pytest.raises(w.SpaceMismatchError):
        w.wasserstein_many([(mu, nu), (mu, line)], 2.0)
    for p in (float("nan"), float("inf")):
        with pytest.raises(w.ValidationError):
            w.wasserstein_many([(mu, nu)], p)


# ---------------------------------------------------------------------------
# nearest-neighbour blocks (`_nearest_split`) against the full-block LP


def split_kind(mu, nu, p):
    """'settled' if `_nearest_split` fills the whole plan in closed form,
    'split' if it leaves LP blocks, None if the pair goes to the LP whole."""
    out = w.transport._nearest_split(
        w.transport._cost_matrix(mu, nu, p), mu.weights, nu.weights)
    return None if out is None else "split" if out[1] else "settled"


def assert_matches_full_lp(pairs, p):
    """Values, plan costs and marginals of the dispatch against each pair's
    whole transport LP, solved by `linprog` without the rule."""
    got = w.wasserstein_many(pairs, p)
    for (mu, nu), value, (plan, cost) in zip(pairs, got, w.transport._optimal_couplings(pairs, p)):
        want = Coupling(mu, nu, linprog_plan(mu, nu, p)).cost(p)
        assert value == pytest.approx(want, rel=1e-12)
        assert cost == pytest.approx(want, rel=1e-12)
        assert plan.cost(p) == pytest.approx(want, rel=1e-12)
        assert max(plan.marginal_errors()) <= w.transport.MARGINAL_TOL


def place(space, xs, heights):
    """Points at arc or first coordinate xs, and at second coordinate
    `heights` (one number, or one per point) where the space has one."""
    xs = np.asarray(xs, dtype=float)
    return np.column_stack([xs, np.broadcast_to(heights, xs.shape)]) if space.dim == 2 else xs[:, None]


def jittered_pair(rng, space, n):
    """mu on n atoms at least 1 apart (arcs 2k + U(-0.5, 0.5)) and a copy
    of it with the same weights and every coordinate moved by < 0.1: each
    row's nearest column is its own copy.  The costs stay far above the
    LP's tolerances, so the LP oracle is exact to rounding."""
    xs = 2.0 * np.arange(n) + rng.uniform(-0.5, 0.5, n)
    atoms = place(space, xs, rng.normal(size=n))
    wts = rng.uniform(0.2, 1.0, n)
    mu = w.make_measure(space, atoms, wts / wts.sum())
    return mu, w.make_measure(space, atoms + rng.uniform(-0.1, 0.1, atoms.shape), wts / wts.sum())


# clusters as (row positions, column positions, row weights, column
# weights).  In PAIR, rows 0 and 0.1 are both nearest to column 0.06, and
# column -0.1 to row 0: the union of the two nearest-neighbour maps is one
# component, a 2 x 2 LP block, while neither map alone is a coupling.  ONE_ROW
# and ONE_COL are components of one row or one column, coupled in closed
# form.  Within a cluster no two atoms are more than 0.2 apart.
PAIR = ([0.0, 0.1], [0.06, -0.1], [0.2, 0.8], [0.5, 0.5])
ONE_ROW = ([0.0], [-0.04, 0.05], [1.0], [0.3, 0.7])
ONE_COL = ([-0.05, 0.04], [0.0], [0.4, 0.6], [1.0])


def clustered_pair(space, clusters, shifts, heights=None):
    """The clusters placed at the arc or first-coordinate shifts (and
    second-coordinate heights), the mass split evenly among them."""
    heights = np.zeros(len(shifts)) if heights is None else heights

    def measure(side):
        return w.make_measure(
            space, np.vstack([place(space, np.add(c[side], s), h)
                              for c, s, h in zip(clusters, shifts, heights)]),
            np.concatenate([c[side + 2] for c in clusters]) / len(clusters))

    return measure(0), measure(1)


@pytest.mark.parametrize("space", [w.euclidean(2), w.circle(64.0), w.cylinder(64.0)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_jittered_copies_are_settled_by_their_nearest_atoms(space, p):
    rng = np.random.default_rng(131)
    pairs = [jittered_pair(rng, space, n) for n in (2, 5, 9, 30) for _ in range(3)]
    if space.kind != "euclidean":  # copies across the wrap-around point
        mu = w.make_measure(space, place(space, [0.05, 32.0, 63.9], 0.5), [0.2, 0.3, 0.5])
        pairs.append((mu, w.make_measure(space, place(space, [63.97, 32.1, 63.85], 0.5),
                                         [0.2, 0.3, 0.5])))
    assert all(split_kind(mu, nu, p) == "settled" for mu, nu in pairs)
    assert_matches_full_lp(pairs, p)


@pytest.mark.parametrize("space", [w.euclidean(2), w.circle(2.0), w.cylinder(2.0)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_separated_clusters_are_settled_or_split(space, p, monkeypatch):
    # atoms of different clusters are >= 0.4 apart; on the cylinder the
    # clusters also sit at three heights
    shifts, heights = [0.2, 0.8, 1.4], [0.0, 3.0, 6.0] if space.kind == "cylinder" else None
    mixed = clustered_pair(space, [PAIR, ONE_ROW, ONE_COL], shifts, heights)
    by_columns = clustered_pair(space, [ONE_ROW] * 3, shifts, heights)
    by_rows = clustered_pair(space, [ONE_COL] * 3, shifts, heights)
    kinds = [split_kind(*pair, p) for pair in (mixed, by_columns, by_rows)]
    assert kinds == ["split", "settled", "settled"]
    widths = counted_lp_solves(monkeypatch)
    assert_matches_full_lp([mixed, by_columns, by_rows], p)
    assert widths == [4, 4]  # per call, PAIR's block: not one 5 x 5 LP


@pytest.mark.parametrize("spec, n", [(w.oscillating_tents(4, 2.0, 0.8), 5),
                                     (w.cylinder_family(2, 2.0, 0.75), 6)],
                         ids=["oscillating_tents4", "cylinder_family2"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_family_curve_pairs_match_the_full_lp(spec, n, p):
    curve = w.make_curve(spec)
    ts = dyadic_times(n)
    pairs = [(curve(s), curve(t)) for s, t in zip(ts, ts[1:])]
    pairs += [(curve(0.0), curve(t)) for t in ts[2::5]]
    pairs = [(mu, nu) for mu, nu in pairs if not w.measures_equal(mu, nu)]
    assert all(split_kind(mu, nu, p) is not None for mu, nu in pairs)
    assert_matches_full_lp(pairs, p)


def test_ties_without_a_nearest_coupling_go_to_the_lp(monkeypatch):
    # both rows are nearest to column (0.5, 0), and both columns, tied,
    # take row (0, 0) as argmin: neither map is a coupling.  Each column's
    # cost is the same from either row, so every coupling costs 0.75.
    # With unequal row weights the pair goes to the LP; with equal ones it
    # is an optimal assignment
    sp = w.euclidean(2)
    nu = w.make_measure(sp, [[0.5, 0.0], [0.5, 1.0]], [0.5, 0.5])
    uneven, even = (w.make_measure(sp, [[0.0, 0.0], [1.0, 0.0]], wts)
                    for wts in ([0.4, 0.6], [0.5, 0.5]))
    assert split_kind(uneven, nu, 2.0) is None and split_kind(even, nu, 2.0) is None
    widths = counted_lp_solves(monkeypatch)
    _, cost = w.optimal_coupling(uneven, nu, 2.0)
    assert widths == [4] and cost == pytest.approx(0.75, rel=1e-12)
    plan, cost = w.optimal_coupling(even, nu, 2.0)
    assert widths == [4] and cost == pytest.approx(0.75, rel=1e-12)
    assert np.array_equal(np.sort(plan.weights, axis=1), [[0.0, 0.5], [0.0, 0.5]])
    assert np.array_equal(plan.weights.sum(axis=0), [0.5, 0.5])


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_partition_that_is_not_closed_goes_to_the_lp(p, monkeypatch):
    # 0.35 apart, each cluster is still its own component and balanced,
    # but its row 0.1 is nearer (0.15) to the other cluster's column -0.1
    # than to its own (0.2): not closed.  1 apart, it is closed.
    sp = w.euclidean(2)
    near, far = clustered_pair(sp, [PAIR] * 2, [0.0, 0.35]), clustered_pair(sp, [PAIR] * 2, [0.0, 1.0])
    assert split_kind(*near, p) is None and split_kind(*far, p) == "split"
    widths = counted_lp_solves(monkeypatch)
    assert_matches_full_lp([near, far], p)
    assert widths == [16 + 4 + 4] * 2  # one LP per call: the near pair whole


def spy(monkeypatch, names):
    """Record every call of the transport functions `names`, passing it
    through; returns the list of their names in call order."""
    calls = []
    for name in names:
        original = getattr(w.transport, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(w.transport, name, recording)
    return calls


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_line_pairs_get_monotone_plans(p, monkeypatch):
    # off the line these pairs split into blocks of unequal weights; on the
    # real line each whole pair gets its monotone plan, with no cost
    # matrix, nearest-neighbour split, assignment or LP
    sp = w.euclidean(1)
    pairs = [clustered_pair(sp, [PAIR, ONE_ROW, ONE_COL], [0.2, 0.8, 1.4]),
             clustered_pair(sp, [PAIR] * 2, [0.0, 1.0])]
    assert [split_kind(*pair, p) for pair in pairs] == ["split", "split"]
    with monkeypatch.context() as mp:
        calls = spy(mp, ["_cost_matrix", "_nearest_split", "_assigned", "_highs_solve"])
        w.wasserstein_many(pairs, p)
        w.transport._optimal_couplings(pairs, p)
    assert calls == []
    assert_matches_full_lp(pairs, p)


def test_imbalance_above_rounding_goes_to_the_lp(monkeypatch):
    # the atoms match one to one, but the weights differ by 5e-12: the
    # nearest plan would miss its marginals by far more than rounding.  On a
    # line of R^2, since on the real line the pair gets its monotone plan
    sp = w.euclidean(1)
    mu = on_plane(w.make_measure(sp, [[0.0], [1.0]], [0.5 - 5e-12, 0.5 + 5e-12]))
    nu = on_plane(w.make_measure(sp, [[0.0], [1.0]], [0.5, 0.5]))
    assert split_kind(mu, nu, 2.0) is None
    widths = counted_lp_solves(monkeypatch)
    plan, _ = w.optimal_coupling(mu, nu, 2.0)
    assert widths == [4] and max(plan.marginal_errors()) <= w.transport.MARGINAL_TOL


def test_oscillating_tents_level_sums_solve_no_lp(monkeypatch):
    spec = w.oscillating_tents(8, 2.0, 0.8)
    curve = w.make_curve(spec)
    widths = counted_lp_solves(monkeypatch)
    sums = w.limsup_variation_dyadic(curve, 1.0 / 0.8, range(1, 9),
                                     dist=lambda a, b: w.wasserstein_distance(a, b, 2.0))
    assert widths == []
    for m, value in zip(range(1, 9), sums):
        want = w.reference_value(spec, "dyadic_variation", m=m)
        assert float(value) == pytest.approx(want, rel=1e-8)


def test_cylinder_lp_blocks_are_at_most_one_circle(monkeypatch):
    # cylinder_family(3): circles of 2, 4, 8 and 16 particles of equal
    # weight each; every block the nearest-neighbour split leaves is one
    # circle's, square and of equal weights, so it is an assignment of at
    # most 16 x 16 and no LP runs
    spec = w.cylinder_family(3, 2.0, 0.75)
    shapes = []
    assigned = w.transport._assigned

    def recording(W, at, block):
        done = assigned(W, at, block)
        shapes.append((block[0].shape, done))
        return done

    widths = counted_lp_solves(monkeypatch)
    monkeypatch.setattr(w.transport, "_assigned", recording)
    report = w.curve_besov_norm(w.make_curve(spec), 0.75, 2.0, 8)
    assert widths == [] and shapes and all(done for _, done in shapes)
    assert {shape for shape, _ in shapes} == {(2, 2), (4, 4), (8, 8), (16, 16)}
    assert report.value == pytest.approx(w.reference_value(spec, "curve_besov_power"), rel=1e-8)


# ---------------------------------------------------------------------------
# equal-weight square blocks (`_assigned`) against brute force and the LP


def lattice(space):
    """64 points of a lattice of step 1/2 (of arc P/64 on the circle, P/8
    on the cylinder), whose pair distances repeat, so many plans tie."""
    axes = {"euclidean": [0.5 * np.arange(64 if space.dim == 1 else 8 if space.dim == 2 else 4)],
            "circle": [space.perimeter * np.arange(64) / 64],
            "cylinder": [space.perimeter * np.arange(8) / 8, 0.5 * np.arange(8)]}[space.kind]
    grids = np.meshgrid(*(axes * space.dim if space.kind == "euclidean" else axes), indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def uniform_pair(rng, space, n, kind):
    """Two measures of n atoms of weight 1/n: at random ('random'), at
    distinct lattice points ('ties'), or 'near': nu's atoms are mu's in
    another order, each coordinate moved by 1e-8, and mu's second atom is
    its first moved by 1e-8."""
    if kind == "ties":
        points = lattice(space)
        atoms = [points[rng.choice(len(points), n, replace=False)] for _ in range(2)]
    elif kind == "near":
        x = random_points(rng, space, n)
        x[1] = x[0] + 1e-8
        atoms = [x, x[rng.permutation(n)] + 1e-8 * rng.choice([-1.0, 1.0], x.shape)]
    else:
        atoms = [random_points(rng, space, n) for _ in range(2)]
    mu, nu = (w.make_measure(space, x, np.full(n, 1.0 / n)) for x in atoms)
    assert mu.size == nu.size == n
    return mu, nu


def assigned_plan(mu, nu, p):
    """The block (cost matrix, weights) of the whole pair and its plan from
    `_assigned`, which must take it."""
    block = (w.transport._cost_matrix(mu, nu, p), mu.weights, nu.weights)
    W = np.zeros(block[0].shape)
    assert w.transport._assigned(W, np.s_[:, :], block)
    return block, W


def assert_scaled_permutation(W, weight):
    # one entry per row and per column, each the weight itself
    rows, cols = np.nonzero(W)
    assert np.array_equal(rows, np.arange(len(W))) and np.array_equal(np.sort(cols), rows)
    assert np.all(W[rows, cols] == weight)


KINDS = ["random", "ties", "near"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_assignment_matches_brute_force_permutations(space, kind):
    rng = np.random.default_rng(141)
    for n in range(2, 8):
        for p in (1.0, 2.0, 3.0):
            mu, nu = uniform_pair(rng, space, n, kind)
            (D, a, _), W = assigned_plan(mu, nu, p)
            assert_scaled_permutation(W, a[0])
            best = permutation_oracle(mu, nu, p)
            assert np.dot(W.ravel(), D.ravel()) == pytest.approx(best, rel=1e-15, abs=0.0)
            _, cost = w.optimal_coupling(mu, nu, p)
            assert cost == pytest.approx(best, rel=1e-15, abs=0.0)


def assert_no_cheaper_cycle(D, W):
    """Cycle-cancelling optimality: an assignment sigma is optimal iff no
    cycle of rows i_1 -> i_2 -> ... -> i_1, each taking the next one's
    column, lowers its cost, i.e. the graph with edges i -> k of length
    D[i, sigma(k)] - D[i, sigma(i)] has no negative cycle.  Floyd-Warshall
    finds one as a negative diagonal entry; the slack is the rounding of
    path sums of at most n edges."""
    sigma = W.argmax(axis=1)
    dist = D[:, sigma] - D[np.arange(len(D)), sigma][:, None]
    for k in range(len(D)):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    assert dist.diagonal().min() >= -1e-12 * D.max()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_assignment_matches_the_lp(space, kind):
    rng = np.random.default_rng(142)
    for n in (8, 12, 20, 40):
        for p in (1.0, 2.0, 3.0):
            mu, nu = uniform_pair(rng, space, n, kind)
            (D, a, b), W = assigned_plan(mu, nu, p)
            assert_scaled_permutation(W, a[0])
            assert_no_cheaper_cycle(D, W)
            value = np.dot(W.ravel(), D.ravel())
            want = np.dot(w.transport._transport_lp([(D, a, b)]), D.ravel())
            if kind != "near":
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
            else:
                # atoms 1e-8 apart: the LP can stop at a vertex whose
                # reduced costs are within HiGHS's dual tolerance of 0,
                # ~1e-8 above the optimum the cycle check certifies
                assert value <= want * (1 + 1e-12) and want - value <= LP_SLACK * max(1.0, value)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_rectangular_and_unequal_blocks_reach_the_lp(space, monkeypatch):
    # whole pairs that `_nearest_split` does not partition: square ones
    # with equal weights are assignments, all others go to the LP, except
    # on the real line, where every one gets its monotone plan
    rng = np.random.default_rng(143)
    even, odd = [], []
    while len(even) < 6 or len(odd) < 12:
        n = int(rng.integers(2, 8))
        mu, nu = uniform_pair(rng, space, n, "random")
        shapes = [(mu, nu), (mu, random_measure(rng, space, n)),
                  (random_measure(rng, space, n), nu),
                  (mu, w.make_measure(space, random_points(rng, space, n + 1),
                                      np.full(n + 1, 1.0 / (n + 1))))]
        for k, pair in enumerate(shapes):
            if split_kind(*pair, 2.0) is None:
                (odd if k else even).append(pair)
    widths = counted_lp_solves(monkeypatch)
    w.transport._optimal_couplings(even, 2.0)
    assert widths == []
    w.transport._optimal_couplings(odd, 2.0)
    if w.transport._on_line(space):
        assert widths == []
    else:
        assert sum(widths) == sum(mu.size * nu.size for mu, nu in odd)
    monkeypatch.undo()
    assert_matches_full_lp(even + odd, 2.0)


# ---------------------------------------------------------------------------
# _highs_solve, the direct HiGHS call, against scipy's linprog


def linprog_plan(mu, nu, p, presolve=False):
    """The transport plan scipy's `linprog` finds on a dense constraint
    matrix built here: all row sums of the plan, then all column sums but
    the last.  Presolve is off by default, as in the adapter; on is
    HiGHS's default."""
    from scipy.optimize import linprog

    D = distance_matrix(mu.space, mu.atoms, nu.atoms) ** p
    n, m = D.shape
    A = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))[:-1]])
    res = linprog(
        D.reshape(-1), A_eq=A, b_eq=np.concatenate([mu.weights, nu.weights[:-1]]),
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": w.transport.MARGINAL_TOL,
                 "presolve": presolve},
    )
    assert res.success
    x = res.x
    x[x < 0] = 0.0
    return x.reshape(n, m)


def highs_probes(space):
    rng = np.random.default_rng(113)
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(8):
            yield (random_measure(rng, space, rng.integers(2, 8)),
                   random_measure(rng, space, rng.integers(2, 8)), p)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_highs_solve_plans_match_linprog(space):
    # on the real line the plans are monotone, not an LP's: the same cost
    for mu, nu, p in highs_probes(space):
        coupling, _ = w.optimal_coupling(mu, nu, p)
        want = linprog_plan(mu, nu, p)
        if w.transport._on_line(space):
            cost = coupling.cost(p)
            assert cost == pytest.approx(Coupling(mu, nu, want).cost(p), rel=1e-12)
            assert cost == pytest.approx(monotone_oracle(mu, nu, p), rel=1e-12)
        else:
            assert np.array_equal(coupling.weights, want)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_highs_solve_values_match_presolving_linprog(space):
    # `linprog` with presolve on, HiGHS's default, is an independent oracle
    # of the optimal value; the optimal vertex may differ on ties
    for mu, nu, p in highs_probes(space):
        coupling, _ = w.optimal_coupling(mu, nu, p)
        want = Coupling(mu, nu, linprog_plan(mu, nu, p, presolve=True)).cost(p)
        assert abs(coupling.cost(p) - want) <= 1e-12 * want
        assert max(coupling.marginal_errors()) <= w.transport.MARGINAL_TOL


def test_presolve_leaves_values_and_verdicts(monkeypatch):
    # the adapter solves with presolve off; HiGHS's default, presolve on,
    # gives the same W_p values, compatibility verdicts and gaps
    rng = np.random.default_rng(116)
    pairs, collections = [], []
    for space in ALL_SPACES:
        pairs += [(random_measure(rng, space, rng.integers(2, 8)),
                   random_measure(rng, space, rng.integers(2, 8))) for _ in range(12)]
        collections += [[random_measure(rng, space, rng.integers(1, 4)) for _ in range(5)]
                        for _ in range(4)]
    curve = w.make_curve(w.circle_splitting(1))

    def solve_all():
        values = {p: w.wasserstein_many(pairs, p) for p in (1.0, 1.5, 2.0, 3.0)}
        reports = [w.compatibility_multicoupling(ms, 2.0, pairs=w.dyadic_pattern_pairs(2))
                   for ms in collections]
        with pytest.raises(w.IncompatibleCurveError) as exc_info:
            w.construct_lift_B(curve, 3, 2.0)
        return values, reports + [exc_info.value.report]

    off = solve_all()
    monkeypatch.setitem(w.transport._HIGHS_OPTIONS, "presolve", "on")
    # options are set when this thread's solver is made: drop it, so that
    # the next one is made with presolve on
    monkeypatch.setattr(w.transport._thread, "highs", None, raising=False)
    on = solve_all()
    assert w.transport._solver().getOptionValue("presolve")[1] == "on"
    for p, values in off[0].items():
        assert np.all(np.abs(values - on[0][p]) <= 1e-12 * on[0][p])
    for a, b in zip(off[1], on[1]):
        assert a.feasible == b.feasible
        scale = max(1.0, sum(b.pair_costs.values()))
        assert abs(a.max_pair_gap - b.max_pair_gap) <= 1e-12 * scale
    assert {r.feasible for r in off[1]} == {True, False}


def test_highs_solve_compatibility_reports_match_linprog(monkeypatch):
    rng = np.random.default_rng(114)
    collections = [[random_measure(rng, space, 3) for _ in range(3)] for space in ALL_SPACES]
    curve = w.make_curve(w.circle_splitting(0))
    collections.append([curve(t) for t in (0.0, 0.25, 0.5, 0.75)])
    direct = [w.compatibility_multicoupling(ms, 2.0) for ms in collections]
    monkeypatch.setattr(w.transport, "_highs", None)  # `linprog` solves
    for ms, want in zip(collections, direct):
        got = w.compatibility_multicoupling(ms, 2.0)
        assert (got.feasible, got.max_pair_gap, got.product_size, got.pair_costs,
                got.marginal_residual, got.pair_residual) == (
            want.feasible, want.max_pair_gap, want.product_size, want.pair_costs,
            want.marginal_residual, want.pair_residual)
        if want.feasible:
            assert np.array_equal(got.certificate.indices, want.certificate.indices)
            assert np.array_equal(got.certificate.weights, want.certificate.weights)
    assert {r.feasible for r in direct} == {True, False}


def test_highs_solve_falls_back_to_linprog(monkeypatch):
    # without scipy's HiGHS bindings, `linprog` solves the same LP
    rng = np.random.default_rng(115)
    sp = w.circle(2.0)
    pairs = [(random_measure(rng, sp, 4), random_measure(rng, sp, 5)) for _ in range(3)]
    direct = w.wasserstein_many(pairs, 2.0)
    calls = []
    solve = w.transport.linprog

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(w.transport, "_highs", None)
    monkeypatch.setattr(w.transport, "linprog", counting)
    assert np.array_equal(w.wasserstein_many(pairs, 2.0), direct)
    assert calls == [60]


def two_by_two_lp(first_column_sum):
    """The 2 x 2 transport LP with row sums 0.5, 0.5: plan entries (0, 0),
    (0, 1), (1, 0), (1, 1); rows 0 and 1 are the row sums, row 2 the first
    column sum, infeasible above 1."""
    return (np.array([0.0, 1.0, 1.0, 0.0]), np.array([0, 2, 3, 5, 6]),
            np.array([0, 2, 0, 1, 2, 1]), np.array([0.5, 0.5, first_column_sum]))


@pytest.mark.parametrize("bindings", [True, False], ids=["highs", "linprog"])
def test_highs_solve_infeasible_raises(monkeypatch, bindings):
    if bindings and w.transport._highs is None:
        pytest.skip("scipy has no HiGHS bindings")
    if not bindings:
        monkeypatch.setattr(w.transport, "_highs", None)
    x, objective, _ = w.transport._highs_solve(*two_by_two_lp(0.3))
    assert np.allclose(x, [0.3, 0.2, 0.0, 0.5]) and objective == pytest.approx(0.2)
    with pytest.raises(RuntimeError, match="(?i)infeasible"):
        w.transport._highs_solve(*two_by_two_lp(2.0))


@pytest.mark.parametrize("bindings", [True, False], ids=["highs", "linprog"])
def test_highs_solve_refuses_what_int32_cannot_index(monkeypatch, bindings):
    # HiGHS takes 32-bit indices; the sizes are faked (a two-entry indptr, a
    # zero-stride cost vector), so nothing large is allocated
    if not bindings:
        monkeypatch.setattr(w.transport, "_highs", None)
    one, rows = np.ones(1), np.zeros(1, dtype=np.int64)
    with pytest.raises(w.BudgetExceededError, match="entries 2147483648 exceeds budget 2147483647"):
        w.transport._highs_solve(one, np.array([0, 2**31]), rows, one)
    wide = np.broadcast_to(1.0, 2**31)
    with pytest.raises(w.BudgetExceededError, match="entries 2147483648 exceeds"):
        w.transport._highs_solve(wide, np.array([0, 1]), rows, one)
    x, objective, _ = w.transport._highs_solve(one, np.array([0, 1]), rows, one)
    assert (x.tolist(), objective) == ([1.0], 1.0)


# ---------------------------------------------------------------------------
# the reused solver: one per thread, its model cleared after every LP

needs_bindings = pytest.mark.skipif(w.transport._highs is None,
                                    reason="scipy has no HiGHS bindings")


@functools.lru_cache(maxsize=None)
def probes():
    """The LPs (c, indptr, indices, b, values) `_highs_solve` gets for
    `highs_probes` on every space, one pair at a time and batched, and for
    product-support and clique-table compatibility LPs (none on the real
    line); each LP's kind, "transport", "tree" or "master" (a round of the
    product-support LP's column generation); and the number of
    product-support LPs (`_product_lp` calls).  The real line's probes are
    taken on a line of R^2, since the real line reaches no LP."""
    lps, kinds = [], []
    running = []  # one entry per `_product_lp` call, True while it runs
    solve, product_lp = w.transport._highs_solve, w.transport._product_lp

    def capture(c, indptr, indices, b, values=None):
        lps.append((c, indptr, indices, b, values))
        master = running and running[-1]
        kinds.append("master" if master else "transport" if values is None else "tree")
        return solve(c, indptr, indices, b, values)

    def product(*args):
        running.append(True)
        try:
            return product_lp(*args)
        finally:
            running[-1] = False

    rng = np.random.default_rng(118)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(w.transport, "_highs_solve", capture)
        mp.setattr(w.transport, "_product_lp", product)
        for space in ALL_SPACES:
            cases = list(highs_probes(space))
            if w.transport._on_line(space):
                cases = [(on_plane(mu), on_plane(nu), p) for mu, nu, p in cases]
            for mu, nu, p in cases:
                w.optimal_coupling(mu, nu, p)
            w.wasserstein_many([(mu, nu) for mu, nu, _ in cases], 2.0)
            w.compatibility_multicoupling([random_measure(rng, space, 3) for _ in range(3)], 2.0)
            w.compatibility_multicoupling([random_measure(rng, space, 3) for _ in range(5)], 2.0,
                                          pairs=w.dyadic_pattern_pairs(2))
    return lps, kinds, len(running)


def probe_lps():
    return probes()[0]


@pytest.mark.parametrize("bindings", [True, False], ids=["highs", "linprog"])
def test_highs_solve_duals_certify_the_solution(monkeypatch, bindings):
    # both paths return row duals y in one sign convention: the reduced
    # costs c - A^T y are >= -DUAL_TOL, and 0 wherever x is not (up to
    # round-off).  Duals of a degenerate LP are not unique, so they are not
    # compared entry by entry between the paths
    from scipy.sparse import csc_array

    if bindings and w.transport._highs is None:
        pytest.skip("scipy has no HiGHS bindings")
    if not bindings:
        monkeypatch.setattr(w.transport, "_highs", None)
    for c, indptr, indices, b, values in probe_lps():
        x, objective, y = w.transport._highs_solve(c, indptr, indices, b, values)
        entries = np.ones(indices.size) if values is None else values
        reduced = c - csc_array((entries, indices, indptr), shape=(b.size, c.size)).T @ y
        assert y.shape == b.shape
        assert reduced.min() >= -w.transport.DUAL_TOL
        assert abs(reduced @ x) <= 1e-9
        assert abs(b @ y - objective) <= 1e-9 * max(1.0, abs(objective))


def fresh_solve(*lp):
    """`_highs_solve` on a solver made for this call."""
    w.transport._thread.highs = None
    return w.transport._highs_solve(*lp)


def assert_same_solution(got, want):
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(got[2], want[2])  # the row duals


@needs_bindings
def test_reused_solver_matches_a_fresh_one():
    lps, kinds, products = probes()
    # 4 clique-table and 4 product-support compatibility LPs, the latter
    # solved in column-generation rounds: the real line's two are decided
    # without an LP
    assert len(lps) > 150 and kinds.count("tree") == 4 and products == 4
    assert kinds.count("master") >= products
    assert max(lp[0].size for lp in lps) <= w.transport._LP_COLUMNS  # none drops the solver
    w.transport._highs_solve(*lps[0])
    solver = w.transport._thread.highs
    reused = [w.transport._highs_solve(*lp) for lp in lps]
    assert w.transport._thread.highs is solver
    for lp, got in zip(lps, reused):
        assert_same_solution(got, fresh_solve(*lp))


@needs_bindings
def test_solve_after_an_infeasible_one_matches_a_fresh_solve():
    lps = [two_by_two_lp(0.3)] + probe_lps()[:40]
    want = [fresh_solve(*lp) for lp in lps]
    solver = w.transport._thread.highs
    for lp, expected in zip(lps, want):
        with pytest.raises(RuntimeError, match="(?i)infeasible"):
            w.transport._highs_solve(*two_by_two_lp(2.0))
        assert_same_solution(w.transport._highs_solve(*lp), expected)
    assert w.transport._thread.highs is solver


@needs_bindings
def test_threads_solve_with_their_own_solvers():
    # four threads, more than the cores, solve the probe list in different
    # orders, three times each, switching threads often
    lps = probe_lps()
    want = [fresh_solve(*lp) for lp in lps]
    ks = list(range(len(lps)))
    orders = [ks, ks[::-1], ks[::2] + ks[1::2], ks[1::2] + ks[::2]]
    results, solvers = [[] for _ in orders], [None] * len(orders)
    barrier = threading.Barrier(len(orders))

    def work(t):
        barrier.wait()
        for _ in range(3):
            results[t] += [(k, w.transport._highs_solve(*lps[k])) for k in orders[t]]
        solvers[t] = w.transport._thread.highs

    threads = [threading.Thread(target=work, args=(t,)) for t in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert None not in solvers and len({id(s) for s in solvers}) == len(orders)
    assert w.transport._thread.highs not in solvers
    for got in results:
        assert len(got) == 3 * len(lps)
        for k, solution in got:
            assert_same_solution(solution, want[k])


@needs_bindings
def test_no_solver_is_kept_after_an_lp_wider_than_the_batch_cap():
    # a reused solver keeps the capacity of its buffers, so one that has
    # solved a wide LP is dropped
    rng = np.random.default_rng(119)
    sp = w.euclidean(2)
    cap = w.transport._LP_COLUMNS
    for n, m, kept in ((3, 4, True), (32, cap // 32, True), (41, 50, False), (5, 6, True)):
        mu, nu = random_measure(rng, sp, n), random_measure(rng, sp, m)
        assert mu.size * nu.size == n * m
        coupling, _ = w.optimal_coupling(mu, nu, 2.0)
        assert (getattr(w.transport._thread, "highs", None) is not None) == kept, (n, m)
        assert max(coupling.marginal_errors()) <= w.transport.MARGINAL_TOL


# ---------------------------------------------------------------------------
# gluing


def test_glue_chain_preserves_pair_marginals():
    rng = np.random.default_rng(105)
    sp = w.euclidean(2)
    ms = [random_measure(rng, sp, k) for k in (3, 4, 2, 3)]
    chain = [w.optimal_coupling(a, b, 2.0)[0] for a, b in zip(ms, ms[1:])]
    mc = w.glue_chain(chain)
    assert mc.marginal_error() <= 1e-12
    for k, c in enumerate(chain):
        W = mc.pair_coupling(k, k + 1).weights
        assert np.abs(W - c.weights).max() <= 1e-12
        assert mc.pair_cost(k, k + 1, 2.0) == pytest.approx(c.cost(2.0), abs=1e-12)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_glue_chain_matches_loop_glue(space):
    # the vectorized glue reproduces the tuple-by-tuple one bit for bit
    rng = np.random.default_rng(107)
    for p in (1.0, 2.0):
        for _ in range(6):
            ms = [random_measure(rng, space, rng.integers(1, 6)) for _ in range(5)]
            chain = [w.optimal_coupling(a, b, p)[0] for a, b in zip(ms, ms[1:])]
            # a non-vertex coupling branches more
            chain[1] = w.transport.Coupling(
                ms[1], ms[2], np.outer(ms[1].weights, ms[2].weights))
            mc = w.glue_chain(chain)
            idx, wts = loop_glue_chain(chain)
            assert mc.indices.dtype == idx.dtype
            assert np.array_equal(mc.indices, idx) and np.array_equal(mc.weights, wts)


def test_glue_chain_rejects_mismatched_chain():
    sp = w.euclidean(1)
    a = w.dirac(sp, [0.0])
    b = w.dirac(sp, [1.0])
    c = w.dirac(sp, [2.0])
    c1 = w.optimal_coupling(a, b, 2.0)[0]
    c2 = w.optimal_coupling(c, a, 2.0)[0]  # shared marginal differs
    with pytest.raises(w.ValidationError):
        w.glue_chain([c1, c2])


# ---------------------------------------------------------------------------
# compatibility LP


def test_dyadic_pattern_pairs():
    assert w.dyadic_pattern_pairs(1) == [(0, 1), (0, 2), (1, 2)]
    pairs = w.dyadic_pattern_pairs(2)
    assert pairs == [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)]


def test_compatibility_monotone_line_feasible():
    # monotone real-line marginals are always compatible
    sp = w.euclidean(1)
    ms = [
        w.make_measure(sp, [[0.0 + s], [2.0 + s]], [0.5, 0.5])
        for s in (0.0, 0.3, 0.7, 1.0)
    ]
    report = w.compatibility_multicoupling(ms, 2.0)
    assert report.feasible
    assert report.max_pair_gap <= 1e-9
    assert report.certificate.marginal_error() <= 1e-10
    for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        wpp = w.wasserstein_power(ms[i], ms[j], 2.0)
        assert report.certificate.pair_cost(i, j, 2.0) - wpp <= 1e-9


def test_compatibility_reports_certificate_residuals():
    sp = w.euclidean(1)
    ms = [w.make_measure(sp, [[s], [1.0 + 2 * s], [3.0]], [0.2, 0.5, 0.3]) for s in (0.0, 0.4, 0.9)]
    report = w.compatibility_multicoupling(ms, 2.0)
    assert report.feasible
    assert report.marginal_residual == report.certificate.marginal_error()
    assert report.marginal_residual <= 1e-10
    excess = [report.certificate.pair_cost(i, j, 2.0) - report.pair_costs[(i, j)]
              for (i, j) in [(0, 1), (0, 2), (1, 2)]]
    assert report.pair_residual == max(excess)
    assert abs(report.pair_residual) <= 1e-9


def test_compatibility_nearly_equal_pair_stays_feasible():
    # two measures on the same atoms whose weights differ by 5e-8: any two
    # measures are compatible, and the certificate's marginals must pass the
    # FEASIBILITY_TOL re-check, so the LP is solved to MARGINAL_TOL
    rng = np.random.default_rng(112)
    sp = w.euclidean(2)
    for _ in range(5):
        atoms = rng.normal(size=(4, 2))
        wts = rng.dirichlet(np.ones(4))
        mu = w.make_measure(sp, atoms, wts)
        nu = w.make_measure(sp, atoms.copy(), wts + np.array([5e-8, -5e-8, 0.0, 0.0]))
        report = w.compatibility_multicoupling([mu, nu], 2.0)
        assert report.feasible
        assert report.marginal_residual <= w.transport.MARGINAL_TOL
        assert w.is_compatible([mu, nu], 2.0)


def test_compatibility_rejects_certificate_that_misses_marginals(monkeypatch):
    # the product-support LP's solution is scaled by 1 + 1e-6 on its way
    # out, so its gap stays within tolerance but its 1-D marginals do not
    solve = w.transport._product_lp

    def off_by_scale(*args):
        x, fun = solve(*args)
        return x * (1.0 + 1e-6), fun

    monkeypatch.setattr(w.transport, "_product_lp", off_by_scale)
    sp = w.euclidean(2)
    ms = [w.make_measure(sp, [[0.0 + s, 0.0], [2.0 + s, 0.0]], [0.5, 0.5]) for s in (0.0, 0.5, 1.0)]
    report = w.compatibility_multicoupling(ms, 2.0)
    assert not report.feasible
    assert report.certificate is None
    assert report.max_pair_gap <= 1e-9
    assert report.marginal_residual == pytest.approx(0.5e-6, rel=1e-3)


def test_marginal_error_matches_per_marginal_loop(rng):
    # lift A chains and compatibility certificates on R^2, the circle and R,
    # each also with its weights scaled so that every marginal misses
    mcs = [w.construct_lift_A(w.make_curve(spec), n, 2.0).multicoupling
           for spec, n in ((w.two_tent(), 6), (w.circle_splitting(1), 4), (w.jump(), 3))]
    for sp in (w.euclidean(2), w.circle(2.0), w.euclidean(1)):
        for N in (2, 3, 5):
            ms = [random_measure(rng, sp, 3) for _ in range(N)]
            idx, wts, _, _ = w.transport._certificate(ms, w.transport.all_pairs(N), 2.0)
            mcs.append(w.transport.MultiCoupling(tuple(ms), idx, wts))
    for mc in mcs:
        scaled = w.transport.MultiCoupling(mc.marginals, mc.indices, mc.weights * 1.001)
        for m in (mc, scaled):
            assert m.marginal_error() == loop_marginal_error(m)
        assert scaled.marginal_error() > 1e-5


def test_certify_bounds_each_pair_by_its_own_optimum():
    # three point masses, so the one candidate is the product coupling.  Its
    # (0, 1) excess 5e-8 is above tol * max(1, W_2^2) = 1e-8, while its total
    # and largest excess are far within tol * max(1, sum of the optima),
    # about 2e-6: the per-pair bound refuses it, a bound on the largest
    # excess against the total scale would not
    sp = w.euclidean(2)
    ms = [w.dirac(sp, x) for x in ([0.0, 0.0], [0.1, 0.0], [10.0, 0.0])]
    candidate = (np.zeros((1, 3), dtype=int), np.ones(1), None, 0)
    costs = {(i, j): w.wasserstein_power(ms[i], ms[j], 2.0) for (i, j) in w.transport.all_pairs(3)}
    tol = 1e-8
    for excess, feasible in ((5e-8, False), (5e-9, True)):
        pair_opt = dict(costs)
        pair_opt[(0, 1)] -= excess
        report = w.transport._certify(ms, 2.0, pair_opt, tol, (), candidate)
        assert report.feasible is feasible
        assert (report.certificate is not None) is feasible
        assert report.pair_residual == pytest.approx(excess, rel=1e-6)
        scale = tol * max(1.0, sum(pair_opt.values()))
        assert report.max_pair_gap <= scale and report.pair_residual <= scale
        assert report.marginal_residual == 0.0


def test_compatibility_incompatible_triple():
    # antipodal atom pairs at angles 0, 61, 122 degrees: the pairwise optimal
    # matchings are rotations +61, +61, -58 whose composition is inconsistent
    import math

    sp = w.euclidean(2)

    def pair(deg):
        th = math.radians(deg)
        a = [math.cos(th), math.sin(th)]
        return w.make_measure(sp, [a, [-a[0], -a[1]]], [0.5, 0.5])

    report = w.compatibility_multicoupling([pair(0), pair(61), pair(122)], 2.0)
    assert not report.feasible
    assert report.max_pair_gap > 1e-6
    assert report.certificate is None


def test_compatibility_circle_splitting_gate():
    curve = w.make_curve(w.circle_splitting(0))
    ms3 = [curve(t) for t in (0.0, 0.25, 0.5)]
    rep3 = w.compatibility_multicoupling(ms3, 2.0)
    assert rep3.feasible

    ms4 = ms3 + [curve(0.75)]
    rep4 = w.compatibility_multicoupling(ms4, 2.0)
    assert not rep4.feasible
    assert rep4.max_pair_gap > 1e-6


def test_budget_enforced(monkeypatch):
    rng = np.random.default_rng(106)
    ms = [on_plane(random_measure(rng, w.euclidean(1), 5)) for _ in range(4)]
    monkeypatch.setenv("WLIFT_BUDGET", "100")
    with pytest.raises(w.BudgetExceededError):
        w.compatibility_multicoupling(ms, 2.0)


@pytest.mark.parametrize("pairs", [[(0, 7)], [(0, -1)], [(1, 1)], w.dyadic_pattern_pairs(2)],
                         ids=["beyond_last", "negative", "self_pair", "pattern_too_long"])
def test_compatibility_rejects_pairs_outside_the_measures(pairs):
    sp = w.euclidean(1)
    ms = [w.make_measure(sp, [[0.0], [float(k)]], [0.5, 0.5]) for k in range(1, 5)]
    with pytest.raises(w.ValidationError, match=r"0 <= i < j < 4"):
        w.compatibility_multicoupling(ms, 2.0, pairs=pairs)


def test_is_compatible_trivial_cases():
    sp = w.euclidean(1)
    assert w.is_compatible([w.dirac(sp, [0.0])], 2.0)
    assert w.is_compatible([], 2.0)


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-1"])
def test_budget_env_must_be_positive_integer(monkeypatch, value):
    from wlift.cli import EXIT_INPUT, main

    monkeypatch.setenv("WLIFT_BUDGET", value)
    with pytest.raises(w.ValidationError):
        w.transport.product_budget()
    argv = ["compat", "--family", "circle_splitting", "--param", "j=0", "--times", "0,0.5"]
    assert main(argv) == EXIT_INPUT


def test_budget_env_sets_budget(monkeypatch):
    monkeypatch.setenv("WLIFT_BUDGET", "7")
    assert w.transport.product_budget() == 7
    monkeypatch.delenv("WLIFT_BUDGET")
    assert w.transport.product_budget() == w.transport.DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# compatibility on the real line: the comonotone certificate, no LP


def line_collections():
    """Collections on the real line, up to the benchmark's seven measures of
    five atoms; uniform weights make breakpoints of different measures
    coincide, so that the quantile grid has zero-width cells."""
    rng = np.random.default_rng(123)
    sp = w.euclidean(1)
    for N, n in ((2, 3), (3, 4), (4, 3), (5, 2), (3, 6)):
        yield [random_measure(rng, sp, rng.integers(1, n + 1)) for _ in range(N)]
    yield [w.make_measure(sp, rng.normal(size=(4, 1)), np.full(4, 0.25)) for _ in range(3)]
    yield [random_measure(rng, sp, 5) for _ in range(7)]


def dense(cert):
    """A certificate as a dense table over the product of the supports."""
    table = np.zeros([mu.size for mu in cert.marginals])
    np.add.at(table, tuple(cert.indices.T), cert.weights)
    return table


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_line_certificate_is_the_product_lp_certificate(p):
    # for p > 1 each pair's optimal plan is unique, so the product-support
    # LP of the same atoms on a line of R^2 has the comonotone coupling as
    # its only optimum
    for ms in line_collections():
        line = w.compatibility_multicoupling(ms, p)
        plane = w.compatibility_multicoupling([on_plane(mu) for mu in ms], p)
        assert line.feasible and plane.feasible
        assert line.lp_columns == 0 and plane.lp_columns == plane.product_size == line.product_size
        assert np.all(line.certificate.weights > 0)
        assert np.abs(dense(line.certificate) - dense(plane.certificate)).max() <= 1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_line_certificate_pair_costs_match_monotone_oracle(p):
    # at p = 1 optimal plans need not be unique; the certificate is still
    # feasible and each of its pair costs is the optimum
    for ms in line_collections():
        report = w.compatibility_multicoupling(ms, p)
        cert = report.certificate
        assert report.feasible and report.max_pair_gap <= 1e-12 * max(1.0, sum(report.pair_costs.values()))
        assert cert.weights.size <= sum(mu.size for mu in ms)
        assert report.marginal_residual == cert.marginal_error() <= 1e-15
        assert sorted(report.pair_costs) == w.transport.all_pairs(len(ms))
        for (i, j), opt in report.pair_costs.items():
            want = monotone_oracle(ms[i], ms[j], p)
            assert opt == pytest.approx(want, rel=1e-12, abs=1e-14)
            assert cert.pair_cost(i, j, p) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_line_compatibility_solves_no_lp(monkeypatch):
    rng = np.random.default_rng(124)
    widths = counted_lp_solves(monkeypatch)
    for ms in line_collections():
        assert w.compatibility_multicoupling(ms, 2.0).feasible
    ms = [random_measure(rng, w.euclidean(1), 3) for _ in range(9)]
    assert w.compatibility_multicoupling(ms, 2.0, pairs=w.dyadic_pattern_pairs(3)).feasible
    assert widths == []


def test_line_certificate_is_rechecked(monkeypatch):
    # the independent coupling in place of the comonotone one of three
    # measures (pairs still get theirs): its marginals hold, but its pair
    # costs exceed the optima, and the gap is their excess
    comonotone = w.transport._comonotone

    def independent(measures):
        if len(measures) == 2:
            return comonotone(measures)
        idx = np.indices([mu.size for mu in measures]).reshape(len(measures), -1).T
        return idx, np.prod([mu.weights[idx[:, i]] for i, mu in enumerate(measures)], axis=0)

    monkeypatch.setattr(w.transport, "_comonotone", independent)
    sp = w.euclidean(1)
    ms = [w.make_measure(sp, [[0.0 + s], [2.0 + s]], [0.5, 0.5]) for s in (0.0, 0.5, 1.0)]
    report = w.compatibility_multicoupling(ms, 2.0)
    assert not report.feasible and report.certificate is None
    assert report.marginal_residual <= 1e-15
    # shifted by d, a pair's independent coupling costs d^2 + 2 against d^2
    assert report.pair_residual == pytest.approx(2.0, rel=1e-12)
    assert report.max_pair_gap == pytest.approx(6.0, rel=1e-12)


def test_line_compatibility_is_not_bounded_by_the_product_support(monkeypatch):
    # 32 measures of two atoms: 2^32 product tuples, more than an LP could
    # index; the certificate has at most 33
    rng = np.random.default_rng(125)
    ms = [random_measure(rng, w.euclidean(1), 2) for _ in range(32)]
    report = w.compatibility_multicoupling(ms, 2.0)
    assert report.feasible and report.lp_columns == 0
    assert report.product_size == 2**32
    assert report.certificate.weights.size <= 33
    assert report.marginal_residual <= 1e-15
    monkeypatch.setenv("WLIFT_BUDGET", "32")
    with pytest.raises(w.BudgetExceededError, match="certificate tuples 33 exceeds budget 32"):
        w.compatibility_multicoupling(ms, 2.0)


def test_product_support_too_large_to_print_is_charged_as_inf():
    """40^3000 product tuples: more than 4300 digits, reported as inf."""
    rng = np.random.default_rng(126)
    ms = [random_measure(rng, w.circle(), 40) for _ in range(3000)]
    start = time.perf_counter()
    with pytest.raises(w.BudgetExceededError, match="product support size inf exceeds budget"):
        w.compatibility_multicoupling(ms, 2.0, pairs=[(0, 1), (1, 2), (0, 2)])
    assert time.perf_counter() - start < 1.0


def test_charge_is_the_one_size_limit_check(monkeypatch):
    charge = w.transport._charge
    charge(7, "things", 7)
    with pytest.raises(w.BudgetExceededError, match="^things 8 exceeds budget 7$"):
        charge(8, "things", 7)
    monkeypatch.setenv("WLIFT_BUDGET", "5")
    charge(5, "things")
    with pytest.raises(w.BudgetExceededError, match="^things 6 exceeds budget 5$") as info:
        charge(6, "things")
    assert (info.value.size, info.value.budget, info.value.what) == (6, 5, "things")
    with pytest.raises(w.BudgetExceededError, match=f"^things {2**1024} exceeds budget 5$"):
        charge(2**1024, "things")
    for count in (2**1024 + 1, 10**5000, math.inf):
        with pytest.raises(w.BudgetExceededError, match="^things inf exceeds budget 5$"):
            charge(count, "things")


# ---------------------------------------------------------------------------
# clique-table LP on the dyadic pattern


def one_clique(N, pairs):
    """`_junction_tree` without the dyadic case: the product-support LP."""
    return [(tuple(range(N)), -1, ())]


def pattern_collections():
    """(n, measures at the 2^n + 1 level-n times): independent random
    measures (mostly incompatible) and translates of one measure, in R^2 and
    on the circle; the product support stays <= 3^9."""
    rng = np.random.default_rng(120)
    for space in (w.euclidean(2), w.circle(2.0)):
        for n, max_atoms, draws in ((2, 4, 4), (3, 3, 2)):
            N = 2**n + 1
            for _ in range(draws):
                yield n, [random_measure(rng, space, rng.integers(1, max_atoms + 1))
                          for _ in range(N)]
            base = random_measure(rng, space, max_atoms)
            step = rng.normal(scale=0.05, size=space.dim)
            yield n, [w.make_measure(space, base.atoms + t * step, base.weights)
                      for t in range(N)]


def assert_certificate_passes(report, pairs, p):
    cert = report.certificate
    assert cert.marginal_error() <= w.transport.FEASIBILITY_TOL
    for (i, j) in pairs:
        mu, nu = cert.marginals[i], cert.marginals[j]
        assert cert.pair_cost(i, j, p) - w.wasserstein_power(mu, nu, p) <= 1e-8


def test_tree_lp_matches_product_lp(monkeypatch):
    cases = list(pattern_collections())
    tree = [w.compatibility_multicoupling(ms, 2.0, pairs=w.dyadic_pattern_pairs(n))
            for n, ms in cases]
    monkeypatch.setattr(w.transport, "_junction_tree", one_clique)
    for (n, ms), got in zip(cases, tree):
        pairs = w.dyadic_pattern_pairs(n)
        want = w.compatibility_multicoupling(ms, 2.0, pairs=pairs)
        assert want.lp_columns == want.product_size == got.product_size <= 3**9
        assert got.lp_columns == sum(ms[a].size * ms[(a + b) // 2].size * ms[b].size
                                     for (a, b) in pairs if b - a >= 2)
        assert got.feasible == want.feasible
        assert abs(got.max_pair_gap - want.max_pair_gap) <= 1e-9
        if got.feasible:
            assert_certificate_passes(got, pairs, 2.0)
    assert {r.feasible for r in tree} == {True, False}


def test_circle_splitting_pattern_gap_matches_product_lp(monkeypatch):
    curve = w.make_curve(w.circle_splitting(1))
    ms = [curve(k / 8) for k in range(9)]
    pairs = w.dyadic_pattern_pairs(3)
    tree = w.compatibility_multicoupling(ms, 2.0, pairs=pairs)
    assert (tree.lp_columns, tree.product_size) == (7 * 4**3, 4**9)
    monkeypatch.setattr(w.transport, "_junction_tree", one_clique)
    product = w.compatibility_multicoupling(ms, 2.0, pairs=pairs)
    assert product.lp_columns == 4**9
    assert not tree.feasible and not product.feasible
    assert tree.max_pair_gap == pytest.approx(0.25, abs=1e-9)
    assert abs(tree.max_pair_gap - product.max_pair_gap) <= 1e-9


def test_all_pairs_lp_is_the_product_support_lp(monkeypatch):
    # all pairs make a complete graph, one clique: the LP is the product
    # support's, solved by column generation; every master column is a
    # product tuple with its cost summed pair by pair and unit entries in
    # its atoms' marginal rows, the first master holds the quantile tuples,
    # and each round's master extends the last one's
    rng = np.random.default_rng(121)
    sp = w.circle(2.0)
    sizes = (4, 5, 6)
    ms = [random_measure(rng, sp, k) for k in sizes]
    seen, rounds = [], []
    solve, product_lp = w.transport._highs_solve, w.transport._product_lp

    def capture(c, indptr, indices, b, values=None):
        seen.append((c, indptr, indices, b, values))
        return solve(c, indptr, indices, b, values)

    def product(*args):
        start = len(seen)
        out = product_lp(*args)
        rounds.extend(seen[start:])
        return out

    monkeypatch.setattr(w.transport, "_highs_solve", capture)
    monkeypatch.setattr(w.transport, "_product_lp", product)
    report = w.compatibility_multicoupling(ms, 2.0)
    assert report.lp_columns == report.product_size == 120
    idx = np.stack(np.meshgrid(*[np.arange(m.size) for m in ms], indexing="ij"),
                   axis=-1).reshape(-1, 3)
    cost = np.zeros(120)
    for (i, j) in w.transport.all_pairs(3):
        cost += w.spaces._distance_arrays(sp, ms[i].atoms[idx[:, i]], ms[j].atoms[idx[:, j]]) ** 2
    quantile, _ = w.transport._quantile_tuples([m.weights for m in ms])
    assert len(rounds) > 2  # this LP takes 4 rounds
    before = None
    for c, indptr, indices, b, values in rounds:
        tuples = indices.reshape(-1, 3) - [0, 4, 9]
        assert values is None and np.array_equal(indptr, np.arange(0, indices.size + 1, 3))
        assert np.all((tuples >= 0) & (tuples < sizes))
        assert np.unique(tuples, axis=0).shape == tuples.shape
        if before is None:
            assert np.array_equal(np.unique(tuples, axis=0), np.unique(quantile, axis=0))
        else:
            assert len(tuples) > len(before) and np.array_equal(tuples[:len(before)], before)
        assert np.array_equal(c, cost[np.ravel_multi_index(tuples.T, sizes)])
        assert np.array_equal(b, np.concatenate([m.weights for m in ms]))
        before = tuples


def product_collections(space):
    """(measures, p) on `space`: N = 2..6 measures of 1-5 atoms, point masses
    among them, p in {1, 2, 3}, independent (mostly incompatible) and
    translates of one measure (compatible)."""
    rng = np.random.default_rng(126)
    for N in range(2, 7):
        for p in (1.0, 2.0, 3.0):
            sizes = rng.integers(1, 6, size=N)
            sizes[rng.integers(N)] = 1
            yield [random_measure(rng, space, k) for k in sizes], p
            yield [random_measure(rng, space, k) for k in rng.integers(2, 6, size=N)], p
            base = random_measure(rng, space, int(rng.integers(2, 6)))
            step = rng.normal(scale=0.05, size=space.dim)
            yield [w.make_measure(space, base.atoms + t * step, base.weights) for t in range(N)], p


def product_cost(ms, p):
    """The all-pairs cost tensor: entry (i_0, ..., i_{N-1}) is the sum of
    d^p over every pair of its atoms."""
    sizes = [mu.size for mu in ms]
    C = np.zeros(sizes)
    for (i, j) in w.transport.all_pairs(len(ms)):
        D = distance_matrix(ms[0].space, ms[i].atoms, ms[j].atoms) ** p
        C += D.reshape([k if v in (i, j) else 1 for v, k in enumerate(sizes)])
    return C


def full_product_lp(ms, p):
    """The objective of the product-support LP over all pairs of `ms`,
    every column built (`_table_lp` on one clique) and solved at once."""
    sizes = [mu.size for mu in ms]
    indptr, indices, values, rows = w.transport._table_lp(sizes, one_clique(len(ms), None))
    b = np.concatenate([mu.weights for mu in ms])
    assert rows == b.size
    return w.transport._highs_solve(product_cost(ms, p).reshape(-1), indptr, indices, b, values)[1]


@pytest.mark.parametrize("space", [w.euclidean(2), w.circle(2.0), w.cylinder(2.0)],
                         ids=lambda s: f"{s.kind}{s.dim}")
def test_product_lp_matches_the_full_lp(space):
    # column generation against the LP with every product column
    verdicts = set()
    for ms, p in product_collections(space):
        report = w.compatibility_multicoupling(ms, p)
        total = sum(report.pair_costs.values())
        gap = full_product_lp(ms, p) - total
        assert report.lp_columns == report.product_size == np.prod([mu.size for mu in ms])
        assert report.feasible == (gap <= w.transport.FEASIBILITY_TOL * max(1.0, total))
        assert abs(report.max_pair_gap - max(gap, 0.0)) <= 1e-9
        if report.feasible:
            assert_certificate_passes(report, w.transport.all_pairs(len(ms)), p)
        verdicts.add(report.feasible)
    assert verdicts == {True, False}


def test_product_lp_ends_when_duals_price_master_columns_negative(monkeypatch):
    # every row dual raised by 1 prices every tuple, those of the master
    # too, N = 4 below its reduced cost; the rounds add tuples from outside
    # the master only, 4 x 18 rows at a time, until the master is the whole
    # product, and then the loop ends with the full LP's optimum
    rng = np.random.default_rng(127)
    ms = [random_measure(rng, w.circle(2.0), k) for k in (4, 5, 6, 3)]
    C = product_cost(ms, 2.0)
    solve = w.transport._highs_solve
    masters = []

    def raised(c, indptr, indices, b, values=None):
        x, objective, y = solve(c, indptr, indices, b, values)
        masters.append(c.size)
        return x, objective, y + 1.0

    monkeypatch.setattr(w.transport, "_highs_solve", raised)
    x, objective = w.transport._product_lp(C, [mu.weights for mu in ms])
    monkeypatch.undo()
    assert masters == [15, 87, 159, 231, 303, 360]
    assert objective == pytest.approx(full_product_lp(ms, 2.0), rel=1e-12)
    assert x.shape == (360,) and x @ C.reshape(-1) == pytest.approx(objective, rel=1e-12)


def test_tree_lp_is_one_direct_solve(monkeypatch):
    # the dyadic pattern's clique-table LP is solved once, as built by
    # `_table_lp`, with no column generation
    calls, solve = [], w.transport._highs_solve

    def capture(c, indptr, indices, b, values=None):
        calls.append(values is not None)
        return solve(c, indptr, indices, b, values)

    def no_product_lp(*args):
        raise AssertionError("the product-support LP ran")

    monkeypatch.setattr(w.transport, "_highs_solve", capture)
    monkeypatch.setattr(w.transport, "_product_lp", no_product_lp)
    for n, ms in pattern_collections():
        calls.clear()
        w.compatibility_multicoupling(ms, 2.0, pairs=w.dyadic_pattern_pairs(n))
        assert calls.count(True) == 1


def test_budget_stops_tree_lp(monkeypatch):
    curve = w.make_curve(w.circle_splitting(1))
    ms = [curve(k / 8) for k in range(9)]
    pairs = w.dyadic_pattern_pairs(3)
    monkeypatch.setenv("WLIFT_BUDGET", "447")
    with pytest.raises(w.BudgetExceededError, match="LP columns 448 exceeds budget 447"):
        w.compatibility_multicoupling(ms, 2.0, pairs=pairs)
    monkeypatch.setenv("WLIFT_BUDGET", "448")
    report = w.compatibility_multicoupling(ms, 2.0, pairs=pairs)
    assert report.max_pair_gap == pytest.approx(0.25, abs=1e-9)


def test_budget_counts_glued_tuples(monkeypatch):
    # the LP's solution is replaced by product tables, which meet its
    # constraints; their glue is the whole product support, 3^5 tuples
    rng = np.random.default_rng(122)
    ms = [on_plane(random_measure(rng, w.euclidean(1), 3)) for _ in range(5)]
    pairs = w.dyadic_pattern_pairs(2)
    tables = [np.multiply.outer(np.multiply.outer(ms[a].weights, ms[m].weights), ms[b].weights)
              for (a, m, b), _, _ in w.transport._junction_tree(5, pairs)]
    x = np.concatenate([t.ravel() for t in tables])
    solve = w.transport._highs_solve

    def product_tables(c, indptr, indices, b, values=None):
        if c.size == x.size:
            return x, float(c @ x), np.zeros(b.size)
        return solve(c, indptr, indices, b, values)

    monkeypatch.setattr(w.transport, "_highs_solve", product_tables)
    monkeypatch.setenv("WLIFT_BUDGET", "242")
    with pytest.raises(w.BudgetExceededError, match="glued certificate tuples 243"):
        w.compatibility_multicoupling(ms, 2.0, pairs=pairs)
    monkeypatch.setenv("WLIFT_BUDGET", "243")
    report = w.compatibility_multicoupling(ms, 2.0, pairs=pairs)
    assert report.lp_columns == 81
    assert report.marginal_residual <= 1e-15


def test_budget_on_tree_lp_is_cli_exit_3(monkeypatch, capsys):
    from wlift.cli import EXIT_NEGATIVE, EXIT_RESOURCE, main

    argv = ["lift", "--family", "circle_splitting", "--param", "j=1", "--levels", "3"]
    monkeypatch.setenv("WLIFT_BUDGET", "400")
    assert main(argv) == EXIT_RESOURCE
    assert "LP columns 448 exceeds budget 400" in capsys.readouterr().err
    monkeypatch.delenv("WLIFT_BUDGET")
    assert main(argv) == EXIT_NEGATIVE
