import functools
import itertools
import math
import time

import numpy as np
import pytest

import wlift as w
from conftest import (
    ALL_SPACES,
    loop_besov_energy,
    loop_curve_holder,
    loop_curve_modulus,
    loop_frac_sobolev,
    loop_grr_check,
    loop_holder,
    loop_modulus,
    loop_vertex_variation,
    loop_w1p_energy,
    random_path,
)
from wlift import lifts, norms
from wlift.norms import besov_energy_pg, besov_norm_truncated
from wlift.paths import PiecewiseGeodesicPath, dyadic_times
from wlift.spaces import distance


# ---------------------------------------------------------------------------
# oracles


def besov_partial_oracle(path, alpha, p, M):
    """Direct dyadic double sum over scales 0..M, with scalar distances only."""
    total = 0.0
    for m in range(M + 1):
        ts = dyadic_times(m)
        S = sum(
            distance(path.space, path(a), path(b)) ** p for a, b in zip(ts, ts[1:])
        )
        total += 2.0 ** (m * (alpha * p - 1)) * S
    return total


def variation_oracle(points, space, q):
    """Exhaustive max over partitions (index subsets containing endpoints)."""
    n = len(points)
    best = 0.0
    for r in range(n - 2 + 1):
        for mid in itertools.combinations(range(1, n - 1), r):
            idx = [0, *mid, n - 1]
            s = sum(
                distance(space, points[i], points[j]) ** q
                for i, j in zip(idx, idx[1:])
            )
            best = max(best, s)
    return best ** (1.0 / q)


# ---------------------------------------------------------------------------
# Besov


def test_unit_geodesic_besov():
    seg = w.geodesic_segment(w.euclidean(1), [0.0], [1.0])
    assert besov_energy_pg(seg, 0.75, 2.0) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)


def test_tent_besov():
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    assert besov_energy_pg(tent, 0.75, 2.0) == pytest.approx(4.0 + 4.0 * math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_truncated_matches_oracle_and_converges(space):
    rng = np.random.default_rng(201)
    path = random_path(rng, space, 2)
    alpha, p = 0.7, 2.0
    exact = besov_energy_pg(path, alpha, p)
    for M in (0, 2, 5, 9):
        partial, last = besov_norm_truncated(path, alpha, p, M)
        assert partial == pytest.approx(besov_partial_oracle(path, alpha, p, M), rel=1e-12)
        assert partial <= exact + 1e-10
    deep, _ = besov_norm_truncated(path, alpha, p, 40)
    assert deep == pytest.approx(exact, rel=1e-6)


def test_truncated_monotone_in_M():
    seg = w.geodesic_segment(w.euclidean(1), [0.0], [1.0])
    vals = [besov_norm_truncated(seg, 0.75, 2.0, M)[0] for M in range(8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_besov_requires_valid_exponents():
    seg = w.geodesic_segment(w.euclidean(1), [0.0], [1.0])
    with pytest.raises(w.ValidationError):
        besov_energy_pg(seg, 1.5, 2.0)
    with pytest.raises(w.ValidationError):
        besov_energy_pg(seg, 0.5, 0.5)


# ---------------------------------------------------------------------------
# fractional Sobolev


def test_geodesic_frac_sobolev_closed_form():
    # int int |t-s|^{p - alpha p - 1} ds dt = 2 / (beta (beta+1)), beta = 1/2
    seg = w.geodesic_segment(w.euclidean(1), [0.0], [1.0])
    val = w.frac_sobolev_energy(seg, 0.75, 2.0)
    assert val == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_frac_sobolev_scaling():
    # doubling the endpoint distance multiplies the energy by 2^p
    seg1 = w.geodesic_segment(w.euclidean(1), [0.0], [1.0])
    seg2 = w.geodesic_segment(w.euclidean(1), [0.0], [2.0])
    v1 = w.frac_sobolev_energy(seg1, 0.6, 2.0)
    v2 = w.frac_sobolev_energy(seg2, 0.6, 2.0)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-10)


def test_frac_sobolev_tent_vs_riemann_oracle():
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    alpha, p = 0.6, 2.0
    val = w.frac_sobolev_energy(tent, alpha, p)
    # crude midpoint Riemann double sum as an independent cross-check
    N = 400
    h = 1.0 / N
    ts = (np.arange(N) + 0.5) * h
    X = tent.eval_many(ts)[:, 0]
    D = np.abs(X[:, None] - X[None, :])
    dt = np.abs(ts[:, None] - ts[None, :])
    np.fill_diagonal(dt, 1.0)
    integrand = D**p / dt ** (1 + alpha * p)
    np.fill_diagonal(integrand, 0.0)
    approx = float(integrand.sum()) * h * h
    assert val == pytest.approx(approx, rel=2e-2)


def test_frac_sobolev_subinterval_additive_bound():
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    whole = w.frac_sobolev_energy(tent, 0.75, 2.0)
    left = w.frac_sobolev_energy(tent, 0.75, 2.0, interval=(0.0, 0.5))
    right = w.frac_sobolev_energy(tent, 0.75, 2.0, interval=(0.5, 1.0))
    assert left + right <= whole + 1e-10
    assert left == pytest.approx(right, rel=1e-10)  # symmetry of the tent


QUAD_ORDERS = list(itertools.product([1, 4, 8], [0, 5, 10]))  # (gl_order, corner_splits)
QUAD_INTERVALS = [(0.0, 1.0), (0.25, 0.75), (0.1, 0.9), (0.3, 0.35), (0.0, 0.7)]


def assert_rel(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want), (got, want)


def eval_many_spy(monkeypatch):
    """Record how many time values each `eval_many` call receives."""
    sizes = []
    eval_many = PiecewiseGeodesicPath.eval_many

    def spy(self, ts):
        sizes.append(np.size(ts))
        return eval_many(self, ts)

    monkeypatch.setattr(PiecewiseGeodesicPath, "eval_many", spy)
    return sizes


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_frac_sobolev_matches_loop_reference(space, level):
    rng = np.random.default_rng(100 * level + ALL_SPACES.index(space))
    path = random_path(rng, space, level)
    for k, interval in enumerate(QUAD_INTERVALS):
        gl_order, corner_splits = QUAD_ORDERS[(3 * level + k) % len(QUAD_ORDERS)]
        quad = dict(interval=interval, gl_order=gl_order, corner_splits=corner_splits)
        assert_rel(w.frac_sobolev_energy(path, 0.75, 2.0, **quad),
                   loop_frac_sobolev(path, 0.75, 2.0, **quad))


@pytest.mark.parametrize("gl_order, corner_splits", QUAD_ORDERS)
def test_frac_sobolev_orders_match_loop_reference(gl_order, corner_splits):
    rng = np.random.default_rng(7)
    for space, interval in [(w.cylinder(2.0), (0.1, 0.9)), (w.euclidean(2), (0.0, 1.0))]:
        path = random_path(rng, space, 3)
        quad = dict(interval=interval, gl_order=gl_order, corner_splits=corner_splits)
        assert_rel(w.frac_sobolev_energy(path, 0.6, 3.0, **quad),
                   loop_frac_sobolev(path, 0.6, 3.0, **quad))


@pytest.mark.parametrize("gl_order, cap", [(4, 3 * 16), (8, 150)])
def test_frac_sobolev_chunks(monkeypatch, gl_order, cap):
    """A chunk cap of a few rectangles gives the same value, no
    `eval_many` call exceeds one chunk's nodes, and every rectangle's
    nodes are evaluated exactly once; the default cap takes each order in
    one call."""
    rng = np.random.default_rng(11)
    path = random_path(rng, w.cylinder(2.0), 3)
    quad = dict(interval=(0.1, 0.9), gl_order=gl_order, corner_splits=3)
    want = loop_frac_sobolev(path, 0.75, 2.0, **quad)
    corner_order = max(4, gl_order - 2)
    # 9 knots, 8 cells: 21 separated pairs, 7 adjacent pairs of 4 x 4 sub-cells
    nodes = 9 + 2 * (21 * gl_order + 7 * 16 * corner_order)

    sizes = eval_many_spy(monkeypatch)
    assert_rel(w.frac_sobolev_energy(path, 0.75, 2.0, **quad), want)
    assert sum(sizes) == nodes
    assert len(sizes) == 1 + len({gl_order, corner_order})

    sizes.clear()
    monkeypatch.setattr(norms, "_QUAD_NODE_PAIRS", cap)
    assert_rel(w.frac_sobolev_energy(path, 0.75, 2.0, **quad), want)
    assert sum(sizes) == nodes
    assert max(sizes) <= max(2 * (cap // g**2) * g for g in (gl_order, corner_order))
    assert len(sizes) > 10


BAD_QUAD = [{"gl_order": 0}, {"gl_order": -3}, {"gl_order": 2.5}, {"gl_order": True},
            {"gl_order": 91}, {"gl_order": 300}, {"corner_splits": -1},
            {"corner_splits": 2.5}]


@pytest.mark.parametrize("quad", BAD_QUAD, ids=lambda q: "-".join(map(str, *q.items())))
@pytest.mark.parametrize("level", [0, 1, 2])
def test_frac_sobolev_rejects_bad_orders(level, quad):
    path = random_path(np.random.default_rng(level), w.euclidean(2), level)
    with pytest.raises(w.ValidationError, match=next(iter(quad))):
        w.frac_sobolev_energy(path, 0.75, 2.0, **quad)
    with pytest.raises(w.ValidationError, match=next(iter(quad))):
        w.grr_check(path, 0.75, 2.0, level=1, **quad)


def test_frac_sobolev_largest_order_fits_one_chunk(monkeypatch):
    """gl_order 90 is the largest with gl_order^2 <= _QUAD_NODE_PAIRS, so
    each of its rectangles is evaluated within one chunk."""
    tent = PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    assert 90**2 <= norms._QUAD_NODE_PAIRS < 91**2
    sizes = eval_many_spy(monkeypatch)
    value = w.frac_sobolev_energy(tent, 0.75, 2.0, gl_order=90)
    assert max(sizes) == 2 * 88  # one corner sub-cell of order 88 per chunk
    assert value == pytest.approx(w.frac_sobolev_energy(tent, 0.75, 2.0), rel=1e-6)


def test_frac_sobolev_accepts_numpy_integer_orders():
    path = random_path(np.random.default_rng(3), w.circle(2.0), 2)
    assert w.frac_sobolev_energy(path, 0.75, 2.0, gl_order=np.int64(4),
                                 corner_splits=np.int32(2)) == \
        w.frac_sobolev_energy(path, 0.75, 2.0, gl_order=4, corner_splits=2)


def test_frac_sobolev_budget(monkeypatch):
    # level 2, 4 cells: 3 separated pairs + 3 adjacent pairs of 11 x 11 sub-cells
    path = random_path(np.random.default_rng(5), w.euclidean(1), 2)
    sizes = eval_many_spy(monkeypatch)
    monkeypatch.setenv("WLIFT_BUDGET", "365")
    with pytest.raises(w.BudgetExceededError, match="quadrature cells 366 exceeds budget 365"):
        w.frac_sobolev_energy(path, 0.75, 2.0)
    assert sizes == []  # counted before anything is evaluated
    with pytest.raises(w.BudgetExceededError, match="quadrature cells 366 exceeds"):
        w.grr_check(path, 0.75, 2.0, level=1)
    monkeypatch.setenv("WLIFT_BUDGET", "366")
    assert_rel(w.frac_sobolev_energy(path, 0.75, 2.0), loop_frac_sobolev(path, 0.75, 2.0))


def test_frac_sobolev_budget_counts_deep_path(monkeypatch):
    # level 10: 1023 * 1022 / 2 separated pairs + 1023 * 121 corner sub-cells
    path = w.constant_path(w.euclidean(1), [0.0], level=10)
    assert 646_536 <= w.transport.DEFAULT_BUDGET
    monkeypatch.setenv("WLIFT_BUDGET", "646535")
    with pytest.raises(w.BudgetExceededError, match="quadrature cells 646536 exceeds"):
        w.frac_sobolev_energy(path, 0.75, 2.0)


# ---------------------------------------------------------------------------
# Hölder / modulus / variation


def test_holder_and_modulus_on_tent():
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    # slope 2 everywhere; gamma=1 Hölder constant is 2
    assert w.holder_norm_dyadic(tent, 1.0, 6) == pytest.approx(2.0)
    assert w.modulus_of_continuity(tent, 0.5, 6) == pytest.approx(1.0)
    assert w.modulus_of_continuity(tent, 0.25, 6) == pytest.approx(0.5)


def test_variation_matches_exhaustive_oracle():
    rng = np.random.default_rng(202)
    for space in ALL_SPACES:
        for q in (1.0, 1.5, 2.0):
            path = random_path(rng, space, 3)  # 9 breakpoints
            got = w.p_variation(path, q, mode="vertex")
            want = variation_oracle(path.breakpoints, space, q)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("entries", [None, 1, 50])
@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_vertex_variation_matches_dense_loop_reference(space, entries, monkeypatch):
    """The batched, column-blocked DP gives the dense per-path DP's values
    bit for bit, at the default block size, one column per block, and
    blocks of a few columns."""
    if entries is not None:
        monkeypatch.setattr(norms, "_VARIATION_ENTRIES", entries)
    rng = np.random.default_rng(ALL_SPACES.index(space))
    for level in range(8):
        for K in (1, 3, 62):
            if entries is not None and K * level > 3 * 7:
                continue  # tiny blocks on large tensors only add run time
            X = np.stack([random_path(rng, space, level).breakpoints for _ in range(K)])
            for q in (1.0, 1.5, 2.0, 3.0):
                got = norms._vertex_variation(space, X, q)
                want = [loop_vertex_variation(space, x, q) for x in X]
                assert np.array_equal(got, want), (level, K, q)
                if K == 1:
                    assert w.p_variation(PiecewiseGeodesicPath(space, X[0], level), q,
                                         mode="vertex") == want[0] ** (1.0 / q)


@pytest.mark.parametrize("entries", [None, 1, 50])
@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_grid_functionals_and_lift_energies_match_dense_loop_references(
    space, entries, monkeypatch
):
    """Hölder, modulus and dyadic variation of paths, and the Hölder,
    modulus and variation lift energies, from column blocks of the
    breakpoint tensor, give the dense per-path references' values bit for
    bit, at the default block size, one column per block, and blocks of a
    few columns; the Besov and W^{1,p} lift energies match a per-path
    double sum plus tail to 1e-12 relative."""
    if entries is not None:
        monkeypatch.setattr(norms, "_VARIATION_ENTRIES", entries)
    rng = np.random.default_rng(100 + ALL_SPACES.index(space))

    def weighted(lift, refs, p):  # lift_energy's own sum, over reference values
        total = 0.0
        for wk, val in zip(lift.weights, refs):
            total += wk * val**p
        return float(total)

    for K in (1, 3, 62):
        for level in (0, 2, 3):
            paths = tuple(random_path(rng, space, level) for _ in range(K))
            wts = rng.uniform(0.2, 1.0, size=K)
            lift = w.Lift(paths, wts / wts.sum(), level)
            M = level + 2
            for path in paths[:3]:
                for g in (0.4, 1.0):
                    assert w.holder_norm_dyadic(path, g, M) == loop_holder(path, g, M)
                for d in (1e-3, 0.3, 1.0):
                    assert w.modulus_of_continuity(path, d, M) == loop_modulus(path, d, M)
                grid = path.eval_many(dyadic_times(M))
                for q in (1.0, 2.5):
                    want = loop_vertex_variation(space, grid, q) ** (1.0 / q)
                    assert w.p_variation(path, q, "dyadic", M) == want
            for p in (2.0, 3.0):
                spec = w.EnergySpec.holder(0.6, p)
                want = weighted(lift, [loop_holder(x, 0.6, M) for x in paths], p)
                assert w.lift_energy(lift, spec, M) == want, (K, level, p)
                spec = w.EnergySpec.modulus(0.3, p)
                want = weighted(lift, [loop_modulus(x, 0.3, M) for x in paths], p)
                assert w.lift_energy(lift, spec, M) == want, (K, level, p)
                spec = w.EnergySpec.variation(2.5, p)
                refs = [loop_vertex_variation(space, x.breakpoints, 2.5) ** (1 / 2.5) for x in paths]
                assert w.lift_energy(lift, spec, M) == weighted(lift, refs, p), (K, level, p)
                want = weighted(lift, [loop_besov_energy(space, x.breakpoints, 0.75, p)
                                       for x in paths], 1.0)
                got = w.lift_energy(lift, w.EnergySpec.besov(0.75, p))
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (K, level, p)
                want = weighted(lift, [loop_w1p_energy(space, x.breakpoints, p) for x in paths], 1.0)
                got = w.lift_energy(lift, w.EnergySpec.w1p(p))
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (K, level, p)


def test_holder_and_modulus_lift_energies_hold_one_block_of_distances(monkeypatch):
    """No distance array a Hölder or modulus lift energy builds holds more
    than _VARIATION_ENTRIES entries, or one column of K (N - 1) entries when
    a single column is larger: level-6 lift, K = 62, grid level M = 9."""
    rng = np.random.default_rng(7)
    space, K, M = w.cylinder(2.0), 62, 9
    paths = tuple(random_path(rng, space, 6) for _ in range(K))
    lift = w.Lift(paths, np.full(K, 1.0 / K), 6)
    cap = max(norms._VARIATION_ENTRIES, K * 2**M)
    sizes = []
    real = w.spaces._distance_arrays

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(w.spaces, "_distance_arrays", counted)
    for spec in (w.EnergySpec.holder(0.7, 2.0), w.EnergySpec.modulus(0.2, 2.0)):
        sizes.clear()
        assert w.lift_energy(lift, spec, M) > 0.0
        assert sizes and max(sizes) <= cap, (spec.tag, max(sizes), cap)


def _pruning_cases():
    """(name, space, breakpoint tensor) inputs for the screened variation
    DP: known lifts whose rows drop out fast, slowly or never, random
    lifts, point sets whose distances reach the diameter bound exactly
    (antipodal arcs, box corners), and paths whose distances reach the
    prefix-length bound exactly (straight lines, quarter turns) or are
    zero (constant paths, repeated breakpoints)."""
    rng = np.random.default_rng(13)
    cases = []
    for spec, levels in ((w.cylinder_family(2, 2.0, 0.75), (6, 7, 8)),
                         (w.cylinder_family(3, 2.0, 0.75), (8,)),
                         (w.oscillating_tents(5, 2.0, 0.8), (6, 7, 8)),
                         (w.circle_splitting(2), (6, 7, 8))):
        for n in levels:
            lift = w.known_lift(spec).discretize(n)
            cases.append((f"{spec.name}{n}", lift.space, lift.breakpoints))
    for space in ALL_SPACES:
        for level in (3, 6):
            X = np.stack([random_path(rng, space, level).breakpoints for _ in range(62)])
            cases.append((f"random{space.kind}{space.dim}-{level}", space, X))
    for space in (w.circle(2.0), w.cylinder(2.0)):
        arcs = rng.choice([0.0, 0.5, 1.0, 1.5], size=(16, 65))
        pts = arcs[..., None] if space.dim == 1 else np.stack(
            [arcs, rng.choice([0.0, 0.75], size=arcs.shape)], axis=-1)
        cases.append((f"antipodal{space.kind}", space, pts))
    for d in (1, 2, 3):
        corners = rng.integers(0, 2, size=(16, 65, d)) * np.array([1.0, 3.0, 0.1])[:d]
        cases.append((f"corners{d}", w.euclidean(d), corners))
    # the prefix-length bound met exactly: straight lines on dyadic
    # coordinates (directions of integer norm 1, 5 and 7), forward only, with
    # random steps, and back and forth
    for d, direction in ((1, [1.0]), (2, [3.0, 4.0]), (3, [2.0, 3.0, 6.0])):
        steps = np.concatenate([np.ones((4, 64)), rng.integers(0, 4, size=(4, 64)),
                                rng.choice([-1.0, 1.0], size=(4, 64))]) / 16
        arc = np.concatenate([np.zeros((12, 1)), np.cumsum(steps, axis=1)], axis=1)
        cases.append((f"line{d}", w.euclidean(d), arc[..., None] * np.array(direction)))
    # no length at all, and zero-length segments among random ones
    for space in ALL_SPACES:
        X = np.stack([random_path(rng, space, 6).breakpoints for _ in range(8)])
        X[:2] = X[:2, :1]
        X[2:, 1:] = np.where(rng.random((6, 64, 1)) < 0.5, X[2:, :-1], X[2:, 1:])
        cases.append((f"repeated{space.kind}{space.dim}", space, X))
    # steps of exactly P/4 around the circle, both ways, so that distances
    # reach P/2; on the cylinder with dyadic height steps
    for space in (w.circle(2.0), w.cylinder(2.0)):
        turns = np.cumsum(rng.choice([-1, 1, 1, 1], size=(8, 64)), axis=1)
        arcs = np.mod(np.concatenate([np.zeros((8, 1)), turns], axis=1) * 0.5, 2.0)
        pts = arcs[..., None] if space.dim == 1 else np.stack(
            [arcs, np.cumsum(rng.integers(0, 2, size=(8, 65)), axis=1) / 8], axis=-1)
        cases.append((f"quarter{space.kind}", space, pts))
    return cases


@functools.lru_cache(maxsize=None)
def _pruning_references():
    """Per `_pruning_cases` input: its lift, grid level M, and per q the
    dense loop DP's vertex values and level-M dyadic values (q-th roots)."""
    out = []
    for name, space, X in _pruning_cases():
        level = (X.shape[1] - 1).bit_length() - 1
        lift = w.Lift(tuple(PiecewiseGeodesicPath(space, x, level) for x in X),
                      np.full(len(X), 1.0 / len(X)), level)
        M = min(level, 6)
        grids = lift.points_at(dyadic_times(M))
        refs = {q: ([loop_vertex_variation(space, x, q) for x in X],
                    [loop_vertex_variation(space, g, q) ** (1.0 / q) for g in grids])
                for q in (1.0, 1.5, 2.0, 3.0)}
        out.append((name, lift, M, refs))
    return out


@pytest.mark.parametrize("entries", [None, 1, 50])
def test_windowed_variation_dp_matches_dense_loop_reference(entries, monkeypatch):
    """Vertex and dyadic q-variation of lifts, paths and a generic curve
    give the dense per-path DP's values bit for bit on inputs where the
    diameter bound drops most rows, few or none, and where distances equal
    the bound; at the default block size, one column per block and blocks
    of a few columns."""
    if entries is not None:
        monkeypatch.setattr(norms, "_VARIATION_ENTRIES", entries)
    for name, lift, M, refs in _pruning_references():
        space, X, path = lift.space, lift.breakpoints, lift.paths[0]

        def dist(a, b):
            return w.spaces.distance(space, a, b)

        def curve(t):  # the path seen only through its values
            return path(t)

        for q, (vertex, dyadic) in refs.items():
            assert np.array_equal(norms._vertex_variation(space, X, q), vertex), (name, q)
            assert w.p_variation(lift, q, "vertex") == [v ** (1.0 / q) for v in vertex]
            assert w.p_variation(lift, q, "dyadic", M) == dyadic, (name, q)
            assert w.p_variation(path, q, "dyadic", M) == dyadic[0]
            if q in (1.5, 3.0):  # the same grid as a generic curve, one distance per call
                assert w.p_variation(curve, q, "dyadic", M, dist=dist) == dyadic[0], (name, q)


def test_windowed_variation_dp_builds_a_quarter_of_the_pairs(monkeypatch):
    """On the level-10, 62-path known lift of cylinder_family(4), the vertex
    variation builds at most a quarter of the K N (N - 1) / 2 distances of
    the full DP (about a sixth), with the full DP's values."""
    lift = w.known_lift(w.cylinder_family(4, 2.0, 0.75)).discretize(10)
    X = lift.breakpoints
    K, N = X.shape[:2]
    built = []
    real = w.spaces._distance_arrays

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append(np.size(out))
        return out

    monkeypatch.setattr(w.spaces, "_distance_arrays", counted)
    got = norms._vertex_variation(lift.space, X, 2.0)
    assert sum(built) <= 0.25 * K * N * (N - 1) / 2, sum(built) / (K * N * (N - 1) / 2)
    monkeypatch.setattr(w.spaces, "_distance_arrays", real)
    for k in (0, 2, 6, 14, 30, 61):  # the first path of each circle, and the last
        assert got[k] == loop_vertex_variation(lift.space, X[k], 2.0), k


def test_screened_variation_dp_builds_a_twelfth_of_the_pairs(monkeypatch):
    """On the same lift, screening each block's rows by the prefix-length
    bound as well leaves at most a twelfth of the K N (N - 1) / 2 distances
    (about 7 %; the diameter bound alone leaves about a sixth), with the
    full DP's values."""
    lift = w.known_lift(w.cylinder_family(4, 2.0, 0.75)).discretize(10)
    X = lift.breakpoints
    K, N = X.shape[:2]
    built = []
    real = w.spaces._distance_arrays

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append(np.size(out))
        return out

    monkeypatch.setattr(w.spaces, "_distance_arrays", counted)
    got = norms._vertex_variation(lift.space, X, 2.0)
    assert sum(built) <= K * N * (N - 1) / 2 / 12, sum(built) / (K * N * (N - 1) / 2)
    monkeypatch.setattr(w.spaces, "_distance_arrays", real)
    for k in (1, 5, 13, 29, 45, 60):
        assert got[k] == loop_vertex_variation(lift.space, X[k], 2.0), k


@pytest.mark.parametrize("entries", [None, 1])
def test_curve_variation_screens_by_the_diameter_only(entries, monkeypatch):
    """A curve's distances come from a callback, such as LP-solved W_p, that
    may meet the triangle inequality only to a tolerance; its dyadic
    q-variation screens rows by the largest distance alone.  Here a Dirac
    moves along a line until t = 1/2 and then stands still, and its W_2
    from time s to time t is scaled by 1 + 1e-8 |t - s|: the distance from
    the start keeps growing while the adjacent ones are zero, against the
    triangle inequality.  The value equals the dense loop DP over the same
    distances, bit for bit, at the default block size and one column per
    first block."""
    if entries is not None:
        monkeypatch.setattr(norms, "_VARIATION_ENTRIES", entries)
    sp, M = w.euclidean(1), 7

    def curve(t):
        return t, w.dirac(sp, [3.0 * min(t, 0.5)])

    def dist(a, b):
        return w.wasserstein_distance(a[1], b[1], 2.0) * (1.0 + 1e-8 * abs(b[0] - a[0]))

    points = [curve(t) for t in dyadic_times(M)]
    D = np.array([[dist(a, b) if i < j else 0.0 for j, b in enumerate(points)]
                  for i, a in enumerate(points)])
    for q in (1.0, 1.5, 2.0):
        V = np.full(len(D), -np.inf)
        V[0] = 0.0
        for j in range(1, len(D)):
            V[j] = np.max(V[:j] + D[:j, j] ** q)
        assert w.p_variation(curve, q, "dyadic", M, dist=dist) == V[-1] ** (1.0 / q), q


def test_modulus_builds_only_the_pairs_within_delta(monkeypatch):
    """On the level-10, 62-path known lift of cylinder_family(4) at M = 10
    and delta = 0.2, the modulus builds, per path and column j, only the
    min(j, 204) rows within 204 = floor(0.2 * 2^10) grid steps: about 36 %
    of the K N (N - 1) / 2 distances, with the dense reference's values."""
    lift = w.known_lift(w.cylinder_family(4, 2.0, 0.75)).discretize(10)
    K, N = lift.breakpoints.shape[:2]
    built = []
    real = w.spaces._distance_arrays

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append(np.size(out))
        return out

    monkeypatch.setattr(w.spaces, "_distance_arrays", counted)
    got = w.modulus_of_continuity(lift, 0.2, 10)
    assert sum(built) == K * sum(min(j, 204) for j in range(1, N)) == 11_667_780
    assert sum(built) / (K * N * (N - 1) / 2) == pytest.approx(0.3586, abs=1e-4)
    monkeypatch.setattr(w.spaces, "_distance_arrays", real)
    for k in (0, 14, 61):
        assert got[k] == loop_modulus(lift.paths[k], 0.2, 10), k


def _separated_particles():
    """Criterion 7's curve: two far-apart particles on the line, the first
    moving at speed 2 on [0, 1/2], the second on [1/2, 1]."""
    sp = w.euclidean(1)

    def ev(t):
        return w.make_measure(
            sp, [[2.0 * min(t, 0.5)], [10.0 + 2.0 * max(t - 0.5, 0.0)]], [0.5, 0.5]
        )

    return w.WassersteinCurve(sp, ev, level=1)


CURVE_CASES = {
    "two_tent": lambda: w.make_curve(w.two_tent()),
    "jump": lambda: w.make_curve(w.jump()),
    "circle_splitting_1": lambda: w.make_curve(w.circle_splitting(1)),
    "circle_splitting_2": lambda: w.make_curve(w.circle_splitting(2)),
    "oscillating_tents": lambda: w.make_curve(w.oscillating_tents(3, 2.0, 0.8)),
    "cylinder_family": lambda: w.make_curve(w.cylinder_family(2, 2.0, 0.75)),
    "separated_particles": _separated_particles,
}


def _counted_wp(p):
    """W_p as `lifts._wp` gives it, with the number of pairs it was asked for."""
    wp, count = lifts._wp(p), [0]

    def dist(a, b):
        count[0] += 1
        return wp(a, b)

    def many(pairs):
        pairs = list(pairs)
        count[0] += len(pairs)
        return wp.many(pairs)

    dist.many = many
    return dist, count


@pytest.mark.parametrize("M", [4, 6])
@pytest.mark.parametrize("case", sorted(CURVE_CASES))
def test_curve_holder_and_modulus_match_all_pairs_reference(case, M):
    """The pruned curve Hölder constant and modulus give the all-pairs W_2
    maximum bit for bit on the families and criterion 7's curve, through
    the batched W_2 and through a plain one-pair callback."""
    curve = CURVE_CASES[case]()

    def plain(a, b):
        return w.wasserstein_distance(a, b, 2.0)

    for dist in (lifts._wp(2.0), plain):
        for gamma in (1.0, 0.75, 0.5):
            got = w.holder_norm_dyadic(curve, gamma, M, dist=dist)
            assert got == loop_curve_holder(curve, gamma, M, 2.0), (gamma, dist)
        for delta in (1.0, 0.25, 0.1):
            got = w.modulus_of_continuity(curve, delta, M, dist=dist)
            assert got == loop_curve_modulus(curve, delta, M, 2.0), (delta, dist)


def _random_curve(seed, space):
    """Five atoms of fixed unequal weights, each moving along a line plus a
    sine of its own frequency: a curve of measures of non-constant speed."""
    rng = np.random.default_rng(seed)
    X, A, B = rng.normal(size=(3, 5, space.dim))
    omega = rng.uniform(1.0, 4.0, size=(5, 1))
    wts = rng.uniform(0.2, 1.0, size=5)

    def ev(t):
        pts = X + A * t + B * np.sin(2.0 * np.pi * omega * t)
        if space.kind == "circle":
            pts = np.mod(pts, space.perimeter)
        return w.make_measure(space, pts, wts / wts.sum())

    return w.WassersteinCurve(space, ev)


@pytest.mark.parametrize("space", [w.euclidean(2), w.circle(2.0)], ids=["r2", "circle"])
def test_curve_holder_and_modulus_within_the_slack_of_all_pairs(space):
    """On seeded curves of non-constant speed the pruned values lie at most
    a relative _PRUNE_SLACK below the all-pairs maximum and not above it,
    up to the last bits by which a W_p solved in a batch can differ from
    the same W_p solved alone."""
    slack, rounding = norms._PRUNE_SLACK, 1e-14
    for seed in range(4):
        curve = _random_curve(seed, space)
        for M in (4, 5):
            for gamma in (1.0, 0.75, 0.5):
                got = w.holder_norm_dyadic(curve, gamma, M, dist=lifts._wp(2.0))
                want = loop_curve_holder(curve, gamma, M, 2.0)
                assert want * (1.0 - slack - rounding) <= got <= want * (1.0 + rounding)
            for delta in (1.0, 0.25, 0.1):
                got = w.modulus_of_continuity(curve, delta, M, dist=lifts._wp(2.0))
                want = loop_curve_modulus(curve, delta, M, 2.0)
                assert want * (1.0 - slack - rounding) <= got <= want * (1.0 + rounding)


def test_curve_pair_max_solves_only_the_pairs_that_can_win():
    """Hölder-1 of two_tent at M = 5 solves its 32 adjacent W_2 pairs and
    none of the 496 others: every pair's triangle-inequality bound ties the
    adjacent max.  A modulus with delta below the grid step solves none."""
    curve = w.make_curve(w.two_tent())
    dist, count = _counted_wp(2.0)
    assert w.holder_norm_dyadic(curve, 1.0, 5, dist=dist) == loop_curve_holder(curve, 1.0, 5, 2.0)
    assert count[0] == 32
    dist, count = _counted_wp(2.0)
    assert w.modulus_of_continuity(curve, 0.5 / 2**5, 5, dist=dist) == 0.0
    assert count[0] == 0


def test_variation_lift_energy_holds_one_block_of_distances(monkeypatch):
    """No distance array the variation lift energy builds holds more than
    _VARIATION_ENTRIES entries, or one column of K (N - 1) entries when a
    single column is larger: a random and a known level-8 lift."""
    rng = np.random.default_rng(8)
    space = w.cylinder(2.0)
    random_lift = w.Lift(tuple(random_path(rng, space, 8) for _ in range(62)),
                         np.full(62, 1.0 / 62), 8)
    known = w.known_lift(w.cylinder_family(3, 2.0, 0.75)).discretize(8)
    sizes = []
    real = w.spaces._distance_arrays

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(w.spaces, "_distance_arrays", counted)
    for lift in (random_lift, known):
        sizes.clear()
        K, N = lift.breakpoints.shape[:2]
        assert w.lift_energy(lift, w.EnergySpec.variation(2.0, 2.0)) > 0.0
        cap = max(norms._VARIATION_ENTRIES, K * (N - 1))
        assert sizes and max(sizes) <= cap, (max(sizes), cap)


def test_vertex_variation_is_a_lower_bound_off_euclidean_space():
    """On the circle a partition point inside a segment can beat both its
    ends: vertex mode gives 1.0, the level-10 dyadic grid 1.16 through the
    point 1.0 antipodal to 0."""
    path = w.PiecewiseGeodesicPath(w.circle(2.0), [[0.0], [0.6], [1.4]], 1)
    assert w.p_variation(path, 2.0, "vertex") ** 2 == pytest.approx(1.0, rel=1e-12)
    assert w.p_variation(path, 2.0, "dyadic", M=10) ** 2 == pytest.approx(1.16, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_vertex_variation_dominates_dyadic_in_euclidean_space(d):
    """In R^d distance is convex along segments, so vertex mode is the exact
    q-variation and no dyadic partition exceeds it."""
    rng = np.random.default_rng(40 + d)
    for level in (1, 3, 4):
        for _ in range(4):
            path = random_path(rng, w.euclidean(d), level)
            for q in (1.0, 1.5, 2.0, 3.0):
                vertex = w.p_variation(path, q, "vertex")
                for M in (level, level + 2, 7):
                    assert vertex >= w.p_variation(path, q, "dyadic", M) * (1 - 1e-12)


def test_variation_1_is_total_length():
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    assert w.p_variation(tent, 1.0, mode="vertex") == pytest.approx(2.0)
    assert w.p_variation(tent, 2.0, mode="vertex") == pytest.approx(math.sqrt(2.0))
    # dyadic-grid mode agrees once the grid contains the vertices
    assert w.p_variation(tent, 2.0, mode="dyadic", M=4) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize(
    "period, counts",
    [(2.0**-k, [2 ** max(m - k, 0) for m in range(7)]) for k in (1, 2, 3)]
    + [(1 / 6, [2**m for m in range(7)])],
    ids=["k1", "k2", "k3", "non-dyadic"],
)
def test_level_sum_solves_one_exact_period(period, counts):
    # a period of exactly 2^-k repeats every 2^max(m - k, 0) level-m pairs;
    # 1/6, though it divides the level-1 step, takes no shortcut
    sp = w.euclidean(1)
    curve = w.WassersteinCurve(
        sp, lambda t: w.dirac(sp, [math.sin(2 * math.pi * t / period)]), period=period)
    solved = []

    def dist(a, b):
        raise AssertionError("pairs go through dist.many")

    def many(pairs):
        pairs = list(pairs)
        solved.append(len(pairs))
        return [w.wasserstein_distance(a, b, 2.0) for a, b in pairs]

    dist.many = many
    sums = [norms._level_power_sum(curve, m, 2.0, dist) for m in range(7)]
    assert solved == counts
    plain = w.WassersteinCurve(sp, curve._evaluator)
    assert sums == pytest.approx([norms._level_power_sum(plain, m, 2.0, dist)
                                  for m in range(7)], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda tent, M: w.p_variation(tent, 2.0, "dyadic", M),
    lambda tent, M: w.holder_norm_dyadic(tent, 1.0, M),
    lambda tent, M: w.modulus_of_continuity(tent, 0.5, M),
    lambda tent, M: w.limsup_variation_dyadic(tent, 2.0, [2, M]),
], ids=["p_variation", "holder", "modulus", "limsup"])
@pytest.mark.parametrize("M", [-1, 2.5, True, 3.0])
def test_grid_levels_must_be_integers_at_least_0(call, M):
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    with pytest.raises(w.ValidationError, match="must be an integer >= 0"):
        call(tent, M)
    assert np.all(np.asarray(call(tent, np.int64(3))) > 0.0)


def test_grid_points_are_counted_against_the_budget(monkeypatch):
    """K (2^M + 1) grid points, counted before any grid is allocated: a
    62-path lift at M = 12 holds 254 014, within the default budget."""
    rng, K = np.random.default_rng(9), 62
    lift = w.Lift(tuple(random_path(rng, w.cylinder(2.0), 2) for _ in range(K)),
                  np.full(K, 1.0 / K), 2)
    assert K * (2**12 + 1) == 254_014 <= w.transport.product_budget()
    assert w.holder_norm_dyadic(lift, 1.0, 4)
    monkeypatch.setenv("WLIFT_BUDGET", str(K * 17 - 1))
    curve = w.WassersteinCurve(w.euclidean(1), lambda t: w.dirac(w.euclidean(1), [t]))
    calls = [
        lambda: w.holder_norm_dyadic(lift, 1.0, 4),
        lambda: w.modulus_of_continuity(lift, 0.5, 4),
        lambda: w.p_variation(lift, 2.0, "dyadic", 4),
        lambda: w.limsup_variation_dyadic(lift, 2.0, [1, 4]),
    ]
    for call in calls:
        with pytest.raises(w.BudgetExceededError, match=f"grid points {K * 17} exceeds"):
            call()
    with pytest.raises(w.BudgetExceededError, match="grid points 1099511627777 exceeds"):
        w.holder_norm_dyadic(curve, 1.0, 40, dist=lifts._wp(2.0))
    with pytest.raises(w.BudgetExceededError, match="grid points inf exceeds"):
        w.modulus_of_continuity(curve, 0.5, 5000, dist=lifts._wp(2.0))
    assert w.p_variation(lift, 2.0, "vertex")  # no grid


def test_limsup_variation_levels():
    seg = w.geodesic_segment(w.euclidean(1), [0.0], [1.0])
    vals = w.limsup_variation_dyadic(seg, 2.0, range(5))
    assert np.allclose(vals, [2.0**-m for m in range(5)])


def test_w1p_norm():
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    # constant speed 2, so the L^p norm of the speed is 2 for every p
    for p in (1.0, 2.0, 3.0):
        assert w.w1p_norm_pg(tent, p) == pytest.approx(2.0)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), 0.5])
def test_variation_exponents_must_be_finite_and_at_least_one(q):
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    with pytest.raises(w.ValidationError):
        w.p_variation(tent, q, mode="vertex")
    with pytest.raises(w.ValidationError):
        w.p_variation(tent, q, mode="dyadic", M=2)
    with pytest.raises(w.ValidationError):
        w.limsup_variation_dyadic(tent, q, range(3))
    with pytest.raises(w.ValidationError):
        w.w1p_norm_pg(tent, q)


# ---------------------------------------------------------------------------
# checks


def test_grr_constant_value():
    assert w.grr_constant(0.75, 2.0) == pytest.approx(math.sqrt(32.0 * 2.5 / 0.5))
    with pytest.raises(w.ValidationError):
        w.grr_constant(0.4, 2.0)


def test_grr_bound_on_sample_paths():
    rng = np.random.default_rng(203)
    for space in [w.euclidean(1), w.circle(2.0)]:
        path = random_path(rng, space, 2)
        out = w.grr_check(path, 0.75, 2.0, level=2, gl_order=6, corner_splits=6)
        assert out["max_ratio"] <= 1.0 + 1e-10
        assert out["pairs_checked"] > 0


GRR_QUAD = dict(gl_order=4, corner_splits=3)


def refined(path, level):
    """The same path with its breakpoints at the level-`level` dyadic times."""
    return PiecewiseGeodesicPath(path.space, path.eval_many(dyadic_times(level)), level)


def assert_grr_equal(got, want):
    assert_rel(got["max_ratio"], want["max_ratio"])
    assert got["pairs_checked"] == want["pairs_checked"]
    assert got["cbar"] == want["cbar"]


@pytest.mark.parametrize("path_level", range(5))
@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_grr_check_matches_loop_reference(space, path_level):
    """At level <= path.level every interval is a block of the path's own
    cells, so the table gives the per-interval quadratures' ratios."""
    rng = np.random.default_rng(300 + 10 * path_level + ALL_SPACES.index(space))
    path = random_path(rng, space, path_level)
    for level in sorted({0, path_level // 2, path_level}):
        assert_grr_equal(w.grr_check(path, 0.75, 2.0, level=level, **GRR_QUAD),
                         loop_grr_check(path, 0.75, 2.0, level=level, **GRR_QUAD))


@pytest.mark.parametrize("path_level, level", [(0, 1), (0, 3), (1, 2), (2, 4)])
@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_grr_check_above_path_level_refines(space, path_level, level):
    """Above the path's level the energies come from the level-`level`
    cells: the check of the same path refined to that level."""
    rng = np.random.default_rng(400 + 10 * level + ALL_SPACES.index(space))
    path = random_path(rng, space, path_level)
    got = w.grr_check(path, 0.6, 3.0, level=level, **GRR_QUAD)
    assert_grr_equal(got, loop_grr_check(refined(path, level), 0.6, 3.0, level=level, **GRR_QUAD))
    assert got["max_ratio"] <= 1.0 + 1e-10


@pytest.mark.parametrize("path_level, level", [(0, 0), (1, 0), (1, 3), (2, 2), (3, 1), (4, 6)])
@pytest.mark.parametrize("gl_order", [4, 8])
def test_grr_check_one_table(monkeypatch, path_level, level, gl_order):
    """One `eval_many` call for the knots, then one per chunk of each
    quadrature order, each order in one chunk while it fits: no
    per-interval or per-pair evaluation."""
    path = random_path(np.random.default_rng(path_level), w.cylinder(2.0), path_level)
    sizes = eval_many_spy(monkeypatch)
    w.grr_check(path, 0.75, 2.0, level=level, gl_order=gl_order, corner_splits=2)
    n = 2 ** max(level, path_level)
    counts = {}  # rectangles by order
    for g, count in ((gl_order, (n - 1) * (n - 2) // 2), (max(4, gl_order - 2), (n - 1) * 9)):
        counts[g] = counts.get(g, 0) + count
    chunks = sum(-(-count // (norms._QUAD_NODE_PAIRS // g**2)) for g, count in counts.items())
    assert sizes[0] == n + 1
    assert len(sizes) == 1 + chunks
    assert sum(sizes) == n + 1 + sum(2 * g * count for g, count in counts.items())
    if n <= 16:
        assert len(sizes) == 1 + sum(count > 0 for count in counts.values())


def test_grr_check_returns_python_types():
    path = random_path(np.random.default_rng(8), w.circle(2.0), 2)
    out = w.grr_check(path, 0.75, 2.0, level=2, **GRR_QUAD)
    assert type(out["max_ratio"]) is float
    assert type(out["pairs_checked"]) is int
    assert type(out["cbar"]) is float
    assert out["pairs_checked"] == 10
    flat = w.grr_check(w.constant_path(w.euclidean(1), [0.0], level=1), 0.75, 2.0)
    assert flat == {"max_ratio": 0.0, "cbar": out["cbar"], "pairs_checked": 0}
    assert type(flat["max_ratio"]) is float


@pytest.mark.parametrize("kwargs, match", [
    ({"gl_order": 0}, "gl_order"),
    ({"level": 2.5}, "level"),
    ({"level": True}, "level"),
    ({"level": -1}, "level"),
])
def test_grr_check_rejects_bad_arguments_up_front(monkeypatch, kwargs, match):
    """A constant path integrates no interval, so only an up-front check
    sees its bad arguments."""
    path = w.constant_path(w.euclidean(1), [0.0], level=2)
    sizes = eval_many_spy(monkeypatch)
    with pytest.raises(w.ValidationError, match=match):
        w.grr_check(path, 0.75, 2.0, **kwargs)
    assert sizes == []


def test_grr_check_budget_before_any_grid(monkeypatch):
    """The table's rectangles at level 40 are counted by arithmetic, before
    the 2^40 + 1 knots or anything else is allocated."""
    path = random_path(np.random.default_rng(9), w.euclidean(2), 1)
    sizes = eval_many_spy(monkeypatch)

    def no_grid(m):
        raise AssertionError(f"level-{m} grid requested")

    monkeypatch.setattr(norms, "dyadic_times", no_grid)
    with pytest.raises(w.BudgetExceededError, match="quadrature cells"):
        w.grr_check(path, 0.75, 2.0, level=40)
    with pytest.raises(w.BudgetExceededError, match="quadrature cells"):
        w.grr_check(path, 0.75, 2.0, level=np.int64(70))
    assert sizes == []


@pytest.mark.parametrize("level", [20_000, 10**7])
def test_grr_levels_too_deep_to_count_are_charged_as_inf(level):
    """From level 1024 on the 2^level cells are charged as inf, so neither a
    count too long to print (20 000) nor a big-integer product (10^7) is
    ever made."""
    path = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    start = time.perf_counter()
    with pytest.raises(w.BudgetExceededError, match="quadrature cells inf exceeds budget"):
        w.grr_check(path, 0.75, 2.0, level=level)
    assert time.perf_counter() - start < 1.0


def test_geodesic_characterization():
    seg = w.geodesic_segment(w.euclidean(2), [0.0, 0.0], [1.0, 2.0])
    assert w.geodesic_characterization_check(seg, 0.75, 2.0)
    tent = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [1.0], [0.0]], 1)
    assert not w.geodesic_characterization_check(tent, 0.75, 2.0)
    # non-constant-speed reparametrization of a straight segment also fails
    crooked = w.PiecewiseGeodesicPath(w.euclidean(1), [[0.0], [0.9], [1.0]], 1)
    assert not w.geodesic_characterization_check(crooked, 0.75, 2.0)
