import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlift as w
from conftest import ALL_SPACES, random_point

finite = st.floats(-10, 10, allow_nan=False)


def test_basic_distances():
    assert w.distance(w.euclidean(1), [0], [1]) == 1.0
    # wrap-around: min(1.5, 2 - 1.5)
    assert w.distance(w.circle(2), [0], [1.5]) == pytest.approx(0.5, abs=1e-15)
    # antipodal arc on the cylinder
    assert w.distance(w.cylinder(2), [0, 0], [1, 0]) == pytest.approx(1.0, abs=1e-15)
    assert w.distance(w.cylinder(2), [0, 0], [0, 3]) == pytest.approx(3.0, abs=1e-15)


def test_invalid_points():
    with pytest.raises(w.ValidationError):
        w.distance(w.euclidean(2), [0], [1, 2])
    with pytest.raises(w.ValidationError):
        w.distance(w.euclidean(1), [np.inf], [0])


def test_geodesic_examples():
    assert np.allclose(
        w.geodesic_point(w.euclidean(2), [0, 0], [2, 0], 0.5), [1, 0]
    )
    # shorter arc
    assert w.geodesic_point(w.circle(2), [0], [0.5], 0.5)[0] == pytest.approx(0.25)
    # antipodal tie broken toward increasing arc coordinate
    assert w.geodesic_point(w.circle(2), [0], [1], 0.5)[0] == pytest.approx(0.5)
    assert w.geodesic_point(w.circle(2), [0.5], [1.5], 0.5)[0] == pytest.approx(1.0)


def test_wrap_invariance():
    sp = w.circle(2)
    for x, y in [(0.3, 1.9), (0.0, 1.0), (1.2, 0.1)]:
        assert w.distance(sp, [x], [y]) == pytest.approx(
            w.distance(sp, [x + 2.0], [y]), abs=1e-12
        )


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_triangle_inequality_bulk(space):
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        x, y, z = (random_point(rng, space) for _ in range(3))
        dxz = w.distance(space, x, z)
        dxy = w.distance(space, x, y)
        dyz = w.distance(space, y, z)
        assert dxz <= dxy + dyz + 1e-12
        assert w.distance(space, x, y) == pytest.approx(dxy, abs=0)  # symmetry below
        assert w.distance(space, y, x) == pytest.approx(dxy, abs=1e-15)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_geodesic_constant_speed(space):
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = random_point(rng, space)
        y = random_point(rng, space)
        d = w.distance(space, x, y)
        s, t = sorted(rng.uniform(0, 1, size=2))
        gs = w.geodesic_point(space, x, y, s)
        gt = w.geodesic_point(space, x, y, t)
        assert abs(w.distance(space, gs, gt) - (t - s) * d) <= 1e-12


@given(x=finite, y=finite, s=st.floats(0, 1), t=st.floats(0, 1))
@settings(max_examples=150, deadline=None)
def test_circle_geodesic_property_hypothesis(x, y, s, t):
    sp = w.circle(2)
    d = w.distance(sp, [x], [y])
    gs = w.geodesic_point(sp, [x], [y], s)
    gt = w.geodesic_point(sp, [x], [y], t)
    assert abs(w.distance(sp, gs, gt) - abs(t - s) * d) <= 1e-9


def test_geodesic_segment_roundtrip():
    sp = w.circle(2)
    seg = w.geodesic_segment(sp, [0.3], [0.8])
    assert np.allclose(seg(0.0), [0.3])
    assert np.allclose(seg(1.0), [0.8])
    # constant speed d(x, y) per unit time
    assert seg.segment_lengths()[0] == pytest.approx(0.5)


def test_distance_matrix_agrees_with_scalar():
    rng = np.random.default_rng(13)
    for space in ALL_SPACES:
        X = np.stack([random_point(rng, space) for _ in range(5)])
        Y = np.stack([random_point(rng, space) for _ in range(4)])
        D = w.distance_matrix(space, X, Y)
        for i in range(5):
            for j in range(4):
                assert D[i, j] == pytest.approx(
                    w.distance(space, X[i], Y[j]), abs=1e-14
                )


@pytest.mark.parametrize("P", [2.0, 1.0, 2 * np.pi, 3.7])
def test_signed_arc_canonical_matches_modulo(P):
    # on canonical coordinates (in [0, P)) the conditional add of P gives the
    # bits of the general modulo
    rng = np.random.default_rng(401)
    edge = [0.0, np.nextafter(P, 0.0), P / 2, np.nextafter(P / 2, 0.0), P / 4, 3 * P / 4,
            0.1 * P, 0.1 * P + P / 2, 5e-324]
    pts = np.concatenate([edge, rng.uniform(0.0, P, 500)])
    pts = w.spaces.canonicalize_points(w.circle(P), pts)[:, 0]
    assert np.all((pts >= 0) & (pts < P))
    a, b = pts[:, None], pts[None, :]
    assert np.array_equal(w.spaces._signed_arc(P, a, b, canonical=True),
                          w.spaces._signed_arc(P, a, b))
    # exact half-perimeter ties are broken toward increasing coordinate
    assert w.spaces._signed_arc(P, 0.0, P / 2, canonical=True) == P / 2
    assert w.spaces._signed_arc(P, P / 2, 0.0, canonical=True) == P / 2
    for sp in (w.circle(P), w.cylinder(P)):
        X = np.column_stack([pts, rng.normal(size=pts.size)])[:, : sp.dim]
        assert np.array_equal(
            w.spaces.distance_matrix(sp, X, X),
            w.spaces._distance_arrays(sp, X[:, None, :], X[None, :, :]),
        )


def _bound_points(space):
    """Point sequences for the diameter bound: random coordinates, edge
    coordinates of the arc (0, just below P, P/2, the smallest subnormal)
    and, when asked, each point's antipode exactly P/2 away in arc."""
    P = space.perimeter
    coord = st.one_of(st.floats(-5, 5, allow_nan=False),
                      st.sampled_from([0.0, np.nextafter(P, 0.0), P / 2, 5e-324, -1e-17]))
    n = st.integers(1, 12)
    return st.tuples(n.flatmap(lambda k: st.lists(coord, min_size=k * space.dim,
                                                  max_size=k * space.dim)),
                     st.booleans())


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_diameter_bound_holds_every_distance(space):
    """`_diameter_bound` is at least every computed canonical distance
    between two points of its sequence, also for points exactly P/2 apart."""

    @given(_bound_points(space))
    @settings(max_examples=150, deadline=None)
    def check(case):
        coords, antipodes = case
        X = w.spaces.canonicalize_points(space, np.reshape(coords, (-1, space.dim)))
        if antipodes and space.kind != "euclidean":
            Y = X.copy()
            Y[:, 0] += space.perimeter / 2
            X = w.spaces.canonicalize_points(space, np.concatenate([X, Y]))
        seqs = np.stack([X, X[::-1], np.roll(X, 1, axis=0)])
        bounds = w.spaces._diameter_bound(space, seqs)
        for S, bound in zip(seqs, bounds):
            D = w.spaces._distance_arrays(space, S[:, None, :], S[None, :, :], canonical=True)
            assert D.max() <= bound

    check()
