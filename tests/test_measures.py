import numpy as np
import pytest

import wlift as w


def test_make_measure_merges_duplicates():
    sp = w.euclidean(1)
    mu = w.make_measure(sp, [[1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])
    assert mu.size == 2
    assert np.allclose(mu.atoms[:, 0], [0.0, 1.0])
    assert np.allclose(mu.weights, [0.5, 0.5])


def test_make_measure_sorts_support():
    sp = w.euclidean(2)
    mu = w.make_measure(sp, [[2.0, 0.0], [1.0, 5.0], [1.0, -1.0]], [0.2, 0.3, 0.5])
    assert np.allclose(mu.atoms, [[1.0, -1.0], [1.0, 5.0], [2.0, 0.0]])
    assert np.allclose(mu.weights, [0.5, 0.3, 0.2])


def test_line_atoms_are_strictly_increasing():
    # real-line transport reads quantiles off the stored order
    # (`transport._quantile_tuples`), with no sort of its own
    rng = np.random.default_rng(7)
    sp = w.euclidean(1)
    for n in (2, 5, 40):
        xs = rng.integers(-n, n, size=n).astype(float) / 3  # repeats
        atoms = np.concatenate([xs, xs[: n // 2]])[rng.permutation(n + n // 2), None]
        mu = w.make_measure(sp, atoms, np.full(len(atoms), 1.0 / len(atoms)))
        assert np.all(np.diff(mu.atoms[:, 0]) > 0)
        assert np.array_equal(mu.atoms[:, 0], np.unique(xs))
        want = [np.count_nonzero(atoms[:, 0] == x) / len(atoms) for x in mu.atoms[:, 0]]
        assert np.allclose(mu.weights, want, rtol=1e-15, atol=0)


def test_circle_atoms_wrapped_before_merge():
    sp = w.circle(2.0)
    mu = w.make_measure(sp, [[0.5], [2.5]], [0.5, 0.5])
    assert mu.size == 1
    assert mu.atoms[0, 0] == pytest.approx(0.5)


def test_validation_errors():
    sp = w.euclidean(1)
    with pytest.raises(w.ValidationError):
        w.make_measure(sp, [[0.0]], [0.9])  # not normalized
    with pytest.raises(w.ValidationError):
        w.make_measure(sp, [[0.0], [1.0]], [1.0, 0.0])  # zero weight
    with pytest.raises(w.ValidationError):
        w.make_measure(sp, np.zeros((0, 1)), [])  # empty support
    with pytest.raises(w.ValidationError):
        w.make_measure(sp, [[0.0]], [1.0, 1.0])  # length mismatch


def test_measures_equal_and_dirac():
    sp = w.euclidean(1)
    a = w.dirac(sp, [0.3])
    b = w.make_measure(sp, [[0.3]], [1.0])
    assert w.measures_equal(a, b)
    c = w.dirac(sp, [0.3 + 1e-12])
    assert not w.measures_equal(a, c)


def test_p_moment():
    sp = w.euclidean(1)
    mu = w.make_measure(sp, [[0.0], [2.0]], [0.5, 0.5])
    # 0.5 * 1^2 + 0.5 * 1^2
    assert w.p_moment(mu, [1.0], 2.0) == pytest.approx(1.0)
    assert w.p_moment(mu, [0.0], 1.0) == pytest.approx(1.0)


def test_space_mismatch():
    mu = w.dirac(w.euclidean(1), [0.0])
    nu = w.dirac(w.circle(2.0), [0.0])
    with pytest.raises(w.SpaceMismatchError):
        w.wasserstein_distance(mu, nu, 2.0)


def test_circle_tiny_negative_coordinate_wraps_to_zero():
    # -1e-17 % 2 rounds up to 2.0, which used to keep a second atom there
    sp = w.circle(2.0)
    mu = w.make_measure(sp, [[-1e-17], [0.0]], [0.5, 0.5])
    assert mu.size == 1
    assert mu.atoms[0, 0] == 0.0
    assert w.measures_equal(mu, w.dirac(sp, [0.0]))


def test_non_finite_weights_and_exponents_rejected():
    sp = w.euclidean(1)
    with pytest.raises(w.ValidationError):
        w.make_measure(sp, [[0.0], [1.0]], [np.nan, 1.0])
    with pytest.raises(w.ValidationError):
        w.make_measure(sp, [[0.0], [1.0]], [np.inf, 1.0])
    mu = w.make_measure(sp, [[0.0], [2.0]], [0.5, 0.5])
    nu = w.dirac(sp, [1.0])
    for p in (np.nan, np.inf):
        with pytest.raises(w.ValidationError):
            w.optimal_coupling(mu, nu, p)
        for a, b in ((mu, nu), (mu, mu)):
            with pytest.raises(w.ValidationError):
                w.wasserstein_distance(a, b, p)
            with pytest.raises(w.ValidationError):
                w.wasserstein_power(a, b, p)
        with pytest.raises(w.ValidationError):
            w.p_moment(mu, [0.0], p)
        with pytest.raises(w.ValidationError):
            w.besov_energy_pg(w.geodesic_segment(sp, [0.0], [1.0]), 0.75, p)
