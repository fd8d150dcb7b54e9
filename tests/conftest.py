import numpy as np
import pytest
from hypothesis import strategies as st

from wlift import PiecewiseGeodesicPath, circle, cylinder, euclidean, make_measure

ALL_SPACES = [euclidean(1), euclidean(2), euclidean(3), circle(2.0), cylinder(2.0)]


def random_point(rng, space):
    x = rng.normal(scale=2.0, size=space.dim)
    if space.kind in ("circle", "cylinder"):
        x[0] = rng.uniform(0, space.perimeter)
    return x


def random_points(rng, space, n):
    return np.stack([random_point(rng, space) for _ in range(n)])


def random_measure(rng, space, n_atoms):
    w = rng.uniform(0.2, 1.0, size=n_atoms)
    return make_measure(space, random_points(rng, space, n_atoms), w / w.sum())


def random_path(rng, space, level):
    return PiecewiseGeodesicPath(space, random_points(rng, space, 2**level + 1), level)


coords = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def measure_strategy(space, max_atoms=4):
    def build(draw_atoms, draw_w):
        atoms = np.array(draw_atoms, dtype=float).reshape(-1, space.dim)
        wts = np.array(draw_w, dtype=float) + 0.05
        return make_measure(space, atoms, wts / wts.sum())

    n = st.integers(1, max_atoms)
    return n.flatmap(
        lambda k: st.builds(
            build,
            st.lists(coords, min_size=k * space.dim, max_size=k * space.dim),
            st.lists(st.floats(0, 1, allow_nan=False), min_size=k, max_size=k),
        )
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


# one "[criterion N] PASS/FAIL" line per acceptance criterion, echoed after
# the test run so output capture cannot swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def loop_glue_chain(couplings, prune=1e-15):
    """Reference Markov glue of a chain of couplings, one support tuple and
    one successor atom at a time; returns (indices, weights)."""
    first = couplings[0].weights
    idx = np.argwhere(first > prune)
    wts = first[idx[:, 0], idx[:, 1]]
    for c in couplings[1:]:
        row_tot = c.weights.sum(axis=1)
        cond = c.weights / np.where(row_tot > 0, row_tot, 1.0)[:, None]
        new_idx, new_wts = [], []
        for tup, wt in zip(idx, wts):
            for k in np.nonzero(cond[tup[-1]] > prune)[0]:
                new_idx.append(np.append(tup, k))
                new_wts.append(wt * cond[tup[-1], k])
        idx, wts = np.array(new_idx, dtype=int), np.array(new_wts)
    return idx, wts
