"""Exact discrete optimal transport, coupling gluing, and the multi-marginal
compatibility feasibility LP.

All LPs are solved with scipy's HiGHS backend; transport problems are solved
to vertex optimality with HiGHS's primal feasibility tolerance tightened from
its default 1e-7 to MARGINAL_TOL, so each marginal constraint of a returned
plan holds to MARGINAL_TOL.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from . import spaces
from .errors import BudgetExceededError, ValidationError
from .measures import DiscreteMeasure, _check_exponent, check_same_space, measures_equal

DEFAULT_BUDGET = 10**6
MARGINAL_TOL = 1e-10
FEASIBILITY_TOL = 1e-8
# HiGHS's default tolerance 1e-7 accepts plans whose marginals miss by up to
# 1e-7: e.g. the identity plan between two measures on the same atoms whose
# weights differ by 4.4e-10, at cost 0 instead of 4e-9.  1e-10 is the
# smallest value HiGHS accepts.
_TRANSPORT_LP_OPTIONS = {"primal_feasibility_tolerance": MARGINAL_TOL}


def product_budget() -> int:
    """Size budget for product-support LPs (env var WLIFT_BUDGET overrides;
    it must be an integer >= 1)."""
    raw = os.environ.get("WLIFT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValidationError(f"WLIFT_BUDGET must be an integer >= 1, got {raw!r}")
    return budget


@dataclass(frozen=True)
class Coupling:
    row_measure: DiscreteMeasure
    col_measure: DiscreteMeasure
    weights: np.ndarray  # (n, m), nonnegative

    def marginal_errors(self):
        r = np.abs(self.weights.sum(axis=1) - self.row_measure.weights).max()
        c = np.abs(self.weights.sum(axis=0) - self.col_measure.weights).max()
        return r, c

    def cost(self, p: float) -> float:
        D = spaces.distance_matrix(
            self.row_measure.space, self.row_measure.atoms, self.col_measure.atoms
        )
        return float(np.sum(self.weights * D**p))


@dataclass(frozen=True)
class MultiCoupling:
    """Sparse joint measure over the product of the marginals' supports.

    indices[k, i] is the atom index of marginal i in the k-th support tuple.
    """

    marginals: tuple
    indices: np.ndarray  # (K, N) int
    weights: np.ndarray  # (K,)
    labels: tuple = ()  # e.g. the dyadic times the marginals sit at

    @property
    def n_marginals(self) -> int:
        return len(self.marginals)

    def marginal_error(self) -> float:
        worst = 0.0
        for i, mu in enumerate(self.marginals):
            w = np.zeros(mu.size)
            np.add.at(w, self.indices[:, i], self.weights)
            worst = max(worst, float(np.abs(w - mu.weights).max()))
        return worst

    def pair_coupling(self, i: int, j: int) -> Coupling:
        """2-D marginal onto components (i, j)."""
        mi, mj = self.marginals[i], self.marginals[j]
        W = np.zeros((mi.size, mj.size))
        np.add.at(W, (self.indices[:, i], self.indices[:, j]), self.weights)
        return Coupling(mi, mj, W)

    def pair_cost(self, i: int, j: int, p: float) -> float:
        mi, mj = self.marginals[i], self.marginals[j]
        d = spaces._distance_arrays(
            mi.space, mi.atoms[self.indices[:, i]], mj.atoms[self.indices[:, j]]
        )
        return float(np.sum(self.weights * d**p))


@dataclass(frozen=True)
class CompatibilityReport:
    feasible: bool
    certificate: MultiCoupling | None
    max_pair_gap: float  # minimized total excess over pairwise optimal costs
    product_size: int
    pair_costs: dict = field(default_factory=dict)


def optimal_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
    """Exact optimal transport plan for cost d^p; returns (Coupling, cost)."""
    check_same_space(mu, nu)
    _check_exponent(p)
    D = spaces.distance_matrix(mu.space, mu.atoms, nu.atoms) ** p
    n, m = D.shape
    if n == 1:
        W = nu.weights[None, :].copy()
        return Coupling(mu, nu, W), float(np.sum(W * D))
    if m == 1:
        W = mu.weights[:, None].copy()
        return Coupling(mu, nu, W), float(np.sum(W * D))

    c = D.reshape(-1)
    rows = sp.kron(sp.eye(n), np.ones((1, m)), format="csr")
    cols = sp.kron(np.ones((1, n)), sp.eye(m), format="csr")
    A = sp.vstack([rows, cols[:-1]], format="csr")  # drop one dependent row
    b = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog(
        c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
        options=_TRANSPORT_LP_OPTIONS,
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    W = res.x.reshape(n, m)
    W[W < 0] = 0.0
    return Coupling(mu, nu, W), float(np.dot(res.x, c))


def wasserstein_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """W_p(mu, nu) = (optimal cost)^(1/p); exact zero for identical measures."""
    check_same_space(mu, nu)
    _check_exponent(p)
    if measures_equal(mu, nu):
        return 0.0
    _, cost = optimal_coupling(mu, nu, p)
    return max(cost, 0.0) ** (1.0 / p)


def wasserstein_power(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """W_p^p(mu, nu)."""
    _check_exponent(p)
    if measures_equal(mu, nu):
        return 0.0
    _, cost = optimal_coupling(mu, nu, p)
    return max(cost, 0.0)


def glue_chain(couplings, labels=(), prune: float = 1e-15) -> MultiCoupling:
    """Glue a chain of couplings sharing consecutive marginals by Markov
    disintegration (left to right).  Consecutive 2-D marginals of the result
    equal the inputs."""
    if not couplings:
        raise ValidationError("empty chain")
    for a, b in zip(couplings, couplings[1:]):
        if not measures_equal(a.col_measure, b.row_measure):
            raise ValidationError("chain mismatch: shared marginals differ")

    first = couplings[0]
    idx = np.argwhere(first.weights > prune)
    wts = first.weights[idx[:, 0], idx[:, 1]]
    for c in couplings[1:]:
        row_tot = c.weights.sum(axis=1)
        safe = np.where(row_tot > 0, row_tot, 1.0)
        cond = c.weights / safe[:, None]
        new_idx = []
        new_wts = []
        for (tup, w) in zip(idx, wts):
            j = tup[-1]
            nz = np.nonzero(cond[j] > prune)[0]
            for k in nz:
                new_idx.append(np.append(tup, k))
                new_wts.append(w * cond[j, k])
        idx = np.array(new_idx, dtype=int)
        wts = np.array(new_wts)

    marginals = tuple([couplings[0].row_measure] + [c.col_measure for c in couplings])
    return MultiCoupling(marginals, idx, wts, tuple(labels))


def all_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def dyadic_pattern_pairs(n: int):
    """Index pairs (i, i + 2^(n-m)), i = k 2^(n-m), for m = 0..n, over the
    2^n + 1 dyadic time indices.  This is the pair set pinned by the dyadic
    lift construction."""
    pairs = set()
    for m in range(n + 1):
        step = 2 ** (n - m)
        for k in range(2**m):
            pairs.add((k * step, k * step + step))
    return sorted(pairs)


def compatibility_multicoupling(
    measures,
    p: float,
    pairs=None,
    budget: int | None = None,
    tol: float = FEASIBILITY_TOL,
    labels=(),
) -> CompatibilityReport:
    """Decide whether a multi-coupling exists whose 2-D marginals on `pairs`
    are all optimal couplings.

    Solved as an LP over the full product support: minimize the total d^p
    cost over the requested pairs subject to the fixed 1-D marginals.  Any
    multi-coupling's pair cost is >= W_p^p for that pair, so the minimum
    exceeds sum of W_p^p by the smallest achievable total excess; the
    collection is compatible on `pairs` iff that excess is ~ 0.
    """
    measures = list(measures)
    N = len(measures)
    if N < 1:
        raise ValidationError("need at least one measure")
    for m in measures[1:]:
        check_same_space(measures[0], m)
    if N == 1:
        mu = measures[0]
        cert = MultiCoupling(
            (mu,), np.arange(mu.size)[:, None], mu.weights.copy(), tuple(labels)
        )
        return CompatibilityReport(True, cert, 0.0, mu.size)
    if pairs is None:
        pairs = all_pairs(N)
    pairs = sorted(set(tuple(sorted(pr)) for pr in pairs))

    sizes = [m.size for m in measures]
    K = int(np.prod(sizes, dtype=object))
    cap = budget if budget is not None else product_budget()
    if K > cap:
        raise BudgetExceededError(K, cap)

    # index grid over the product support
    grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
    idx = np.stack([g.reshape(-1) for g in grids], axis=1)  # (K, N)

    pair_opt = {}
    objective = np.zeros(K)
    for (i, j) in pairs:
        mi, mj = measures[i], measures[j]
        d = spaces._distance_arrays(
            mi.space, mi.atoms[idx[:, i]], mj.atoms[idx[:, j]]
        )
        objective += d ** p
        pair_opt[(i, j)] = wasserstein_power(mi, mj, p)

    rows, cols, vals, b = [], [], [], []
    r = 0
    for i, mu in enumerate(measures):
        for a in range(mu.size):
            sel = np.nonzero(idx[:, i] == a)[0]
            rows.extend([r] * len(sel))
            cols.extend(sel.tolist())
            vals.extend([1.0] * len(sel))
            b.append(mu.weights[a])
            r += 1
    A = sp.csr_matrix((vals, (rows, cols)), shape=(r, K))
    res = linprog(objective, A_eq=A, b_eq=np.array(b), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"compatibility LP failed: {res.message}")

    total_opt = sum(pair_opt.values())
    gap = float(res.fun - total_opt)
    scale = max(1.0, total_opt)
    feasible = gap <= tol * scale
    cert = None
    if feasible:
        keep = res.x > 1e-15
        cert = MultiCoupling(
            tuple(measures), idx[keep], res.x[keep], tuple(labels)
        )
    return CompatibilityReport(feasible, cert, max(gap, 0.0), K, pair_opt)


def is_compatible(measures, p: float, budget: int | None = None) -> bool:
    """Compatibility of the full collection (all pairs optimal)."""
    measures = list(measures)
    if len(measures) <= 1:
        return True
    return compatibility_multicoupling(measures, p, budget=budget).feasible
