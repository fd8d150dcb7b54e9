"""Exact discrete optimal transport, coupling gluing, and the multi-marginal
compatibility feasibility LP.

Every W_p value comes from `wasserstein_many(pairs, p)`, which handles each
pair by the first rule that applies:
  1. equal measures: exactly 0;
  2. a point mass on either side: its only coupling, in closed form;
  3. the real line, euclidean(1): the monotone plan, optimal for every
     p >= 1, with no cost matrix, nearest-neighbour blocks, assignment or
     LP (`_line_plans`, the two-measure case of `_comonotone`, for all of
     a call's line pairs at once, grouped by atom counts);
  4. nearest-neighbour blocks (`_nearest_split`): a partition of the atoms
     into blocks (R_k, C_k) that an optimal plan need not cross, read off
     the cost matrix: each row with its nearest column, each column with
     its nearest row, or the components of both nearest-neighbour maps,
     the first whose blocks are balanced and (for the last) closed, a
     certificate in the spirit of Schmitzer's shielding (A sparse
     multiscale algorithm for dense optimal transport, JMIV 2016).  Blocks
     of one row or one column get their only coupling in closed form; the
     others go to rules 5 and 6, and so does a pair no partition
     certifies, whole;
  5. a square block whose row weights are all equal and whose column
     weights are all equal, as every block of a particle system's pair is:
     an optimal assignment (`_assigned`), whose plan is an optimal vertex
     (Birkhoff-von Neumann), by scipy's `linear_sum_assignment`: 5-20 us
     against 0.09-1.6 ms for the same block's LP, n = 2..30, on a 2-core
     VM (`BENCH_assignment.json`);
  6. otherwise: one block of a block-diagonal LP.  Blocks are taken in
     order into HiGHS solves of at most _LP_COLUMNS = 2048 plan entries
     (LP columns) each.  The LP separates by block, so each block's part of
     the solution is that block's own optimum.  The cap bounds memory: one
     33 792-column solve raised a process's peak RSS by 36 MiB, while
     2048-column solves add ~2 MiB.  For the same reason a pair's cost
     matrix is built in its turn, and only its blocks left to the LP are
     kept until their solve, so one solve's blocks and one pair's matrix
     (or one larger pair's) are alive at a time, however long the pair
     list.
`wasserstein_distance` and `wasserstein_power` are its single-pair case.
Rules 2-6 are one plan dispatch, `_plans`, which also returns each
pair's plan: `_optimal_couplings` gives the plans of a whole pair list (a
lift's glued chain takes its 2^n plans from one call, so from one LP per
_LP_COLUMNS plan entries left to the LP), and `optimal_coupling` is its
single-pair case.  Each plan is optimal and a vertex of its pair's
transport polytope: a closed-form block's support is a forest, as a
vertex's is, a monotone plan's a staircase path, and an assignment's a
matching.  Under ties it need not be the vertex the pair's own LP would
return: a nearest-neighbour plan is the vertex rule 4 reads off, an
assignment the one the solver finds, and a block of a batched LP can land
on another optimal vertex.  Only the last depends on how the blocks are
batched.  One builder, `_transport_lp`, writes the constraint matrix of
every transport LP.

`compatibility_multicoupling` decides whether a multi-coupling exists whose
2-D marginals on a set of pairs are optimal.  On the real line the answer
needs no LP: the comonotone (quantile) coupling, `_comonotone`, is optimal
for every pair at once for every p >= 1 (Santambrogio, Optimal Transport
for Applied Mathematicians, 2015, ch. 2), and it has at most sum n_i
support tuples.  Elsewhere it solves one LP over tables on the cliques of
a junction tree of the pair graph (`_junction_tree`).  For the dyadic
pattern these are the 2^n - 1 triangles (a, (a+b)/2, b), and the LP, sum
n_a n_m n_b columns written by `_table_lp`, is solved at once.  Any other
pair set is one clique of all measures, the LP over the full product
support, prod n_i columns; it is solved by column generation
(`_product_lp`), which builds only the columns it prices in.  Its
certificate is the tables glued down the tree by Markov disintegration
(`_glue`, of which `glue_chain` is the path case).  Every certificate,
lift B's glued chain included, passes one re-check on its own support,
`_certify`, with a bound on each pinned pair's excess.

Every LP here has one form, min c.x subject to A x = b, x >= 0, and is
solved by one adapter, `_highs_solve`, which also returns the row duals.
A is 0/1 except for the -1 of the compatibility LP's separator rows.  The
LP builders write A straight into compressed-column arrays; a transport
block's row indices depend only on its shape, so `_block_pattern` caches
them by (n, m), already as the int32 HiGHS takes.
The adapter hands them by pointer to the HiGHS solver (Huangfu & Hall,
Math. Prog. Comp. 2018) through scipy's bindings, so the solutions are the
ones `linprog(method="highs")` returns under the same options, without its
per-call input checks and conversions.  HiGHS's presolve is off, for the
reason given at _TRANSPORT_LP_OPTIONS.
HiGHS's primal feasibility tolerance is tightened from its default 1e-7 to
MARGINAL_TOL, so each marginal constraint of a returned plan or certificate
holds to MARGINAL_TOL; its dual feasibility tolerance is DUAL_TOL, its
default, set explicitly.
Each thread solves on one HiGHS solver of its own (`_solver`, kept in the
thread-local `_thread`), made with _HIGHS_OPTIONS on its first LP and
reused: making a solver and setting its options costs ~0.1 ms, as much as
the simplex of a small LP.  Its model is cleared after every LP, solved or
not, so no model outlives its call, and the plans and objectives are those
of a fresh solver, bit for bit.  After an LP of more than _LP_COLUMNS
columns the solver is dropped, because a reused one keeps the capacity of
its buffers: kept after the 65 536- and 78 125-column product LPs of the
benchmark's compat_lp workload, it raised that run's peak RSS from 113.7
to 127.3 MiB.

The bindings, `_highs`, are the extension module
scipy.optimize._highspy._core, and the assignment solver, `_lsap()`, is
the extension scipy.optimize._lsap.  `_load_extension` loads either from
its file in scipy's package directory without running scipy.optimize's
__init__: that imports all of scipy.optimize and scipy.sparse, ~550
modules and ~0.5 s, against a few ms for an extension alone.  HiGHS's is
loaded with this module, the assignment solver on its first block.  A
module is registered in sys.modules under its own name, so a later
`import scipy.optimize` reuses the same module object, and an entry
already there is reused the same way.  (Import statements find it there;
its package, imported later, does not hold it as an attribute: e.g.
scipy.optimize._highspy has no `_core`.)  If the file load fails for any
reason, the normal import runs instead, and the module is None where
scipy lacks it (older releases): without the bindings `linprog` solves,
and without the assignment solver every block goes to the LP.  `linprog`
is not imported with this module: its __getattr__ imports it on first
access as `transport.linprog`, which only that fallback and the tests use.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import spaces
from .errors import BudgetExceededError, ValidationError
from .measures import DiscreteMeasure, _check_exponent, check_same_space, measures_equal

_HIGHS_MODULE = "scipy.optimize._highspy._core"
_LSAP_MODULE = "scipy.optimize._lsap"


def _load_extension(name: str):
    """The scipy extension module `name`, loaded from its file (see the
    module docstring); None if scipy has none."""
    if name in sys.modules:
        return sys.modules[name]
    try:
        _, *folders, leaf = name.split(".")
        folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                              *folders)
        path = next(f for f in (os.path.join(folder, leaf + suffix)
                                for suffix in importlib.machinery.EXTENSION_SUFFIXES)
                    if os.path.isfile(f))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # before it runs, as the import system does
        spec.loader.exec_module(module)
        return module
    except Exception:  # noqa: BLE001 - any failure falls back to the normal import
        sys.modules.pop(name, None)
    try:  # private to scipy and missing from older releases
        return importlib.import_module(name)
    except ImportError:
        return None


_highs = _load_extension(_HIGHS_MODULE)


@functools.cache
def _lsap():
    """scipy's assignment solver extension, loaded on its first use, not
    with this module: most programs never reach an equal-weight square
    block (`_assigned`).  Threads that first call it together may each
    run the load; they still get one module object, because loading this
    single-phase-init extension again returns the module already in
    sys.modules."""
    return _load_extension(_LSAP_MODULE)


def __getattr__(name):
    """`linprog`, imported from scipy.optimize on first access (PEP 562)."""
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog

    globals()["linprog"] = linprog
    return linprog

DEFAULT_BUDGET = 10**6
MARGINAL_TOL = 1e-10
FEASIBILITY_TOL = 1e-8
# HiGHS's dual feasibility tolerance (its default), set explicitly in both
# option sets below: the least reduced cost c_k - (A^T y)_k an optimal solve
# leaves, and the threshold below which column generation prices a column
# into the product-support LP's master (`_product_lp`)
DUAL_TOL = 1e-7
# HiGHS's default tolerance 1e-7 accepts plans whose marginals miss by up to
# 1e-7: e.g. the identity plan between two measures on the same atoms whose
# weights differ by 4.4e-10, at cost 0 instead of 4e-9.  1e-10 is the
# smallest value HiGHS accepts.  Presolve is off: from a product-support LP
# it removes only the dependent marginal rows, and a 78 125-column one took
# 0.88 s with it against 0.11 s without.  It removes no column from the other
# LPs either, except that it solves block-diagonal 2 x 2 transport LPs
# outright: a 252-column one ran in 0.54 ms with it, 1.13 ms without.
_TRANSPORT_LP_OPTIONS = {"primal_feasibility_tolerance": MARGINAL_TOL,
                         "dual_feasibility_tolerance": DUAL_TOL, "presolve": False}
# what `linprog(method="highs", options=_TRANSPORT_LP_OPTIONS)` sets in HiGHS
_HIGHS_OPTIONS = {
    "presolve": "off", "output_flag": False, "log_to_console": False,
    "primal_feasibility_tolerance": MARGINAL_TOL, "dual_feasibility_tolerance": DUAL_TOL,
}
# most plan entries one batched transport LP takes (see the module docstring)
_LP_COLUMNS = 2048
# most columns or entries an LP may have: HiGHS indexes them in 32 bits
_INDEX_CAP = 2**31 - 1
# most tuples one column-generation round adds to the product-support LP's
# master, per row of the LP (`_product_lp`).  On 16 LPs of 27 to 262 144
# columns (2-core VM, three sweeps) 1 took 0.44-0.67 s in all, 2 took
# 0.37-0.47 s, and 3, 4, 6 and 8 took 0.32-0.44 s in no clear order: fewer
# mean more rounds, more a larger master
_PRICED_PER_ROW = 4
# largest euclidean norm of the block imbalances mu(R_k) - nu(C_k) of a
# balanced partition (`_nearest_split`): the rounding of a few thousand
# weights summed, and far below MARGINAL_TOL
_BALANCE_TOL = 1e-13
# most (tuple, pair) distances one `pair_cost` call of `_certify` computes:
# every pinned pair of a certificate at once, unless it has so many tuples
# that the distance arrays would take more than a few MiB (a seeded random
# 4-atom circle curve's level-5 certificate has 644 112 tuples and 63
# pinned pairs, 41 million distances, over 1 GiB of arrays in one call)
_COST_ENTRIES = 2**18
# glued tuples of weight at most this are dropped (`_glue`)
_GLUE_PRUNE = 1e-15
# `highs`: this thread's HiGHS solver, reused from LP to LP (`_solver`)
_thread = threading.local()


def product_budget() -> int:
    """The size budget, DEFAULT_BUDGET unless the env var WLIFT_BUDGET (an
    integer >= 1) overrides it.  `_charge` counts against it, each named as
    its error message names it:
      * LP columns of a compatibility LP ("LP columns" for clique tables,
        "product support size" for the product-support LP);
      * support tuples of a compatibility certificate ("certificate tuples"
        for the comonotone one, "glued certificate tuples" as `_glue`
        extends a glued one);
      * fractional Sobolev quadrature rectangles of at most
        `norms._QUAD_NODE_PAIRS` node pairs each ("quadrature cells");
      * the K (2^M + 1) points of a level-M dyadic grid over K paths
        ("grid points");
      * the 2^n + 1 breakpoints of each path of a level-n lift ("lift
        breakpoints per path").
    A count built from 2^n is charged as inf from n = 1024 on, where no
    budget reaches, and the integer is never built."""
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


def _charge(count, what: str, cap: int | None = None) -> None:
    """The one size-limit check: raise BudgetExceededError, naming `what`,
    if `count`, a Python int or inf, exceeds `cap`, by default
    `product_budget()`.  A count above 2^1024 is reported as inf, so that
    no message holds an int Python refuses to print (over 4300 digits)."""
    cap = product_budget() if cap is None else cap
    if count > cap:
        raise BudgetExceededError(np.inf if count > 2**1024 else count, cap, what)


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
        return float(np.sum(self.weights * _cost_matrix(self.row_measure, self.col_measure, p)))


@dataclass(frozen=True)
class MultiCoupling:
    """Sparse joint measure over the product of the marginals' supports.

    indices[k, i] is the atom index of marginal i in the k-th support tuple.
    """

    marginals: tuple
    indices: np.ndarray  # (K, N) int
    weights: np.ndarray  # (K,)
    labels: tuple = ()  # e.g. the dyadic times the marginals sit at

    def marginal_error(self) -> float:
        """Largest 1-D marginal error: every marginal's sums from one
        `np.bincount`, marginal i's atoms offset past those before it."""
        offsets = np.cumsum([0] + [mu.size for mu in self.marginals])
        w = np.bincount((self.indices + offsets[:-1]).ravel(),
                        np.repeat(self.weights, len(self.marginals)), offsets[-1])
        return float(np.abs(w - np.concatenate([mu.weights for mu in self.marginals])).max())

    def pair_coupling(self, i: int, j: int) -> Coupling:
        """2-D marginal onto components (i, j)."""
        mi, mj = self.marginals[i], self.marginals[j]
        W = np.zeros((mi.size, mj.size))
        np.add.at(W, (self.indices[:, i], self.indices[:, j]), self.weights)
        return Coupling(mi, mj, W)

    def pair_cost(self, i, j, p: float):
        """Cost of the 2-D marginal onto components (i, j); for index
        arrays i and j, the array of every pair's cost, from one distance
        call.  Each pair's distances form one contiguous row, so its power
        and sum run exactly as on the scalar form's 1-D array."""
        offsets = np.cumsum([0] + [mu.size for mu in self.marginals])
        atoms = np.concatenate([mu.atoms for mu in self.marginals])
        ends = [atoms[(self.indices[:, k] + offsets[k]).T] for k in (i, j)]
        d = spaces._distance_arrays(self.marginals[0].space, *ends)
        cost = np.sum(self.weights * d**p, axis=-1)
        return float(cost) if cost.ndim == 0 else cost


@dataclass(frozen=True)
class CompatibilityReport:
    """`marginal_residual` and `pair_residual` are measured on the candidate
    certificate (the LP's glued solution, on the real line the comonotone
    coupling, or lift B's glued chain): its largest 1-D marginal error, and
    its largest pinned pair cost minus that pair's W_p^p.  The one rule
    (`_certify`): a certificate is returned only if the first is <=
    FEASIBILITY_TOL, the total excess <= tol * max(1, sum of the pair
    optima), and each pair's excess <= tol * max(1, its W_p^p)."""

    feasible: bool
    certificate: MultiCoupling | None
    max_pair_gap: float  # least total excess over pairwise optimal costs
    product_size: int  # prod of the marginals' support sizes, also where no LP runs
    pair_costs: dict = field(default_factory=dict)
    marginal_residual: float = 0.0
    pair_residual: float = 0.0
    # columns of the LP decided: prod n_i for the product-support LP (solved
    # by column generation over those columns), sum n_a n_m n_b for the
    # dyadic pattern's clique tables, 0 where no LP was needed
    lp_columns: int = 0


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> np.ndarray:
    """d^p between every atom of mu and every atom of nu.  A measure's atoms
    are canonical already (`make_measure`), so they are not made so again."""
    return spaces._distance_arrays(
        mu.space, mu.atoms[:, None, :], nu.atoms[None, :, :], canonical=True) ** p


def _point_mass_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """The only coupling of mu and nu when one of them is a point mass."""
    return nu.weights[None, :].copy() if mu.size == 1 else mu.weights[:, None].copy()


def _solver():
    """This thread's HiGHS solver, made with _HIGHS_OPTIONS on first use."""
    solver = getattr(_thread, "highs", None)
    if solver is None:
        solver = _thread.highs = _highs._Highs()
        for key, value in _HIGHS_OPTIONS.items():
            solver.setOptionValue(key, value)
    return solver


def _highs_solve(c, indptr, indices, b, values=None):
    """Solve min c.x subject to A x = b, x >= 0, where column k of A holds
    values[indptr[k]:indptr[k + 1]] (ones when `values` is None) in rows
    indices[indptr[k]:indptr[k + 1]] (compressed columns).  Returns
    (x, objective, y): y holds the row duals, signed so that the reduced
    costs are c - A^T y, >= -DUAL_TOL at an optimum and 0 wherever x > 0
    (complementary slackness).  Raises RuntimeError, naming HiGHS's model status, unless it is
    optimal, and BudgetExceededError if the LP has more columns or entries
    than _INDEX_CAP."""
    num_nz = int(indptr[-1])
    _charge(max(c.size, num_nz), "LP columns or entries", _INDEX_CAP)
    if values is None:
        values = np.ones(indices.size)
    if _highs is None:
        from scipy.sparse import csc_array

        A = csc_array((values, indices, indptr), shape=(b.size, c.size))
        linprog = sys.modules[__name__].linprog  # through __getattr__ on first use
        res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                      options=_TRANSPORT_LP_OPTIONS)
        if not res.success:
            raise RuntimeError(f"LP not solved: {res.message}")
        return res.x, res.fun, res.eqlin.marginals
    solver = _solver()
    n = c.size  # the pointer overload needs n integrality flags; with none it fails
    try:
        if solver.passModel(
            n, b.size, num_nz, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize, 0.0,
            c, np.zeros(n), np.full(n, np.inf), b, b, indptr[:-1].astype(np.int32),
            indices.astype(np.int32, copy=False), values, np.zeros(n, np.int32),
        ) == _highs.HighsStatus.kError:
            raise RuntimeError("LP not solved: HiGHS rejected the model")
        solver.run()
        status = solver.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"LP not solved: model status {solver.modelStatusToString(status)}")
        solution = solver.getSolution()
        return (np.array(solution.col_value), solver.getObjectiveValue(),
                np.array(solution.row_dual))
    finally:
        solver.clearModel()
        if n > _LP_COLUMNS:  # a reused solver would keep this LP's buffer capacity
            _thread.highs = None


@functools.lru_cache(maxsize=256)
def _block_pattern(n: int, m: int):
    """Row indices (int32) and per-column entry counts of an n x m transport
    block's columns, rows numbered from the block's first row (see
    `_transport_lp`); read-only, as they are shared."""
    i, j = np.divmod(np.arange(n * m), m)
    rows = np.stack([i, n + j], axis=1).ravel()
    rows, counts = rows[rows < n + m - 1].astype(np.int32), np.where(j < m - 1, 2, 1)
    rows.flags.writeable = counts.flags.writeable = False
    return rows, counts


def _transport_lp(blocks):
    """Solve the transport LPs `blocks`, a list of (cost matrix (n, m), row
    weights (n,), column weights (m,)) with n, m >= 2, as one
    block-diagonal LP.  Returns the solution with
    negative round-off set to 0; block b's plan is the next n_b m_b entries,
    row-major.

    Plan entry (i, j) of a block is a column with ones in that block's
    row-sum row i and column-sum row n + j.  The last column-sum row of
    each block follows from the others and is dropped, so the columns with
    j = m - 1 hold one entry.  Each block's pattern comes from
    `_block_pattern`, offset by the block's first row."""
    c = np.concatenate([D.reshape(-1) for D, _, _ in blocks])
    # its entries, no fewer than its columns, before an int32 row offset could wrap
    _charge(2 * c.size - sum(len(D) for D, _, _ in blocks), "LP columns or entries", _INDEX_CAP)
    indices, counts, b = [], [], []
    r0 = 0
    for D, row_weights, col_weights in blocks:
        n, m = D.shape
        rows, per_column = _block_pattern(n, m)
        indices.append(rows + r0)
        counts.append(per_column)
        b += [row_weights, col_weights[:-1]]
        r0 += n + m - 1
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    x, _, _ = _highs_solve(c, indptr, np.concatenate(indices), np.concatenate(b))
    x[x < 0] = 0.0
    return x


def optimal_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
    """Exact optimal transport plan for cost d^p; returns (Coupling, cost).
    The plan is a vertex of the transport polytope, in closed form where a
    point mass or nearest-neighbour blocks settle the pair, monotone on the
    real line, an assignment on equal-weight square blocks, from the LP
    otherwise.  The single-pair case of `_optimal_couplings`."""
    return _optimal_couplings([(mu, nu)], p)[0]


def _optimal_couplings(pairs, p: float):
    """(Coupling, cost) for every pair (mu, nu) of `pairs`, in order, from
    `_plans`: a point mass on either side is coupled directly, a pair on
    the real line gets its monotone plan, and the other pairs are settled
    by their nearest-neighbour blocks and assignments, whose blocks left to
    the LP share block-diagonal LPs with the rest.  Every plan is an optimal
    vertex; under ties a pair's block in a batched LP can land on another
    one than its solve alone."""
    pairs = list(pairs)
    for mu, nu in pairs:
        check_same_space(mu, nu)
    _check_exponent(p)
    out = [None] * len(pairs)
    for k, W, cost in _plans(pairs, p):
        out[k] = Coupling(*pairs[k], W), cost
    return out


def _quantile_tuples(weights):
    """The quantile tuples of N weight vectors that each sum to 1, each in
    its atoms' increasing order: the cumulative weights are merged into one
    grid u on [0, 1], and tuple k holds, per vector, the atom whose
    quantile interval holds (u_k, u_k+1].  Returns (indices (T, N), weights
    (T,) = diff(u)), T = sum(n_i - 1) + 1; a weight is 0 where breakpoints
    coincide.  Given (G, n_i) arrays, G rows of N vectors, it returns
    (G, T, N) and (G, T), each row as it would be alone, bit for bit.

    A vector's atom at u_k is the count of its cumulative weights <= u_k
    (what `searchsorted` finds).  Each row takes one cumsum per vector and
    one stable sort, and reads that count at the end of u_k's run of equal
    values in the sorted row, where it is the number of the vector's
    entries so far: O(T log T) per row, as one `searchsorted` per vector."""
    rows = [np.atleast_2d(wts) for wts in weights]
    cums = np.concatenate([np.cumsum(wts, axis=1)[:, :-1] for wts in rows], axis=1)
    G, L = cums.shape
    order = np.argsort(cums, axis=1, kind="stable")
    grid = np.sort(cums, axis=1)
    end = np.ones((G, L), dtype=bool)
    end[:, :-1] = grid[:, 1:] != grid[:, :-1]
    last = np.minimum.accumulate(np.where(end, np.arange(L), L)[:, ::-1], axis=1)[:, ::-1]
    vector = np.repeat(np.arange(len(rows)), [wts.shape[1] - 1 for wts in rows])[order]
    counts = np.cumsum(vector[..., None] == np.arange(len(rows)), axis=1)  # (G, L, N)
    idx = np.zeros((G, L + 1, len(rows)), dtype=np.intp)  # u_0 = 0 has no weight below it
    idx[:, 1:] = counts[np.arange(G)[:, None], last]
    wts = np.diff(np.concatenate([np.zeros((G, 1)), grid, np.ones((G, 1))], axis=1), axis=1)
    return (idx[0], wts[0]) if np.ndim(weights[0]) == 1 else (idx, wts)


def _comonotone(measures):
    """The quantile (comonotone) multi-coupling of measures on the real line,
    whose atoms `make_measure` stores increasing.  Its 2-D marginals are the
    monotone plans, optimal for |x - y|^p for every p >= 1 at once."""
    return _quantile_tuples([mu.weights for mu in measures])


def _line_plans(pairs, p: float):
    """The monotone plan of each pair (mu, nu) of measures on the real line
    with at least two atoms a side, their comonotone coupling
    (`_comonotone`), optimal for |x - y|^p for every p >= 1, and its cost
    W_p^p.  Returns one (indices (T, 2), weights (T,), cost) per pair, in
    order; a tuple can repeat another with weight 0 where cumulative
    weights coincide.  Its support is a staircase path, so it is a vertex
    of the transport polytope.  The pairs are grouped by their atom counts,
    and each group's tuples come from one `_quantile_tuples` call; each
    cost is one `np.dot` of the pair's own row, so tuples, weights and
    costs equal those of the pair alone bit for bit."""
    out = [None] * len(pairs)
    groups = {}
    for k, (mu, nu) in enumerate(pairs):
        groups.setdefault((mu.size, nu.size), []).append(k)
    for ks in groups.values():
        sides = list(zip(*(pairs[k] for k in ks)))
        idx, wts = _quantile_tuples([np.stack([mu.weights for mu in side]) for side in sides])
        rows = np.arange(len(ks))[:, None]
        x, y = (np.stack([mu.atoms[:, 0] for mu in side])[rows, idx[..., v]]
                for v, side in enumerate(sides))
        dp = np.abs(x - y) ** p
        for g, k in enumerate(ks):
            out[k] = idx[g], wts[g], float(np.dot(wts[g], dp[g]))
    return out


def _balanced(x, y) -> bool:
    """Whether the blocks' imbalances x - y have euclidean norm <=
    _BALANCE_TOL (by `ndarray.dot`, which on a few atoms costs a third of
    a numpy reduction such as `np.abs(d).max()`)."""
    d = x - y
    return d.dot(d) <= _BALANCE_TOL**2


def _nearest_split(D, a, b):
    """Settle the transport pair (cost matrix D (n, m), row weights a,
    column weights b) by a partition of its atoms into blocks (R_k, C_k)
    that an optimal plan need not cross.  Returns None if no candidate
    partition is certified, else (W, blocks): W is the plan with every
    block of one row or one column filled in closed form (the block's only
    coupling), and each (at, (D[at], a[R_k], b[C_k])) of `blocks`, at =
    np.ix_(R_k, C_k), is a block left to an assignment or the LP, whose
    optimal plan goes into W[at].

    The candidates, in order:
      1. row-nearest: row i joins the block of its nearest column,
         argmin_j D_ij, so every block has one column;
      2. column-nearest: column j joins the block of its nearest row;
      3. union: the components of the graph on all n + m atoms with both
         nearest-neighbour maps as edges.  Each column lies in the
         component of its nearest row, and the rows of a component are
         those that g (row -> its nearest column -> that column's nearest
         row) joins; without ties each component has one row fixed by g,
         a mutual-nearest pair's.  Pointer doubling, g <- g o g, takes
         every row to it.  It is tried only with 2 <= (fixed rows) <
         min(n, m): with fewer there is one component, and with min(n, m)
         every component has one column or one row, so the union is
         candidate 1 or 2 again.
    A candidate is taken if it is balanced, every |a(R_k) - b(C_k)| <=
    _BALANCE_TOL (`_balanced`), and, for the union, closed: max D over
    R_k x C_k <= min D over R_k x (the columns outside C_k), every k.

    Why this is optimal.  Candidates 1 and 2 put all mass on nearest atoms,
    so they cost sum_i a_i min_j D_ij (or sum_j b_j min_i D_ij), a lower
    bound for every coupling; balanced, they are couplings.  For a
    balanced, closed partition take any coupling pi.  The mass e_k that pi
    moves from R_k to columns outside C_k equals the mass it moves into
    C_k from rows outside R_k, and each such unit leaves exactly one R_k,
    at a cost >= min D over R_k x (outside C_k) >= max D over R_k x C_k.
    Moving each block's e_k inside the block instead, from the mass left
    over in R_k to the mass missing in C_k, costs at most that max, so a
    block-diagonal coupling costs no more than pi, and solving each block
    alone is optimal.  (Ties do not break this: whatever partition the
    doubling yields is used only if it passes both checks.)  Balanced to
    _BALANCE_TOL only, the plan's marginals are off by at most that much
    per block, and its cost is within ||imbalance||_1 max D of the
    optimum.  A plan whose support is a forest, as the closed-form blocks'
    is, is still a vertex of the transport polytope."""
    n, m = D.shape
    W = np.zeros((n, m))
    near_col = D.argmin(axis=1)
    if _balanced(np.bincount(near_col, a, m), b):
        W[np.arange(n), near_col] = a
        return W, []
    near_row = D.argmin(axis=0)
    if _balanced(np.bincount(near_row, b, n), a):
        W[near_row, np.arange(m)] = b
        return W, []
    g = near_row[near_col]
    if not 2 <= np.count_nonzero(g == np.arange(n)) < min(n, m):
        return None
    for _ in range(n.bit_length()):
        g = g[g]
    rl, cl = g, g[near_row]  # each atom's block label: its component's fixed row
    if not _balanced(np.bincount(rl, a, n), np.bincount(cl, b, n)):
        return None
    same = rl[:, None] == cl[None, :]
    inside = np.full(n, -np.inf)
    np.maximum.at(inside, rl, np.where(same, D, -np.inf).max(axis=1))
    if np.any(inside[rl] > np.where(same, np.inf, D).min(axis=1)):
        return None
    n_rows, n_cols = np.bincount(rl, minlength=n), np.bincount(cl, minlength=n)
    col_of, row_of = np.zeros(n, int), np.zeros(n, int)
    col_of[cl], row_of[rl] = np.arange(m), np.arange(n)
    one_col = n_cols[rl] == 1
    W[one_col.nonzero()[0], col_of[rl[one_col]]] = a[one_col]
    one_row = (n_rows[cl] == 1) & (n_cols[cl] > 1)
    W[row_of[cl[one_row]], one_row.nonzero()[0]] = b[one_row]
    blocks = []
    for k in np.flatnonzero((n_rows > 1) & (n_cols > 1)):
        rows, cols = np.flatnonzero(rl == k), np.flatnonzero(cl == k)
        at = np.ix_(rows, cols)
        blocks.append((at, (D[at], a[rows], b[cols])))
    return W, blocks


def _uniform(x) -> bool:
    """Whether all entries of x are equal (by a list count, which on a few
    atoms costs a quarter of `x.min() == x.max()`)."""
    x = x.tolist()
    return x.count(x[0]) == len(x)


def _assigned(W, at, block) -> bool:
    """If the transport block (D (n, m), row weights a, column weights b)
    is square, n = m, with all a_i equal to one a and all b_j equal to one
    b, set W[at] to its optimal plan, a times an optimal assignment of D
    (scipy's `linear_sum_assignment`, a shortest augmenting path solver:
    Crouse, On implementing 2D rectangular assignment algorithms, IEEE
    TAES 2016), and return True.  Return False, W untouched, for every
    other block, which goes to the LP.

    Why this is optimal.  The block's plans are a times the doubly
    stochastic n x n matrices, and by Birkhoff-von Neumann the vertices of
    those are the permutation matrices (Peyre & Cuturi, Computational
    Optimal Transport, 2019, sec. 2.1-2.2).  A linear cost is least at a
    vertex, so at a times the permutation of least total cost: the optimal
    assignment.  Its support is a matching, a forest, so the plan is an
    optimal vertex, as the LP's.  Its row sums are a exactly; b differs
    from a only by the rounding of the weights (each measure's weights sum
    to 1, and a `_nearest_split` block is balanced to _BALANCE_TOL)."""
    D, a, b = block
    if D.shape[0] != D.shape[1] or not (_uniform(a) and _uniform(b)) or _lsap() is None:
        return False
    r, c = _lsap().linear_sum_assignment(D)
    plan = np.zeros(D.shape)
    plan[r, c] = a[0]
    W[at] = plan
    return True


def _plans(pairs, p: float):
    """Yield (k, plan, cost) for the k-th pair (mu, nu) of `pairs`: a point
    mass on either side by its only coupling; the pairs on the real line
    by their monotone plans, from one `_line_plans` call after the rest;
    every other pair through `_nearest_split`, which settles it in closed
    form or leaves blocks of it, or the whole pair if it certifies no
    partition.  An equal-weight square block is settled by an optimal
    assignment (`_assigned`).  The rest wait, in pair order, for one
    block-diagonal LP of at most _LP_COLUMNS plan entries (a wider pair's
    blocks run alone): a pair whose n m entries would not fit beside the
    waiting blocks has them solved first (`_solve_waiting`).  So the cost
    matrices alive are the waiting blocks and one pair's, however long
    the pair list.  The one plan dispatch behind `_optimal_couplings` and
    `wasserstein_many`."""
    waiting, width, line = [], 0, []
    for k, (mu, nu) in enumerate(pairs):
        if mu.size == 1 or nu.size == 1:
            W = _point_mass_plan(mu, nu)
            yield k, W, float(np.sum(W * _cost_matrix(mu, nu, p)))
            continue
        if _on_line(mu.space):
            line.append(k)
            continue
        n, m = mu.size, nu.size
        if waiting and width + n * m > _LP_COLUMNS:
            yield from _solve_waiting(waiting)
            waiting, width = [], 0
        D = _cost_matrix(mu, nu, p)
        split = _nearest_split(D, mu.weights, nu.weights)
        if split is None:
            W, blocks = np.zeros(D.shape), [(np.s_[:, :], (D, mu.weights, nu.weights))]
        else:
            W, blocks = split
        blocks = [(at, block) for at, block in blocks if not _assigned(W, at, block)]
        cost = float(np.dot(W.reshape(-1), D.reshape(-1)))
        if not blocks:
            yield k, W, cost
            continue
        waiting.append((k, W, cost, blocks))
        width += sum(block[0].size for _, block in blocks)
    if waiting:
        yield from _solve_waiting(waiting)
    if not line:  # an empty batch costs ~1 us, which every call off the line would pay
        return
    for k, (idx, wts, cost) in zip(line, _line_plans([pairs[k] for k in line], p)):
        n, m = pairs[k][0].size, pairs[k][1].size
        # a tuple can repeat with weight 0, so its weights are summed
        yield k, np.bincount(idx[:, 0] * m + idx[:, 1], wts, n * m).reshape(n, m), cost


def _solve_waiting(waiting):
    """Yield (k, plan, cost) for each waiting pair (k, W, cost of W so far,
    blocks [(index into W, LP block (D, row weights, column weights))]),
    its blocks' plans filled in from one block-diagonal LP of all the
    blocks."""
    blocks = [block for *_, parts in waiting for _, block in parts]
    x = _transport_lp(blocks)
    solved = iter(np.split(x, np.cumsum([D.size for D, _, _ in blocks])[:-1]))
    for k, W, cost, parts in waiting:
        for at, (D, _, _) in parts:
            part = next(solved)
            W[at] = part.reshape(D.shape)
            cost += float(np.dot(part, D.reshape(-1)))
        yield k, W, cost


def wasserstein_many(pairs, p: float) -> np.ndarray:
    """W_p^p(mu, nu) for every pair (mu, nu) in `pairs`, as an array.

    Equal measures give exactly 0; a point mass on either side is coupled
    directly; pairs on the real line use the monotone closed form; all
    other pairs are settled by their nearest-neighbour blocks where those
    certify an optimal plan, equal-weight square blocks by an assignment,
    and what is left is solved in block-diagonal LPs of at most
    _LP_COLUMNS plan entries each (see the module docstring).  Cost
    matrices are built one LP at a time, so memory is bounded by one
    solve, not by len(pairs)."""
    _check_exponent(p)
    pairs = list(pairs)
    out = np.zeros(len(pairs))
    line, rest = [], []
    for k, (mu, nu) in enumerate(pairs):
        check_same_space(mu, nu)
        if measures_equal(mu, nu):
            continue
        # a point mass keeps its direct coupling (`_plans`), on the line too
        (line if _on_line(mu.space) and mu.size > 1 and nu.size > 1 else rest).append(k)
    if line:
        for k, (_, _, cost) in zip(line, _line_plans([pairs[k] for k in line], p)):
            out[k] = cost
    for i, _, cost in _plans([pairs[k] for k in rest], p):
        out[rest[i]] = cost
    return np.maximum(out, 0.0)


def _on_line(space) -> bool:
    return space.kind == "euclidean" and space.dim == 1


def wasserstein_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """W_p(mu, nu) = (optimal cost)^(1/p); exact zero for identical measures."""
    return wasserstein_power(mu, nu, p) ** (1.0 / p)


def wasserstein_power(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """W_p^p(mu, nu)."""
    return float(wasserstein_many([(mu, nu)], p)[0])


def glue_chain(couplings, labels=()) -> MultiCoupling:
    """Glue a chain of couplings sharing consecutive marginals by Markov
    disintegration (left to right).  Consecutive 2-D marginals of the result
    equal the inputs."""
    if not couplings:
        raise ValidationError("empty chain")
    for a, b in zip(couplings, couplings[1:]):
        if not measures_equal(a.col_measure, b.row_measure):
            raise ValidationError("chain mismatch: shared marginals differ")
    steps = [((k,), c.weights) for k, c in enumerate(couplings[1:], start=1)]
    idx, wts = _glue(couplings[0].weights, steps)
    marginals = tuple([couplings[0].row_measure] + [c.col_measure for c in couplings])
    return MultiCoupling(marginals, idx, wts, tuple(labels))


def _glue(first, steps, cap: float = np.inf):
    """Markov disintegration of a tree of tables: the support tuples of table
    `first` (entries > _GLUE_PRUNE), extended by one component per step.

    A step (sep, table) draws the new component from `table`'s conditional
    given the components at tuple positions `sep`: table's leading axes are
    those components, in order, and its last axis is the new one.  Returns
    (indices (T, first.ndim + len(steps)), weights (T,)).  More than `cap`
    tuples (by default no cap) raise BudgetExceededError."""
    idx = np.argwhere(first > _GLUE_PRUNE)
    wts = first[tuple(idx.T)]
    for sep, table in steps:
        tot = table.sum(axis=-1)
        cond = table / np.where(tot > 0, tot, 1.0)[..., None]
        rows = cond[tuple(idx[:, s] for s in sep)]
        t, k = np.nonzero(rows > _GLUE_PRUNE)
        idx = np.column_stack([idx[t], k])
        wts = wts[t] * rows[t, k]
        _charge(wts.size, "glued certificate tuples", cap)
    return idx, wts


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


def _junction_tree(N: int, pairs):
    """Cliques of the pair graph on N nodes, as (nodes ascending, parent
    clique or -1, separator: the nodes shared with the parent), parents
    before children.

    For the dyadic pattern (`pairs` == dyadic_pattern_pairs(n), N = 2^n + 1)
    these are the 2^n - 1 triangles (a, (a+b)/2, b) over the dyadic intervals
    (a, b) of length >= 2, each joined to its parent interval's triangle on
    the pair (a, b).  Any other pair set, all pairs (None) among them, gets
    one clique of all N nodes."""
    n = (N - 1).bit_length() - 1
    if N < 4 or N - 1 != 2**n or pairs != dyadic_pattern_pairs(n):
        return [(tuple(range(N)), -1, ())]
    tree = []
    intervals = [(0, N - 1, -1)]
    for a, b, parent in intervals:  # breadth first; the list grows as it is read
        c = (a + b) // 2
        tree.append(((a, c, b), parent, (a, b) if parent >= 0 else ()))
        if c - a >= 2:
            intervals += [(a, c, len(tree) - 1), (c, b, len(tree) - 1)]
    return tree


def _table_lp(sizes, tree):
    """The compressed columns (indptr, indices, values) and the number of
    rows of the clique-table LP's constraint matrix.  Clique k's table, of
    shape (sizes[v] for v in its nodes), is the next prod(shape) columns,
    row-major.

    Rows: first the 1-D marginal rows of every node, node v's atom i in row
    offsets[v] + i, each written by the first clique that holds v; then, for
    each clique k > 0, one row per entry of its separator's pair marginal
    (the nodes it shares with its parent), +1 in the parent's table and -1
    in its own."""
    offsets = np.cumsum([0] + sizes[:-1])
    owner = {}
    for k, (nodes, _, _) in enumerate(tree):
        for v in nodes:
            owner.setdefault(v, k)
    seps = [sep for _, _, sep in tree]
    # clique k's separator rows start at sep_start[k]; the last entry is the row count
    sep_start = np.cumsum([sum(sizes)] + [int(np.prod([sizes[v] for v in s])) if s else 0
                                          for s in seps])
    indptr, indices, values = [np.zeros(1, dtype=int)], [], []
    for k, (nodes, parent, _) in enumerate(tree):
        shape = tuple(sizes[v] for v in nodes)
        idx = np.indices(shape).reshape(len(nodes), -1)
        rows = [offsets[v] + idx[i] for i, v in enumerate(nodes) if owner[v] == k]
        signs = [1.0] * len(rows)
        # its own separator (-1), then its children's (+1), in row order
        links = [(k, -1.0)] * (parent >= 0) + [
            (q, 1.0) for q, (_, q_parent, _) in enumerate(tree) if q_parent == k]
        for q, sign in links:
            at = [idx[nodes.index(v)] for v in seps[q]]
            rows.append(sep_start[q] + np.ravel_multi_index(at, [sizes[v] for v in seps[q]]))
            signs.append(sign)
        cols = idx.shape[1]
        indptr.append(indptr[-1][-1] + len(rows) * np.arange(1, cols + 1))
        indices.append(np.stack(rows).T.ravel())
        values.append(np.tile(signs, cols))
    return (np.concatenate(indptr), np.concatenate(indices), np.concatenate(values),
            int(sep_start[-1]))


def compatibility_multicoupling(
    measures,
    p: float,
    pairs=None,
    tol: float = FEASIBILITY_TOL,
    labels=(),
) -> CompatibilityReport:
    """Decide whether a multi-coupling exists whose 2-D marginals on `pairs`
    (default: all pairs) are all optimal couplings.

    On the real line, euclidean(1), the answer is always yes: the
    comonotone coupling (`_comonotone`) is optimal for every pair at once,
    so it is the certificate, with no LP (`lp_columns` 0) and at most
    sum n_i support tuples.  For p > 1 each pair's optimal plan is unique,
    so this is the certificate the LP below would find; for p = 1 the LP
    may find another optimal one.

    Elsewhere, any multi-coupling's pair cost is >= W_p^p for that pair, so
    the least total d^p cost over `pairs` exceeds the sum of the W_p^p by
    the smallest achievable total excess; the collection is compatible on
    `pairs` iff that excess is ~ 0.  The least cost is an LP over clique
    tables of the pair graph (`_certificate`): for the default all pairs
    the LP over the full product support, solved by column generation, and
    `lp_columns` is its prod n_i columns, though only the priced ones are
    built.

    Either certificate passes `_certify`, the one re-check, against the
    `wasserstein_many` values.  More LP columns, or more certificate
    tuples, than `product_budget()` raise BudgetExceededError.
    """
    if not 0 <= tol < np.inf:
        raise ValidationError(f"tol must be a finite number >= 0, got {tol}")
    measures = list(measures)
    N = len(measures)
    if N < 1:
        raise ValidationError("need at least one measure")
    for m in measures[1:]:
        check_same_space(measures[0], m)
    if pairs is not None:  # None, all pairs, is built once the budget is charged
        pairs = sorted(set(tuple(sorted(pr)) for pr in pairs))
        for pr in pairs:
            if (len(pr) != 2 or not all(isinstance(v, (int, np.integer)) for v in pr)
                    or not 0 <= pr[0] < pr[1] < N):
                raise ValidationError(f"pairs must be integer (i, j), 0 <= i < j < {N}, got {pr}")
    if N == 1:
        mu = measures[0]
        cert = MultiCoupling(
            (mu,), np.arange(mu.size)[:, None], mu.weights.copy(), tuple(labels)
        )
        return CompatibilityReport(True, cert, 0.0, mu.size)
    candidate = _certificate(measures, pairs, p)
    pairs = all_pairs(N) if pairs is None else pairs
    opt = wasserstein_many([(measures[i], measures[j]) for (i, j) in pairs], p)
    pair_opt = {pr: float(v) for pr, v in zip(pairs, opt)}
    return _certify(measures, p, pair_opt, tol, labels, candidate)


def _certify(measures, p: float, pair_opt, tol: float, labels, candidate) -> CompatibilityReport:
    """Re-check a candidate multi-coupling of `measures` on its own support,
    independently of any LP's objective value and tolerances: the one place
    that compares pair costs with the optima `pair_opt` {(i, j): W_p^p}.
    `candidate` is (indices, weights, LP objective or None, LP columns), as
    `_certificate` returns.  The pinned pairs' costs come from one
    `pair_cost` call over index arrays, split only where one call would
    hold more than _COST_ENTRIES (tuple, pair) distances.  It is accepted iff its 1-D marginals hold to
    FEASIBILITY_TOL, its total excess over the optima (the LP's least total
    excess when an LP ran) is <= tol * max(1, sum of the optima), and each
    pair's excess is <= tol * max(1, that pair's W_p^p)."""
    idx, wts, objective, columns = candidate
    cand = MultiCoupling(tuple(measures), idx, wts, tuple(labels))
    pinned = np.array(list(pair_opt), dtype=np.intp).reshape(-1, 2)
    step = max(1, _COST_ENTRIES // max(1, wts.size))
    costs = [c for at in range(0, len(pinned), step)
             for c in cand.pair_cost(*pinned[at:at + step].T, p).tolist()]
    excess = {pr: cost - wpp for (pr, wpp), cost in zip(pair_opt.items(), costs)}
    total_opt = sum(pair_opt.values())
    gap = float(sum(excess.values()) if objective is None else objective - total_opt)
    marginal_res = cand.marginal_error()
    feasible = (
        marginal_res <= FEASIBILITY_TOL and gap <= tol * max(1.0, total_opt)
        and all(e <= tol * max(1.0, pair_opt[pr]) for pr, e in excess.items())
    )
    return CompatibilityReport(
        feasible, cand if feasible else None, max(gap, 0.0),
        int(np.prod([m.size for m in measures], dtype=object)), pair_opt, marginal_res,
        max(excess.values(), default=0.0), columns,
    )


def _certificate(measures, pairs, p: float):
    """The least total d^p cost over `pairs` (None: all pairs) of a
    multi-coupling of `measures`, and a multi-coupling that attains it.

    On the real line it is the comonotone coupling (`_comonotone`), with
    no LP.  Elsewhere the LP is over clique tables of the pair graph
    (`_junction_tree`): a table per clique, 1-D marginal rows, equal
    separator marginals between neighbouring cliques, and each pair's cost
    on the first clique that holds it.  Tables that agree on their separators glue to a joint measure
    with those tables as marginals (the junction-tree property of chordal
    graphs), so this LP has the optimum of the LP over the full product
    support.  For the dyadic pattern the cliques are triangles and the LP
    has sum n_a n_m n_b columns, built by `_table_lp` and solved at once.
    Any other pair set is one clique, the product-support LP itself, with
    prod n_i columns: `_product_lp` solves it by column generation and
    returns the whole table.  (Column generation lost on the clique-table
    LPs: 1.1 s against 0.13 s at 32 256 columns, `BENCH_colgen.json`.)
    The certificate is the tables glued down the tree by Markov
    disintegration (`_glue`).

    Returns (indices (T, N), weights (T,), LP objective or None where no LP
    ran, LP columns).  More than `product_budget()` LP columns or
    certificate tuples raise BudgetExceededError."""
    N = len(measures)
    sizes = [m.size for m in measures]
    if _on_line(measures[0].space):
        _charge(sum(sizes) - N + 1, "certificate tuples")
        idx, wts = _comonotone(measures)
        keep = wts > 0
        return idx[keep], wts[keep], None, 0
    tree = _junction_tree(N, pairs)
    columns = sum(int(np.prod([sizes[v] for v in nodes], dtype=object)) for nodes, _, _ in tree)
    _charge(columns, "product support size" if len(tree) == 1 else "LP columns")

    costs = [np.zeros([sizes[v] for v in nodes]) for nodes, _, _ in tree]
    for (i, j) in all_pairs(N) if pairs is None else pairs:
        k = next(k for k, (nodes, _, _) in enumerate(tree) if i in nodes and j in nodes)
        nodes = tree[k][0]
        D = _cost_matrix(measures[i], measures[j], p)
        costs[k] += D.reshape([sizes[v] if v in (i, j) else 1 for v in nodes])

    weights = [mu.weights for mu in measures]
    if len(tree) == 1:
        x, fun = _product_lp(costs[0], weights)
    else:
        indptr, indices, values, n_rows = _table_lp(sizes, tree)
        b = np.zeros(n_rows)
        b[:sum(sizes)] = np.concatenate(weights)
        x, fun, _ = _highs_solve(np.concatenate([c.ravel() for c in costs]), indptr, indices, b,
                                 values)

    ends = np.cumsum([c.size for c in costs])
    tables = [x[e - c.size:e].reshape(c.shape) for c, e in zip(costs, ends)]
    order = list(tree[0][0])
    steps = []
    for (nodes, _, sep), table in zip(tree[1:], tables[1:]):
        new = next(v for v in nodes if v not in sep)
        steps.append(([order.index(v) for v in sep],
                      table.transpose([nodes.index(v) for v in sep + (new,)])))
        order.append(new)
    idx, wts = _glue(tables[0], steps, cap=product_budget())
    return idx[:, np.argsort(order)], wts, fun, columns


def _product_lp(C, weights):
    """Solve the product-support LP: min <C, x> over tables x >= 0 of
    shape C.shape = (n_0, ..., n_{N-1}) whose 1-D marginals are `weights`.
    Returns (x flattened row-major, objective).

    By column generation (Gilmore & Gomory, Oper. Res. 1961), with no
    product-size constraint matrix.  The master is the LP over a set S of
    product tuples, tuple (i_0, ..., i_{N-1}) a column with unit entries in
    rows offsets[v] + i_v (the product LP's own columns, as `_table_lp`
    writes them for one clique).  S starts as the index-order quantile
    tuples of the weights (`_quantile_tuples`), a multi-coupling on any
    space, so the master is feasible; an optimal vertex has no more
    nonzeros, sum n_v - N + 1.  Each round solves the master (`_highs_solve`)
    and prices every tuple at once, R = C - sum_v y_v with node v's slice
    y_v of the row duals broadcast on axis v; the _PRICED_PER_ROW x (rows)
    most negative tuples outside S with R < -DUAL_TOL join S.  When none is
    left, every reduced cost is >= -DUAL_TOL, the stop HiGHS applies to a
    full solve, so the master's objective is within DUAL_TOL (times the
    total mass, 1) of the full LP's.  S grows every round, so the loop
    ends, at worst with S the whole product.  On circle_splitting j=1 at
    eight times (K = 65 536) it takes 4 rounds and a last master of 56
    columns."""
    sizes = C.shape
    N = len(sizes)
    offsets = np.cumsum((0,) + sizes[:-1])
    b = np.concatenate(weights)
    cost = C.reshape(-1)
    start, _ = _quantile_tuples(weights)
    S = new = np.unique(np.ravel_multi_index(tuple(start.T), sizes))
    rows = np.empty((0, N), dtype=np.int64)
    reduced = np.empty(sizes)  # R, filled in place every round
    flat = reduced.reshape(-1)
    add = _PRICED_PER_ROW * b.size
    while True:
        rows = np.concatenate([rows, np.column_stack(np.unravel_index(new, sizes)) + offsets])
        x, fun, y = _highs_solve(cost[S], np.arange(0, N * S.size + 1, N), rows.ravel(), b)
        ys = np.split(y, offsets[1:])
        np.add.outer(functools.reduce(np.add.outer, ys[:-1]), ys[-1], out=reduced)
        np.subtract(C, reduced, out=reduced)
        flat[S] = 0.0
        new = np.flatnonzero(flat < -DUAL_TOL)
        if new.size == 0:
            break
        if new.size > add:
            new = new[np.argpartition(flat[new], add)[:add]]
        S = np.concatenate([S, new])
    full = np.zeros(cost.size)
    full[S] = x
    return full, fun


def is_compatible(measures, p: float) -> bool:
    """Compatibility of the full collection (all pairs optimal)."""
    measures = list(measures)
    if len(measures) <= 1:
        return True
    return compatibility_multicoupling(measures, p).feasible
