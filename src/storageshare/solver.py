"""Branch-and-bound drivers for the division model over the embedded
simplex engine.

Two entry points take the division model (mpec.MpecModel): solve_milp
branches on the binaries of its big-M form, which it builds floored by the
paths (linearize_big_m(mpec, mpec.paths), exact), and solve_lpcc branches
on complementarity pairs without big-M constants. Both run one tree solve
(_solve_tree) on the day's capacity paths (simplex.CapacityPath, one per
party), which the model owns (MpecModel.paths): its first solve builds
them, and every later solve of the model, or of a model pinned from it,
reads the same objects. The big-M floor, the chords, the multiplier caps,
the root start and the dual re-read all read those paths.
One stitch (_stitch) writes a point's party blocks off the paths at the
point's shares, for the root start and the re-read of the final
incumbent: each party's multipliers from its path at the answer's share,
kept when they are complementary to the answer's rows, which certifies by
LP duality that every dispatch is optimal at its share. Every point a
tree takes, a node's relaxation or the re-read answer, passes one rule
(_bilevel_feasible), and one branching rule (_branch_rule) takes the
worst pair the node has not fixed, so the two trees differ only in the
fixes a pair branches into; a node that has fixed every pair cannot be
branched and ends the search, status limit. The best-first core
(_branch_and_bound) routes every node, the root too, through one
function and ends at one exit. Node order and therefore node counts are
deterministic for a fixed model.

The LP both trees search is the model's LP plus one chord row per party
p: c_p.x_p <= phi_p(lo) + (phi_p(hi) - phi_p(lo)) / (hi - lo) (s_p - lo),
where phi_p(s) is the party's optimal dispatch cost at share s and
[lo, hi] the bounds of its share column s_p. Every row of the party's LP
moves linearly with s, so phi_p is convex and lies on or below its chord
on [lo, hi]: each point whose dispatches are optimal satisfies the row,
and the row cuts off relaxed points whose dispatch costs more than any
optimal one can (the concave envelope of the value-function bound
c_p.x_p <= phi_p(s_p)). The chord is exact, without slack, and most
divisions then close at the root. The same LP caps each multiplier column
at its pair's cap (mpec.pair_caps), and fixes it at 0 where the row's
multiplier is 0 along the party's whole path. Multipliers carry no
upper-level cost, and a party's path duals at its share are complementary
to every optimal dispatch there, so swapping them into a bilevel-feasible
point keeps its objective and puts it under every cap: the caps keep an
optimal point. The rows and caps live in the tree's copy of the LP only; the
model, its big-M form and their MPS files do not carry them.

No LP of a solve runs phase 1. Each path starts from the party's
no-battery vertex. The paths' optimal bases at the shares' lowest bounds
give a point of the root LP (every dispatch optimal with its
multipliers, the peak at the highest net load) and a feasible basis at
it: each party's primal basis, the complementary dual basis on its
stationarity rows, peak on its tightest row and a surplus on every other
row (_root_start). The engine checks each start and runs phase 2 from
it; a rejected start falls back to the slack crash. Each fallback a
solve takes is named in SolveResult.fallbacks;
SolveResult.family_iterations and .path_pieces count the paths' pivots
and pieces, and .warm_hits, .warm_rebuilds and .cold_restarts the tree
engine's warm starts. The clock and time limit run from the start of the
whole solve, the paths (when this solve builds them), the big-M form and
the chords included; the node and time budget is checked before each
node is solved and each solved node is branched. The search stops when
the lowest open bound is within SolveOptions.gap_target of the incumbent.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace

import numpy as np

from .instance import FEAS_TOL, Division, Instance, ScheduleSet
from .lp import LinearProgram, Rows, evaluate
from .mpec import MilpModel, MpecModel, _pair_slacks, linearize_big_m, pair_caps
from .oracle import check_schedule_invariants
from .simplex import Simplex

_EXIT_CODES = {"optimal": 0, "infeasible": 2, "unbounded": 3, "limit": 4}
MODES = ("bigm", "lpcc")  # solve_milp on the big-M model, or solve_lpcc
DEFAULT_MODE = "lpcc"
_COMP_TOL = 1e-7  # pair products at or below this count as complementary


@dataclass(frozen=True)
class SolveOptions:
    gap_target: float = 0.0
    node_limit: int = 100_000
    time_limit: float = 600.0

    def __post_init__(self):
        # negated comparisons: NaN fails every one of them
        if not self.gap_target >= 0:
            raise ValueError(f"gap_target must be >= 0, got {self.gap_target}")
        if not self.node_limit >= 1:
            raise ValueError(f"node_limit must be >= 1, got {self.node_limit}")
        if not self.time_limit > 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    status: str  # optimal | infeasible | unbounded | limit
    x: np.ndarray | None
    objective: float
    best_bound: float
    gap: float
    node_count: int
    wall_time: float
    iterations: int
    model: object
    bound_history: tuple = ()
    incumbent_history: tuple = ()
    root_iterations: int = 0
    # pivots of the parties' capacity paths (simplex.CapacityPath) and their
    # pieces, summed over the parties; the model builds its paths once, so
    # every solve of a model, or of a model pinned from it, reports the same
    family_iterations: int = 0
    path_pieces: int = 0
    # the tree engine's warm starts below the root: from a kept inverse, with
    # a rebuilt one, and those that restarted cold (Simplex's counters)
    warm_hits: int = 0
    warm_rebuilds: int = 0
    cold_restarts: int = 0
    # the fallbacks the solve took: "family_start" (a capacity path's cold
    # solve ran from the slack crash), "root_start" (the root LP did),
    # "cold_restart" (a node's warm resolve restarted cold), "reread" (the
    # answer keeps the tree's multipliers, without the paths' certificate)
    # and "unbranchable" (a node's fixes covered every pair, so the search
    # ended limit at it)
    fallbacks: tuple = ()

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def _relative_gap(objective: float, bound: float) -> float:
    if not np.isfinite(objective):
        return np.inf
    return max(0.0, (objective - bound) / max(1.0, abs(objective)))


def _branch_and_bound(engine: Simplex, opts, accept, branch, start=None, t0=None):
    """Best-first search over engine's LP; a node is its tuple of bound-fixes
    (col, lo, hi). accept(x) returns (the node relaxation x as an incumbent,
    possibly re-settled, or None; x's violations, one per branching
    candidate); a node it rejects is branched on branch(violations, fixes),
    its children, each a tuple of fixes appended to the node's; a node with
    no children ends the search with status limit and the fallback
    "unbranchable". Ties on the bound favor nodes of more fixes so plateaus
    dive to leaves. A bound within 1e-9 of the incumbent prunes; a popped
    node, the lowest open bound, within opts.gap_target of it ends the
    search optimal. The bound history records each new global bound, a
    popped node's capped at the incumbent, and ends at best_bound. start
    goes to the root's Simplex.solve; the time limit and wall_time count
    from t0, a perf_counter reading (now if None). The result carries no
    model, and no fallback but "unbranchable"."""
    t0 = time.perf_counter() if t0 is None else t0
    incumbent_x = None
    incumbent_obj = np.inf
    bound_hist: list[float] = []
    inc_hist: list[float] = []
    heap: list = []  # solved nodes to branch on
    todo = [((), None, -np.inf)]  # nodes to solve: (fixes, parent snapshot, parent bound)
    seq = 0
    global_bound = -np.inf
    node_count = iterations = root_iterations = 0

    def pruned(bound: float) -> bool:
        return bound >= incumbent_obj - 1e-9

    def raise_bound(b: float):
        nonlocal global_bound
        if b > global_bound:
            global_bound = b
            bound_hist.append(b)

    def route(sol, fixes, parent_bound) -> str | None:
        """Count and route one solved node; returns what ends the search
        ("limit", "unbounded" or "unbranchable"), or None."""
        nonlocal node_count, iterations, seq, incumbent_x, incumbent_obj
        node_count += 1
        iterations += sol.iterations
        if sol.status != "optimal":
            return {"iteration_limit": "limit", "unbounded": "unbounded"}.get(sol.status)
        bound = max(float(sol.objective), parent_bound)
        if not fixes:  # the root's bound is the first global bound
            raise_bound(bound)
        if pruned(bound):
            return None
        x, violations = accept(sol.x)
        if x is not None:  # not pruned, so below the incumbent
            incumbent_x, incumbent_obj = x, float(sol.objective)
            inc_hist.append(incumbent_obj)
            return None
        children = branch(violations, fixes)
        if not children:
            return "unbranchable"
        heapq.heappush(heap, (bound, -len(fixes), seq, fixes, engine.snapshot(), children))
        seq += 1
        return None

    stop = None
    while stop is None and (todo or heap):
        if node_count >= opts.node_limit or time.perf_counter() - t0 > opts.time_limit:
            stop = "limit"
        elif todo:
            fixes, snap, parent_bound = todo.pop(0)
            if snap is None:
                sol = engine.solve(start=start)
                root_iterations = sol.iterations
            else:
                lo, hi = engine.base_lo.copy(), engine.base_hi.copy()
                for col, lo_fix, hi_fix in fixes:
                    lo[col] = max(lo[col], lo_fix)
                    hi[col] = min(hi[col], hi_fix)
                sol = engine.resolve(snap, lo, hi)
            stop = route(sol, fixes, parent_bound)
        else:
            bound, _, _, fixes, snap, children = heapq.heappop(heap)
            raise_bound(min(bound, incumbent_obj))
            if pruned(bound):
                continue
            if _relative_gap(incumbent_obj, bound) <= opts.gap_target:
                stop = "optimal"  # best-first: no open node has a lower bound
            else:
                todo = [(fixes + child, snap, bound) for child in children]

    fallbacks = (stop,) if stop == "unbranchable" else ()
    status = "limit" if fallbacks else stop or ("infeasible" if incumbent_x is None else "optimal")
    if stop is None and incumbent_x is not None:  # every node searched
        raise_bound(incumbent_obj)
    x = None if status == "unbounded" else incumbent_x
    objective = incumbent_obj if x is not None else np.nan
    best_bound = {"infeasible": np.inf, "unbounded": -np.inf}.get(
        status, min(global_bound, incumbent_obj))
    if global_bound > best_bound > -np.inf:  # the incumbent settled below a recorded bound
        bound_hist = [b for b in bound_hist if b < best_bound] + [best_bound]
    return SolveResult(
        status=status, x=x, objective=objective, best_bound=best_bound,
        gap=_relative_gap(objective, best_bound), node_count=node_count,
        wall_time=time.perf_counter() - t0, iterations=iterations, model=None,
        bound_history=tuple(bound_hist), incumbent_history=tuple(inc_hist),
        root_iterations=root_iterations, fallbacks=fallbacks,
    )


def _stitch(mpec: MpecModel, paths, x: np.ndarray, dispatch: bool):
    """Write into x each party's multipliers from its path at the party's
    share in x (at 0 if a hair below); with dispatch also its dispatch and
    the system peak at the highest net load, system load plus every
    party's flows. Returns the parties' path solutions and the net load."""
    t = mpec.instance.grid.slot_count
    net = mpec.instance.loads.system_load.astype(float)
    sols = []
    for path, lay in zip(paths, mpec.parties()):
        sol = path.at(max(0.0, float(x[lay.cap_col])))
        sols.append(sol)
        x[lay.w0: lay.w0 + lay.nw] = sol.dual_g
        x[lay.v0: lay.v0 + lay.nv] = sol.dual_h
        if dispatch:
            x[lay.x0: lay.x0 + lay.nx] = sol.x[: lay.nx]
            net += sol.x[:t] - sol.x[t: 2 * t]
    if dispatch:
        x[mpec.peak_col] = float(net.max())
    return sols, net


def _bilevel_feasible(mpec: MpecModel, lp: LinearProgram, u_cols=None):
    """The one rule for every point a division tree takes (a node's
    relaxation, the re-read answer): accept(x) returns
    (x, with lp's binaries u_cols (if any) re-set to w > slack in a copy,
    when every pair product w * slack is at most _COMP_TOL and the point is
    feasible on lp at FEAS_TOL, else None; the pair products). Dual-feasible
    multipliers complementary to a feasible x certify that each dispatch in
    x is optimal at its share."""
    w_cols = mpec.pairs[:, 0]
    pair_slacks = _pair_slacks(mpec.lp, mpec.pairs)

    def accept(x: np.ndarray):
        w = x[w_cols]
        slack = pair_slacks(x)
        prod = w * slack
        if float(np.abs(prod).max(initial=0.0)) > _COMP_TOL:
            return None, prod
        if u_cols is not None:
            x = x.copy()
            x[u_cols] = w > slack
        return (x if evaluate(lp, x).feasible(FEAS_TOL) else None), prod

    return accept


def _branch_rule(mpec: MpecModel, u_cols=None):
    """(prod, fixes) -> the children of the worst pair, the one of largest
    pair product w * slack in prod among the pairs whose columns the
    node's fixes leave free; none when they fix every pair. Each
    pair's two children fix one column each: without binaries its
    multiplier goes to zero or its row to equality (its surplus column,
    n + row, to zero); with binaries u_cols its binary goes to 0 or 1."""
    if u_cols is None:
        cols, hi = np.column_stack([mpec.pairs[:, 0], mpec.lp.n_vars + mpec.pairs[:, 1]]), 0.0
    else:
        cols, hi = np.column_stack([u_cols, u_cols]), 1.0
    children = [(((a, 0.0, 0.0),), ((b, hi, hi),)) for a, b in cols.tolist()]

    def branch(prod, fixes):
        free = ~np.isin(cols, [col for col, _, _ in fixes]).any(axis=1)
        if not free.any():  # every pair fixed: a child would repeat the node
            return ()
        return children[int(np.flatnonzero(free)[np.argmax(prod[free])])]

    return branch


def _tree_lp(mpec: MpecModel, lp: LinearProgram, paths):
    """lp with each pair's multiplier column capped at mpec.pair_caps(paths)
    and one chord row per party p over its share column s_p:

        -c_p.x_p + slope_p s_p >= -phi_p(lo) + slope_p lo,

    with [lo, hi] the bounds of s_p in lp and slope_p the slope of phi_p
    from lo to hi. phi_p is convex, so it lies on or below this chord on
    [lo, hi], and every point whose dispatches are optimal satisfies the
    row. phi_p(lo) and phi_p(hi) are lookups on the party's path."""
    idx, val, off = [], [], []
    for path, lay in zip(paths, mpec.parties()):
        lo, hi = float(lp.lb[lay.cap_col]), float(lp.ub[lay.cap_col])
        phi_lo, phi_hi = path.at(lo).objective, path.at(hi).objective
        slope = (phi_hi - phi_lo) / (hi - lo) if hi > lo else 0.0
        cost = path.engine.lp.c[: lay.nx]  # the dispatch's; kappa costs nothing
        nz = np.flatnonzero(cost)
        cols, coefs = lay.x0 + nz, -cost[nz]
        if slope != 0.0:
            cols, coefs = np.append(cols, lay.cap_col), np.append(coefs, slope)
        idx.append(cols)
        val.append(coefs)
        off.append(slope * lo - phi_lo)
    ub = lp.ub.copy()
    ub[mpec.pairs[:, 0]] = pair_caps(paths)
    return replace(
        lp,
        ub=ub,
        g=Rows.stack([lp.g, Rows.from_lists(idx, val)]),
        b_g=np.append(lp.b_g, off),
    )


def _root_start(mpec: MpecModel, lp: LinearProgram, paths, u_cols=None):
    """Start (basic columns, point) of lp's root solve: the point where each
    party dispatches optimally at a share bound with its path's
    multipliers (_stitch), and a feasible basis at it. None if an equality
    row outside the party blocks cannot be met.

    Each share sits at its lower bound, nonbasic. An equality row beyond the
    parties' stationarity and balance rows (a pin on the shares, such as
    sum s_c = C) is met by its first column, which turns basic and must be
    a share that then sits at its upper bound. A party's block takes its
    path's basis at its share: the same dispatch columns and surpluses of
    its primal rows, and on its stationarity rows the multipliers of its
    active rows and its balance multipliers, which the party's primal basis
    determines (the complementary dual basis). peak is basic on the row of
    the highest net load; every other row outside the party blocks
    (capacity split, peak, big-M pair and chord rows) keeps its surplus
    basic, and the binaries u_cols sit at 1 exactly on the active pairs."""
    n = lp.n_vars
    x = np.zeros(n)
    parties = mpec.parties()
    shares = np.array([lay.cap_col for lay in parties])
    x[shares] = lp.lb[shares]
    basic = [np.array([mpec.peak_col])]
    for r in range(sum(lay.nx + lay.nv for lay in parties), lp.n_h):
        cols, coefs = lp.h.row(r)
        col = cols[0]
        x[col] += (lp.b_h[r] - coefs @ x[cols]) / coefs[0]
        if col not in shares or x[col] != lp.ub[col]:
            return None
        basic.append(cols[:1])
    sols, net = _stitch(mpec, paths, x, dispatch=True)
    for lay, sol in zip(parties, sols):
        # party numbering: dispatch column j, or nx + 1 + i for row i's
        # surplus (the capacity column nx is fixed, never basic)
        b = sol.basis
        basic += [np.where(b < lay.nx, lay.x0 + b, n + lay.g0 + b - lay.nx - 1),
                  lay.w0 + sol.active, lay.v0 + np.arange(lay.nv)]
    upper = np.ones(lp.n_g, dtype=bool)
    for lay in parties:
        upper[lay.g0: lay.g0 + lay.nw] = False
    peak_rows = lp.g.row_ids[lp.g.indices == mpec.peak_col]  # one per slot, in order
    upper[peak_rows[np.argmax(net)]] = False
    basic.append(n + np.flatnonzero(upper))
    basic = np.concatenate(basic)
    if u_cols is not None:
        x[u_cols] = np.isin(mpec.pairs[:, 0], basic)
    return basic, x


def _solve_tree(mpec: MpecModel, options: SolveOptions | None, bigm: bool) -> SolveResult:
    """The day's capacity paths (mpec.paths, built here on the model's
    first solve); with bigm the big-M form floored by them, else mpec;
    then the best-first tree over that model's LP with its caps and chord
    rows (_tree_lp) from the paths' root start, and the dual re-read of the
    incumbent off the same paths. The form's binaries pick the fixes of
    the branching rule (_branch_rule), and every point the solve takes
    passes one rule (_bilevel_feasible on the model's LP). The clock and
    the time limit cover it all, a path build included."""
    t0 = time.perf_counter()
    paths = mpec.paths
    model = linearize_big_m(mpec, paths) if bigm else mpec
    u_cols = model.binary_cols if bigm else None
    accept = _bilevel_feasible(mpec, model.lp, u_cols)
    tree_lp = _tree_lp(mpec, model.lp, paths)
    start = _root_start(mpec, tree_lp, paths, u_cols)
    engine = Simplex(tree_lp)
    result = _branch_and_bound(engine, options or SolveOptions(), accept,
                               _branch_rule(mpec, u_cols), start=start, t0=t0)
    x = result.x
    if x is not None:
        x = x.copy()
        _stitch(mpec, paths, x, dispatch=False)
        x = accept(x)[0]
    fallbacks = tuple(name for name, taken in (
        ("family_start", any(path.engine.start_rejects for path in paths)),
        ("root_start", start is None or engine.start_rejects > 0),
        ("cold_restart", engine.cold_restarts > 0),
        ("reread", result.x is not None and x is None)) if taken) + result.fallbacks
    return replace(result, model=model, x=result.x if x is None else x, fallbacks=fallbacks,
                   family_iterations=sum(path.iterations for path in paths),
                   path_pieces=sum(len(path.pieces) for path in paths),
                   warm_hits=engine.warm_hits, warm_rebuilds=engine.warm_rebuilds,
                   cold_restarts=engine.cold_restarts,
                   wall_time=time.perf_counter() - t0)


def solve_milp(mpec: MpecModel, options: SolveOptions | None = None) -> SolveResult:
    """Best-first branch and bound on the binaries of the division model's
    big-M form, branching on the most violated complementarity pair. The
    solve builds the form, linearize_big_m(mpec, mpec.paths), as its model.

    The bound sequence is strictly increasing, never above best_bound and
    ends at it, and the incumbent sequence non-increasing by construction
    (child bounds are clamped to their parent's).
    """
    return _solve_tree(mpec, options, bigm=True)


def solve_lpcc(mpec: MpecModel, options: SolveOptions | None = None) -> SolveResult:
    """Complementarity branching on the pair list, no big-M constants.

    Each node either zeroes a pair's multiplier or pins its row to
    equality, so every root-to-leaf path fixes a strictly growing set of
    columns and the tree is finite.
    """
    return _solve_tree(mpec, options, bigm=False)


def extract_solution(result: SolveResult, instance: Instance):
    """Unpack a division-model result into typed schedule objects.

    Verifies every schedule invariant before returning; a failure here
    means the solver produced garbage and is raised, not papered over.
    Returns (division, schedules, duals) with duals keyed by party tag.
    """
    model = result.model
    if isinstance(model, MilpModel):
        mpec = model.mpec
    elif isinstance(model, MpecModel):
        mpec = model
    else:
        raise TypeError("result does not carry a division model")
    if result.x is None:
        raise ValueError(f"no solution to extract (status {result.status})")
    x = result.x
    inst = instance
    t = inst.grid.slot_count
    n = inst.customer_count
    scale = max(1.0, inst.storage.total_capacity,
                float(inst.loads.system_load.max(initial=0.0)))

    def snap(a):
        a = np.asarray(a, float).copy()
        a[np.abs(a) <= 1e-9 * scale] = 0.0
        return a

    division = Division(
        s_disco=float(snap(x[mpec.div_disco_col])),
        s_customer=snap(x[mpec.div_cust_cols]),
    )
    ch = np.empty((n, t))
    dis = np.empty((n, t))
    peak = np.empty(n)
    valley = np.empty(n)
    for i, lay in enumerate(mpec.customers):
        ch[i] = snap(x[lay.x0: lay.x0 + t])
        dis[i] = snap(x[lay.x0 + t: lay.x0 + 2 * t])
        peak[i] = x[lay.x0 + 2 * t]
        valley[i] = x[lay.x0 + 2 * t + 1]
    d = mpec.disco
    schedules = ScheduleSet(
        customer_ch=ch,
        customer_dis=dis,
        disco_ch=snap(x[d.x0: d.x0 + t]),
        disco_dis=snap(x[d.x0 + t: d.x0 + 2 * t]),
        customer_peak=peak,
        customer_valley=valley,
        system_peak=float(x[mpec.peak_col]),
    )
    report = check_schedule_invariants(inst, division, schedules, tol=FEAS_TOL)
    if not report.passed:
        raise RuntimeError(f"solution violates schedule invariants: {report.failures()}")
    duals = {}
    for lay in mpec.parties():
        duals[lay.tag.rstrip(".")] = {
            "omega": x[lay.w0: lay.w0 + lay.nw].copy(),
            "v": x[lay.v0: lay.v0 + lay.nv].copy(),
        }
    return division, schedules, duals
