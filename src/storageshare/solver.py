"""Branch-and-bound drivers for the division model over the embedded
simplex engine.

Two entry points: solve_milp branches on the binaries of a big-M
linearized division model (mpec.MilpModel), and solve_lpcc branches
directly on complementarity pairs without big-M constants. Both run one
driver: a division heuristic, a best-first core with warm-started node
LPs and a dual re-read of the final incumbent: each party's multipliers
from the heuristic's warm family at the answer's share, kept when they are
complementary to the answer's rows, which certifies by LP duality that
every dispatch is optimal at its share. Node order and therefore node
counts are deterministic for a fixed model.

The LP both trees search is the model's LP plus one chord row per party
p: c_p.x_p <= phi_p(lo) + (phi_p(hi) - phi_p(lo)) / (hi - lo) (s_p - lo),
where phi_p(s) is the party's optimal dispatch cost at share s and
[lo, hi] the bounds of its share column s_p. Every row of the party's LP
moves linearly with s, so phi_p is convex and lies on or below its chord
on [lo, hi]: each point whose dispatches are optimal satisfies the row,
and the row cuts off relaxed points whose dispatch costs more than any
optimal one can (the concave envelope of the value-function bound
c_p.x_p <= phi_p(s_p)). The chord is exact, without slack, and most
divisions then close at the root. The rows live in the tree's copy of
the LP only; the model, its big-M form and their MPS files do not carry
them.

No LP of a solve runs phase 1. Each party's family starts its first
solve at the party's no-battery vertex (simplex.party_family). Before the
root LP is solved, each family already holds the party's optimal basis at
its lowest share, and together those bases give a point of the root LP
(every dispatch optimal with its multipliers, the peak at the highest
load) and a feasible basis at it: each party's primal basis, the
complementary dual basis on its stationarity rows, peak on its tightest
row and a surplus on every other row (_root_start). The engine checks
each start and runs phase 2 from it; a rejected start falls back to the
slack crash. Each fallback a solve takes is named in SolveResult.fallbacks,
SolveResult.family_iterations counts the families' pivots, and the clock
and time limit run from the start of the whole solve, heuristic and chords
included.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .instance import Division, Instance, ScheduleSet
from .lp import LinearProgram, Rows, evaluate
from .mpec import MilpModel, MpecModel
from .oracle import check_schedule_invariants
from .simplex import Simplex, party_family

_EXIT_CODES = {"optimal": 0, "infeasible": 2, "unbounded": 3, "limit": 4}
MODES = ("bigm", "lpcc")  # solve_milp on the big-M model, or solve_lpcc
_INT_TOL = 1e-6
_COMP_TOL = 1e-7  # pair products at or below this count as complementary
_SETTLED_TOL = 1e-9  # a binary this near 0 or 1 is taken as fixed by a branch


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
    family_iterations: int = 0  # pivots of every party family solve: chords, heuristic, re-read
    # the fallbacks the solve took: "family_start" (a party family's first
    # solve ran from the slack crash), "root_start" (the root LP did) and
    # "reread" (the answer keeps the tree's multipliers, without the
    # family certificate)
    fallbacks: tuple = ()

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def _relative_gap(objective: float, bound: float) -> float:
    if not np.isfinite(objective):
        return np.inf
    return max(0.0, (objective - bound) / max(1.0, abs(objective)))


def _branch_and_bound(lp, opts, classify, model, heuristic, start=None, t0=None):
    """Best-first search; classify(sol) returns either an incumbent
    candidate or the two child bound-fixes of the branching decision.
    Ties on the bound favor deeper nodes so plateaus dive to leaves.
    heuristic.try_point may turn any node relaxation into a side
    incumbent without affecting the tree itself. start goes to the root's
    Simplex.solve; t0, the perf_counter reading the time limit and
    wall_time count from, defaults to now."""
    t0 = time.perf_counter() if t0 is None else t0
    engine = Simplex(lp)
    base_lo = np.concatenate([lp.lb, np.zeros(lp.n_g)])
    base_hi = np.concatenate([lp.ub, np.full(lp.n_g, np.inf)])

    incumbent_x = None
    incumbent_obj = np.inf
    bound_hist: list[float] = []
    inc_hist: list[float] = []
    heap: list = []
    seq = 0
    global_bound = -np.inf
    gap_floor = np.inf  # lowest bound of a node that only gap_target pruned
    limit_hit = False
    node_count = 0
    iterations = 0

    def prune_eps() -> float:
        if not np.isfinite(incumbent_obj):
            return 0.0
        return 1e-9 + opts.gap_target * max(1.0, abs(incumbent_obj))

    def pruned(bound: float) -> bool:
        nonlocal gap_floor
        if incumbent_x is None or bound < incumbent_obj - prune_eps():
            return False
        if bound < incumbent_obj - 1e-9:
            gap_floor = min(gap_floor, bound)
        return True

    def raise_bound(b: float):
        nonlocal global_bound
        b = min(b, gap_floor)  # a subtree the gap target pruned stays unsearched
        if b > global_bound:
            global_bound = b
            bound_hist.append(b)

    def take_incumbent(x2, obj2):
        nonlocal incumbent_x, incumbent_obj
        if obj2 < incumbent_obj:
            incumbent_x, incumbent_obj = x2, obj2
            inc_hist.append(obj2)

    def consider(sol, fixes, parent_bound) -> str | None:
        """Route one solved node; returns a terminal status or None."""
        nonlocal seq, limit_hit
        if sol.status == "infeasible":
            return None
        if sol.status == "iteration_limit":
            limit_hit = True
            return None
        if sol.status == "unbounded":
            return "unbounded"
        bound = max(float(sol.objective), parent_bound)
        if pruned(bound):
            return None
        kind, payload = classify(sol)
        if kind == "incumbent":
            take_incumbent(*payload)
            return None
        side = heuristic.try_point(sol.x)
        if side is not None:
            take_incumbent(*side)
            if pruned(bound):
                return None
        heapq.heappush(heap, (bound, -len(fixes), seq, fixes, engine.snapshot(), payload))
        seq += 1
        return None

    root = engine.solve(start=start)
    node_count += 1
    iterations += root.iterations
    done = partial(SolveResult, model=model, root_iterations=root.iterations,
                   fallbacks=("root_start",) if engine.start_rejects else ())
    if root.status != "optimal":
        status = {"iteration_limit": "limit"}.get(root.status, root.status)
        return done(
            status=status, x=None, objective=np.nan,
            best_bound=-np.inf if status == "unbounded" else np.inf,
            gap=np.inf, node_count=node_count,
            wall_time=time.perf_counter() - t0, iterations=iterations,
        )
    raise_bound(float(root.objective))
    terminal = consider(root, (), -np.inf)

    while heap and terminal is None and not limit_hit:
        if node_count >= opts.node_limit or time.perf_counter() - t0 > opts.time_limit:
            limit_hit = True
            break
        bound, _, _, fixes, snap, branch = heapq.heappop(heap)
        raise_bound(bound)
        if pruned(bound):
            continue
        for col, lo_fix, hi_fix in branch:
            lo, hi = base_lo.copy(), base_hi.copy()
            for c_, l_, h_ in fixes:
                lo[c_] = max(lo[c_], l_)
                hi[c_] = min(hi[c_], h_)
            lo[col] = max(lo[col], lo_fix)
            hi[col] = min(hi[col], hi_fix)
            sol = engine.resolve(snap, lo, hi)
            node_count += 1
            iterations += sol.iterations
            terminal = consider(sol, fixes + ((col, lo_fix, hi_fix),), bound)
            if terminal is not None or limit_hit:
                break
            if node_count >= opts.node_limit or time.perf_counter() - t0 > opts.time_limit:
                limit_hit = True
                break

    if terminal == "unbounded":
        return done(
            status="unbounded", x=None, objective=np.nan, best_bound=-np.inf,
            gap=np.inf, node_count=node_count,
            wall_time=time.perf_counter() - t0, iterations=iterations,
        )
    if limit_hit:
        status = "limit"
    elif incumbent_x is not None:
        status = "optimal"
        raise_bound(incumbent_obj)
    else:
        status = "infeasible"
    if status == "infeasible":
        best_bound = np.inf
        objective = np.nan
        gap = np.inf
    else:
        best_bound = min(global_bound, incumbent_obj)
        objective = incumbent_obj if incumbent_x is not None else np.nan
        gap = _relative_gap(objective, best_bound)
    return done(
        status=status,
        x=incumbent_x,
        objective=objective,
        best_bound=best_bound,
        gap=gap,
        node_count=node_count,
        wall_time=time.perf_counter() - t0,
        iterations=iterations,
        bound_history=tuple(bound_hist),
        incumbent_history=tuple(inc_hist),
    )


def _pair_slacks(lp: LinearProgram, pairs: np.ndarray):
    """x -> slacks of the pair rows of lp at x, in pair order."""
    rows = lp.g.take(pairs[:, 1])
    rhs = lp.b_g()[pairs[:, 1]]
    return lambda x: rows.dot(x) - rhs


class _DivisionHeuristic:
    """Turns any capacity division into a feasible point of the joint model.

    Every party's dispatch LP solved at a fixed division yields, with its
    multipliers, an exact optimality system solution (dispatch variables
    are free, so reduced costs vanish at the optimum). Stitching those
    together with the implied system peak gives an incumbent; the division
    is read off a node relaxation, and repeats are skipped via a cache.
    Each party has one warm family (simplex.CapacityFamily) for the whole
    tree solve, started at the party's no-battery vertex
    (simplex.party_family), so its first solve runs no phase 1 and a new
    share is a dual-simplex bound change. The same families give the
    tree's answer its multipliers (read_families).
    """

    def __init__(self, mpec: MpecModel, feas_lp: LinearProgram, u_cols=None):
        self.mpec = mpec
        self.feas_lp = feas_lp
        self.u_cols = u_cols
        self.pair_slacks = _pair_slacks(mpec.lp, mpec.pairs)
        self.seen: set = set()
        inst = mpec.instance
        self.families = [party_family(inst, p) for p in range(inst.customer_count + 1)]
        # each party's dispatch cost; the family's capacity column costs nothing
        self.costs = [f.engine.lp.c[: f.n] for f in self.families]

    def read_families(self, x: np.ndarray, dispatch: bool) -> np.ndarray | None:
        """Write into x each party's multipliers from its family at the
        party's share in x (at 0 if a hair below), with dispatch also its
        dispatch and the implied system peak. Returns x, binaries re-settled,
        if the multipliers are complementary to x's rows and x passes
        feas_lp, else None. Dual-feasible multipliers complementary to a
        feasible x certify that each dispatch in x is optimal at its share."""
        mp = self.mpec
        t = mp.instance.grid.slot_count
        net = mp.instance.loads.system_load.astype(float)
        for p, lay in enumerate(mp.parties()):
            sol = self.families[p].solve(max(0.0, float(x[lay.cap_col])))
            if sol.status != "optimal":
                return None
            x[lay.w0: lay.w0 + lay.nw] = sol.dual_g
            x[lay.v0: lay.v0 + lay.nv] = sol.dual_h
            if dispatch:
                x[lay.x0: lay.x0 + lay.nx] = sol.x
                net += sol.x[:t] - sol.x[t: 2 * t]
        if dispatch:
            x[mp.peak_col] = float(net.max())
        w = x[mp.pairs[:, 0]]
        slack = self.pair_slacks(x)
        if float(np.abs(w * slack).max(initial=0.0)) > _COMP_TOL:
            return None
        if self.u_cols is not None:
            x[self.u_cols] = w > slack
        if not evaluate(self.feas_lp, x).feasible(1e-6):
            return None
        return x

    def try_point(self, x_relax):
        """Returns (x, objective) or None if this division was already tried
        or the stitched point fails verification. Each party is solved at
        the relaxation's exact share; the share rounded to 9 digits only
        keys the cache of tried divisions."""
        cap_cols = [lay.cap_col for lay in self.mpec.parties()]
        shares = np.maximum(0.0, x_relax[cap_cols])
        key = tuple(round(float(v), 9) for v in shares)
        if key in self.seen:
            return None
        self.seen.add(key)
        x = np.zeros(self.feas_lp.n_vars)
        x[cap_cols] = shares
        if self.read_families(x, dispatch=True) is None:
            return None
        return x, float(self.feas_lp.c @ x) + self.feas_lp.objective_constant


def _classify_milp(milp: MilpModel, lp: LinearProgram):
    pair_slacks = _pair_slacks(lp, milp.pairs)
    w_cols = milp.pairs[:, 0]
    u_cols = np.asarray(milp.binary_cols, dtype=int)

    def classify(sol):
        x = sol.x
        uvals = x[u_cols]
        frac = np.abs(uvals - np.round(uvals))
        if np.all(frac <= _INT_TOL):
            x2 = x.copy()
            x2[u_cols] = np.round(uvals)
            if evaluate(lp, x2).feasible(1e-6):
                return "incumbent", (x2, float(sol.objective))
        slack = pair_slacks(x)
        prod = x[w_cols] * slack
        if float(prod.max()) <= _COMP_TOL:
            x2 = x.copy()
            x2[u_cols] = x[w_cols] >= slack
            if evaluate(lp, x2).feasible(1e-6):
                return "incumbent", (x2, float(sol.objective))
        # branch on the worst pair whose u is not yet settled (a u within
        # _INT_TOL of 0 still lets its pair slip by u times big-M), or on
        # the worst pair when every u is
        unsettled = np.flatnonzero(frac > _SETTLED_TOL)
        q = int(unsettled[np.argmax(prod[unsettled])]) if unsettled.size else int(np.argmax(prod))
        col = int(u_cols[q])
        return "branch", ((col, 0.0, 0.0), (col, 1.0, 1.0))

    return classify


def _classify_lpcc(mpec: MpecModel, lp: LinearProgram):
    pair_slacks = _pair_slacks(lp, mpec.pairs)
    w_cols = mpec.pairs[:, 0]
    n_struct = lp.n_vars

    def classify(sol):
        x = sol.x
        prod = x[w_cols] * pair_slacks(x)
        if float(prod.max()) <= _COMP_TOL and evaluate(lp, x).feasible(1e-6):
            return "incumbent", (x.copy(), float(sol.objective))
        q = int(np.argmax(prod))
        w_col, g_row = mpec.pairs[q].tolist()
        # either the multiplier goes to zero, or the row to equality
        return "branch", ((w_col, 0.0, 0.0), (n_struct + g_row, 0.0, 0.0))

    return classify


def _with_chords(mpec: MpecModel, lp: LinearProgram, heur: _DivisionHeuristic):
    """lp plus one chord row per party p over its share column s_p:

        -c_p.x_p + slope_p s_p >= -phi_p(lo) + slope_p lo,

    with [lo, hi] the bounds of s_p in lp and slope_p the slope of phi_p
    from lo to hi. phi_p is convex, so it lies on or below this chord on
    [lo, hi], and every point whose dispatches are optimal satisfies the
    row. phi_p(lo) and phi_p(hi) come from the heuristic's families, solved
    at hi first so each family ends at lo. Returns the LP and, per party,
    the family solutions (at lo, at hi)."""
    idx, val, off, ends = [], [], [], []
    for p, lay in enumerate(mpec.parties()):
        lo, hi = float(lp.lb[lay.cap_col]), float(lp.ub[lay.cap_col])
        at_hi = heur.families[p].solve(hi)
        at_lo = at_hi if hi == lo else heur.families[p].solve(lo)
        ends.append((at_lo, at_hi))
        if at_lo.status != "optimal" or at_hi.status != "optimal":
            continue  # no chord for this party: the relaxation stays valid, only weaker
        phi_lo, phi_hi = at_lo.objective, at_hi.objective
        slope = (phi_hi - phi_lo) / (hi - lo) if hi > lo else 0.0
        nz = np.flatnonzero(heur.costs[p])
        cols, coefs = lay.x0 + nz, -heur.costs[p][nz]
        if slope != 0.0:
            cols, coefs = np.append(cols, lay.cap_col), np.append(coefs, slope)
        idx.append(cols)
        val.append(coefs)
        off.append(slope * lo - phi_lo)
    return replace(
        lp,
        g=Rows.stack([lp.g, Rows.from_lists(idx, val)]),
        g_offset=np.append(lp.g_offset, off),
        g_cap=np.append(lp.g_cap, np.zeros(len(off))),
    ), ends


def _root_start(mpec: MpecModel, lp: LinearProgram, ends, u_cols=None):
    """Start (basic columns, point) of lp's root solve: the point where each
    party dispatches optimally at a share bound with its family's
    multipliers, and a feasible basis at it. None if a family did not end
    optimal or an equality row outside the party blocks cannot be met.

    Each share sits at its lower bound, nonbasic. An equality row beyond the
    parties' stationarity and balance rows (a pin on the shares, such as
    sum s_c = C) is met by its first column, which turns basic and must be
    a share that then sits at its upper bound. A party's block takes its
    family's basis at its share (ends[p], as _with_chords returns it): the
    same dispatch columns and surpluses of its primal rows, and on its
    stationarity rows the multipliers of its active rows and its balance
    multipliers, which the family's primal basis determines (the
    complementary dual basis). peak is basic on its tightest row; every
    other row outside the party blocks (capacity split, peak, big-M pair
    and chord rows) keeps its surplus basic, and the binaries u_cols sit at
    1 exactly on the active pairs."""
    n = lp.n_vars
    x = np.zeros(n)
    parties = mpec.parties()
    shares = np.array([lay.cap_col for lay in parties])
    x[shares] = lp.lb[shares]
    basic = [np.array([mpec.peak_col])]
    b_h = lp.b_h()
    for r in range(sum(lay.nx + lay.nv for lay in parties), lp.n_h):
        cols, coefs = lp.h.row(r)
        col = cols[0]
        x[col] += (b_h[r] - coefs @ x[cols]) / coefs[0]
        if col not in shares or x[col] != lp.ub[col]:
            return None
        basic.append(cols[:1])
    for lay, (at_lo, at_hi) in zip(parties, ends):
        sol = at_lo if x[lay.cap_col] == lp.lb[lay.cap_col] else at_hi
        if sol.status != "optimal":
            return None
        x[lay.x0: lay.x0 + lay.nx] = sol.x
        x[lay.w0: lay.w0 + lay.nw] = sol.dual_g
        x[lay.v0: lay.v0 + lay.nv] = sol.dual_h
        b = sol.basis  # party numbering: dispatch column j, or nx + i for row i's surplus
        basic += [np.where(b < lay.nx, lay.x0 + b, n + lay.g0 + b - lay.nx),
                  lay.w0 + sol.active, lay.v0 + np.arange(lay.nv)]
    upper = np.ones(lp.n_g, dtype=bool)
    for lay in parties:
        upper[lay.g0: lay.g0 + lay.nw] = False
    peak_rows = lp.g.row_ids[lp.g.indices == mpec.peak_col]  # peak - flows >= load
    load = lp.b_g()[peak_rows] - lp.g.take(peak_rows).dot(x)  # load + flows, peak at 0
    x[mpec.peak_col] = float(load.max())
    upper[peak_rows[np.argmax(load)]] = False
    basic.append(n + np.flatnonzero(upper))
    basic = np.concatenate(basic)
    if u_cols is not None:
        x[u_cols] = np.isin(mpec.pairs[:, 0], basic)
    return basic, x


def _solve_tree(mpec: MpecModel, model, lp: LinearProgram, classify_for,
                options: SolveOptions | None, u_cols=None) -> SolveResult:
    """Division heuristic, best-first tree over lp and its chord rows from
    the families' root start, then the dual re-read of the incumbent.
    classify_for(tree_lp) gives the node classifier; u_cols are lp's binary
    columns, if it has any. The clock and the time limit cover it all."""
    t0 = time.perf_counter()
    heur = _DivisionHeuristic(mpec, lp, u_cols=u_cols)
    tree_lp, ends = _with_chords(mpec, lp, heur)
    start = _root_start(mpec, tree_lp, ends, u_cols)
    result = _branch_and_bound(tree_lp, options or SolveOptions(), classify_for(tree_lp),
                               model, heur, start=start, t0=t0)
    fallbacks = ("root_start",) if start is None else result.fallbacks
    if result.x is not None:
        reread = heur.read_families(result.x.copy(), dispatch=False)
        if reread is None:
            fallbacks += ("reread",)
        else:
            result = replace(result, x=reread)
    if any(f.engine.start_rejects for f in heur.families):
        fallbacks = ("family_start",) + fallbacks
    return replace(result, fallbacks=fallbacks,
                   family_iterations=sum(f.iterations for f in heur.families),
                   wall_time=time.perf_counter() - t0)


def solve_milp(milp: MilpModel, options: SolveOptions | None = None) -> SolveResult:
    """Best-first branch and bound on the binaries of a linearized division
    model, branching on the most violated complementarity pair.

    The bound sequence is non-decreasing and the incumbent sequence
    non-increasing by construction (child bounds are clamped to their
    parent's).
    """
    return _solve_tree(milp.mpec, milp, milp.lp, partial(_classify_milp, milp), options,
                       u_cols=milp.binary_cols)


def solve_lpcc(mpec: MpecModel, options: SolveOptions | None = None) -> SolveResult:
    """Complementarity branching on the pair list, no big-M constants.

    Each node either zeroes a pair's multiplier or pins its row to
    equality, so every root-to-leaf path fixes a strictly growing set of
    columns and the tree is finite.
    """
    return _solve_tree(mpec, mpec, mpec.lp, partial(_classify_lpcc, mpec), options)


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
    report = check_schedule_invariants(inst, division, schedules, tol=1e-6)
    if not report.passed:
        raise RuntimeError(f"solution violates schedule invariants: {report.failures()}")
    duals = {}
    for lay in mpec.parties():
        duals[lay.tag.rstrip(".")] = {
            "omega": x[lay.w0: lay.w0 + lay.nw].copy(),
            "v": x[lay.v0: lay.v0 + lay.nv].copy(),
        }
    return division, schedules, duals
