"""Single-level reformulation of the storage-division problem.

Each party's dispatch LP is replaced by its optimality conditions:
stationarity ties the duals to the objective gradient, the original rows
stay as primal feasibility, and every inequality row is paired with its
multiplier for complementarity. Embedding those systems under the division
constraints and the peak epigraph yields one model whose only nonlinearity
is the pair condition omega_i * g_i = 0; linearize_big_m swaps each pair
for the two bound rows with an auxiliary 0-1 variable.

The derivation is mechanical from LP data: assemble_mpec knows nothing
about slots or batteries beyond each party LP's last column, its capacity,
which becomes the party's division variable. linearize_big_m sizes each
pair's primal bound by the catalog family of its row, which it reads off
the row's position in the party block (lp.py: row i is of family
i // T + 1); no row or column carries a name. The pair bounds are sized
here alone: a primal bound is _PRIMAL_SAFETY times its row's family bound
plus _PRIMAL_FLOOR, above every feasible slack; a dual bound is
_DUAL_SCALE times the price magnitude, at least _DUAL_FLOOR, and, given
the day's capacity paths, at least the pair's cap (pair_caps), _DUAL_MARGIN
times its row's largest multiplier over the party's path plus _DUAL_PAD.
The path duals at an optimal point's shares are complementary to its
optimal dispatches, so swapping them in keeps it optimal and under every cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, flow_price
from .lp import LinearProgram, Rows, build_party_lp
from .simplex import day_paths

_PRIMAL_SAFETY = 1.25
_PRIMAL_FLOOR = 1.0
_DUAL_SCALE = 1000.0
_DUAL_FLOOR = 1.0
_DUAL_MARGIN = 1.1
_DUAL_PAD = 1e-3


@dataclass(frozen=True)
class PartyLayout:
    """Column/row addresses of one embedded optimality system."""

    tag: str
    x0: int
    nx: int
    w0: int
    nw: int
    v0: int
    nv: int
    g0: int  # first primal inequality row in the joint model
    cap_col: int  # division variable this party's rows are linked to


@dataclass(frozen=True)
class MpecModel:
    """Joint model: upper rows + every party's optimality system.

    lp holds all linear rows (the complementarity pairs are NOT rows);
    pairs is an (n_pairs, 2) int array of (omega column, inequality row)
    whose values must multiply to zero. Column order: peak, s_disco,
    s_customer[0..N-1], then per party its primal block, multiplier block,
    balance multiplier.

    paths, the day's capacity paths in party order, depend on the instance
    alone: the first read builds them (simplex.day_paths) and every later
    one returns the same objects. A model derived by dataclasses.replace
    with the same instance (a pin on its shares) shares the one build.
    """

    instance: Instance
    lp: LinearProgram
    pairs: np.ndarray  # [[omega_col, g_row], ...]
    peak_col: int
    div_disco_col: int
    div_cust_cols: np.ndarray
    customers: tuple  # PartyLayout per customer
    disco: "PartyLayout"
    # holds the paths once built; replace() hands the same list on
    _paths: list = field(default_factory=list, repr=False, compare=False)

    @property
    def paths(self) -> tuple:
        if not self._paths:
            self._paths.append(tuple(day_paths(self.instance)))
        return self._paths[0]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def parties(self):
        return list(self.customers) + [self.disco]


@dataclass(frozen=True)
class MilpModel:
    """Mixed-binary form: MPEC rows plus, per pair p of mpec.pairs with
    binary u_p, m_omega[p]: M_w*u_p - omega >= 0  and
    m_slack[p]: M_g*(1-u_p) - g >= 0."""

    mpec: MpecModel
    lp: LinearProgram
    binary_cols: np.ndarray
    m_omega: np.ndarray
    m_slack: np.ndarray
    pair_row0: int  # pair p's rows sit at pair_row0 + 2p (+1)
    lifted: int = 0  # pairs whose m_omega the path floor raised above the fixed size

    @property
    def n_binaries(self) -> int:
        return len(self.binary_cols)


def assemble_mpec(instance: Instance) -> MpecModel:
    """Join the division problem and every party's optimality system."""
    n_cust = instance.customer_count
    t = instance.grid.slot_count
    s_total = instance.storage.total_capacity

    party_lps = [build_party_lp(instance, p, 0.0) for p in range(n_cust + 1)]

    col = 2 + n_cust
    layouts = []
    g_count = 1 + t  # capacity split + peak epigraph, placed first
    for p, plp in enumerate(party_lps):
        tag = f"c{p}." if p < n_cust else "d."
        nx = plp.n_vars - 1  # the dispatch; the capacity column is the share
        x0, col = col, col + nx
        w0, col = col, col + plp.n_g
        v0, col = col, col + plp.n_h
        layouts.append(
            PartyLayout(
                tag=tag, x0=x0, nx=nx, w0=w0, nw=plp.n_g,
                v0=v0, nv=plp.n_h, g0=g_count, cap_col=(2 + p) if p < n_cust else 1,
            )
        )
        g_count += plp.n_g
    n_cols = col

    lb = np.full(n_cols, -np.inf)
    ub = np.full(n_cols, np.inf)
    lb[1: 2 + n_cust] = 0.0
    ub[1: 2 + n_cust] = s_total
    c = np.zeros(n_cols)
    c[0] = instance.weights.lambda1
    price = flow_price(instance)
    for lay in layouts:
        lb[lay.w0: lay.w0 + lay.nw] = 0.0
        c[lay.x0: lay.x0 + t] = price
        c[lay.x0 + t: lay.x0 + 2 * t] = -price
    constant = float(price @ instance.loads.system_load)

    # capacity split: s_total - s_d - sum s_n >= 0
    split = Rows.from_lists([np.arange(1, 2 + n_cust)], [np.full(1 + n_cust, -1.0)])
    # peak epigraph rows: peak - sum of all storage flows >= original load;
    # row t is [peak, then ch_t and dis_t of each party in party order]
    peak_cols = [np.zeros(t, np.int64)]
    for lay in layouts:
        peak_cols += [lay.x0 + np.arange(t), lay.x0 + t + np.arange(t)]
    peak = Rows.from_lists(np.column_stack(peak_cols),
                           np.tile([1.0] + [-1.0, 1.0] * len(layouts), (t, 1)))
    g_parts, g_off = [split, peak], [[-s_total], instance.loads.system_load]
    h_parts, h_off = [], []
    pairs = []

    def relinked(rows, lay):
        """Party rows in model columns, the capacity on the division variable."""
        cols = np.append(lay.x0 + np.arange(lay.nx), lay.cap_col)
        return Rows(rows.indptr, cols[rows.indices], rows.data)

    for lay, plp in zip(layouts, party_lps):
        # stationarity: one equality per dispatch variable (the capacity is
        # fixed, so it has none), gradient transposed; v0 = w0 + n_g, so
        # stacked row i of [A_g; A_h] has multiplier w0 + i
        stat = Rows.stack([plp.g, plp.h]).transpose(plp.n_vars).take(np.arange(lay.nx))
        h_parts.append(stat.shifted(lay.w0))
        h_off.append(plp.c[: lay.nx])
        h_parts.append(relinked(plp.h, lay))
        h_off.append(plp.b_h)
        g_parts.append(relinked(plp.g, lay))
        g_off.append(plp.b_g)
        pairs.append(np.column_stack([lay.w0 + np.arange(lay.nw),
                                      lay.g0 + np.arange(lay.nw)]))

    g = Rows.stack(g_parts)
    h = Rows.stack(h_parts)
    lp = LinearProgram(
        name="division_mpec",
        c=c,
        lb=lb,
        ub=ub,
        g=g,
        b_g=np.concatenate(g_off),
        h=h,
        b_h=np.concatenate(h_off),
        objective_constant=constant,
    )
    return MpecModel(
        instance=instance,
        lp=lp,
        pairs=np.concatenate(pairs),
        peak_col=0,
        div_disco_col=1,
        div_cust_cols=np.arange(2, 2 + n_cust),
        customers=tuple(layouts[:n_cust]),
        disco=layouts[n_cust],
    )


def _family_bounds(instance: Instance, load: np.ndarray) -> np.ndarray:
    """Upper bound on the slack of a party row over the feasible set, per
    catalog family in catalog order: soc_min, soc_max, the four power
    limits, peak_def and valley_def."""
    st = instance.storage
    span = st.total_capacity
    soc = (st.soc_upper - st.soc_lower) * span
    power = st.power_ratio * span
    profile = 2.0 * float(load.max()) + 2.0 * st.power_ratio * span
    return np.array([soc, soc, power, power, power, power, profile, profile])


def pair_caps(paths) -> np.ndarray:
    """Each pair's multiplier cap, in mpec.pairs order, off the day's paths."""
    return np.concatenate([_DUAL_MARGIN * path.dual_g_max + _DUAL_PAD for path in paths])


def linearize_big_m(mpec: MpecModel, paths=None) -> MilpModel:
    """Swap each complementarity pair for the classic two bound rows, sized
    as in the module notes; paths (the day's, in party order) floor m_omega."""
    inst = mpec.instance
    base = mpec.lp
    n_pairs = len(mpec.pairs)
    n0 = base.n_vars
    dt = inst.grid.slot_hours
    price = max(float(np.abs(inst.prices.lmp).max()), float(inst.prices.tou.max()),
                inst.weights.alpha)
    dual_m = max(_DUAL_FLOOR, _DUAL_SCALE * price * dt)

    floor = np.zeros(n_pairs) if paths is None else pair_caps(paths)
    m_omega = np.maximum(dual_m, floor)
    # pairs run party by party over each party's rows; row i of a party
    # block is of catalog family i // T
    t = inst.grid.slot_count
    loads = list(inst.loads.customer_load) + [inst.loads.system_load]
    m_slack = np.concatenate([
        _PRIMAL_SAFETY * _family_bounds(inst, load)[np.arange(lay.nw) // t]
        + _PRIMAL_FLOOR
        for lay, load in zip(mpec.parties(), loads)])

    lb = np.concatenate([base.lb, np.zeros(n_pairs)])
    ub = np.concatenate([base.ub, np.ones(n_pairs)])
    c = np.concatenate([base.c, np.zeros(n_pairs)])
    w_cols, g_rows = mpec.pairs[:, 0], mpec.pairs[:, 1]
    u_cols = n0 + np.arange(n_pairs)
    # pair q's rows, interleaved after the MPEC rows:
    #   m_omega[q]: -omega + M_w u >= 0
    #   m_slack[q]: -(row g_row) - M_g u >= -M_g - offset
    omega_rows = Rows.from_lists(np.column_stack([w_cols, u_cols]),
                                 np.column_stack([np.full(n_pairs, -1.0), m_omega]))
    slack_rows = Rows.join([-base.g.take(g_rows),
                            Rows.from_lists(u_cols[:, None], -m_slack[:, None])])
    interleave = np.column_stack([np.arange(n_pairs), n_pairs + np.arange(n_pairs)]).ravel()
    g = Rows.stack([base.g, Rows.stack([omega_rows, slack_rows]).take(interleave)])
    pair_off = np.column_stack([np.zeros(n_pairs), -m_slack - base.b_g[g_rows]])

    lp = LinearProgram(
        name="division_milp",
        c=c,
        lb=lb,
        ub=ub,
        g=g,
        b_g=np.concatenate([base.b_g, pair_off.ravel()]),
        h=base.h,
        b_h=base.b_h,
        objective_constant=base.objective_constant,
    )
    return MilpModel(
        mpec=mpec,
        lp=lp,
        binary_cols=np.arange(n0, n0 + n_pairs),
        m_omega=m_omega,
        m_slack=m_slack,
        pair_row0=base.n_g,
        lifted=int(np.count_nonzero(floor > dual_m)),
    )


def _pair_slacks(lp: LinearProgram, pairs: np.ndarray):
    """x -> slacks of the pair rows of lp at x, in pair order."""
    rows = lp.g.take(pairs[:, 1])
    rhs = lp.b_g[pairs[:, 1]]
    return lambda x: rows.dot(x) - rhs


_FLAG_TOL = 0.05  # a pair bound is near-binding within this share of its M


@dataclass(frozen=True)
class BigMReport:
    """Pairs whose multiplier or slack sits within _FLAG_TOL*M of its cap."""

    flagged: tuple  # (pair index, side, value, m)

    @property
    def clean(self) -> bool:
        return len(self.flagged) == 0


def validate_big_m(milp: MilpModel, solution: np.ndarray) -> BigMReport:
    """Flag pair bounds that may have truncated the solution.

    A multiplier (or row slack) within _FLAG_TOL*M of its M is evidence
    the constant was too small. Without the path floor an empty report is
    evidence, not proof, that the linearization did not bite: a bound that
    is not near-binding at this incumbent may still have cut off a better
    point elsewhere, which no check at one solution can rule out (Pineda &
    Morales, IEEE Trans. Power Syst. 34(3), 2019).
    """
    x = np.asarray(solution, float)
    omega = x[milp.mpec.pairs[:, 0]]
    slack = _pair_slacks(milp.mpec.lp, milp.mpec.pairs)(x)
    hit_omega = milp.m_omega - omega <= _FLAG_TOL * milp.m_omega
    hit_slack = milp.m_slack - slack <= _FLAG_TOL * milp.m_slack
    flagged = []
    for q in np.flatnonzero(hit_omega | hit_slack).tolist():
        if hit_omega[q]:
            flagged.append((q, "omega", float(omega[q]), float(milp.m_omega[q])))
        if hit_slack[q]:
            flagged.append((q, "slack", float(slack[q]), float(milp.m_slack[q])))
    return BigMReport(flagged=tuple(flagged))
