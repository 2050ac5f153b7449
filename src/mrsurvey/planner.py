"""Joint-action planning for multi-robot time-critical inspection.

A joint action sends every robot toward one remaining PoI and lasts
until the earliest arrival-plus-inspection completes; that PoI is
revealed, the finishing robot is re-assigned from wherever it stands,
and the process repeats on the shrunken state.  A robot that reaches its
target inspects it for the rest of the segment and keeps that progress
for as long as it keeps the target; switching to another PoI, or losing
the target to another robot's reveal, starts the next inspection from
zero.  Cost accrues at the sum of remaining likelihoods per second, so
the expected cost of a plan is the likelihood-weighted sum of its reveal
times, and the optimal plan reveals probably-damaged PoIs as early as
possible.  One scalar segment step, `_step`, holds this rule: the
simulator's `action_outcome`, the search and its greedy tail all fly it.

The search is depth-first branch and bound over assignment/reveal
sequences: robots commit to targets one at a time in robot-index order,
each reveal frees the finishing robot to re-commit from its interpolated
position, and partial commitments are pruned with one admissible
completion bound, the chain bound, which charges each PoI its earliest
possible arrival and respects in-flight targets and inspection
progress.  Depth counts reveals; at depth_cap a greedy nearest-PoI
rollout completes the value, with the same nearest claim
(`_claim_nearest`) as the optimistic baseline.  That tail stops as soon
as its cost passes the incumbent, which cannot change the result.  With
at least depth_cap + n_robots PoIs the bound assumes committed robots
finish their targets while the tail re-claims the nearest PoI every
segment, so pruning is exact only with fewer.  With more PoIs than
n_priority, planning restricts itself to a priority subset (top
likelihoods plus nearest-per-robot fill): the search reads those rows of
the mission state, and a robot committed to a PoI outside them plans as
a free robot.

Each travel time is computed once: the nearest claim and the search's
travel rows hand theirs to `_step`.  Nodes that share a remaining PoI
set share its pair distances.  A `PlanningState` holds tuples of python
floats, so the search, the baselines and `action_outcome` read it
without converting arrays, and this module does not use numpy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class RobotState:
    """A robot's pose and speed, plus the PoI it is committed to.

    remaining is the inspection time the robot still needs at target;
    None means the full inspect time (the robot has not started there).
    Both are ignored while target is None.
    """

    index: int
    x: float
    y: float
    speed: float = 1.0
    target: Optional[int] = None
    remaining: Optional[float] = None


@dataclass(frozen=True)
class JointAction:
    """One target PoI id per robot, ordered by robot index."""

    targets: Tuple[int, ...]


@dataclass(frozen=True)
class PlanningState:
    """Remaining PoIs plus robot poses, as tuples of python floats.

    One tuple per column: poi_x, poi_y, inspect_times and likelihoods
    are row-aligned with poi_ids, which is sorted ascending; robot_x,
    robot_y, robot_speeds, robot_targets and robot_remaining hold one
    entry per robot in index order.  robot_targets holds each robot's
    committed PoI id (None when free), and robot_remaining the
    inspection time it still needs there (0.0 when free).  A robot keeps
    that progress only if the next action sends it to the same PoI.
    """

    poi_ids: Tuple[int, ...]
    poi_x: Tuple[float, ...]
    poi_y: Tuple[float, ...]
    inspect_times: Tuple[float, ...]
    likelihoods: Tuple[float, ...]
    robot_x: Tuple[float, ...]
    robot_y: Tuple[float, ...]
    robot_speeds: Tuple[float, ...]
    robot_targets: Tuple[Optional[int], ...]
    robot_remaining: Tuple[float, ...]
    elapsed: float = 0.0

    @property
    def n_pois(self) -> int:
        return len(self.poi_ids)

    @property
    def n_robots(self) -> int:
        return len(self.robot_x)

    def index_of(self, poi_id: int) -> int:
        i = bisect.bisect_left(self.poi_ids, poi_id)
        if i >= len(self.poi_ids) or self.poi_ids[i] != poi_id:
            raise KeyError(f"PoI id {poi_id} not in state")
        return i


def make_state(
    pois: Sequence[Tuple[int, float, float, float, float]],
    robots: Sequence[RobotState],
    elapsed: float = 0.0,
) -> PlanningState:
    """Build a PlanningState from (id, x, y, inspect_time, likelihood) rows.

    Every number is converted with float(), so the state holds python
    floats even when the inputs are numpy scalars.
    """
    rows = sorted(pois, key=lambda r: r[0])
    ids = tuple(int(r[0]) for r in rows)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate PoI ids")
    xs = tuple(float(r[1]) for r in rows)
    ys = tuple(float(r[2]) for r in rows)
    insp = tuple(float(r[3]) for r in rows)
    lik = tuple(float(r[4]) for r in rows)
    if not all(math.isfinite(v) for v in xs + ys):
        raise ValueError("non-finite PoI position")
    if not all(0.0 <= t < math.inf for t in insp):
        raise ValueError("inspect times must be finite and >= 0")
    if not all(0.0 <= p <= 1.0 for p in lik):
        raise ValueError("likelihoods must lie in [0, 1]")
    if not robots:
        raise ValueError("at least one robot required")
    rx = tuple(float(r.x) for r in robots)
    ry = tuple(float(r.y) for r in robots)
    spd = tuple(float(r.speed) for r in robots)
    if not all(math.isfinite(v) for v in rx + ry):
        raise ValueError("non-finite robot position")
    if not all(0.0 < v < math.inf for v in spd):
        raise ValueError("robot speeds must be finite and > 0")
    row_of = {pid: j for j, pid in enumerate(ids)}
    targets: List[Optional[int]] = []
    remaining: List[float] = []
    for r in robots:
        if r.target is None:
            targets.append(None)
            remaining.append(0.0)
            continue
        if r.target not in row_of:
            raise ValueError(f"robot {r.index} is committed to PoI {r.target}, which is not in the state")
        full = insp[row_of[r.target]]
        left = full if r.remaining is None else float(r.remaining)
        if not 0.0 <= left <= full:
            raise ValueError(f"robot {r.index} remaining inspection must lie in [0, {full}]")
        targets.append(int(r.target))
        remaining.append(left)
    return PlanningState(ids, xs, ys, insp, lik, rx, ry, spd, tuple(targets), tuple(remaining), float(elapsed))


@dataclass(frozen=True)
class ActionOutcome:
    duration: float
    first_poi: int
    finishing_robot: int
    successor: PlanningState


@dataclass(frozen=True)
class PlannerConfig:
    depth_cap: int = 4
    n_priority: int = 12
    n_top_prob: int = 6
    prune: bool = True

    def __post_init__(self) -> None:
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")
        if self.n_top_prob > self.n_priority:
            raise ValueError("n_top_prob cannot exceed n_priority")
        if self.n_priority < 1:
            raise ValueError("n_priority must be >= 1")


@dataclass
class PlanResult:
    action: JointAction
    cost: float
    nodes_expanded: int
    children_pruned: int
    subset_ids: Tuple[int, ...]


@dataclass(frozen=True)
class NodeRecord:
    """Snapshot of a DFS child node, for bound-admissibility audits.

    robot_targets and robot_remaining carry the commitments that persist
    at the node (None and 0.0 for free robots), with the inspection time
    each committed robot still needs at its target.  bound is the
    position-only chain bound: accrued plus the sum over PoIs of
    likelihood times (earliest straight-line arrival plus the least
    inspection time any robot still needs there).  The search prunes
    with this form when the searched subset has fewer than
    depth_cap + n_robots PoIs, and with the commitment-aware form when
    it has at least that many.
    """

    poi_ids: Tuple[int, ...]
    robot_xy: Tuple[Tuple[float, float], ...]
    robot_speeds: Tuple[float, ...]
    robot_targets: Tuple[Optional[int], ...]
    robot_remaining: Tuple[float, ...]
    accrued: float
    bound: float


# --- single-action dynamics --------------------------------------------------


def _step(
    rx: Sequence[float],
    ry: Sequence[float],
    xs: Sequence[float],
    ys: Sequence[float],
    pids: Sequence[int],
    targ: List[int],
    rem: List[float],
    tts: List[float],
) -> Tuple[float, int, List[float], List[float], List[int], List[float]]:
    """Fly one segment on scalar state: the earliest completion reveals its PoI.

    Robot i heads for PoI row targ[i], tts[i] seconds away, and needs
    rem[i] seconds of inspection there.  Every caller already holds the
    travel times (the nearest claim, the search's travel rows), so the
    step takes them instead of computing them again.  Ties on the
    completion time go to the lowest PoI id, then the lowest robot index.
    Every robot advances toward its target for the duration (capped at
    the target) and inspects for whatever is left of it after arriving.
    Returns the duration, the finishing robot, the new positions, and
    each robot's target row re-indexed past the revealed one (-1 for
    every robot aimed at it) with the inspection time it still needs
    there.  The inputs are not modified.
    """
    n_rob = len(rx)
    duration = math.inf
    winner = -1
    for i in range(n_rob):
        fin = tts[i] + rem[i]
        if fin < duration or (fin == duration and (pids[targ[i]], i) < (pids[targ[winner]], winner)):
            duration = fin
            winner = i
    g_win = targ[winner]
    rx2 = [0.0] * n_rob
    ry2 = [0.0] * n_rob
    targ2 = [-1] * n_rob
    rem2 = [0.0] * n_rob
    for i in range(n_rob):
        # The share of its leg a robot covers: all of it once arrived.
        t = tts[i]
        frac = 0.0 if t == 0.0 else 1.0 if t <= duration else duration / t
        g = targ[i]
        rx2[i] = rx[i] + frac * (xs[g] - rx[i])
        ry2[i] = ry[i] + frac * (ys[g] - ry[i])
        if g == g_win:
            continue
        q = rem[i]
        if duration > t:
            q -= duration - t
            if q < 0.0:
                q = 0.0
        targ2[i] = g - 1 if g > g_win else g
        rem2[i] = q
    return duration, winner, rx2, ry2, targ2, rem2


def action_outcome(state: PlanningState, action: JointAction) -> ActionOutcome:
    """Apply one joint action: earliest completion reveals its PoI.

    A robot sent to the PoI it is already committed to needs only its
    remaining inspection time there; any other target costs the full
    inspect time.  The segment is `_step`, the same one the search and
    its greedy tail fly: ties on the completion time go to the lowest
    PoI id, then the lowest robot index, and non-finishing robots
    advance toward their targets and inspect for whatever is left of the
    segment after arriving.  The successor keeps every robot committed
    to its target, except the robots aimed at the revealed PoI, which
    become free.
    """
    n, n_rob = state.n_pois, state.n_robots
    if n == 0:
        raise ValueError("empty remaining set")
    if len(action.targets) != n_rob:
        raise ValueError(f"expected {n_rob} targets, got {len(action.targets)}")
    t_idx = [state.index_of(pid) for pid in action.targets]
    if n >= n_rob:
        if len(set(t_idx)) != n_rob:
            raise ValueError("targets must be pairwise distinct when PoIs >= robots")
    else:
        if set(t_idx) != set(range(n)):
            raise ValueError("every remaining PoI must be covered when PoIs < robots")

    insp = state.inspect_times
    needs = [
        q if pid == held else insp[j]
        for pid, held, q, j in zip(action.targets, state.robot_targets, state.robot_remaining, t_idx)
    ]
    ids = state.poi_ids
    xs, ys = state.poi_x, state.poi_y
    tts = []
    for x, y, v, g in zip(state.robot_x, state.robot_y, state.robot_speeds, t_idx):
        dx = x - xs[g]
        dy = y - ys[g]
        tts.append(math.sqrt(dx * dx + dy * dy) / v)
    duration, winner, rx, ry, targ, rem = _step(state.robot_x, state.robot_y, xs, ys, ids, t_idx, needs, tts)
    first_idx = t_idx[winner]

    def drop(col):
        return col[:first_idx] + col[first_idx + 1:]

    ids2 = drop(ids)
    successor = PlanningState(
        poi_ids=ids2,
        poi_x=drop(xs),
        poi_y=drop(ys),
        inspect_times=drop(insp),
        likelihoods=drop(state.likelihoods),
        robot_x=tuple(rx),
        robot_y=tuple(ry),
        robot_speeds=state.robot_speeds,
        robot_targets=tuple(None if t < 0 else ids2[t] for t in targ),
        robot_remaining=tuple(rem),
        elapsed=state.elapsed + duration,
    )
    return ActionOutcome(
        duration=duration,
        first_poi=ids[first_idx],
        finishing_robot=winner,
        successor=successor,
    )


# --- bounds and greedy tail ---------------------------------------------------


def _scalars(state: PlanningState, ids: Sequence[int]) -> tuple:
    """The rows of the ascending PoI ids `ids` as fresh python lists, in
    `_tail`'s argument order: PoI ids, x, y, inspect times and
    likelihoods, then robot x, y and speeds, then each robot's committed
    PoI as a row index and the inspection time it still needs there.  A
    robot that is free, or committed to a PoI outside ids, gets -1 and
    0.0."""
    rows = [state.index_of(pid) for pid in ids]
    row_of = {pid: g for g, pid in enumerate(ids)}
    targ = [row_of.get(t, -1) for t in state.robot_targets]
    pois = [[col[g] for g in rows] for col in (state.poi_x, state.poi_y, state.inspect_times, state.likelihoods)]
    robots = [list(col) for col in (state.robot_x, state.robot_y, state.robot_speeds)]
    rem = [0.0 if t < 0 else q for t, q in zip(targ, state.robot_remaining)]
    return (list(ids), *pois, *robots, targ, rem)


def _least_need(insp: List[float], targ: List[int], rem: List[float]) -> List[float]:
    """Per PoI, the least inspection time any robot still needs there."""
    need = insp[:]
    for t, q in zip(targ, rem):
        if t >= 0 and q < need[t]:
            need[t] = q
    return need


def _claim_nearest(
    rx: Sequence[float], ry: Sequence[float], spd: Sequence[float], xs: Sequence[float], ys: Sequence[float]
) -> Tuple[List[int], List[float]]:
    """Each robot's nearest-PoI claim, as a row index, and its travel time
    there, on scalar state.

    Robots claim distinct PoIs in the given order, each the unclaimed
    one it reaches soonest (the lowest row on ties); once every PoI is
    claimed, the remaining robots take their nearest.

    A row is timed only when its squared distance is below the best
    one's: a correctly rounded sqrt and a division by the same positive
    speed never reverse an order, so the rows skipped could not win the
    strict `t < best_t` test, and the result is that of timing every row.
    """
    free = list(range(len(xs)))
    out = []
    times = []
    for x, y, v in zip(rx, ry, spd):
        best_g = -1
        best_t = best_d = math.inf
        for g in free or range(len(xs)):
            dx = x - xs[g]
            dy = y - ys[g]
            d = dx * dx + dy * dy
            if d < best_d:
                t = math.sqrt(d) / v
                if t < best_t:
                    best_t = t
                    best_d = d
                    best_g = g
        if free:
            free.remove(best_g)
        out.append(best_g)
        times.append(best_t)
    return out, times


def _tail(
    pids: List[int],
    xs: List[float],
    ys: List[float],
    insp: List[float],
    lik: List[float],
    rx: List[float],
    ry: List[float],
    spd: List[float],
    tg: List[int],
    rem: List[float],
    acc: float,
    cutoff: float,
) -> float:
    """Greedy completion cost on scalar state; consumes the PoI lists.

    Each segment, robots claim PoIs with `_claim_nearest` in the given
    order and fly `_step`, the segment the simulator flies.  tg[i] is the
    index of robot i's committed PoI in the lists (-1 when free) and
    rem[i] the inspection time it still needs there; a robot that claims
    its committed PoI again keeps that progress.  The search calls this
    at every leaf, where interpreter arithmetic is cheaper than array
    dispatch on segments this small.

    acc is the cost accrued before the tail and cutoff the search's
    incumbent: as soon as acc + total exceeds cutoff the tail stops and
    returns inf.  Every segment adds a non-negative term and float
    addition is monotone, so inf comes back exactly when acc plus the
    full completion cost exceeds cutoff; otherwise the full cost comes
    back, bit for bit.  With cutoff inf, acc does not matter.
    """
    total = 0.0
    while acc + total <= cutoff:
        if not pids:
            return total
        claim, tts = _claim_nearest(rx, ry, spd, xs, ys)
        rem = [q if g == t else insp[g] for g, t, q in zip(claim, tg, rem)]
        duration, winner, rx, ry, tg, rem = _step(rx, ry, xs, ys, pids, claim, rem, tts)
        psum = 0.0
        for p in lik:
            psum += p
        total += duration * psum
        g = claim[winner]
        del pids[g], xs[g], ys[g], insp[g], lik[g]
    return math.inf


# --- depth-first branch and bound ---------------------------------------------


def _travel_rows(
    rx: Sequence[float], ry: Sequence[float], spd: Sequence[float], xs: Sequence[float], ys: Sequence[float]
) -> List[List[float]]:
    """Per robot, its straight-line travel time to every PoI."""
    rows = []
    for x, y, v in zip(rx, ry, spd):
        row = []
        for px, py in zip(xs, ys):
            dx = x - px
            dy = y - py
            row.append(math.sqrt(dx * dx + dy * dy) / v)
        rows.append(row)
    return rows


def _commit_row(trow: List[float], t: int, need: float, dpp_t: List[float], v: float) -> List[float]:
    """Earliest arrival at every PoI for a robot committed to row t.

    trow is the robot's travel row and need its inspection time at t;
    any other PoI is reached only after finishing t, by the direct hop.
    """
    fin = trow[t] + need
    row = [fin + d / v for d in dpp_t]
    row[t] = trow[t]
    return row


def _layout(pids, xs, ys, insp, lik, dpp) -> tuple:
    """What every node with one remaining PoI set shares: the PoI lists,
    the pair distances and the likelihood sum."""
    psum = 0.0
    for p in lik:
        psum += p
    return (pids, xs, ys, insp, lik, dpp, psum)


def _column_min(rows: Sequence[List[float]], n: int) -> List[float]:
    """Per PoI column, the least entry over the robot rows (inf if none)."""
    if not rows:
        return [math.inf] * n
    m = rows[0][:]
    for row in rows[1:]:
        for l, f in enumerate(row):
            if f < m[l]:
                m[l] = f
    return m


class _Search:
    """One branch-and-bound minimum over assignment/reveal sequences.

    The object reads the priority rows (the ascending PoI ids it is
    given) of the mission state into lists once, with `_scalars`, and
    searches those PoIs alone.  It holds the per-search constants, the
    incumbent (best_cost and its root target tuple, best_tuple) and the
    two counters, nodes_expanded and children_pruned; `run` searches and
    returns the cost and the root target tuple.

    Nodes alternate between commitment layers (`assign`: the
    lowest-index free robot picks an unclaimed PoI, or any remaining one
    once all are claimed) and reveal events (`advance`: earliest
    completion wins, ties by PoI id then robot index).  Ties on cost
    resolve to the lexicographically smallest root target tuple, which
    is the joint-action enumeration order.  Every robot commits afresh at
    the root, keeping the state's inspection progress only where it
    picks its committed PoI again; below the root, commitments persist
    with their progress until their PoI is revealed.

    Pruning uses one admissible completion bound, the chain bound
    (`chain_bound`): each remaining PoI is charged its earliest possible
    arrival plus the least inspection time any robot still needs there.
    Its commitment-aware form makes committed robots finish their target
    first; its position-only form lets every robot travel straight.  The
    reveals made plus the PoIs left always equal n, so the form is fixed
    for the whole search: commitment-aware exactly when the searched
    subset has at least depth_cap + n_robots PoIs.  Then every node
    above the cap has more PoIs than robots, so targets stay singly
    claimed, which the commitment-aware form needs.  Each segment's bound
    is computed once, in `make_seg`; the position-only layers under it
    reuse it, and commitment-aware layers price each choice in `price`.
    The state lives in plain python lists because segments are tiny and
    interpreter arithmetic beats array dispatch here: a layout is the
    tuple `_layout` returns, and a segment is (layout, travel rows,
    inspection term, child layouts by revealed row, bound).
    """

    def __init__(
        self, state: PlanningState, ids: Sequence[int], config: PlannerConfig, node_log: Optional[List[NodeRecord]]
    ):
        self.do_prune = config.prune
        self.cap = config.depth_cap
        self.n_rob = state.n_robots
        self.aware = config.prune and len(ids) >= config.depth_cap + state.n_robots
        self.node_log = node_log
        self.root = _scalars(state, ids)
        insp = self.root[3]
        self.spd, self.tgt0, self.rem0 = self.root[7:]
        # Robots holding the same progress are interchangeable at the root.
        self.key0 = [(t, q) if t >= 0 and q < insp[t] else None for t, q in zip(self.tgt0, self.rem0)]
        self.best_cost = math.inf
        self.best_tuple: Optional[Tuple[int, ...]] = None
        self.nodes_expanded = 0
        self.children_pruned = 0

    def run(self) -> Tuple[float, Tuple[int, ...]]:
        pids, xs, ys, insp, lik, rx, ry, spd, tgt, rem = self.root
        # Pair distances are travel times at unit speed.
        dpp = _travel_rows(xs, ys, [1.0] * len(pids), xs, ys)
        # Every robot is free at the root, so its arrivals are its travel rows.
        trow = _travel_rows(rx, ry, spd, xs, ys)
        seg = self.make_seg(_layout(pids, xs, ys, insp, lik, dpp), _least_need(insp, tgt, rem), trow, trow, 0.0)
        if self.node_log is not None:
            self.log_node(seg, rx, ry, tgt, rem, 0.0)
        # No incumbent seeding: children are visited in bound order, so the
        # first descent already lands on a realized route and every later
        # node prunes against an achievable cost.
        self.assign(seg, [-1] * self.n_rob, [0.0] * self.n_rob, rx, ry, list(trow), 0.0, 0, ())
        assert self.best_tuple is not None
        return self.best_cost, self.best_tuple

    def reveal(self, lay: tuple, g: int) -> tuple:
        """The layout without row g."""
        dpp = lay[5][:g] + lay[5][g + 1:]
        for i, row in enumerate(dpp):
            dpp[i] = row[:g] + row[g + 1:]
        return _layout(*[col[:g] + col[g + 1:] for col in lay[:5]], dpp)

    def make_seg(self, lay: tuple, need: List[float], trow: List[List[float]], arr: List[List[float]], acc: float):
        """A node's segment: its layout and travel rows, the inspection
        term, the child layouts its reveals share, and its chain bound on
        the arrivals arr (the travel rows themselves in the position-only
        form)."""
        sum_ir = 0.0
        for p, q in zip(lay[4], need):
            sum_ir += p * q
        b = self.chain_bound(acc, arr, lay[4], sum_ir) if self.do_prune else None
        return (lay, trow, sum_ir, {}, b)

    def log_node(self, seg: tuple, rx: List[float], ry: List[float], targ: List[int], rem: List[float], acc: float):
        """Append the node's NodeRecord, with its position-only bound."""
        lay, trow, sum_ir = seg[:3]
        pids = lay[0]
        self.node_log.append(
            NodeRecord(
                poi_ids=tuple(pids),
                robot_xy=tuple(zip(rx, ry)),
                robot_speeds=tuple(self.spd),
                robot_targets=tuple(None if t < 0 else pids[t] for t in targ),
                robot_remaining=tuple(0.0 if t < 0 else q for t, q in zip(targ, rem)),
                accrued=acc,
                bound=self.chain_bound(acc, trow, lay[4], sum_ir),
            )
        )

    def chain_bound(self, acc: float, rows: Sequence[List[float]], lik: List[float], sum_ir: float) -> float:
        """acc plus the inspection needs (sum_ir) plus each PoI's
        likelihood times its earliest arrival over the robot rows."""
        s = 0.0
        for p, m in zip(lik, _column_min(rows, len(lik))):
            s += p * m
        # Grouped as in `price`, whose bounds must equal this one bit for bit.
        return acc + (sum_ir + s)

    def beaten(self, b: float) -> bool:
        # Rounding can push the bound a few ulps past the true subtree
        # minimum, so strict pruning keeps a margin.
        best = self.best_cost
        return b > best + 1e-9 * (abs(best) + 1.0)

    def only_ties(self, b: float, acc: float, cand: Tuple[int, ...]) -> bool:
        """Whether a subtree with bound b, whose root targets start with
        cand, can only tie the incumbent without preceding it.

        That holds when its completion bound is exactly zero (b == acc)
        and meets the incumbent's cost, and cand cannot start a root
        tuple below best_tuple: it is above best_tuple's head, or equal
        to a full-length one.
        """
        if b != self.best_cost or b != acc:
            return False
        head = self.best_tuple[:len(cand)]
        return cand > head or (cand == head and len(cand) == self.n_rob)

    def price(self, seg: tuple, arr: List[List[float]], j: int, choices: List[int], tj: int, rj: float,
              acc: float) -> List[float]:
        """Each choice's commitment-aware chain bound when free robot j
        commits to it, on the arrivals `_commit_row` would give, without
        building the row: only entered children need it.  tj is the
        target on which j holds rj seconds of progress (-1 if none)."""
        lay, trow, sum_ir = seg[:3]
        insp, lik, dpp = lay[3:6]
        na = len(lik)
        rowj, vj = trow[j], self.spd[j]
        om = _column_min([arr[r] for r in range(self.n_rob) if r != j], na)
        bnds = []
        for c in choices:
            tc = rowj[c]
            fin = tc + (rj if c == tj else insp[c])
            dc = dpp[c]
            s = 0.0
            for l in range(c):
                f = fin + dc[l] / vj
                o = om[l]
                s += lik[l] * (o if o < f else f)
            o = om[c]
            s += lik[c] * (o if o < tc else tc)
            for l in range(c + 1, na):
                f = fin + dc[l] / vj
                o = om[l]
                s += lik[l] * (o if o < f else f)
            bnds.append(acc + (sum_ir + s))
        return bnds

    def assign(self, seg, targ, rem, prx, pry, arr, accrued, reveals, prefix):
        """A commitment layer: the lowest-index free robot takes each of its
        choices in bound order, or the segment advances once none is free."""
        if -1 not in targ:
            self.advance(seg, targ, rem, prx, pry, accrued, reveals, prefix)
            return
        j = targ.index(-1)
        self.nodes_expanded += 1
        lay, trow, _, _, seg_bound = seg
        pids, insp, dpp = lay[0], lay[3], lay[5]
        spd = self.spd
        aware, do_prune = self.aware, self.do_prune

        # Only at the root can a free robot hold progress; a robot freed
        # by a reveal starts its next inspection from zero.
        rooting = reveals == 0
        tj = self.tgt0[j] if rooting else -1
        rj = self.rem0[j]
        key0 = self.key0
        kj = key0[j]

        # Identical robots (same spot, same speed, same progress) take
        # targets in ascending order: each symmetric class is searched
        # once, through its lexicographically smallest representative.
        # Claims by every other robot count, including ones persisting
        # from earlier reveals, so freed robots never duplicate while
        # unclaimed PoIs remain.
        lo = -1
        committed = set()
        xj, yj, vj = prx[j], pry[j], spd[j]
        for r, t in enumerate(targ):
            if t < 0:
                continue
            committed.add(t)
            if (
                t > lo
                and spd[r] == vj
                and prx[r] == xj
                and pry[r] == yj
                and (key0[r] == kj if rooting else rem[r] == insp[t])
            ):
                lo = t
        na = len(pids)
        unclaimed = [i for i in range(na) if i not in committed]
        # Ascending canonicalization only holds where targets are
        # pairwise distinct; duplicate layers enumerate freely.
        choices = [i for i in unclaimed if i > lo] if unclaimed else list(range(na))
        if not choices:
            return  # symmetric classes here are covered by other branches

        if aware:
            bnds = self.price(seg, arr, j, choices, tj, rj, accrued)
            seq = sorted(range(len(choices)), key=bnds.__getitem__)
        else:
            # Position-only: every choice shares the segment's bound.
            seq = range(len(choices))
        rowj = trow[j]
        for oi, k in enumerate(seq):
            c = choices[k]
            nxt = prefix + (pids[c],) if rooting else prefix
            if do_prune:
                b = bnds[k] if aware else seg_bound
                if self.beaten(b):
                    self.children_pruned += len(choices) - oi
                    break
                if self.only_ties(b, accrued, nxt):
                    self.children_pruned += 1
                    continue
            need = rj if c == tj else insp[c]
            targ[j] = c
            rem[j] = need
            if aware:
                arr[j] = _commit_row(rowj, c, need, dpp[c], vj)
            self.assign(seg, targ, rem, prx, pry, arr, accrued, reveals, nxt)
            arr[j] = rowj  # free robots carry their direct travel row
            targ[j] = -1

    def advance(self, seg, targ, rem, prx, pry, accrued, reveals, prefix):
        """A reveal event: fly the segment, then score a leaf or make the
        child segment and prune it or commit its freed robots."""
        self.nodes_expanded += 1
        lay, trow, _, kids = seg[:4]
        pids, xs, ys = lay[:3]
        spd = self.spd

        # Survivors keep their targets, re-indexed past the revealed PoI.
        # The travel rows were built from these very positions.
        tts = [row[t] for row, t in zip(trow, targ)]
        duration, winner, nprx, npry, targ2, rem2 = _step(prx, pry, xs, ys, pids, targ, rem, tts)
        acc2 = accrued + duration * lay[6]
        g = targ[winner]

        if len(pids) == 1 or reveals + 1 >= self.cap:
            value = acc2
            if len(pids) > 1:
                # Tail on robots sorted by state: leaf values must not
                # depend on robot labeling or the ascending-target
                # reduction for identical robots would change the cost.
                # A tail that passes the incumbent cannot change the
                # result, so it stops there.
                robots = sorted(zip(nprx, npry, spd, targ2, rem2))
                value += _tail(
                    *[col[:g] + col[g + 1:] for col in lay[:5]],
                    *map(list, zip(*robots)),
                    acc2,
                    self.best_cost,
                )
            if value < self.best_cost or (value == self.best_cost and prefix < self.best_tuple):
                self.best_cost = value
                self.best_tuple = prefix
            return

        # Siblings that reveal the same PoI share the child layout.
        lay2 = kids.get(g)
        if lay2 is None:
            lay2 = kids[g] = self.reveal(lay, g)
        _, xs2, ys2, insp2, _, dpp2 = lay2[:6]
        trow2 = _travel_rows(nprx, npry, spd, xs2, ys2)
        # Only the commitment-aware form reads the committed arrivals.
        arr2 = [
            row if t < 0 else _commit_row(row, t, q, dpp2[t], v)
            for row, t, q, v in zip(trow2, targ2, rem2, spd)
        ] if self.aware else trow2
        seg2 = self.make_seg(lay2, _least_need(insp2, targ2, rem2), trow2, arr2, acc2)
        if self.node_log is not None:
            self.log_node(seg2, nprx, npry, targ2, rem2, acc2)
        if self.do_prune and (self.beaten(seg2[4]) or self.only_ties(seg2[4], acc2, prefix)):
            self.children_pruned += 1
            return
        self.assign(seg2, targ2, rem2, nprx, npry, arr2, acc2, reveals + 1, prefix)


def select_priority_subset(state: PlanningState, config: PlannerConfig) -> Tuple[int, ...]:
    """Priority PoIs: top n_top_prob likelihoods, then nearest-per-robot fill.

    Returns all ids when the remaining set already fits in n_priority.
    The fill claims in rounds with `_claim_nearest`, the greedy tail's
    nearest claim, on the PoIs not yet chosen: robots in index order
    each claim a distinct nearest one, and claims are taken until
    n_priority ids are chosen.
    A robot part-way through an inspection stands on its target, so
    whenever n_priority - n_top_prob >= n_robots every robot gets a pick
    and the subset keeps every in-progress target (unless another PoI
    shares that exact spot).  A target left out of the subset loses its
    progress for this decision.
    """
    n = state.n_pois
    if n <= config.n_priority:
        return tuple(state.poi_ids)

    # poi_ids ascends and a reversed sort stays stable, so ties keep the
    # lower id.
    by_prob = sorted(range(n), key=state.likelihoods.__getitem__, reverse=True)
    chosen: Set[int] = set(by_prob[: config.n_top_prob])

    while len(chosen) < config.n_priority:
        rest = [j for j in range(n) if j not in chosen]
        claims, _ = _claim_nearest(state.robot_x, state.robot_y, state.robot_speeds,
                                   [state.poi_x[j] for j in rest], [state.poi_y[j] for j in rest])
        chosen.update(rest[g] for g in claims[: config.n_priority - len(chosen)])
    return tuple(sorted(state.poi_ids[j] for j in chosen))


def plan(state: PlanningState, config: PlannerConfig) -> JointAction:
    """Receding-horizon step: best joint action on the priority subset."""
    return plan_detailed(state, config).action


def plan_detailed(
    state: PlanningState,
    config: PlannerConfig,
    node_log: Optional[List[NodeRecord]] = None,
) -> PlanResult:
    """The planner's search: best first joint action and what it cost.

    The search reads only the state's `select_priority_subset` rows, and
    a commitment to a PoI outside them is dropped; subset_ids holds the
    PoI ids searched, which are all of state.poi_ids whenever the state
    has at most n_priority PoIs.  cost is the minimum expected
    cost over assignment/reveal sequences on that subset, with a greedy
    tail after depth_cap reveals, and action is the first joint action
    of the cheapest sequence (ties go to the lexicographically smallest
    target tuple).  nodes_expanded counts the commitment and reveal
    nodes the search entered, and children_pruned the children it cut
    on their bound or the tie rule: choices at a commitment layer and
    child segments at a reveal.  When node_log is given, the search
    appends a NodeRecord for the root and for every state a reveal
    reaches before the depth cap, the root first.

    The search prunes with the commitment-aware chain bound exactly
    when the searched subset has at least depth_cap + n_robots PoIs, and
    with the position-only form otherwise.  Only the position-only form
    is exact: the commitment-aware form assumes committed robots finish
    their targets, while the greedy tail re-claims the nearest PoI every
    segment, so a leaf can cost less than its bound and pruning can
    change the result.
    """
    if state.n_pois == 0:
        raise ValueError("empty remaining set")
    subset = select_priority_subset(state, config)
    search = _Search(state, subset, config, node_log)
    cost, targets = search.run()
    return PlanResult(
        action=JointAction(targets),
        cost=float(cost),
        nodes_expanded=search.nodes_expanded,
        children_pruned=search.children_pruned,
        subset_ids=subset,
    )
