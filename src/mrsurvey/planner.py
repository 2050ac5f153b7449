"""Joint-action planning for multi-robot time-critical inspection.

A joint action sends every robot toward one remaining PoI and lasts
until the earliest arrival-plus-inspection completes; that PoI is
revealed, the finishing robot is re-assigned from wherever it stands,
and the process repeats on the shrunken state.  A robot that reaches its
target inspects it for the rest of the segment and keeps that progress
for as long as it keeps the target; switching to another PoI, or losing
the target to another robot's reveal, starts the next inspection from
zero.  Cost accrues at cost_rate * (sum of remaining likelihoods) per
second, so the optimal plan reveals probably-damaged PoIs as early as
possible.  One scalar segment step, `_step`, holds this rule: the
simulator's `action_outcome`, the search and its greedy tail all fly it.

The search is depth-first branch and bound over assignment/reveal
sequences: robots commit to targets one at a time in robot-index order,
each reveal frees the finishing robot to re-commit from its interpolated
position, and partial commitments are pruned with an admissible
completion bound that respects in-flight targets and inspection
progress.  Depth counts reveals; at depth_cap a greedy nearest-PoI
rollout completes the value, with the same nearest claim
(`_claim_nearest`) as the optimistic baseline.  That tail stops as soon
as its cost passes the incumbent, which cannot change the result.  The
tail re-claims the nearest PoI every segment while the bound assumes
committed robots finish their targets, so pruning is exact only when no
tail runs.  With more PoIs than n_priority, planning restricts itself
to a priority subset (top likelihoods plus nearest-per-robot fill).

Each travel time is computed once: the nearest claim and the search's
travel rows hand theirs to `_step`.  Nodes that share a remaining PoI
set share its pair distances and the nearest-neighbour distances of the
serialization bound, which a reveal updates instead of recomputing.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np


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
    """Remaining PoIs plus robot poses; arrays are row-aligned with poi_ids.

    poi_ids is sorted ascending; treat all arrays as immutable.
    robot_targets holds each robot's committed PoI id (None when free),
    and robot_remaining the inspection time it still needs there (0.0
    when free).  A robot keeps that progress only if the next action
    sends it to the same PoI.
    """

    poi_ids: Tuple[int, ...]
    poi_xy: np.ndarray
    inspect_times: np.ndarray
    likelihoods: np.ndarray
    robot_xy: np.ndarray
    robot_speeds: np.ndarray
    robot_targets: Tuple[Optional[int], ...]
    robot_remaining: Tuple[float, ...]
    elapsed: float = 0.0

    @property
    def n_pois(self) -> int:
        return len(self.poi_ids)

    @property
    def n_robots(self) -> int:
        return len(self.robot_xy)

    def index_of(self, poi_id: int) -> int:
        i = bisect.bisect_left(self.poi_ids, poi_id)
        if i >= len(self.poi_ids) or self.poi_ids[i] != poi_id:
            raise KeyError(f"PoI id {poi_id} not in state")
        return i

    def subset(self, poi_ids: Sequence[int]) -> "PlanningState":
        """The state restricted to poi_ids; commitments outside it are dropped."""
        keep = sorted(poi_ids)
        idx = [self.index_of(pid) for pid in keep]
        kept = set(keep)
        held = [t in kept for t in self.robot_targets]
        return PlanningState(
            poi_ids=tuple(keep),
            poi_xy=self.poi_xy[idx],
            inspect_times=self.inspect_times[idx],
            likelihoods=self.likelihoods[idx],
            robot_xy=self.robot_xy,
            robot_speeds=self.robot_speeds,
            robot_targets=tuple(t if h else None for t, h in zip(self.robot_targets, held)),
            robot_remaining=tuple(q if h else 0.0 for q, h in zip(self.robot_remaining, held)),
            elapsed=self.elapsed,
        )


def make_state(
    pois: Sequence[Tuple[int, float, float, float, float]],
    robots: Sequence[RobotState],
    elapsed: float = 0.0,
) -> PlanningState:
    """Build a PlanningState from (id, x, y, inspect_time, likelihood) rows."""
    rows = sorted(pois, key=lambda r: r[0])
    ids = tuple(int(r[0]) for r in rows)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate PoI ids")
    xy = np.array([[r[1], r[2]] for r in rows], dtype=float).reshape(len(rows), 2)
    insp = np.array([r[3] for r in rows], dtype=float)
    lik = np.array([r[4] for r in rows], dtype=float)
    if not np.all(np.isfinite(xy)):
        raise ValueError("non-finite PoI position")
    if np.any(insp < 0.0) or not np.all(np.isfinite(insp)):
        raise ValueError("inspect times must be finite and >= 0")
    if np.any(lik < 0.0) or np.any(lik > 1.0):
        raise ValueError("likelihoods must lie in [0, 1]")
    if not robots:
        raise ValueError("at least one robot required")
    rob = np.array([[r.x, r.y] for r in robots], dtype=float)
    spd = np.array([r.speed for r in robots], dtype=float)
    if not np.all(np.isfinite(rob)):
        raise ValueError("non-finite robot position")
    if np.any(spd <= 0.0) or not np.all(np.isfinite(spd)):
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
        full = float(insp[row_of[r.target]])
        left = full if r.remaining is None else float(r.remaining)
        if not 0.0 <= left <= full:
            raise ValueError(f"robot {r.index} remaining inspection must lie in [0, {full}]")
        targets.append(int(r.target))
        remaining.append(left)
    return PlanningState(ids, xy, insp, lik, rob, spd, tuple(targets), tuple(remaining), float(elapsed))


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
    cost_rate: float = 1.0
    prune: bool = True

    def validate(self) -> None:
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")
        if self.n_top_prob > self.n_priority:
            raise ValueError("n_top_prob cannot exceed n_priority")
        if self.n_priority < 1:
            raise ValueError("n_priority must be >= 1")
        if not math.isfinite(self.cost_rate) or self.cost_rate <= 0.0:
            raise ValueError("cost_rate must be finite and > 0")


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
    each committed robot still needs at its target.
    """

    poi_ids: Tuple[int, ...]
    robot_xy: Tuple[Tuple[float, float], ...]
    robot_speeds: Tuple[float, ...]
    robot_targets: Tuple[Optional[int], ...]
    robot_remaining: Tuple[float, ...]
    accrued: float
    bound: float


def travel_time(a: Tuple[float, float], b: Tuple[float, float], speed: float) -> float:
    """Straight-line travel time from a to b at the given speed."""
    if not (math.isfinite(a[0]) and math.isfinite(a[1]) and math.isfinite(b[0]) and math.isfinite(b[1])):
        raise ValueError("non-finite position")
    if not math.isfinite(speed) or speed <= 0.0:
        raise ValueError(f"speed must be finite and > 0, got {speed}")
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy) / speed


# --- single-action dynamics --------------------------------------------------


def _step(
    rx: List[float],
    ry: List[float],
    xs: List[float],
    ys: List[float],
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

    # Scalar arithmetic on Python floats gives the same bits as on numpy
    # scalars, at a fraction of the per-operation cost.
    insp = state.inspect_times.tolist()
    needs = [
        q if pid == held else insp[j]
        for pid, held, q, j in zip(action.targets, state.robot_targets, state.robot_remaining, t_idx)
    ]
    ids = state.poi_ids
    rx, ry = state.robot_xy.T.tolist()
    xs, ys = state.poi_xy.T.tolist()
    tts = []
    for x, y, v, g in zip(rx, ry, state.robot_speeds.tolist(), t_idx):
        dx = x - xs[g]
        dy = y - ys[g]
        tts.append(math.sqrt(dx * dx + dy * dy) / v)
    duration, winner, rx, ry, targ, rem = _step(rx, ry, xs, ys, ids, t_idx, needs, tts)
    first_idx = t_idx[winner]
    ids2 = ids[:first_idx] + ids[first_idx + 1:]

    def drop(rows):
        return np.concatenate((rows[:first_idx], rows[first_idx + 1:]))

    successor = PlanningState(
        poi_ids=ids2,
        poi_xy=drop(state.poi_xy),
        inspect_times=drop(state.inspect_times),
        likelihoods=drop(state.likelihoods),
        robot_xy=np.array(list(zip(rx, ry)), dtype=float),
        robot_speeds=state.robot_speeds,
        robot_targets=tuple(None if t < 0 else ids2[t] for t in targ),
        robot_remaining=tuple(rem),
        elapsed=state.elapsed + duration,
    )
    return ActionOutcome(
        duration=float(duration),
        first_poi=int(ids[first_idx]),
        finishing_robot=int(winner),
        successor=successor,
    )


# --- bounds and greedy tail ---------------------------------------------------


def _travel_matrix(rob: np.ndarray, spd: np.ndarray, xy: np.ndarray) -> np.ndarray:
    diff = rob[:, None, :] - xy[None, :, :]
    return np.sqrt((diff * diff).sum(-1)) / spd[:, None]


def _scalars(state: PlanningState) -> tuple:
    """The state as fresh python lists, in `_tail`'s argument order: PoI
    ids, x, y, inspect times and likelihoods, then robot x, y and speeds,
    then each robot's committed PoI as a row index (-1 when free) and the
    inspection time it still needs there."""
    return (
        list(state.poi_ids),
        state.poi_xy[:, 0].tolist(),
        state.poi_xy[:, 1].tolist(),
        state.inspect_times.tolist(),
        state.likelihoods.tolist(),
        state.robot_xy[:, 0].tolist(),
        state.robot_xy[:, 1].tolist(),
        state.robot_speeds.tolist(),
        [-1 if t is None else state.index_of(t) for t in state.robot_targets],
        list(state.robot_remaining),
    )


def _least_need(insp: List[float], targ: List[int], rem: List[float]) -> List[float]:
    """Per PoI, the least inspection time any robot still needs there."""
    need = insp[:]
    for t, q in zip(targ, rem):
        if t >= 0 and q < need[t]:
            need[t] = q
    return need


def _claim_nearest(
    rx: List[float], ry: List[float], spd: List[float], xs: List[float], ys: List[float]
) -> Tuple[List[int], List[float]]:
    """Each robot's nearest-PoI claim, as a row index, and its travel time
    there, on scalar state.

    Robots claim distinct PoIs in the given order, each the unclaimed
    one it reaches soonest (the lowest row on ties); once every PoI is
    claimed, the remaining robots take their nearest.
    """
    free = list(range(len(xs)))
    out = []
    times = []
    for x, y, v in zip(rx, ry, spd):
        best_g = -1
        best_t = math.inf
        for g in free or range(len(xs)):
            dx = x - xs[g]
            dy = y - ys[g]
            t = math.sqrt(dx * dx + dy * dy) / v
            if t < best_t:
                best_t = t
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
    k_rate: float,
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
        total += k_rate * duration * psum
        g = claim[winner]
        del pids[g], xs[g], ys[g], insp[g], lik[g]
    return math.inf


# --- depth-first branch and bound ---------------------------------------------


class _SearchStats:
    __slots__ = ("nodes_expanded", "children_pruned")

    def __init__(self) -> None:
        self.nodes_expanded = 0
        self.children_pruned = 0


def _travel_rows(
    rx: List[float], ry: List[float], spd: List[float], xs: List[float], ys: List[float]
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


def _search(
    state: PlanningState,
    config: PlannerConfig,
    stats: _SearchStats,
    node_log: Optional[List[NodeRecord]],
) -> Tuple[float, Tuple[int, ...]]:
    """Branch-and-bound minimum over assignment/reveal sequences.

    Nodes alternate between commitment layers (the lowest-index free
    robot picks an unclaimed PoI, or any remaining one once all are
    claimed) and reveal events (earliest completion wins, ties by PoI id
    then robot index).  Ties on cost resolve to the lexicographically
    smallest root target tuple, which is the joint-action enumeration
    order.  Every robot commits afresh at the root, keeping the state's
    inspection progress only where it picks its committed PoI again;
    below the root, commitments persist with their progress until their
    PoI is revealed.

    Pruning takes the larger of two admissible completion bounds, both
    charging each PoI the least inspection time any robot still needs
    there.  The chain bound charges each remaining PoI its earliest
    possible arrival: committed robots must finish their target first,
    free robots travel straight.  Commitment-aware arrivals are only
    valid while targets stay singly claimed, so that bound falls back to
    the position-only form whenever duplicate claims could occur below
    the node.  The serialization bound orders reveals instead: the
    team's j-th reveal cannot precede the j-th smallest completion slot,
    where each robot offers slots starting at its earliest finish and
    stepping by its cheapest hop (pair distance plus inspection); pairing
    the largest likelihoods with the smallest slots bounds the weighted
    sum from below.  The state lives in plain python lists because
    segments are tiny and interpreter arithmetic beats array dispatch
    here.
    """
    n, n_rob = state.n_pois, state.n_robots
    k_rate = config.cost_rate
    do_prune = config.prune
    cap = config.depth_cap
    rng_rob = range(n_rob)

    pids0, xs0, ys0, insp0, lik0, rx0, ry0, spd0, tgt0, rem0 = _scalars(state)
    # Robots holding the same progress are interchangeable at the root.
    key0 = [
        (t, q) if t >= 0 and q < insp0[t] else None for t, q in zip(tgt0, rem0)
    ]

    dpp0 = [[0.0] * n for _ in range(n)]
    for p in range(n):
        xp = xs0[p]
        yp = ys0[p]
        rowp = dpp0[p]
        for q in range(p + 1, n):
            dx = xp - xs0[q]
            dy = yp - ys0[q]
            d = math.sqrt(dx * dx + dy * dy)
            rowp[q] = d
            dpp0[q][p] = d

    speeds = list(dict.fromkeys(spd0))

    def nearest(dpp_s, q):
        # PoI q's least distance to another remaining PoI (inf if none).
        row = dpp_s[q]
        return min(row[:q] + row[q + 1:], default=math.inf)

    def layout(pids_s, xs_s, ys_s, insp_s, lik_s, dpp_s, nn_s):
        # What every node with this remaining set shares: the PoI lists,
        # the pair distances, each PoI's nearest-neighbour distance and
        # the likelihoods sorted high to low (both for the floor), and
        # the likelihood sum.
        psum = 0.0
        for p in lik_s:
            psum += p
        pdesc = sorted(lik_s, reverse=True) if do_prune else None
        return (pids_s, xs_s, ys_s, insp_s, lik_s, dpp_s, nn_s, pdesc, psum)

    def reveal(lay, g):
        # The layout without row g.  A nearest-neighbour distance changes
        # only where g could have been the nearest neighbour.
        pids_s, xs_s, ys_s, insp_s, lik_s, dpp_s, nn_s = lay[:7]
        dpp2 = dpp_s[:g] + dpp_s[g + 1:]
        for i, row in enumerate(dpp2):
            row = row[:]
            del row[g]
            dpp2[i] = row
        nn2 = None
        if nn_s is not None:
            nn2 = []
            for q, (d, m) in enumerate(zip(dpp_s[g], nn_s)):
                if q != g:
                    nn2.append(nearest(dpp2, len(nn2)) if d == m else m)
        return layout(
            pids_s[:g] + pids_s[g + 1:],
            xs_s[:g] + xs_s[g + 1:],
            ys_s[:g] + ys_s[g + 1:],
            insp_s[:g] + insp_s[g + 1:],
            lik_s[:g] + lik_s[g + 1:],
            dpp2,
            nn2,
        )

    def floor_term(need_s, nn_s, pdesc, trow_s):
        # Serialization floor on the completion term: slots per robot
        # start at its earliest finish and step by its cheapest hop,
        # which depends on the robot only through its speed.  Each
        # robot's slots ascend, so merging them yields the smallest ones
        # in order without listing and sorting them all.
        hops = {}
        for v in speeds:
            h = math.inf
            for d, q in zip(nn_s, need_s):
                c = d / v + q
                if c < h:
                    h = c
            hops[v] = h
        slot = []
        step = []
        for r in rng_rob:
            m = math.inf
            for f, q in zip(trow_s[r], need_s):
                f += q
                if f < m:
                    m = f
            slot.append(m)
            step.append(hops[spd0[r]])
        t = 0.0
        for p in pdesc:
            k = 0
            s = slot[0]
            for r in rng_rob:
                if slot[r] < s:
                    s = slot[r]
                    k = r
            t += p * s
            slot[k] = s + step[k]
        return t

    def make_seg(lay, need_s, trow_s):
        # A node's segment: its layout and travel rows, the inspection
        # term, the floor, and the child layouts its reveals share.
        _, _, _, _, lik_s, _, nn_s, pdesc, _ = lay
        sum_ir = 0.0
        for p, q in zip(lik_s, need_s):
            sum_ir += p * q
        floor = floor_term(need_s, nn_s, pdesc, trow_s) if do_prune else 0.0
        return (lay, trow_s, sum_ir, floor, {})

    def log_node(pids_s, lik_s, need_s, trow_s, rx, ry, targ, rem, acc):
        s = 0.0
        for p, m, q in zip(lik_s, _column_min(trow_s, len(pids_s)), need_s):
            s += p * (m + q)
        node_log.append(
            NodeRecord(
                poi_ids=tuple(pids_s),
                robot_xy=tuple(zip(rx, ry)),
                robot_speeds=tuple(spd0),
                robot_targets=tuple(None if t < 0 else pids_s[t] for t in targ),
                robot_remaining=tuple(0.0 if t < 0 else q for t, q in zip(targ, rem)),
                accrued=acc,
                bound=acc + k_rate * s,
            )
        )

    def settle(acc, s, sum_ir, floor):
        # Arrival term s plus the least inspection needs, and the whole
        # completion term no less than the serialization floor.
        t = sum_ir + s
        return acc + k_rate * (floor if t < floor else t)

    def chain_bound(acc, rows, lik_s, sum_ir, floor):
        # Each PoI charged its earliest arrival over the robot rows.
        s = 0.0
        for p, m in zip(lik_s, _column_min(rows, len(lik_s))):
            s += p * m
        return settle(acc, s, sum_ir, floor)

    def beaten(b):
        # Rounding can push the bound a few ulps past the true subtree
        # minimum, so strict pruning keeps a margin.
        return b > best_cost + 1e-9 * (abs(best_cost) + 1.0)

    best_cost = math.inf
    best_tuple: Optional[Tuple[int, ...]] = None

    def leaf_update(value: float, root_tuple: Tuple[int, ...]) -> None:
        nonlocal best_cost, best_tuple
        if value < best_cost:
            best_cost = value
            best_tuple = root_tuple
        elif value == best_cost and best_tuple is not None and root_tuple < best_tuple:
            best_tuple = root_tuple

    def assign(seg, targ, rem, prx, pry, arr, accrued, reveals, prefix):
        lay, trow_s, sum_ir, floor, _ = seg
        pids_s, _, _, insp_s, lik_s, dpp_s, _, _, _ = lay
        na = len(pids_s)
        j = -1
        for r in rng_rob:
            if targ[r] < 0:
                j = r
                break
        if j < 0:
            advance(seg, targ, rem, prx, pry, accrued, reveals, prefix)
            return
        stats.nodes_expanded += 1

        # Only at the root can a free robot hold progress; a robot freed
        # by a reveal starts its next inspection from zero.
        rooting = reveals == 0
        tj = tgt0[j] if rooting else -1
        rj = rem0[j]
        kj = key0[j]

        # Identical robots (same spot, same speed, same progress) take
        # targets in ascending order: each symmetric class is searched
        # once, through its lexicographically smallest representative.
        # Claims by every other robot count, including ones persisting
        # from earlier reveals, so freed robots never duplicate while
        # unclaimed PoIs remain.
        lo = -1
        committed = set()
        xj = prx[j]
        yj = pry[j]
        vj = spd0[j]
        for r in rng_rob:
            t = targ[r]
            if r == j or t < 0:
                continue
            committed.add(t)
            if (
                t > lo
                and spd0[r] == vj
                and prx[r] == xj
                and pry[r] == yj
                and (key0[r] == kj if rooting else rem[r] == insp_s[t])
            ):
                lo = t
        unclaimed = [i for i in range(na) if i not in committed]
        if unclaimed:
            # Ascending canonicalization only holds where targets are
            # pairwise distinct; duplicate layers enumerate freely.
            choices = [i for i in unclaimed if i > lo]
            duplicating = False
        else:
            choices = list(range(na))
            duplicating = True
        if not choices:
            return  # symmetric classes here are covered by other branches

        rowj = trow_s[j]
        if do_prune:
            reveals_left = cap - reveals
            if reveals_left > na:
                reveals_left = na
            if na - reveals_left >= n_rob and not duplicating:
                # Commitment-aware arrivals are only admissible while
                # targets stay singly claimed below this node.  Each
                # choice is priced on the arrivals `_commit_row` would
                # give, without building the row: only entered children
                # need it.
                om = _column_min([arr[r] for r in rng_rob if r != j], na)
                bnds = []
                for c in choices:
                    tc = rowj[c]
                    fin = tc + (rj if c == tj else insp_s[c])
                    dc = dpp_s[c]
                    s = 0.0
                    for l in range(c):
                        f = fin + dc[l] / vj
                        o = om[l]
                        s += lik_s[l] * (o if o < f else f)
                    o = om[c]
                    s += lik_s[c] * (o if o < tc else tc)
                    for l in range(c + 1, na):
                        f = fin + dc[l] / vj
                        o = om[l]
                        s += lik_s[l] * (o if o < f else f)
                    bnds.append(settle(accrued, s, sum_ir, floor))
            else:
                bnds = [chain_bound(accrued, trow_s, lik_s, sum_ir, floor)] * len(choices)
            seq = sorted(range(len(choices)), key=bnds.__getitem__)
        else:
            bnds = None
            seq = range(len(choices))

        for oi, pos_k in enumerate(seq):
            c = choices[pos_k]
            if do_prune:
                b = bnds[pos_k]
                if beaten(b):
                    stats.children_pruned += len(choices) - oi
                    break
                if b == best_cost and b == accrued:
                    # Exactly-zero completion bound: the subtree can
                    # only tie, which matters solely for enumeration
                    # order; skip unless this branch can still
                    # lexicographically precede the incumbent.
                    if best_tuple is not None:
                        if rooting:
                            cand = prefix + (pids_s[c],)
                            head = best_tuple[: len(cand)]
                            if cand > head or (cand == head and len(cand) == n_rob):
                                stats.children_pruned += 1
                                continue
                        elif prefix >= best_tuple:
                            stats.children_pruned += 1
                            continue
            need = rj if c == tj else insp_s[c]
            targ[j] = c
            rem[j] = need
            arr[j] = _commit_row(rowj, c, need, dpp_s[c], vj)
            assign(seg, targ, rem, prx, pry, arr, accrued, reveals,
                   prefix + (pids_s[c],) if rooting else prefix)
            arr[j] = rowj  # free robots carry their direct travel row
            targ[j] = -1

    def advance(seg, targ, rem, prx, pry, accrued, reveals, prefix):
        lay, trow_s, _, _, kids = seg
        pids_s, xs_s, ys_s, insp_s, lik_s, _, _, _, psum = lay
        stats.nodes_expanded += 1

        # Survivors keep their targets, re-indexed past the revealed PoI.
        # The travel rows were built from these very positions.
        tts = [trow_s[r][targ[r]] for r in rng_rob]
        duration, winner, nprx, npry, targ2, rem2 = _step(prx, pry, xs_s, ys_s, pids_s, targ, rem, tts)
        acc2 = accrued + k_rate * duration * psum
        g = targ[winner]
        reveals2 = reveals + 1
        a2 = len(pids_s) - 1

        if a2 == 0 or reveals2 >= cap:
            value = acc2
            if a2:
                # Tail on robots sorted by state: leaf values must not
                # depend on robot labeling or the ascending-target
                # reduction for identical robots would change the cost.
                # A tail that passes the incumbent cannot change the
                # result, so it stops there.
                robots = sorted(zip(nprx, npry, spd0, targ2, rem2))
                value += _tail(
                    pids_s[:g] + pids_s[g + 1:],
                    xs_s[:g] + xs_s[g + 1:],
                    ys_s[:g] + ys_s[g + 1:],
                    insp_s[:g] + insp_s[g + 1:],
                    lik_s[:g] + lik_s[g + 1:],
                    *map(list, zip(*robots)),
                    k_rate,
                    acc2,
                    best_cost,
                )
            leaf_update(value, prefix)
            return

        # Siblings that reveal the same PoI share the child layout.
        lay2 = kids.get(g)
        if lay2 is None:
            lay2 = kids[g] = reveal(lay, g)
        pids2, xs2, ys2, insp2, lik2, dpp2 = lay2[:6]
        trow2 = _travel_rows(nprx, npry, spd0, xs2, ys2)
        need2 = _least_need(insp2, targ2, rem2)
        seg2 = make_seg(lay2, need2, trow2)
        arr2 = [
            trow2[r] if t < 0 else _commit_row(trow2[r], t, rem2[r], dpp2[t], spd0[r])
            for r, t in enumerate(targ2)
        ]

        if node_log is not None:
            log_node(pids2, lik2, need2, trow2, nprx, npry, targ2, rem2, acc2)

        if do_prune:
            # Commitment-aware arrivals are only admissible while targets
            # stay singly claimed below this node; otherwise bound on
            # positions alone.
            rl2 = cap - reveals2
            if rl2 > a2:
                rl2 = a2
            nb = chain_bound(acc2, arr2 if a2 - rl2 >= n_rob else trow2, lik2, seg2[2], seg2[3])
            if beaten(nb):
                return
            if nb == best_cost and nb == acc2 and best_tuple is not None and prefix >= best_tuple:
                return

        assign(seg2, targ2, rem2, nprx, npry, arr2, acc2, reveals2, prefix)

    trow0 = _travel_rows(rx0, ry0, spd0, xs0, ys0)
    need0 = _least_need(insp0, tgt0, rem0)
    if node_log is not None:
        log_node(pids0, lik0, need0, trow0, rx0, ry0, tgt0, rem0, 0.0)
    nn0 = [nearest(dpp0, q) for q in range(n)] if do_prune else None
    seg0 = make_seg(layout(pids0, xs0, ys0, insp0, lik0, dpp0, nn0), need0, trow0)

    # No incumbent seeding: children are visited in bound order, so the
    # first descent already lands on a realized route and every later
    # node prunes against an achievable cost.
    assign(seg0, [-1] * n_rob, [0.0] * n_rob, rx0[:], ry0[:], list(trow0), 0.0, 0, ())
    assert best_tuple is not None
    return best_cost, best_tuple


def select_priority_subset(state: PlanningState, config: PlannerConfig) -> Tuple[int, ...]:
    """Priority PoIs: top n_top_prob likelihoods, then nearest-per-robot fill.

    Returns all ids when the remaining set already fits in n_priority.
    Round-robin fill walks robots in index order, each adding its
    nearest unselected PoI, until n_priority distinct ids are chosen.
    A robot part-way through an inspection stands on its target, so
    whenever n_priority - n_top_prob >= n_robots every robot gets a pick
    and the subset keeps every in-progress target (unless another PoI
    shares that exact spot).  A target left out of the subset loses its
    progress for this decision.
    """
    config.validate()
    n = state.n_pois
    if n <= config.n_priority:
        return tuple(state.poi_ids)

    by_prob = sorted(range(n), key=lambda j: (-state.likelihoods[j], state.poi_ids[j]))
    chosen: Set[int] = set(by_prob[: config.n_top_prob])

    tt = _travel_matrix(state.robot_xy, state.robot_speeds, state.poi_xy)
    robot = 0
    while len(chosen) < config.n_priority:
        row = tt[robot]
        j_best = -1
        for j in range(n):
            if j in chosen:
                continue
            if j_best < 0 or row[j] < row[j_best]:
                j_best = j
        chosen.add(j_best)
        robot = (robot + 1) % state.n_robots
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

    The state is first cut to `select_priority_subset`; subset_ids holds
    the PoI ids searched, which are all of state.poi_ids whenever the
    state has at most n_priority PoIs.  cost is the minimum expected
    cost over assignment/reveal sequences on that subset, with a greedy
    tail after depth_cap reveals, and action is the first joint action
    of the cheapest sequence (ties go to the lexicographically smallest
    target tuple).  nodes_expanded counts the commitment and reveal
    nodes the search entered, and children_pruned the children it cut
    on their bound.  When node_log is given, the search appends a
    NodeRecord for the root and for every state a reveal reaches before
    the depth cap, the root first.

    Pruning is exact only when no greedy tail runs, that is when
    depth_cap is at least the number of PoIs searched.  Below the cap,
    the commitment-aware bound assumes committed robots finish their
    targets, while the tail re-claims the nearest PoI every segment, so
    a leaf can cost less than its bound and pruning can change the
    result.
    """
    config.validate()
    if state.n_pois == 0:
        raise ValueError("empty remaining set")
    subset = select_priority_subset(state, config)
    sub = state.subset(subset) if len(subset) < state.n_pois else state
    stats = _SearchStats()
    cost, targets = _search(sub, config, stats, node_log)
    return PlanResult(
        action=JointAction(targets),
        cost=float(cost),
        nodes_expanded=stats.nodes_expanded,
        children_pruned=stats.children_pruned,
        subset_ids=subset,
    )
