"""Independent reference implementations checked against the library,
and the exhaustive joint-action enumeration the tests compare with.

Everything here is deliberately naive pure python: exhaustive
enumeration instead of branch and bound, scalar loops instead of
vectorized numpy.  The arithmetic mirrors the library operation for
operation (sqrt(dx*dx+dy*dy)/v travel, remaining inspection time less
the time spent at the target, floored at zero, likelihood sums in
ascending PoI id order, tail cost accumulated from zero) so optimal
values agree bit for bit and exact-equality tie-breaking is comparable.
"""

import itertools
import math

from mrsurvey.planner import JointAction


def route_space_optimum(pois, robots, k=1.0, cap=None, progress=None):
    """(min cost, lex-min first joint assignment) by exhaustive enumeration.

    pois: list of (pid, x, y, inspect_time, likelihood) rows.
    robots: list of [x, y, speed] rows.
    cap: reveal budget; a greedy nearest-first tail completes the value
    once cap reveals have happened (None means no budget).
    progress: one (pid, remaining inspection time) pair or None per
    robot; a robot keeps that progress if it commits to that PoI first.

    Robots commit to targets one at a time in index order, unclaimed
    PoIs first; each reveal frees the finishing robot (and anyone else
    aimed at the revealed PoI) to re-commit from its interpolated
    position, while other commitments persist.  A robot that reaches its
    target inspects it for the rest of every segment, and keeps what it
    has done for as long as its commitment persists; a fresh commitment
    needs the full inspect time.
    """
    n_rob = len(robots)
    if cap is None:
        cap = len(pois)
    if progress is None:
        progress = [None] * n_rob
    info = {p[0]: p for p in pois}
    best = [math.inf, None]

    def travel(x, y, v, pid):
        p = info[pid]
        dx = x - p[1]
        dy = y - p[2]
        return math.sqrt(dx * dx + dy * dy) / v

    def step(alive, rob, targ, need, acc):
        # one segment: need[i] is the inspection time robot i still
        # needs at targ[i] when the segment starts
        fins = []
        tts = []
        for i, (x, y, v) in enumerate(rob):
            tt = travel(x, y, v, targ[i])
            tts.append(tt)
            fins.append(tt + need[i])
        dur = min(fins)
        winner = min((i for i in range(n_rob) if fins[i] == dur), key=lambda i: (targ[i], i))
        hit = targ[winner]
        sum_p = 0.0
        for p in sorted(alive):
            sum_p += info[p][4]
        acc2 = acc + k * dur * sum_p
        rob2 = []
        targ2 = []
        need2 = []
        for i, (x, y, v) in enumerate(rob):
            p = info[targ[i]]
            tt = tts[i]
            f = 0.0 if tt == 0.0 else min(dur, tt) / tt
            rob2.append([x + f * (p[1] - x), y + f * (p[2] - y), v])
            if targ[i] == hit:
                targ2.append(None)
                need2.append(0.0)
                continue
            left = need[i]
            if dur > tt:
                left = max(0.0, left - (dur - tt))
            targ2.append(targ[i])
            need2.append(left)
        alive2 = {p: None for p in sorted(alive) if p != hit}
        return acc2, rob2, targ2, need2, alive2

    def greedy_tail(alive, rob, targ, need):
        # nearest-first completion with robots sorted by their state, so
        # the tail value is invariant to robot permutations
        alive = dict(alive)
        robs = sorted(
            zip(rob, targ, need),
            key=lambda s: (s[0][0], s[0][1], s[0][2], s[1] is not None, s[1] or 0, s[2]),
        )
        rob = [list(r) for r, _, _ in robs]
        held = [t for _, t, _ in robs]
        left = [q for _, _, q in robs]
        total = 0.0
        while alive:
            taken = set()
            want = []
            for (x, y, v) in rob:
                cands = [p for p in sorted(alive) if p not in taken]
                if not cands:
                    cands = sorted(alive)
                c = min(cands, key=lambda p: (travel(x, y, v, p), p))
                want.append(c)
                taken.add(c)
            need = [left[i] if want[i] == held[i] else info[want[i]][3] for i in range(n_rob)]
            total, rob, held, left, alive = step(alive, rob, want, need, total)
        return total

    def rec(alive, rob, targ, need, acc, reveals, prefix):
        free = [i for i in range(n_rob) if targ[i] is None]
        if free:
            j = free[0]
            claimed = {t for t in targ if t is not None}
            cands = [p for p in sorted(alive) if p not in claimed] or sorted(alive)
            for c in cands:
                t2 = list(targ)
                n2 = list(need)
                t2[j] = c
                held = progress[j] if reveals == 0 else None
                n2[j] = held[1] if held is not None and held[0] == c else info[c][3]
                rec(alive, rob, t2, n2, acc, reveals, prefix + (c,) if reveals == 0 else prefix)
            return
        acc2, rob2, targ2, need2, alive2 = step(alive, rob, targ, need, acc)
        if not alive2 or reveals + 1 >= cap:
            val = acc2 + greedy_tail(alive2, rob2, targ2, need2) if alive2 else acc2
            if val < best[0]:
                best[0], best[1] = val, prefix
            elif val == best[0] and prefix < best[1]:
                best[1] = prefix
            return
        rec(alive2, rob2, targ2, need2, acc2, reveals + 1, prefix)

    rec({p[0]: None for p in sorted(pois)}, [list(r) for r in robots], [None] * n_rob,
        [0.0] * n_rob, 0.0, 0, ())
    return best[0], best[1]


def _assignments(n, n_robots):
    """All joint assignments as tuples of PoI indices, one per robot.

    Distinct targets when n >= n_robots, otherwise every PoI covered at
    least once.  Rows are in lexicographic order (robot index major,
    PoI index minor), which is the canonical enumeration order.
    """
    if n >= n_robots:
        return list(itertools.permutations(range(n), n_robots))
    full = set(range(n))
    return [row for row in itertools.product(range(n), repeat=n_robots) if set(row) == full]


def enumerate_joint_actions(state):
    """Every joint action on a PlanningState, in the canonical order."""
    if state.n_pois == 0:
        raise ValueError("cannot enumerate actions for an empty remaining set")
    ids = state.poi_ids
    return [JointAction(tuple(ids[j] for j in row)) for row in _assignments(state.n_pois, state.n_robots)]


def random_small_instance(rng, robot_choices=(1, 1, 2, 2, 2, 3)):
    """Random instance of 1..6 PoIs for the enumeration cross-checks.

    Mixes exact-zero and exact-one likelihoods, zero inspect times, and
    (30% of multi-robot draws) colocated identical robots so degenerate
    ties are exercised, not just generic positions.
    """
    n = rng.randint(1, 6)
    n_rob = rng.choice(list(robot_choices))
    pois = []
    for pid in rng.sample(range(20), n):
        x, y = rng.uniform(-100, 100), rng.uniform(-100, 100)
        r_t = rng.choice([0.0, 30.0, rng.uniform(0, 50)])
        p = rng.choice([0.0, 1.0, rng.random(), rng.random()])
        pois.append((pid, x, y, r_t, p))
    robots = []
    for _ in range(n_rob):
        robots.append([rng.uniform(-100, 100), rng.uniform(-100, 100), rng.choice([1.0, 1.0, rng.uniform(0.5, 3)])])
    if n_rob > 1 and rng.random() < 0.3:
        robots = [list(robots[0]) for _ in range(n_rob)]
    return pois, robots


def nearest_claims(pois, robots):
    """Optimistic-baseline targets, and how many claims a tie decided.

    pois: list of (pid, x, y, inspect_time, likelihood) rows.
    robots: list of [x, y, speed] rows.
    In robot order, each robot takes the unclaimed PoI it reaches
    soonest, the lowest id among equally near ones; once every PoI is
    claimed, it takes the nearest of all of them.
    """
    ids = sorted(p[0] for p in pois)
    where = {p[0]: (p[1], p[2]) for p in pois}
    claimed = set()
    targets = []
    ties = 0
    for x, y, v in robots:
        cands = [pid for pid in ids if pid not in claimed] or ids
        times = {}
        for pid in cands:
            dx = x - where[pid][0]
            dy = y - where[pid][1]
            times[pid] = math.sqrt(dx * dx + dy * dy) / v
        best = min(times.values())
        nearest = [pid for pid in cands if times[pid] == best]
        ties += len(nearest) > 1
        targets.append(nearest[0])
        claimed.add(nearest[0])
    return tuple(targets), ties


def damage_prob_ref(position, poi_class, pockets_xy, sigma=60.0,
                    susceptibility=None, combine_rule="noisy_or"):
    """Scalar mirror of the Gaussian wind-damage model."""
    if susceptibility is None:
        susceptibility = {"forest": 1.0, "field": 0.8, "building": 0.2}
    s = susceptibility[poi_class]
    per = []
    for px, py in pockets_xy:
        d2 = (position[0] - px) ** 2 + (position[1] - py) ** 2
        per.append(s * math.exp(-d2 / (2.0 * sigma * sigma)))
    if not per:
        return 0.0
    if combine_rule == "max":
        return max(per)
    out = 1.0
    for p in per:
        out *= 1.0 - p
    return 1.0 - out


def nearest_neighbor_order(start, pois_xy):
    """Visit order of a greedy nearest-neighbor tour from start.

    pois_xy: map pid -> (x, y).  Ties broken by lower pid.
    """
    pos = (float(start[0]), float(start[1]))
    left = dict(pois_xy)
    order = []
    while left:
        pid = min(sorted(left),
                  key=lambda q: ((pos[0] - left[q][0]) ** 2 + (pos[1] - left[q][1]) ** 2, q))
        order.append(pid)
        pos = left.pop(pid)
    return order
