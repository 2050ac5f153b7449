"""Independent reference implementations checked against the library,
and the exhaustive joint-action enumeration and the nearest-robot
completion bound the tests compare with.

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


def route_space_optimum(pois, robots, cap=None, progress=None):
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
        acc2 = acc + dur * sum_p
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


def lower_bound(state, accrued):
    """Completion bound on a PlanningState: each PoI revealed by its
    nearest robot, with no queuing.

    accrued + sum_l P(l) * (min_r travel(r, l) + need(l)), where
    need(l) is the least inspection time any robot still needs at l:
    the remaining time of a robot committed to it, else the full
    inspect time.  No completion from the state costs less.
    """
    total = 0.0
    for j, pid in enumerate(state.poi_ids):
        px, py = state.poi_x[j], state.poi_y[j]
        nearest = math.inf
        for x, y, v in zip(state.robot_x, state.robot_y, state.robot_speeds):
            dx = x - px
            dy = y - py
            nearest = min(nearest, math.sqrt(dx * dx + dy * dy) / v)
        need = state.inspect_times[j]
        for t, q in zip(state.robot_targets, state.robot_remaining):
            if t == pid:
                need = min(need, q)
        total += state.likelihoods[j] * (nearest + need)
    return accrued + total


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


def unscreened_claim_nearest(rx, ry, spd, xs, ys):
    """`planner._claim_nearest` without its squared-distance screen:
    every candidate row is timed with sqrt(dx*dx+dy*dy)/v, and a
    strictly sooner row wins."""
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


def _travel_matrix(state):
    """Every robot's straight-line travel time to every PoI, as the numpy
    array expression the planner used before its state held python
    floats: rows are robots, columns PoIs."""
    import numpy as np

    rob = np.array([state.robot_x, state.robot_y], dtype=float).T.reshape(state.n_robots, 2)
    xy = np.array([state.poi_x, state.poi_y], dtype=float).T.reshape(state.n_pois, 2)
    spd = np.array(state.robot_speeds, dtype=float)
    diff = rob[:, None, :] - xy[None, :, :]
    return np.sqrt((diff * diff).sum(-1)) / spd[:, None]


def scipy_greedy_assign(state):
    """The greedy baseline as written on `scipy.optimize.linear_sum_assignment`
    and numpy travel times, the oracle for the library's scalar port."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    n, n_rob = state.n_pois, state.n_robots
    k = min(n_rob, n)
    by_prob = sorted(range(n), key=lambda j: (-state.likelihoods[j], state.poi_ids[j]))
    chosen = by_prob[:k]

    tt = _travel_matrix(state)
    cost = tt[:, chosen]
    rows, cols = linear_sum_assignment(cost)
    targets = np.full(n_rob, -1, dtype=np.int64)
    for r, c in zip(rows, cols):
        targets[r] = chosen[c]
    for r in range(n_rob):
        if targets[r] < 0:
            targets[r] = chosen[int(cost[r].argmin())]
    return JointAction(tuple(int(state.poi_ids[j]) for j in targets))


def min_matching_total(cost):
    """Least total of a matching that covers the shorter side of a cost
    matrix (list of rows), by trying every injective map."""
    nr, nc = len(cost), len(cost[0])
    if nr <= nc:
        return min(sum(cost[r][c] for r, c in enumerate(cols))
                   for cols in itertools.permutations(range(nc), nr))
    return min(sum(cost[r][c] for c, r in sorted(enumerate(rows), key=lambda p: p[1]))
               for rows in itertools.permutations(range(nr), nc))


def row_major_training_set(scenarios):
    """The fit's training arrays in reading order: (rows, pockets) squared
    distances padded with inf, class indices and damaged flags."""
    import numpy as np

    from mrsurvey.scenario import POI_CLASSES

    flat_d_sq, widths, class_idx, damaged = [], [], [], []
    for s in scenarios:
        for poi in s.pois:
            flat_d_sq.extend((poi.x - pk.x) ** 2 + (poi.y - pk.y) ** 2 for pk in s.wind_pockets)
            widths.append(len(s.wind_pockets))
            class_idx.append(POI_CLASSES.index(poi.poi_class))
            damaged.append(poi.damaged)
    widths_np = np.asarray(widths, dtype=int)
    max_pockets = int(widths_np.max(initial=0))
    d_sq = np.full((len(widths_np), max_pockets), math.inf)
    # A row-major boolean mask takes the flat values row by row.
    d_sq[np.arange(max_pockets) < widths_np[:, None]] = np.asarray(flat_d_sq, dtype=float)
    return d_sq, np.asarray(class_idx, dtype=int), np.asarray(damaged, dtype=bool)


def row_major_bernoulli_ll(g, hit, miss, s):
    """Log-likelihood of damaged flags under noisy-OR with factors s * g, on
    row-major (rows, pockets) falloffs and ascending index arrays of the
    damaged and undamaged rows; s per row or a scalar."""
    import numpy as np

    if g.size == 0:
        return 0.0
    terms = np.multiply(g, s[:, None] if np.ndim(s) else s)
    np.minimum(terms, 1.0 - 1e-12, out=terms)
    np.negative(terms, out=terms)
    np.log1p(terms, out=terms)
    # Below 8 pockets a row sum adds left to right from +0.0; from 8 on
    # numpy sums pairwise.
    if terms.shape[1] >= 8:
        log_q = terms.sum(axis=1)
    else:
        log_q = np.zeros(len(terms))
        for k in range(terms.shape[1]):
            log_q += terms[:, k]
    ll = float(log_q[miss].sum())
    if hit.size:
        p = np.expm1(log_q[hit])
        np.negative(p, out=p)
        np.maximum(p, 1e-300, out=p)
        ll += float(np.log(p, out=p).sum())
    return ll


def row_major_fit(scenarios):
    """The maximum-likelihood fit as written on row-major training arrays,
    gathering rows for every probe: the oracle for the library's
    pocket-major fit, which must return the same bits."""
    import numpy as np

    from mrsurvey import estimator
    from mrsurvey.scenario import POI_CLASSES

    d_sq, class_idx, damaged = row_major_training_set(scenarios)
    if damaged.size == 0:
        raise ValueError("training set must contain at least one PoI")

    def split(flags):
        return np.flatnonzero(flags), np.flatnonzero(~flags)

    def gauss(sigma):
        g = np.negative(d_sq)
        np.divide(g, 2.0 * sigma * sigma, out=g)
        with np.errstate(under="ignore"):
            return np.exp(g, out=g)

    hit, miss = split(damaged)
    class_rows = [np.nonzero(class_idx == c)[0] for c in range(len(POI_CLASSES))]
    class_split = [split(damaged[rows]) for rows in class_rows]
    present = [c for c in range(len(POI_CLASSES)) if class_rows[c].size > 0]

    def full_ll(sig, s_vec):
        return row_major_bernoulli_ll(gauss(sig), hit, miss, s_vec[class_idx])

    sigma = estimator.FIT_SIGMA_INIT
    susc = np.full(len(POI_CLASSES), 0.5)
    ll = full_ll(sigma, susc)
    history = [ll]
    converged = False
    for _ in range(estimator.MAX_SWEEPS):
        sigma, _ = estimator._golden_max(lambda sig: full_ll(sig, susc), *estimator.SIGMA_BRACKET)
        g = gauss(sigma)
        for c in present:
            gc = g[class_rows[c]]
            c_hit, c_miss = class_split[c]
            susc[c], _ = estimator._golden_max(
                lambda s_val: row_major_bernoulli_ll(gc, c_hit, c_miss, s_val),
                *estimator.SUSCEPTIBILITY_BRACKET,
            )
        new_ll = full_ll(sigma, susc)
        history.append(new_ll)
        if new_ll - ll < estimator.SWEEP_TOL:
            converged = True
            ll = max(ll, new_ll)
            break
        ll = new_ll

    return estimator.FittedParams(
        sigma_hat=float(sigma),
        susceptibility_hat={
            cls: float(susc[c]) if c in present else estimator.MISSING_CLASS_SUSCEPTIBILITY
            for c, cls in enumerate(POI_CLASSES)
        },
        train_log_likelihood=float(ll),
        converged=converged,
        ll_history=tuple(history),
    )
