"""Channel-assignment schemes: exhaustive, one-pass, iterative and hybrid.

Four schemes share one pluggable objective (any metric from meshca.metrics):

* bio -- enumerate every assignment (within a budget) and keep the best
         feasible one; the optimality benchmark for the others.
* pio -- seeded starting assignment plus exactly one improvement sweep.
* ko  -- starting assignment plus improvement sweeps repeated to a fixpoint.
* ho  -- the ko trajectory, then one radio co-location cleanup pass, then
         further sweeps that visit radios of elevated-interference nodes
         first, again to a fixpoint.

pio, ko and ho are prefixes of one trajectory, which trajectory() runs once
and snapshots at each scheme's end. Every optimization step is
non-worsening, so for one (topology, metric, seed) the final scores satisfy
ho >= ko >= pio in the metric's direction by construction. All schemes are
deterministic given their inputs.

Each run validates its assignment once and keeps it in one
metrics.LinkState with the run's metric, x and connectivity rule: pio/ko/ho
build it in initial_assignment and every later phase retunes it in place,
and bio retunes it from each enumerated assignment to the next. A retune
updates only the link counts of the radio's node and is scored and checked
for feasibility from them, with the same values a full rescore gives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import BudgetExceededError, ValidationError, is_integer
from .metrics import (
    CONNECTIVITY_RULES,  # re-exported: the rules SchemeConfig accepts
    MAXIMIZE,
    IemScore,
    LinkState,
    better,
    canonical_metric,
    canonical_rule,
)
from .topology import ChannelAssignment, Topology, conflict_degrees, radios, require_topology

SCHEMES = ("bio", "pio", "ko", "ho")
#: the schemes trajectory() snapshots, in the order it reaches them
TRAJECTORY_SCHEMES = ("pio", "ko", "ho")


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "ho"
    metric: str = "tid"
    seed: int = 0
    max_iterations: int = 100
    connectivity_rule: str = "global"
    bio_budget: int = 10_000_000
    x: int | None = None

    def __post_init__(self):
        """Validate every field; scheme and connectivity_rule are lower-cased
        and metric made canonical."""
        scheme = self.scheme.lower() if isinstance(self.scheme, str) else self.scheme
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "metric", canonical_metric(self.metric))
        object.__setattr__(self, "connectivity_rule", canonical_rule(self.connectivity_rule))
        for name in ("seed", "max_iterations", "bio_budget"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.bio_budget < 1:
            raise ValidationError("bio_budget must be >= 1")
        if self.x is not None and not (is_integer(self.x) and self.x >= 1):
            raise ValidationError(f"x must be None or an integer >= 1, got {self.x!r}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    score: float
    moves: int


@dataclass
class OptimizationTrace:
    """Score trajectory of one optimizer run.

    records covers the improvement passes only; the starting score is kept
    separately so a one-sweep run has exactly one record. The score sequence
    (initial first) is always non-worsening in the metric's direction.
    """

    metric: str
    direction: str
    initial_score: float
    records: list[TraceRecord] = field(default_factory=list)
    feasible: bool = True

    @property
    def final_score(self) -> float:
        return self.records[-1].score if self.records else self.initial_score

    def scores(self) -> list[float]:
        return [self.initial_score] + [r.score for r in self.records]


def initial_assignment(topo: Topology, cfg: SchemeConfig) -> LinkState:
    """Round-robin starting assignment, repaired and optionally perturbed.

    Radio r of node v starts on channel (v + r) mod c. A repair pass then
    restores cfg's connectivity rule where the round-robin pattern broke it.
    For cfg.seed > 0, exactly n*m random single-radio retunes are attempted,
    each kept only if the rule holds after it. Returns the run's LinkState,
    held to cfg's metric, x and rule; an unsatisfiable rule leaves it
    infeasible (state.feasible() is False), never raises.
    """
    c = topo.channel_count
    start = {(v, r): (v + r) % c for (v, r) in radios(topo)}
    state = LinkState(topo, start, cfg.metric, cfg.x, cfg.connectivity_rule)
    _repair(state)
    if cfg.seed > 0:
        rng = random.Random(cfg.seed)
        rlist = radios(topo)
        for _ in range(len(rlist)):
            radio = rlist[rng.randrange(len(rlist))]
            new_ch = rng.randrange(c)
            old_ch = state.ca[radio]
            if new_ch == old_ch:
                continue
            state.retune(radio, new_ch)
            if not state.feasible():
                state.retune(radio, old_ch)
    return state


def _repair(state: LinkState) -> None:
    """Best-effort single repair pass toward the state's connectivity rule, in place."""
    if state.feasible():
        return
    inst, ca, k = state.inst, state.ca, state.k
    ids = inst.ids

    # breadth-first tree pass from roots in id order: give every discovered
    # node a channel in common with its tree parent, which connects each
    # potential-graph component
    seen = [False] * len(ids)
    for _, root in sorted(inst.index.items()):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for p, v in inst.incident[u]:
                if seen[v]:
                    continue
                seen[v] = True
                if not k[p]:
                    state.retune((ids[v], 0), ca[(ids[u], 0)])
                queue.append(v)

    if state.rule == "per-pair":
        m = inst.topo.radios_per_node
        retune_idx = [0] * len(ids)
        for p, (u, v) in enumerate(inst.pairs):
            if not k[p]:
                idx = retune_idx[v] % m
                retune_idx[v] = idx + 1
                state.retune((ids[v], idx), ca[(ids[u], 0)])


def improve_sweep(state: LinkState, order: list | tuple) -> int:
    """One coordinate-descent pass over the radios in the given order, in place.

    Each radio is retuned to its best-scoring feasible channel under the
    state's metric; ties keep the current channel, and ties among other
    channels take the lowest index. The score never worsens -- from an
    infeasible start (violated precondition) a feasibility-restoring retune
    is taken only when it is score-neutral or better. Returns the number of
    radios moved.
    """
    cur_feasible = state.feasible()
    cur_score = state.score()
    channels = range(state.inst.topo.channel_count)
    moves = 0
    for radio in order:
        new_score = _best_retune(state, radio, channels, cur_score, cur_feasible)
        if new_score is not None:
            cur_score, cur_feasible = new_score, True
            moves += 1
    return moves


def _best_retune(
    state: LinkState, radio, channels, cur_score: IemScore, keep_current: bool
) -> IemScore | None:
    """Move radio to its best candidate channel, in place; return the new score.

    Each of channels other than the current one is tried, and the best that
    keeps the state feasible and scores no worse than cur_score wins; ties go
    to the lowest channel, or to the current one when keep_current. Returns
    None, with the radio back on its channel, when no other channel wins.
    """
    old_ch = state.ca[radio]
    best_ch, best_score = (old_ch, cur_score) if keep_current else (None, None)
    for ch in channels:
        if ch == old_ch:
            continue
        state.retune(radio, ch)
        if state.feasible():
            cand = state.score()
            if not better(cur_score, cand):  # never worsen the score
                if best_score is None or better(cand, best_score):
                    best_ch, best_score = ch, cand
    moved = best_ch not in (None, old_ch)
    state.retune(radio, best_ch if moved else old_ch)
    return best_score if moved else None


def node_interference(state: LinkState) -> dict[int, int]:
    """Per node, the summed interference degrees of its incident links."""
    inst = state.inst
    per_pair = [0] * len(inst.pairs)
    for ns, ds in zip(state.links, conflict_degrees(inst, state.links)):
        for p, (n, d) in enumerate(zip(ns, ds)):
            per_pair[p] += n * d
    return {
        node: sum(per_pair[p] for p, _ in inst.incident[i])
        for i, node in enumerate(inst.ids)
    }


def eiz_detect(state: LinkState) -> list[int]:
    """Nodes whose interference exceeds mean + one population std.

    These are the elevated-interference pockets; sorted by interference
    descending, ties by node id ascending. The test is exact: over n values
    with sum S and sum of squares Q, v - S/n > sqrt(Q/n - (S/n)^2) iff
    d = n*v - S is positive and d^2 > n*Q - S^2.
    """
    values = node_interference(state)
    n = len(values)
    total = sum(values.values())
    spread = n * sum(v * v for v in values.values()) - total * total
    hot = [node for node, v in values.items() if (d := n * v - total) > 0 and d * d > spread]
    return sorted(hot, key=lambda node: (-values[node], node))


def rci_mitigate(state: LinkState) -> int:
    """Break up same-channel radios co-located on one node, in place.

    One pass per node (ascending id) over its radios in index order: a
    radio on the same channel as a lower-indexed radio of its node is
    retuned to the best-scoring channel the node does not use, considering
    only retunes that keep the state feasible and do not worsen its
    metric, and stays put when none is acceptable. A move only puts a radio
    on a channel new to its node, so the radios before it never change and
    one pass settles the node. Never increases the co-located duplicate
    count and never worsens the score. Returns the number of radios moved.
    """
    topo = state.inst.topo
    m = topo.radios_per_node
    c = topo.channel_count
    cur_score = state.score()
    moves = 0
    for n in sorted(nd.id for nd in topo.nodes):
        for r in range(1, m):
            chans = [state.ca[(n, q)] for q in range(m)]
            if chans[r] not in chans[:r]:
                continue
            unused = [ch for ch in range(c) if ch not in chans]
            new_score = _best_retune(state, (n, r), unused, cur_score, False)
            if new_score is not None:
                cur_score = new_score
                moves += 1
    return moves


def bio_assign(
    topo: Topology, cfg: SchemeConfig
) -> tuple[ChannelAssignment, IemScore, bool]:
    """Enumerate all c^(n*m) assignments and keep the best feasible one.

    One LinkState walks the assignments in lexicographic radio order, each
    radio retuned to its channel in the next one, so score ties resolve to
    the lexicographically smallest assignment. A feasible assignment beats
    any infeasible one: if nothing is feasible the best infeasible
    assignment is returned with a False flag. Raises BudgetExceededError
    when the space exceeds cfg.bio_budget.
    """
    require_topology(topo)
    rlist = radios(topo)
    space = topo.channel_count ** len(rlist)
    if space > cfg.bio_budget:
        raise BudgetExceededError(space, cfg.bio_budget)
    state = LinkState(topo, dict.fromkeys(rlist, 0), cfg.metric, cfg.x, cfg.connectivity_rule)
    best: tuple[bool, IemScore, ChannelAssignment] | None = None
    for combo in itertools.product(range(topo.channel_count), repeat=len(rlist)):
        for radio, ch in zip(rlist, combo):
            state.retune(radio, ch)
        feasible = state.feasible()
        if best is not None and best[0] and not feasible:
            continue
        s = state.score()
        if best is None or (feasible and not best[0]) or better(s, best[1]):
            best = (feasible, s, dict(state.ca))
    feasible, s, ca = best
    return ca, s, feasible


Snapshot = tuple[ChannelAssignment, IemScore, OptimizationTrace]


def trajectory(topo: Topology, cfg: SchemeConfig):
    """Run the one pio/ko/ho trajectory, yielding (scheme, snapshot) as each
    scheme's result is reached, up to and including cfg.scheme.

    pio is sweep 1; ko continues the sweeps to a fixpoint, sweep 1 counting
    toward cfg.max_iterations; ho then runs rci_mitigate and hot-first sweeps
    with the budget the ko sweeps left. A snapshot is (assignment, score,
    trace) as of that point: the trace holds the records so far and the
    feasibility there, and is checked to be non-worsening.
    """
    require_topology(topo)
    state = initial_assignment(topo, cfg)
    initial = state.score()
    records: list[TraceRecord] = []
    asc_order = radios(topo)

    def record(moves: int) -> int:
        records.append(TraceRecord(len(records) + 1, state.score().value, moves))
        return moves

    def snapshot() -> Snapshot:
        trace = OptimizationTrace(
            metric=cfg.metric,
            direction=initial.direction,
            initial_score=initial.value,
            records=list(records),
            feasible=state.feasible(),
        )
        _check_monotone(trace)
        return dict(state.ca), state.score(), trace

    moves = record(improve_sweep(state, asc_order))
    yield "pio", snapshot()
    if cfg.scheme == "pio":
        return
    used = 1
    while moves and used < cfg.max_iterations:
        moves = record(improve_sweep(state, asc_order))
        used += 1
    yield "ko", snapshot()
    if cfg.scheme == "ko":
        return
    record(rci_mitigate(state))

    def hot_first_order():
        hot = eiz_detect(state)
        hot_set = set(hot)
        m = topo.radios_per_node
        prioritized = [(n, r) for n in hot for r in range(m)]
        rest = [radio for radio in asc_order if radio[0] not in hot_set]
        return prioritized + rest

    for _ in range(cfg.max_iterations - used):
        if not record(improve_sweep(state, hot_first_order())):
            break
    yield "ho", snapshot()


def run_scheme(topo: Topology, cfg: SchemeConfig) -> Snapshot:
    """Run one scheme end to end and return (assignment, score, trace)."""
    if cfg.scheme != "bio":
        *_, (_, result) = trajectory(topo, cfg)
        return result
    ca, final, feasible = bio_assign(topo, cfg)
    trace = OptimizationTrace(
        metric=cfg.metric,
        direction=final.direction,
        initial_score=final.value,
        records=[],
        feasible=feasible,
    )
    return ca, final, trace


def _check_monotone(trace: OptimizationTrace) -> None:
    seq = trace.scores()
    for prev, cur in zip(seq, seq[1:]):
        worsened = cur < prev if trace.direction == MAXIMIZE else cur > prev
        if worsened:
            raise RuntimeError(
                f"internal error: optimization trace worsened from {prev} to {cur}"
            )
