"""Channel-assignment schemes: exhaustive, one-pass, iterative and hybrid.

Four schemes share one pluggable objective (any metric from meshca.metrics):

* bio -- enumerate every assignment (within a budget) and keep the best
         feasible one; the optimality benchmark for the others.
* pio -- seeded starting assignment plus exactly one improvement sweep.
* ko  -- starting assignment plus improvement sweeps repeated to a fixpoint.
* ho  -- the ko trajectory, then one radio co-location cleanup pass, then
         further sweeps that visit radios of elevated-interference nodes
         first, again to a fixpoint.

Every optimization step is non-worsening, so for one (topology, metric,
seed) the final scores satisfy ho >= ko >= pio in the metric's direction by
construction. All schemes are deterministic given their inputs.

Each pio/ko/ho run validates its assignment once and keeps it in one
metrics.LinkState, built by initial_assignment with the run's metric and x;
every later phase retunes that state in place. A candidate retune updates
only the link counts of the radio's node and is scored and checked for
feasibility from them, with the same values a full rescore gives.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import dataclass, field

from .errors import BudgetExceededError, ValidationError
from .metrics import MAXIMIZE, IemScore, LinkState, better, canonical_metric
from .topology import (
    ChannelAssignment,
    Topology,
    check_topology,
    compile_topology,
    conflict_degrees,
    node_histograms,
    potential_neighbors,
    radios,
)

SCHEMES = ("bio", "pio", "ko", "ho")
CONNECTIVITY_RULES = ("global", "per-pair")


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
        rule = self.connectivity_rule
        rule = rule.lower() if isinstance(rule, str) else rule
        if rule not in CONNECTIVITY_RULES:
            raise ValidationError(
                f"unknown connectivity rule {self.connectivity_rule!r}; "
                f"expected one of {CONNECTIVITY_RULES}"
            )
        object.__setattr__(self, "connectivity_rule", rule)
        for name in ("seed", "max_iterations", "bio_budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.bio_budget < 1:
            raise ValidationError("bio_budget must be >= 1")
        if self.x is not None and (
            isinstance(self.x, bool) or not isinstance(self.x, int) or self.x < 1
        ):
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

    @property
    def total_moves(self) -> int:
        return sum(r.moves for r in self.records)

    def scores(self) -> list[float]:
        return [self.initial_score] + [r.score for r in self.records]


def _state_ok(state: LinkState, rule: str) -> bool:
    if rule == "per-pair":
        return state.all_pairs_linked()
    return state.connected()


def initial_assignment(topo: Topology, cfg: SchemeConfig) -> tuple[LinkState, bool]:
    """Round-robin starting assignment, repaired and optionally perturbed.

    Radio r of node v starts on channel (v + r) mod c. A repair pass then
    restores cfg's connectivity rule where the round-robin pattern broke it.
    For cfg.seed > 0, exactly n*m random single-radio retunes are attempted,
    each kept only if the rule still holds. Returns (state, feasible): the
    run's LinkState, tracking cfg's metric and x, and whether the rule holds;
    an unsatisfiable rule is flagged, never raised.
    """
    c = topo.channel_count
    rule = cfg.connectivity_rule
    state = LinkState(
        topo, {(v, r): (v + r) % c for (v, r) in radios(topo)}, cfg.metric, cfg.x
    )
    feasible = _repair(topo, state, rule)
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
            if _state_ok(state, rule):
                feasible = True
            else:
                state.retune(radio, old_ch)
    return state, feasible


def _repair(topo: Topology, state: LinkState, rule: str) -> bool:
    """Best-effort single repair pass toward the connectivity rule, in place."""
    if _state_ok(state, rule):
        return True
    m = topo.radios_per_node
    nbrs = potential_neighbors(topo)
    ca = state.ca
    pair_index = state.inst.pair_index

    def have_link(u: int, v: int) -> bool:
        return state.k[pair_index[(u, v) if u < v else (v, u)]] > 0

    # breadth-first tree pass: give every discovered node a channel in common
    # with its tree parent, which connects each potential-graph component
    seen: set[int] = set()
    for root in sorted(nbrs):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in nbrs[u]:
                if v in seen:
                    continue
                seen.add(v)
                if not have_link(u, v):
                    state.retune((v, 0), ca[(u, 0)])
                queue.append(v)

    if rule == "per-pair":
        retune_idx: dict[int, int] = {}
        for (u, v), p in pair_index.items():
            if not state.k[p]:
                idx = retune_idx.get(v, 0) % m
                retune_idx[v] = idx + 1
                state.retune((v, idx), ca[(u, 0)])

    return _state_ok(state, rule)


def improve_sweep(
    state: LinkState, order: list | tuple, connectivity_rule: str = "global"
) -> int:
    """One coordinate-descent pass over the radios in the given order, in place.

    Each radio is retuned to its best-scoring feasible channel under the
    state's metric; ties keep the current channel, and ties among other
    channels take the lowest index. The score never worsens -- from an
    infeasible start (violated precondition) a feasibility-restoring retune
    is taken only when it is score-neutral or better. Returns the number of
    radios moved.
    """
    cur_feasible = _state_ok(state, connectivity_rule)
    cur_score = state.score()
    moves = 0
    for radio in order:
        cur_ch = state.ca[radio]
        best_ch = cur_ch if cur_feasible else None
        best_score = cur_score if cur_feasible else None
        for ch in range(state.inst.topo.channel_count):
            if ch == cur_ch:
                continue
            state.retune(radio, ch)
            if _state_ok(state, connectivity_rule):
                cand = state.score()
                if not better(cur_score, cand):  # never worsen the score
                    if best_score is None or better(cand, best_score):
                        best_ch, best_score = ch, cand
        if best_ch is not None and best_ch != cur_ch:
            state.retune(radio, best_ch)
            cur_score = best_score
            cur_feasible = True
            moves += 1
        else:
            state.retune(radio, cur_ch)
    return moves


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
    descending, ties by node id ascending.
    """
    values = node_interference(state)
    vals = list(values.values())
    threshold = statistics.mean(vals) + statistics.pstdev(vals)
    hot = [n for n, v in values.items() if v > threshold]
    return sorted(hot, key=lambda n: (-values[n], n))


def count_colocated_pairs(topo: Topology, ca: ChannelAssignment) -> int:
    """Same-node radio pairs sharing one channel (the co-location interference unit)."""
    hist = node_histograms(compile_topology(topo), ca)
    return sum(n * (n - 1) // 2 for h in hist for n in h)


def rci_mitigate(state: LinkState, connectivity_rule: str = "global") -> int:
    """Break up same-channel radios co-located on one node, in place.

    Per node (ascending id), the higher-indexed radio of each duplicate pair
    is retuned to the best-scoring channel unused at that node, considering
    only retunes that keep the rule satisfied and do not worsen the state's
    metric. Duplicates with no acceptable alternative stay put. Never
    increases the co-located duplicate count and never worsens the score.
    Returns the number of radios moved.
    """
    topo = state.inst.topo
    m = topo.radios_per_node
    c = topo.channel_count
    cur_score = state.score()
    moves = 0
    for n in sorted(nd.id for nd in topo.nodes):
        stuck: set[int] = set()
        while True:
            node_chans = [state.ca[(n, r)] for r in range(m)]
            dup = None
            seen: set[int] = set()
            for r in range(m):
                if node_chans[r] in seen and r not in stuck:
                    dup = r
                    break
                seen.add(node_chans[r])
            if dup is None:
                break
            used = set(node_chans)
            best_ch = None
            best_score = None
            old_ch = node_chans[dup]
            for ch in range(c):
                if ch in used:
                    continue
                state.retune((n, dup), ch)
                if _state_ok(state, connectivity_rule):
                    cand = state.score()
                    if not better(cur_score, cand):  # candidate not worse
                        if best_score is None or better(cand, best_score):
                            best_ch, best_score = ch, cand
            if best_ch is None:
                stuck.add(dup)
                state.retune((n, dup), old_ch)
            else:
                state.retune((n, dup), best_ch)
                cur_score = best_score
                moves += 1
    return moves


def bio_assign(
    topo: Topology, cfg: SchemeConfig
) -> tuple[ChannelAssignment, IemScore, bool]:
    """Enumerate all c^(n*m) assignments and keep the best feasible one.

    Assignments are visited in lexicographic radio order, so score ties
    resolve to the lexicographically smallest assignment. If nothing is
    feasible the best infeasible assignment is returned with a False flag.
    Raises BudgetExceededError when the space exceeds cfg.bio_budget.
    """
    rlist = radios(topo)
    space = topo.channel_count ** len(rlist)
    if space > cfg.bio_budget:
        raise BudgetExceededError(space, cfg.bio_budget)
    best = best_score = None
    fallback = fallback_score = None
    work: ChannelAssignment = dict.fromkeys(rlist, 0)
    state = LinkState(topo, work, cfg.metric, cfg.x)
    for combo in itertools.product(range(topo.channel_count), repeat=len(rlist)):
        for radio, ch in zip(rlist, combo):
            work[radio] = ch
        state.load(work)
        if _state_ok(state, cfg.connectivity_rule):
            s = state.score()
            if best_score is None or better(s, best_score):
                best, best_score = state.ca, s
        elif best is None:  # fallback only matters while nothing feasible exists
            s = state.score()
            if fallback_score is None or better(s, fallback_score):
                fallback, fallback_score = state.ca, s
    if best is not None:
        return best, best_score, True
    return fallback, fallback_score, False


def run_scheme(
    topo: Topology, cfg: SchemeConfig
) -> tuple[ChannelAssignment, IemScore, OptimizationTrace]:
    """Run one scheme end to end and return (assignment, score, trace)."""
    check_topology(topo)
    metric = cfg.metric

    if cfg.scheme == "bio":
        ca, final, feasible = bio_assign(topo, cfg)
        trace = OptimizationTrace(
            metric=metric,
            direction=final.direction,
            initial_score=final.value,
            records=[],
            feasible=feasible,
        )
        return ca, final, trace

    state, _ = initial_assignment(topo, cfg)
    rule = cfg.connectivity_rule
    initial = state.score()
    trace = OptimizationTrace(
        metric=metric, direction=initial.direction, initial_score=initial.value
    )
    asc_order = radios(topo)

    def record(moves: int) -> None:
        trace.records.append(TraceRecord(len(trace.records) + 1, state.score().value, moves))

    def sweep_to_fixpoint(order_fn, budget: int) -> int:
        used = 0
        while used < budget:
            moves = improve_sweep(state, order_fn(), rule)
            record(moves)
            used += 1
            if not moves:
                break
        return used

    if cfg.scheme == "pio":
        record(improve_sweep(state, asc_order, rule))
    elif cfg.scheme == "ko":
        sweep_to_fixpoint(lambda: asc_order, cfg.max_iterations)
    else:  # ho: the ko trajectory, then co-location cleanup, then hot-first sweeps
        used = sweep_to_fixpoint(lambda: asc_order, cfg.max_iterations)
        record(rci_mitigate(state, rule))

        def hot_first_order():
            hot = eiz_detect(state)
            hot_set = set(hot)
            m = topo.radios_per_node
            prioritized = [(n, r) for n in hot for r in range(m)]
            rest = [radio for radio in asc_order if radio[0] not in hot_set]
            return prioritized + rest

        sweep_to_fixpoint(hot_first_order, cfg.max_iterations - used)

    final = state.score()
    trace.feasible = _state_ok(state, rule)
    _check_monotone(trace)
    return state.ca, final, trace


def _check_monotone(trace: OptimizationTrace) -> None:
    seq = trace.scores()
    for prev, cur in zip(seq, seq[1:]):
        worsened = cur < prev if trace.direction == MAXIMIZE else cur > prev
        if worsened:
            raise RuntimeError(
                f"internal error: optimization trace worsened from {prev} to {cur}"
            )
