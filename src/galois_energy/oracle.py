"""Brute-force decision of game instances, independent of the solver.

Works on the configuration graph whose nodes pair a position with a
concrete finite energy, clipped component-wise to a bound ``B`` once per
move, after its last step (a step may pass ``B`` and a later one come
back below it).  Each edge's move is compiled once per arena by
``updates.forward``, the row evaluator ``Update.apply`` runs too.  A
least-fixed-point attacker attractor is computed backwards from the
defender deadlocks:

* an attacker configuration joins when some move lands in the set,
* a defender configuration joins when it has at least one move and every
  move stays defined and lands in the set (a move whose energy becomes
  undefined lets the defender escape).

Everything that never joins, including all infinite-play behaviour, is a
defender win.  Clipping keeps the graph finite and only ever lowers
energies, so an attacker win here transfers to the unclipped game by
monotonicity of the updates; a defender answer may flip once ``B`` grows.
``stable_decide_many`` therefore decides each query by the doubling rule:
at its starting bound and, when the answer is the defender's, once more
at twice that bound, taking the second answer, so no query runs more than
two bounds.  While a batch's largest starting bound ``top`` is at most
twice its smallest, ``low``, the batch is first explored once at ``top``,
every query seeding one exploration, the multi-source form of the same
attractor.  When every configuration it numbers keeps its components
below ``low``, the clip at ``top >= low`` changed none of the moves it
kept, so the explored region is the same graph at every bound from ``low``
up, and that one exploration answers every query at both of its bounds.
Otherwise the rule runs in batches, one per bound, in ascending order:
the queries that start or confirm at a bound seed one exploration of it,
and ``top`` reuses the first exploration's answers.  ``stable_decide`` is
a batch of one.

An arena compiles one ``(game, B)`` and holds no configurations.  Each
batch explores from scratch the forward closure of its configurations,
int64 rows ``(position, energy...)``, breadth-first, a level at a time:
each move of a position runs once, on all of the level's configurations
at that position.  One dictionary operation per row, keyed by its bytes,
numbers it by its place in the stream of rows, a repeated row by its
first appearance's; after the last level, a cumulative sum over the
first-appearance masks maps places to consecutive configuration numbers.
The index is dropped once explored, so batch queries where possible.

Exploration only goes where a verdict needs it (local fixed-point
checking, Liu & Smolka, ICALP 1998).  A configuration that one of its
moves already decides is settled on the spot and not expanded: an
attacker configuration with a defined move into a defender deadlock wins,
and a defender configuration with an undefined move escapes.  The
attractor gives them these verdicts whatever their other moves reach, so
none of those moves is kept.  Nor is a configuration expanded at a
position with no path to a defender deadlock, which never joins: the
arena finds the other positions once, over its edge arrays, as the fixed
point of adding the sources of the edges into the set, starting from the
defender deadlocks (the tests keep a set search as its reference).  The
attractor is then settled over the explored region, in rounds over a
predecessor index of its edges, from the wins settled on the spot and
the defender deadlocks.

Rows are int64, so an arena first bounds every value a move can compute
from energies at most ``B``; when that bound leaves the int64 range the
arena refuses with ``OracleCapacityError``, as it does when exploration
exceeds the configuration budget in one batch.  Nothing wraps.  A batch
meets the refusals the bound-by-bound rule meets, and in the same order.

No Pareto fronts and no update inverses appear here: the module shares
nothing with the solver's backward computation and serves as its
verification baseline at small scale.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, OracleCapacityError
from .game import GameGraph, Owner, Verdict
from .lattice import Energy
from .updates import Add, Mul, Update, forward

DEFAULT_CONFIG_BUDGET = 5_000_000

_INT64_MAX = 2**63 - 1
_NEVER = -1  # defender configuration that can never be satisfied


def _move_magnitude(update: Update, bound: int) -> int:
    """A bound on every value, intermediate ones included, that ``update``
    computes from rows in ``[0, bound]``.  Undefined rows keep being
    evaluated, so a negative value counts by its magnitude: an Add moves it
    by at most ``|z|``, a Mul scales it by at most ``m`` and a MinOf keeps
    one of its inputs."""
    total, factor = bound, 1
    for atom in update.steps:
        total += max((abs(s.z) for s in atom.specs if isinstance(s, Add)), default=0)
        factor *= max((s.factor for s in atom.specs if isinstance(s, Mul)), default=1)
    return total * factor


def _distinct_updates(game: GameGraph) -> dict[int, Update]:
    return {id(e.update): e.update for e in game.edges}


def _worst_move(updates: Iterable[Update], bound: int) -> int:
    """The largest value any of ``updates`` computes from rows in ``[0, bound]``."""
    return max((_move_magnitude(u, bound) for u in updates), default=bound)


class _Arena:
    """The clipped configuration graph of one (game, B), compiled but not
    explored: ``decide_rows`` explores the forward closure of its rows from
    scratch, settles the attractor over it and keeps nothing."""

    def __init__(self, game: GameGraph, bound: int, config_budget: int):
        game.require_valid()
        self.bound = bound
        self.budget = config_budget
        ids = game.position_ids
        self.pos_index = {g: i for i, g in enumerate(ids)}
        self.is_defender = np.array([game.owner(g) is Owner.DEFENDER for g in ids])
        # defender deadlocks: the attacker wins at every energy
        self.sink = self.is_defender & np.array([game.is_deadlock(g) for g in ids], dtype=bool)
        # one compiled move per distinct update object, shared by its edges
        updates = _distinct_updates(game)
        worst = _worst_move(updates.values(), bound)
        if worst > _INT64_MAX:
            raise OracleCapacityError(
                f"clip bound {bound} lets a move reach {worst}, past the int64 range"
            )
        compiled = {key: forward(u, bound) for key, u in updates.items()}
        self.moves = [
            [(self.pos_index[t], compiled[id(u)]) for t, u in game.successors(g)] for g in ids
        ]
        # positions with no path to any defender deadlock can never be won,
        # whatever the energy; their configurations need no expansion
        src = np.array([s for s, out in enumerate(self.moves) for _ in out], dtype=np.intp)
        dst = np.array([t for out in self.moves for t, _ in out], dtype=np.intp)
        hopeful = self.sink.copy()
        while not hopeful[into := src[hopeful[dst]]].all():
            hopeful[into] = True
        self.hopeful = hopeful
        self.width = 1 + game.dimension
        self.row_key = np.dtype((np.void, 8 * self.width))  # one int64 row as bytes

    def decide_rows(self, rows: np.ndarray) -> tuple[np.ndarray, int]:
        """Whether the attacker wins each int64 row ``(position, energy...)``,
        and the largest energy component of a configuration the
        exploration numbered.  The rows seed one exploration together, so
        their closures share their levels, and the configuration index,
        which numbers rows by place, lives for the exploration only."""
        region, numbers, peak = self._explore({}, rows)
        return self._propagate(*region)[numbers], peak

    def _insert(self, index: dict[bytes, int], rows: np.ndarray,
                first: int) -> tuple[np.ndarray, np.ndarray]:
        """Number each row by its place in the stream of rows ``index`` has
        seen, ``rows`` taking places from ``first``, or a repeated row by
        its first appearance's place, with one ``setdefault`` per row, run
        in C; return the numbers and a mask of the first appearances."""
        found = np.ascontiguousarray(rows).view(self.row_key).ravel().tolist()
        numbers = np.fromiter(map(index.setdefault, found, count(first)), np.int64, len(found))
        return numbers, numbers == np.arange(first, first + len(found))

    def _explore(self, index: dict[bytes, int],
                 rows: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray, int]:
        """Explore the forward closure of ``rows`` breadth-first, a level at
        a time, with ``index`` numbering rows by place, and return the
        explored region by configuration number: the position of each
        configuration, the sources and targets of the edges leaving them,
        and the configurations settled on the spot, the defender escapes
        and the attacker wins.  A settled configuration keeps none of its
        moves.  Also return the numbers of ``rows`` and the largest energy
        component of a numbered configuration."""
        moves, hopeful, budget = self.moves, self.hopeful, self.budget
        seeds, fresh = self._insert(index, rows, 0)
        level, placed = rows[fresh], len(rows)
        empty = np.zeros(0, dtype=np.int64)
        positions, srcs, dsts, escapes, wins = [empty], [empty], [empty], [empty], [empty]
        firsts = [fresh]
        base = peak = 0
        while len(level):
            # every numbered configuration is in some level, so no growth escapes this check
            if len(index) > budget:
                raise OracleCapacityError(
                    f"more than {budget} configurations at clip bound {self.bound}"
                )
            at = level[:, 0]
            positions.append(at.copy())  # not a view that keeps the level alive
            peak = max(peak, int(level[:, 1:].max(initial=0)))
            # each move of a position runs once, on all of its configurations in the level
            order = np.argsort(at)
            ranked = at[order]
            cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
            outs, defs, sources, targets, sizes = [], [], [], [], []
            for lo, hi in zip([0, *cuts], [*cuts, len(at)]):
                p = ranked[lo]
                if not hopeful[p]:
                    continue
                group = order[lo:hi]
                energies = level[group, 1:]
                for t, run in moves[p]:
                    out, defined = run(energies)
                    outs.append(out)
                    defs.append(defined)
                    sources.append(group)
                    targets.append(t)
                    sizes.append(hi - lo)
            if not outs:
                break
            rows = np.empty((sum(sizes), self.width), dtype=np.int64)
            rows[:, 0] = np.repeat(targets, sizes)
            rows[:, 1:] = np.concatenate(outs)
            src = np.concatenate(sources)
            defined = np.concatenate(defs)
            # an undefined move lets a defender escape; a defined move into a
            # defender deadlock wins for an attacker
            defender = self.is_defender[at]
            settles = np.where(defender[src], ~defined, defined & self.sink[rows[:, 0]])
            settled = np.zeros(len(at), dtype=bool)
            settled[src[settles]] = True
            escapes.append(np.flatnonzero(settled & defender) + base)
            wins.append(np.flatnonzero(settled & ~defender) + base)
            keep = defined & ~settled[src]
            # numbers follow first appearance, so the level's own start at base
            rows, src = rows[keep], src[keep] + base
            base = len(index)
            places, fresh = self._insert(index, rows, placed)
            placed += len(rows)
            srcs.append(src)
            dsts.append(places)
            firsts.append(fresh)
            level = rows[fresh]
        number = np.cumsum(np.concatenate(firsts)) - 1  # place -> configuration number
        positions, srcs, dsts, escapes, wins = map(
            np.concatenate, (positions, srcs, dsts, escapes, wins))
        return (positions, srcs, number[dsts], escapes, wins), number[seeds], peak

    def _propagate(self, positions: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   escapes: np.ndarray, wins: np.ndarray) -> np.ndarray:
        """Whether the attacker wins each configuration of an explored
        region, from the position of each, its edges (``src`` to ``dst``)
        and the configurations settled on the spot."""
        size = len(positions)
        defender = self.is_defender[positions]
        won = np.zeros(size, dtype=bool)
        won[wins] = True
        missing = np.bincount(src, minlength=size)
        never = ~self.hopeful[positions]
        never[escapes] = True
        missing[defender & never] = _NEVER
        won |= defender & (missing == 0)  # defender deadlocks
        # predecessors of each configuration, one per edge, grouped by target
        preds = src[np.argsort(dst)]
        ptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=size), out=ptr[1:])
        frontier = np.flatnonzero(won)
        while len(frontier):
            starts, lens = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
            reach = preds[np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]
            reach = reach[~won[reach]]
            attackers = np.unique(reach[~defender[reach]])
            defenders, edges = np.unique(reach[defender[reach]], return_counts=True)
            missing[defenders] -= edges
            frontier = np.concatenate([attackers, defenders[missing[defenders] == 0]])
            won[frontier] = True
        return won


@lru_cache(maxsize=8)
def _arena_for(game: GameGraph, bound: int, config_budget: int) -> _Arena:
    return _Arena(game, bound, config_budget)


def _check_query(game: GameGraph, g: str, e: Energy) -> None:
    if not game.has_position(g):
        raise KeyError(f"unknown position {g!r}")
    if e.dimension != game.dimension:
        raise DimensionMismatch(f"energy dim {e.dimension} vs game dim {game.dimension}")
    if not e.is_finite:
        raise ValueError("the oracle decides finite energies only")


def attractor_decide(
    game: GameGraph,
    g: str,
    e: Energy,
    bound: int,
    *,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> Verdict:
    """Decide the clipped game at clip bound ``bound``.

    Sound for attacker answers; defender answers may be an artefact of a
    too-small bound.
    """
    _check_query(game, g, e)
    if any(c > bound for c in e.components):
        raise ValueError(f"energy {e.render()} exceeds clip bound {bound}")
    (won,), _ = _decide_at(game, bound, [(g, e)], config_budget)
    return Verdict.ATTACKER if won else Verdict.DEFENDER


@dataclass(frozen=True)
class OracleVerdict:
    winner: Verdict
    bound: int

    @property
    def attacker_wins(self) -> bool:
        return self.winner is Verdict.ATTACKER


def _game_bound(game: GameGraph) -> tuple[int, int]:
    """The game's part of the first clip bound: an estimate of the largest
    component the backward iteration can reach, and a headroom of one
    maximal step per position.

    With ``a`` the largest Add magnitude, ``m`` the largest Mul factor and
    ``n`` the position count: each inverse raises a component by at most
    ``a`` and scales it by at most ``m``, over chains shorter than ``n``,
    so the estimate is ``a*(n-1)*m^(n-1)``.  The headroom is ``a*n``.
    """
    a, m, n = 0, 1, len(game.positions)
    for edge in game.edges:
        for atom in edge.update.steps:
            for s in atom.specs:
                if isinstance(s, Add):
                    a = max(a, abs(s.z))
                elif isinstance(s, Mul):
                    m = max(m, s.factor)
    return (a * (n - 1) * m ** (n - 1) if n > 1 else 0), a * n


def starting_bound(game: GameGraph, e: Energy) -> int:
    """Initial clip bound: worst backward estimate or the queried energy,
    plus headroom of one maximal step per position."""
    return _start(_game_bound(game), e)


def _start(game_bound: tuple[int, int], e: Energy) -> int:
    """``starting_bound`` from the game's ``_game_bound``, computed once."""
    worst, headroom = game_bound
    return max(worst, max((int(c) for c in e.components), default=0)) + headroom


def stable_decide(
    game: GameGraph,
    g: str,
    e: Energy,
    *,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> OracleVerdict:
    """Decide one query as ``stable_decide_many`` does."""
    return stable_decide_many(game, [(g, e)], config_budget=config_budget)[0]


def stable_decide_many(
    game: GameGraph,
    queries: Iterable[tuple[str, Energy]],
    *,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> list[OracleVerdict]:
    """Decide each ``(position, energy)`` query with growing clip bounds
    until its answer stabilises, and report the largest bound evaluated.

    The doubling rule: a query starts at its ``starting_bound`` and
    doubles it until two consecutive answers agree.  Attacker answers are
    monotone in the bound, so one is final where it appears; a defender
    answer takes one confirming run at twice the bound, whose answer is
    final either way.  No query thus runs more than two bounds.

    While the batch's largest starting bound ``top`` is at most twice
    its smallest, ``low``, the batch is first explored once at ``top``,
    seeded with every query; the rule explores ``top`` anyway.  When no
    configuration that exploration numbers has a component at least
    ``low``, it gives every query the rule's result: ATTACKER at the
    starting bound if won there, else DEFENDER at twice it.  A clip at
    ``top`` writes ``top >= low``, so each move kept in the region gave
    its unclipped result, which a clip at ``low`` or above leaves alone
    too; the moves left out (undefined ones, those of a position that
    reaches no defender deadlock, and all moves of a configuration
    settled on the spot) depend on no bound.  The region is thus the
    same graph at every starting bound and at twice it, and so is each
    query's answer.  Otherwise the rule runs bound by bound, in
    ascending order, each bound explored once by one batch of the
    queries that start or confirm there, and ``top`` reusing the first
    exploration's answers.

    Refusals are the rule's own, met in its order.  A refused first
    exploration leaves the batch to the rule.  An exploration the rule
    would make and the batch skips covers part of a region the batch
    explored under the budget: at ``top`` from fewer seeds, or, after one
    exploration decided the batch, in the same graph.  So only the int64
    guard can refuse a skipped bound; when it would refuse the largest
    confirming bound, the batch runs the rule, which meets that refusal.
    """
    queries = list(queries)
    for g, e in queries:
        _check_query(game, g, e)
    if not queries:
        return []
    game_bound = _game_bound(game)
    starts = [max(1, _start(game_bound, e)) for _, e in queries]
    top, low = max(starts), min(starts)
    at_top = None
    # the rule explores top anyway; seeded with every query it costs about
    # what the rule's own bounds cost only while the starts stay close
    if top <= 2 * low:
        try:
            at_top, peak = _decide_at(game, top, queries, config_budget)
        except OracleCapacityError:
            pass
        else:
            confirm = 2 * max((b for b, won in zip(starts, at_top) if not won), default=0)
            if peak < low and _worst_move(_distinct_updates(game).values(), confirm) <= _INT64_MAX:
                return [
                    OracleVerdict(Verdict.ATTACKER, b) if won
                    else OracleVerdict(Verdict.DEFENDER, 2 * b)
                    for b, won in zip(starts, at_top)
                ]
    pending: dict[int, list[int]] = defaultdict(list)
    for i, bound in enumerate(starts):
        pending[bound].append(i)
    verdicts: dict[int, OracleVerdict] = {}
    while pending:
        bound = min(pending)
        group = pending.pop(bound)
        if bound == top and at_top is not None:
            decided = [at_top[i] for i in group]
        else:
            decided, _ = _decide_at(game, bound, [queries[i] for i in group], config_budget)
        for i, won in zip(group, decided):
            if won or bound > starts[i]:
                verdicts[i] = OracleVerdict(Verdict.ATTACKER if won else Verdict.DEFENDER, bound)
            else:
                pending[2 * bound].append(i)
    return [verdicts[i] for i in range(len(queries))]


def _decide_at(game: GameGraph, bound: int, batch: list[tuple[str, Energy]],
               config_budget: int) -> tuple[list[bool], int]:
    """Whether the attacker wins each query of ``batch`` at clip bound
    ``bound``, as a list, and the largest energy component of a
    configuration the exploration numbered."""
    arena = _arena_for(game, bound, config_budget)
    rows = np.array([(arena.pos_index[g], *e.components) for g, e in batch], dtype=np.int64)
    won, peak = arena.decide_rows(rows)
    return won.tolist(), peak
