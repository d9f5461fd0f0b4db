"""Brute-force decision of single game instances, independent of the solver.

Works on the configuration graph whose nodes pair a position with a
concrete finite energy, clipped component-wise to a bound ``B`` once per
move, after its last step (a step may pass ``B`` and a later one come
back below it).  Each edge's move is compiled once per arena by
``updates.forward``, the evaluator ``Update.apply`` runs too.  A
least-fixed-point attacker attractor is computed backwards from the
defender deadlocks:

* an attacker configuration joins when some move lands in the set,
* a defender configuration joins when it has at least one move and every
  move stays defined and lands in the set (a move whose energy becomes
  undefined lets the defender escape).

Everything that never joins, including all infinite-play behaviour, is a
defender win.  Clipping keeps the graph finite and only ever lowers
energies, so an attacker win here transfers to the unclipped game by
monotonicity of the updates; a defender answer may flip once ``B`` grows,
which ``stable_decide`` pursues by doubling the bound until two
consecutive answers agree.

An arena keeps the explored graph as two flat lists of edge ends and a
set of escaping configurations.  Each query that explores a new region
builds predecessor lists and missing-successor counts for that region
only: every successor of an old configuration is old, and old verdicts
are settled, so a new win can only reach new configurations.

No Pareto fronts and no update inverses appear here: the module shares
nothing with the solver's backward computation and serves as its
verification baseline at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable

from .errors import DimensionMismatch, OracleCapacityError
from .game import GameGraph, Owner, Verdict
from .lattice import Energy
from .updates import Add, Mul, RawEnergy, forward

DEFAULT_CONFIG_BUDGET = 5_000_000

_NEVER = -1  # defender configuration that can never be satisfied


class _Arena:
    """Explored part of the clipped configuration graph for one (game, B).

    Grows on demand: ``decide`` explores the full forward closure of a
    seed configuration, then propagates the attractor over the newly
    added region.  Settled verdicts never change afterwards, because
    every stored configuration already has its complete forward closure
    stored as well.
    """

    def __init__(self, game: GameGraph, bound: int, config_budget: int):
        game.require_valid()
        self.bound = bound
        self.budget = config_budget
        ids = game.position_ids
        self.pos_index = {g: i for i, g in enumerate(ids)}
        self.is_defender = [game.owner(g) is Owner.DEFENDER for g in ids]
        self.is_deadlock = [game.is_deadlock(g) for g in ids]
        self.moves: list[list[tuple[int, Callable[[RawEnergy], RawEnergy | None]]]] = [
            [(self.pos_index[t], forward(u, bound)) for t, u in game.successors(g)] for g in ids
        ]
        # positions with no path to any defender deadlock can never be won,
        # whatever the energy; their configurations need no expansion
        self.hopeful = self._positions_reaching_defender_deadlocks(len(ids))
        self.poisoned = False
        self.config_index: dict[tuple[int, RawEnergy], int] = {}
        self.keys: list[tuple[int, RawEnergy]] = []
        self.src: list[int] = []
        self.dst: list[int] = []
        self.escapes: set[int] = set()
        self.won = bytearray()

    def _positions_reaching_defender_deadlocks(self, count: int) -> list[bool]:
        rev: list[set[int]] = [set() for _ in range(count)]
        for src, moves in enumerate(self.moves):
            for tgt, _ in moves:
                rev[tgt].add(src)
        frontier = [i for i in range(count) if self.is_defender[i] and self.is_deadlock[i]]
        reach = set(frontier)
        while frontier:
            nxt = frontier.pop()
            for p in rev[nxt]:
                if p not in reach:
                    reach.add(p)
                    frontier.append(p)
        return [i in reach for i in range(count)]

    def decide(self, pos: int, e: RawEnergy) -> bool:
        # a partially explored graph has unusable verdicts, so a capacity
        # overflow permanently disables this arena
        if self.poisoned:
            raise OracleCapacityError(
                f"exploration at clip bound {self.bound} exceeded {self.budget} configurations"
            )
        key = (pos, e)
        hit = self.config_index.get(key)
        if hit is not None:
            return bool(self.won[hit])
        first_new, first_edge = len(self.keys), len(self.src)
        try:
            self._explore(key)
        except OracleCapacityError:
            self.poisoned = True
            raise
        self._propagate(first_new, first_edge)
        return bool(self.won[first_new])

    def _explore(self, seed: tuple[int, RawEnergy]) -> None:
        keys, index, src, dst = self.keys, self.config_index, self.src, self.dst
        moves, hopeful, budget = self.moves, self.hopeful, self.budget
        index[seed] = len(keys)
        keys.append(seed)
        stack = [len(keys) - 1]
        while stack:
            # every stored configuration is pushed, so no growth escapes this check
            if len(keys) > budget:
                raise OracleCapacityError(
                    f"more than {budget} configurations at clip bound {self.bound}"
                )
            idx = stack.pop()
            p, energy = keys[idx]
            if not hopeful[p]:
                continue
            for tpos, fn in moves[p]:
                value = fn(energy)
                if value is None:
                    if self.is_defender[p]:
                        self.escapes.add(idx)
                    continue
                tkey = (tpos, value)
                tidx = index.get(tkey)
                if tidx is None:
                    tidx = index[tkey] = len(keys)
                    keys.append(tkey)
                    stack.append(tidx)
                src.append(idx)
                dst.append(tidx)

    def _propagate(self, first_new: int, first_edge: int) -> None:
        # configurations from ``first_new`` on and edges from ``first_edge``
        # on are new; new configurations are numbered from 0 here
        old_won = self.won
        owners = [self.is_defender[p] for p, _ in self.keys[first_new:]]
        won = bytearray(len(owners))
        preds: list[list[int]] = [[] for _ in owners]
        missing = [0] * len(owners)
        stack = []
        for s, t in zip(islice(self.src, first_edge, None), islice(self.dst, first_edge, None)):
            s -= first_new
            if t >= first_new:
                preds[t - first_new].append(s)
                missing[s] += 1
            elif not old_won[t]:
                missing[s] += 1  # an old loss is final
            elif not owners[s] and not won[s]:
                won[s] = 1
                stack.append(s)
        for s, defender in enumerate(owners):
            if not defender:
                continue
            p, _ = self.keys[first_new + s]
            if first_new + s in self.escapes or not self.hopeful[p]:
                missing[s] = _NEVER
            elif missing[s] == 0:  # every move lands in an old win, or a deadlock
                won[s] = 1
                stack.append(s)
        while stack:
            for pr in preds[stack.pop()]:
                if won[pr]:
                    continue
                if owners[pr]:
                    missing[pr] -= 1
                    if missing[pr]:
                        continue
                won[pr] = 1
                stack.append(pr)
        old_won += won


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
    arena = _arena_for(game, bound, config_budget)
    raw = tuple(int(c) for c in e.components)
    won = arena.decide(arena.pos_index[g], raw)
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
    worst, headroom = _game_bound(game)
    return max(worst, max((int(c) for c in e.components), default=0)) + headroom


def stable_decide(
    game: GameGraph,
    g: str,
    e: Energy,
    *,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> OracleVerdict:
    """Decide with growing clip bounds until the answer stabilises.

    Doubles the bound until two consecutive answers agree.  Attacker
    answers are monotone in the bound, so once one appears no further
    bound can change it and the loop stops there; only defender answers
    need a confirming run.  Reports the largest bound actually evaluated.
    """
    _check_query(game, g, e)
    bound = max(1, starting_bound(game, e))
    prev = attractor_decide(game, g, e, bound, config_budget=config_budget)
    while prev is Verdict.DEFENDER:
        bound *= 2
        cur = attractor_decide(game, g, e, bound, config_budget=config_budget)
        if cur is prev:
            return OracleVerdict(winner=prev, bound=bound)
        prev = cur
    return OracleVerdict(winner=Verdict.ATTACKER, bound=bound)
