"""Brute-force decision of single game instances, independent of the solver.

Works on the configuration graph whose nodes pair a position with a
concrete finite energy, clipped component-wise to a bound ``B`` after
every move.  A least-fixed-point attacker attractor is computed backwards
from the defender deadlocks:

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

No Pareto fronts and no update inverses appear here: the module shares
nothing with the solver's computation path and serves as its
verification baseline at small scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import DimensionMismatch, OracleCapacityError
from .game import GameGraph, Owner, Verdict, estimate_worst_energy
from .lattice import Energy
from .updates import Add, MinOf, Update

RawEnergy = tuple[int, ...]

DEFAULT_CONFIG_BUDGET = 5_000_000

_NEVER = -1  # defender configuration that can never be satisfied


def _compile(update: Update) -> Callable[[RawEnergy], RawEnergy | None]:
    """Forward application over plain int tuples (finite energies only)."""
    steps = update.steps

    def run(e: RawEnergy) -> RawEnergy | None:
        for atom in steps:
            out = []
            for i, spec in enumerate(atom.specs):
                if isinstance(spec, Add):
                    v = e[i] + spec.z
                    if v < 0:
                        return None
                    out.append(v)
                elif isinstance(spec, MinOf):
                    out.append(min(e[k] for k in spec.indices))
                else:
                    out.append(e[i] * spec.factor)
            e = tuple(out)
        return e

    return run


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
            [(self.pos_index[t], _compile(u)) for t, u in game.successors(g)] for g in ids
        ]
        # positions with no path to any defender deadlock can never be won,
        # whatever the energy; their configurations need no expansion
        self.hopeful = self._positions_reaching_defender_deadlocks(len(ids))
        self.poisoned = False
        self.config_index: dict[tuple[int, RawEnergy], int] = {}
        self.keys: list[tuple[int, RawEnergy]] = []
        self.succs: list[list[int]] = []
        self.escape: list[bool] = []
        self.preds: list[list[int]] = []
        self.won: list[bool] = []
        self.missing: list[int] = []

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

    def _clip(self, e: RawEnergy) -> RawEnergy:
        b = self.bound
        return tuple(c if c <= b else b for c in e)

    def _new_config(self, key: tuple[int, RawEnergy]) -> int:
        idx = len(self.keys)
        self.config_index[key] = idx
        self.keys.append(key)
        self.succs.append([])
        self.escape.append(False)
        self.preds.append([])
        self.won.append(False)
        self.missing.append(0)
        if idx + 1 > self.budget:
            raise OracleCapacityError(
                f"more than {self.budget} configurations at clip bound {self.bound}"
            )
        return idx

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
            return self.won[hit]
        first_new = len(self.keys)
        try:
            start = self._new_config(key)
            self._explore(start)
        except OracleCapacityError:
            self.poisoned = True
            raise
        self._propagate(first_new)
        return self.won[start]

    def _explore(self, start: int) -> None:
        stack = [start]
        while stack:
            idx = stack.pop()
            p, energy = self.keys[idx]
            if not self.hopeful[p]:
                continue
            for tpos, fn in self.moves[p]:
                value = fn(energy)
                if value is None:
                    if self.is_defender[p]:
                        self.escape[idx] = True
                    continue
                tkey = (tpos, self._clip(value))
                tidx = self.config_index.get(tkey)
                if tidx is None:
                    tidx = self._new_config(tkey)
                    stack.append(tidx)
                self.succs[idx].append(tidx)
                self.preds[tidx].append(idx)

    def _propagate(self, first_new: int) -> None:
        # phase 1: requirements of the new region, counting only verdicts
        # settled before this call (old-region wins are final)
        queue: deque[int] = deque()
        total = len(self.keys)
        for idx in range(first_new, total):
            p, _ = self.keys[idx]
            if not self.is_defender[p]:
                continue
            if self.is_deadlock[p]:
                continue
            if self.escape[idx] or not self.succs[idx]:
                self.missing[idx] = _NEVER
            else:
                self.missing[idx] = sum(
                    1 for s in self.succs[idx] if s >= first_new or not self.won[s]
                )
        # phase 2: seed wins that hold immediately
        for idx in range(first_new, total):
            p, _ = self.keys[idx]
            if self.is_defender[p]:
                if self.is_deadlock[p]:
                    self.won[idx] = True
                    queue.append(idx)
                elif self.missing[idx] == 0:
                    self.won[idx] = True
                    queue.append(idx)
            else:
                if any(s < first_new and self.won[s] for s in self.succs[idx]):
                    self.won[idx] = True
                    queue.append(idx)
        # reverse breadth-first propagation
        while queue:
            w = queue.popleft()
            for pr in self.preds[w]:
                if self.won[pr]:
                    continue
                p, _ = self.keys[pr]
                if self.is_defender[p]:
                    if self.missing[pr] > 0:
                        self.missing[pr] -= 1
                        if self.missing[pr] == 0:
                            self.won[pr] = True
                            queue.append(pr)
                else:
                    self.won[pr] = True
                    queue.append(pr)


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


def starting_bound(game: GameGraph, e: Energy) -> int:
    """Initial clip bound: worst backward estimate or the queried energy,
    plus headroom of one maximal step per position."""
    worst = estimate_worst_energy(game)
    base = max(
        max((int(c) for c in worst.components), default=0),
        max((int(c) for c in e.components), default=0),
    )
    return base + game.max_add_magnitude() * len(game.positions)


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
