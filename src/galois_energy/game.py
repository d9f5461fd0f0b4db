"""Game graphs, plays, energy levels and finite-play winners.

A game is played by an attacker and a defender moving a token along
update-labelled edges while an energy vector is updated.  The attacker
wins a play exactly when it ends in a deadlocked defender position with
the energy level still defined; the defender wins undefined levels,
attacker deadlocks and all infinite plays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

from .errors import InvalidGameError
from .lattice import Energy, is_int
from .updates import Update


class Owner(enum.Enum):
    ATTACKER = "attacker"
    DEFENDER = "defender"


class Verdict(enum.Enum):
    ATTACKER = "attacker"
    DEFENDER = "defender"
    NOT_OVER = "not-over"


@dataclass(frozen=True, slots=True)
class Position:
    id: str
    owner: Owner


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    target: str
    update: Update


@dataclass(frozen=True)
class GameGraph:
    """Positions plus at most one update-labelled edge per ordered pair.

    Immutable after construction; derived lookup tables and the list of
    violations are computed once and cached.  Use
    :meth:`validate` for diagnostics and :meth:`require_valid` to fail
    fast before handing the graph to the solver or the oracle.
    """

    dimension: int
    positions: tuple[Position, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def build(
        cls,
        dimension: int,
        positions: Sequence[tuple[str, Owner]],
        edges: Sequence[tuple[str, str, Update]],
    ) -> GameGraph:
        return cls(
            dimension,
            tuple(Position(i, o) for i, o in positions),
            tuple(Edge(s, t, u) for s, t, u in edges),
        )

    @cached_property
    def _by_id(self) -> dict[str, Position]:
        return {p.id: p for p in self.positions}

    @cached_property
    def _succ(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {p.id: [] for p in self.positions}
        for e in self.edges:
            if e.source in out:
                out[e.source].append(e)
        return {g: tuple(sorted(es, key=lambda e: e.target)) for g, es in out.items()}

    @cached_property
    def _edge_map(self) -> dict[tuple[str, str], Update]:
        return {(e.source, e.target): e.update for e in self.edges}

    @property
    def position_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_id))

    def owner(self, g: str) -> Owner:
        try:
            return self._by_id[g].owner
        except KeyError:
            raise KeyError(f"unknown position {g!r}") from None

    def has_position(self, g: str) -> bool:
        return g in self._by_id

    def successors(self, g: str) -> tuple[tuple[str, Update], ...]:
        """Outgoing edges of ``g`` as (target, update), sorted by target id."""
        if g not in self._by_id:
            raise KeyError(f"unknown position {g!r}")
        return tuple((e.target, e.update) for e in self._succ[g])

    def update_between(self, source: str, target: str) -> Update | None:
        return self._edge_map.get((source, target))

    def is_deadlock(self, g: str) -> bool:
        return not self.successors(g)

    def validate(self) -> list[str]:
        """All structural violations; an empty list means the graph is well
        formed.  The graph is walked once; each call returns a fresh list."""
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        violations: list[str] = []
        if not is_int(self.dimension):
            violations.append(f"dimension must be an integer, got {self.dimension!r}")
        elif self.dimension < 1:
            violations.append(f"dimension must be at least 1, got {self.dimension}")
        seen_ids: set[str] = set()
        for p in self.positions:
            if p.id in seen_ids:
                violations.append(f"duplicate position id {p.id!r}")
            seen_ids.add(p.id)
        seen_pairs: set[tuple[str, str]] = set()
        for e in self.edges:
            pair = (e.source, e.target)
            if pair in seen_pairs:
                violations.append(f"parallel edge {e.source!r} -> {e.target!r}")
            seen_pairs.add(pair)
            if e.source not in seen_ids:
                violations.append(f"edge from unknown position {e.source!r}")
            if e.target not in seen_ids:
                violations.append(f"edge to unknown position {e.target!r}")
            if e.update.dimension != self.dimension:
                violations.append(
                    f"edge {e.source!r} -> {e.target!r} has update dimension "
                    f"{e.update.dimension}, game has {self.dimension}"
                )
        return tuple(violations)

    def require_valid(self) -> GameGraph:
        violations = self.validate()
        if violations:
            raise InvalidGameError(violations)
        return self


@dataclass(frozen=True)
class AuxiliaryInsertion:
    """Record of one parallel edge rerouted through a fresh position."""

    auxiliary: str
    source: str
    target: str


def fresh_id(base: str, taken: set[str]) -> str:
    candidate = base
    k = 2
    while candidate in taken:
        candidate = f"{base}_{k}"
        k += 1
    return candidate


def split_parallel_edges(
    positions: Sequence[tuple[str, Owner]],
    edges: Sequence[tuple[str, str, Update]],
) -> tuple[list[tuple[str, Owner]], list[tuple[str, str, Update]], list[AuxiliaryInsertion]]:
    """Reroute second and further edges between the same ordered pair.

    Each extra edge ``s -u-> t`` becomes ``s -u-> aux -identity-> t`` with
    ``aux`` a fresh attacker position.  The auxiliary has exactly one
    outgoing edge, so it adds no choice and cannot deadlock; attacker
    ownership is an arbitrary, recorded convention.  The identity edges
    of one dimension share one ``Update``.
    """
    out_positions = list(positions)
    taken = {pid for pid, _ in positions}
    seen: set[tuple[str, str]] = set()
    out_edges: list[tuple[str, str, Update]] = []
    report: list[AuxiliaryInsertion] = []
    identity = cache(Update.identity)
    for source, target, update in edges:
        if (source, target) not in seen:
            seen.add((source, target))
            out_edges.append((source, target, update))
            continue
        aux = fresh_id(f"{source}__to__{target}", taken)
        taken.add(aux)
        out_positions.append((aux, Owner.ATTACKER))
        out_edges.append((source, aux, update))
        out_edges.append((aux, target, identity(update.dimension)))
        seen.add((source, aux))
        seen.add((aux, target))
        report.append(AuxiliaryInsertion(auxiliary=aux, source=source, target=target))
    return out_positions, out_edges, report


Play = Sequence[str]


def _check_play(game: GameGraph, play: Play) -> None:
    if not play:
        raise ValueError("a play contains at least one position")
    for g in play:
        if not game.has_position(g):
            raise KeyError(f"unknown position {g!r}")
    for a, b in zip(play, play[1:]):
        if game.update_between(a, b) is None:
            raise ValueError(f"play step {a!r} -> {b!r} is not an edge")


def energy_level(game: GameGraph, play: Play, e0: Energy, i: int) -> Energy | None:
    """Energy after the first ``i`` moves of the play; ``None`` once undefined.

    Level 0 is the initial energy; undefinedness is sticky across the
    remaining suffix.
    """
    _check_play(game, play)
    if i < 0 or i >= len(play):
        raise IndexError(f"index {i} out of range for play of length {len(play)}")
    current: Energy | None = e0
    for a, b in zip(play[:i], play[1 : i + 1]):
        update = game.update_between(a, b)
        assert update is not None
        current = update.apply(current)
        if current is None:
            return None
    return current


def winner_of_finite_play(game: GameGraph, play: Play, e0: Energy) -> Verdict:
    """Who wins the finished play, or NOT_OVER if it can still continue."""
    final = energy_level(game, play, e0, len(play) - 1)
    if final is None:
        return Verdict.DEFENDER
    last = play[-1]
    if not game.is_deadlock(last):
        return Verdict.NOT_OVER
    if game.owner(last) is Owner.DEFENDER:
        return Verdict.ATTACKER
    return Verdict.DEFENDER
