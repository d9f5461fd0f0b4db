"""Reductions of classical quantitative problems to energy games.

Each transformation produces a game whose budget fronts answer the
original question: shortest distances, coverability in vector addition
systems with states, minimal ensured costs in multi-weighted
reachability games, weak upper bounds on resources, and reachability of
several target sets in one play.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .game import GameGraph, Owner, Position, fresh_id, split_parallel_edges
from .lattice import Energy, is_int
from .updates import Add, MinOf, Update, UpdateAtom


@dataclass(frozen=True)
class WeightedGraph:
    """Directed graph with integer edge weights and a source/target pair.

    Negative weights are allowed: the derived game treats a weight as a
    cost paid when traversing the edge, so order of gains and losses
    matters (unlike in classical path sums).
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, int, str], ...]
    source: str
    target: str

    def __post_init__(self) -> None:
        known = set(self.nodes)
        if self.source not in known:
            raise ValueError(f"unknown source {self.source!r}")
        if self.target not in known:
            raise ValueError(f"unknown target {self.target!r}")
        for v, cost, w in self.edges:
            if v not in known or w not in known:
                raise ValueError(f"edge ({v!r}, ., {w!r}) leaves the node set")
            if not is_int(cost):
                raise ValueError(f"edge ({v!r}, ., {w!r}) has cost {cost!r}, not an integer")


@dataclass(frozen=True)
class Vass:
    """Vector addition system with states plus initial and target configurations."""

    states: tuple[str, ...]
    transitions: tuple[tuple[str, tuple[int, ...], str], ...]
    initial: tuple[str, Energy]
    target: tuple[str, Energy]

    def __post_init__(self) -> None:
        known = set(self.states)
        n = self.dimension
        for q, w, q2 in self.transitions:
            if q not in known or q2 not in known:
                raise ValueError(f"transition ({q!r}, ., {q2!r}) leaves the state set")
            if len(w) != n:
                raise DimensionMismatch(f"transition weight {w} is not {n}-dimensional")
            if not all(map(is_int, w)):
                raise ValueError(f"transition weight {w} is not a vector of integers")
        for name, (state, energy) in (("initial", self.initial), ("target", self.target)):
            if state not in known:
                raise ValueError(f"unknown {name} state {state!r}")
            if energy.dimension != n:
                raise DimensionMismatch(f"{name} energy is not {n}-dimensional")
            if not energy.is_finite:
                raise ValueError(f"{name} energy must be finite")

    @property
    def dimension(self) -> int:
        return self.initial[1].dimension


@dataclass(frozen=True)
class MultiReachabilityGame:
    """Two-player game with vector-weighted edges and a target set."""

    dimension: int
    positions: tuple[Position, ...]
    edges: tuple[tuple[str, str, tuple[int, ...]], ...]
    targets: frozenset[str]

    def __post_init__(self) -> None:
        if not is_int(self.dimension):
            raise ValueError(f"dimension must be an integer, got {self.dimension!r}")
        known = {p.id for p in self.positions}
        for s, t, w in self.edges:
            if s not in known or t not in known:
                raise ValueError(f"edge ({s!r}, {t!r}) leaves the position set")
            if len(w) != self.dimension:
                raise DimensionMismatch(f"weight {w} is not {self.dimension}-dimensional")
            if not all(map(is_int, w)):
                raise ValueError(f"weight {w} is not a vector of integers")
            if any(c < 0 for c in w):
                raise ValueError(f"negative weight {w}")
        unknown = self.targets - known
        if unknown:
            raise ValueError(f"target positions {sorted(unknown)} do not exist")


def _subtract(weight: tuple[int, ...]) -> Update:
    return Update.single(*(Add(-c) for c in weight))


def from_shortest_path(graph: WeightedGraph) -> tuple[GameGraph, str]:
    """Single-player game whose front at the source is the shortest
    distance to the target (empty when unreachable): the coverability
    game of the one-counter VASS that pays each edge's cost, from and to
    zero energy."""
    vass = Vass(
        states=graph.nodes,
        transitions=tuple((v, (-cost,), w) for v, cost, w in graph.edges),
        initial=(graph.source, Energy((0,))),
        target=(graph.target, Energy((0,))),
    )
    game, source, _ = from_vass_coverability(vass)
    return game, source


def from_vass_coverability(vass: Vass) -> tuple[GameGraph, str, Energy]:
    """Single-player game deciding coverability of the target configuration.

    The target is covered from the initial configuration exactly when the
    returned energy is a winning budget at the returned position.
    """
    n = vass.dimension
    sink = fresh_id("__sink", set(vass.states))
    positions = [(q, Owner.ATTACKER) for q in vass.states] + [(sink, Owner.DEFENDER)]
    edges = [(q, q2, Update.single(*(Add(c) for c in w))) for q, w, q2 in vass.transitions]
    target_state, target_energy = vass.target
    edges.append((target_state, sink, _subtract(tuple(int(c) for c in target_energy.components))))
    positions, edges, _ = split_parallel_edges(positions, edges)
    game = GameGraph.build(n, positions, edges).require_valid()
    return game, vass.initial[0], vass.initial[1]


def from_multi_reachability(m: MultiReachabilityGame) -> GameGraph:
    """Energy game whose front per position is the minimal ensured cost
    of reaching the target set.

    Defender targets lose their moves (arriving there ends the game),
    defender deadlocks outside the targets loop forever, and attacker
    targets gain a free move to a fresh terminal position; weights turn
    into subtractions.
    """
    owner = {p.id: p.owner for p in m.positions}
    goal = fresh_id("__goal", set(owner))
    positions = [(p.id, p.owner) for p in m.positions] + [(goal, Owner.DEFENDER)]
    edges = [
        (s, t, _subtract(w))
        for s, t, w in m.edges
        if not (s in m.targets and owner[s] is Owner.DEFENDER)
    ]
    has_out = {s for s, _, _ in edges}
    for p in m.positions:
        if p.owner is Owner.DEFENDER and p.id not in m.targets and p.id not in has_out:
            edges.append((p.id, p.id, Update.identity(m.dimension)))
    for p in m.positions:
        if p.owner is Owner.ATTACKER and p.id in m.targets:
            edges.append((p.id, goal, Update.identity(m.dimension)))
    positions_out, edges_out, _ = split_parallel_edges(positions, edges)
    return GameGraph.build(m.dimension, positions_out, edges_out).require_valid()


def _written_by(update: Update, dim: int) -> bool:
    for atom in update.steps:
        spec = atom.specs[dim]
        if not (isinstance(spec, Add) and spec.z == 0):
            return True
    return False


def add_weak_upper_bound(game: GameGraph, pairs: set[tuple[int, int]]) -> GameGraph:
    """Cap component ``i`` by component ``j`` for every pair ``(i, j)``.

    Appends a min-against-the-bound step to every edge, which keeps the
    game inside the supported update class.  Bound components must be
    constants of the game: no existing update may write them.
    """
    n = game.dimension
    for i, j in pairs:
        if i == j:
            raise ValueError(f"bounded and bound dimension coincide: {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair ({i}, {j}) out of range for dimension {n}")
    bound_dims = {j for _, j in pairs}
    for edge in game.edges:
        for j in sorted(bound_dims):
            if _written_by(edge.update, j):
                raise ValueError(
                    f"bound dimension {j} is written by the update on "
                    f"{edge.source!r} -> {edge.target!r}"
                )
    clamp_steps = tuple(
        UpdateAtom(tuple(MinOf((i, j)) if d == i else Add(0) for d in range(n)))
        for i, j in sorted(pairs)
    )
    edges = [
        (e.source, e.target, Update(e.update.steps + clamp_steps)) for e in game.edges
    ]
    positions = [(p.id, p.owner) for p in game.positions]
    return GameGraph.build(n, positions, edges).require_valid()


def add_generalized_reachability(
    game: GameGraph, targets: list[frozenset[str]] | list[set[str]]
) -> GameGraph:
    """Extend the game so the attacker must visit every target set once.

    Adds one saturating flag dimension per target set plus one constant
    witness dimension: entering a position of set ``j`` raises flag ``j``
    and clamps it against the witness.  Every target position gains an
    exit move to a fresh terminal position that costs one unit of every
    flag, so the exit is affordable exactly when all sets have been
    visited; pre-existing terminal defender positions outside the targets
    are neutralised with self-loops.  Queries against the extended game
    append one zero per target set and a witness value of 1 to the
    original energy.

    Exit moves sit on the target positions themselves; a defender-owned
    target therefore lets the defender leave early while flags are still
    missing, so attacker-owned targets are the intended use.
    """
    known = set(game.position_ids)
    for f in targets:
        unknown = set(f) - known
        if unknown:
            raise ValueError(f"target positions {sorted(unknown)} do not exist")
    n = game.dimension
    k = len(targets)
    new_dim = n + k + 1
    witness = n + k
    pad = (Add(0),) * (k + 1)

    def extend(update: Update) -> Update:
        return Update(tuple(UpdateAtom(atom.specs + pad) for atom in update.steps))

    union: set[str] = set().union(*map(set, targets)) if targets else set()
    edges: list[tuple[str, str, Update]] = []
    for e in game.edges:
        update = extend(e.update)
        for j, f in enumerate(targets):
            if e.target in f:
                flag = n + j
                raise_flag = UpdateAtom(
                    tuple(Add(1) if d == flag else Add(0) for d in range(new_dim))
                )
                clamp_flag = UpdateAtom(
                    tuple(MinOf((flag, witness)) if d == flag else Add(0) for d in range(new_dim))
                )
                update = Update(update.steps + (raise_flag, clamp_flag))
        edges.append((e.source, e.target, update))
    goal = fresh_id("__goal", known)
    positions = [(p.id, p.owner) for p in game.positions] + [(goal, Owner.DEFENDER)]
    for g in sorted(known):
        if game.owner(g) is Owner.DEFENDER and game.is_deadlock(g) and g not in union:
            edges.append((g, g, Update.identity(new_dim)))
    exit_specs = tuple(
        Add(-1) if n <= d < n + k else Add(0) for d in range(new_dim)
    )
    for g in sorted(union):
        edges.append((g, goal, Update.single(*exit_specs)))
    return GameGraph.build(new_dim, positions, edges).require_valid()


def generalized_query_energy(e: Energy, set_count: int) -> Energy:
    """Initial energy for the extended game: flags at zero, witness at one."""
    return Energy(e.components + (0,) * set_count + (1,))
