"""Shared fixtures: the espresso game, random game generators, reference
implementations for the solver (the pure-Python minimiser, membership test
and Galois inverse, the plain pass, the per-pass front maps and the
history-scanning strategy), a per-spec reference for forward application,
a recorder of the minimiser's inputs, and the independent check helpers used
across the suite."""

from __future__ import annotations

import itertools
import random
from collections import defaultdict, deque
from typing import Iterable
from unittest import mock

import numpy as np
import pytest

from galois_energy import fileio, solver
from galois_energy.errors import DimensionMismatch, IterationCapExceeded
from galois_energy.game import GameGraph, Owner, Position
from galois_energy.instances import MultiReachabilityGame, Vass, from_multi_reachability
from galois_energy.lattice import INF, Component, Energy, ParetoFront, leq
from galois_energy.updates import Add, MinOf, Mul, Update, UpdateAtom


@pytest.fixture(scope="session")
def espresso() -> GameGraph:
    return fileio.load_game(fileio.bundled_game_path()).game


def espresso_with_target(target: int) -> GameGraph:
    """The espresso game with ``Office -> Energized`` subtracting ``target``."""
    doc = fileio.game_to_dict(fileio.load_game(fileio.bundled_game_path()).game)
    edge = next(e for e in doc["edges"] if (e["from"], e["to"]) == ("Office", "Energized"))
    edge["update"][0][3]["z"] = -target
    return fileio.game_from_dict(doc).game


def minimize(energies: Iterable[Energy]) -> ParetoFront:
    """Reference minimiser: keep exactly the minimal elements.

    Pairwise dominance filter, quadratic in the number of candidates.
    """
    unique = {e.components: e for e in energies}
    items = list(unique.values())
    if items:
        dims = {e.dimension for e in items}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed dimensions: {sorted(dims)}")
    minimal = [
        e
        for e in items
        if not any(o.components != e.components and leq(o, e) for o in items)
    ]
    minimal.sort(key=lambda e: e.components)
    return ParetoFront(tuple(minimal))


def member_upward(front: ParetoFront, e: Energy) -> bool:
    """Reference membership: is ``e`` in the upward closure of the front?"""
    return any(leq(m, e) for m in front)


def _apply_atom(atom: UpdateAtom, e: Energy) -> Energy | None:
    src = e.components
    out: list[Component] = []
    for i, spec in enumerate(atom.specs):
        if isinstance(spec, Add):
            c = src[i]
            if c == INF:
                out.append(INF)
            else:
                v = c + spec.z
                if v < 0:
                    return None
                out.append(v)
        elif isinstance(spec, MinOf):
            out.append(min(src[k] for k in spec.indices))
        else:
            c = src[i]
            out.append(INF if c == INF else c * spec.factor)
    return Energy(tuple(out))


def reference_apply(u: Update | UpdateAtom, e: Energy) -> Energy | None:
    """Reference forward application, one spec at a time: ``None`` once
    some Add goes below zero; every MinOf reads its step's input."""
    if e.dimension != u.dimension:
        raise DimensionMismatch(f"energy dim {e.dimension} vs update dim {u.dimension}")
    current: Energy | None = e
    for atom in u.steps if isinstance(u, Update) else (u,):
        current = _apply_atom(atom, current)
        if current is None:
            return None
    return current


def _invert_atom(atom: UpdateAtom, e: Energy) -> Energy:
    if e.dimension != atom.dimension:
        raise DimensionMismatch(f"energy dim {e.dimension} vs update dim {atom.dimension}")
    src = e.components
    out: list[Component] = []
    for i, spec in enumerate(atom.specs):
        best: Component = 0
        if isinstance(spec, Add):
            c = src[i]
            if c == INF:
                best = INF
            elif spec.z <= c:
                best = c - spec.z
        elif isinstance(spec, Mul):
            c = src[i]
            best = INF if c == INF else -(-c // spec.factor)
        for j, other in enumerate(atom.specs):
            if isinstance(other, MinOf) and i in other.indices:
                best = max(best, src[j])
        out.append(best)
    return Energy(tuple(out))


def invert(u: Update | UpdateAtom, e: Energy) -> Energy:
    """Reference Galois inverse: the least input whose image dominates ``e``.

    Per atom, component ``i`` is the maximum of every constraint pulling
    on it: ``e_i - z`` for an Add (when nonnegative), ``ceil(e_i / m)`` for
    a Mul, ``e_j`` for every MinOf component ``j`` drawing on ``i``, and the
    floor ``0``; a composite undoes its atoms in reverse order.
    """
    for atom in reversed(u.steps if isinstance(u, Update) else (u,)):
        e = _invert_atom(atom, e)
    return e


def kernel_invert(u: Update | UpdateAtom, e: Energy) -> Energy:
    """The solver's inverse evaluator applied to one finite energy."""
    update = u if isinstance(u, Update) else Update((u,))
    inverses = solver._Inverses([update], update.dimension)
    row = inverses.pull(0, np.array([e.components], dtype=np.int64))
    return Energy(tuple(int(c) for c in row[0]))


def kernel_minimize(energies: Iterable[Energy]) -> ParetoFront:
    """The solver's minimiser applied to finite energies of one dimension."""
    rows = [e.components for e in energies]
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 1)
    return solver._rows_to_front(matrix[solver._minimize_rows(matrix)])


def reference_meet(factors: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Reference defender front: the minimal sups of one row per factor,
    in lexicographic order; empty when some factor is."""
    sups = (tuple(map(max, zip(*choice))) for choice in itertools.product(*factors))
    return [e.components for e in minimize(Energy(s) for s in sups)]


EXPECTED_CUPS_TIME = {(1, 20), (2, 10), (3, 6), (4, 4), (5, 2), (10, 1)}


def cups_time_projection(front: ParetoFront) -> set[tuple[int, int]]:
    """Front elements with zero shots and zero energization, as (cups, time)."""
    return {
        (e.components[0], e.components[1])
        for e in front
        if e.components[2] == 0 and e.components[3] == 0
    }


def random_update(
    rng: random.Random,
    n: int,
    max_abs: int,
    max_steps: int,
    declining: bool = False,
    mul: bool = False,
) -> Update:
    steps = []
    for _ in range(rng.randint(1, max_steps)):
        specs = []
        for i in range(n):
            if mul and rng.random() < 0.15:
                specs.append(Mul(rng.randint(1, 3)))
            elif rng.random() < 0.75:
                low = -max_abs
                high = 0 if declining else max_abs
                specs.append(Add(rng.randint(low, high)))
            else:
                pool = [k for k in range(n) if k != i]
                picks = rng.sample(pool, rng.randint(0, min(2, len(pool))))
                if declining:
                    # keeping the component itself in the set makes the
                    # minimum non-increasing in every component
                    specs.append(MinOf(tuple([i] + picks)))
                else:
                    specs.append(MinOf(tuple(picks or [i])))
        steps.append(UpdateAtom(tuple(specs)))
    return Update(tuple(steps))


def random_game(
    rng: random.Random,
    max_positions: int = 8,
    max_dim: int = 3,
    max_abs: int = 2,
    max_steps: int = 2,
    declining: bool = False,
    mul: bool = False,
) -> GameGraph:
    n = rng.randint(1, max_dim)
    count = rng.randint(2, max_positions)
    ids = [f"p{i}" for i in range(count)]
    positions = [
        (g, Owner.ATTACKER if rng.random() < 0.5 else Owner.DEFENDER) for g in ids
    ]
    edges = []
    for g in ids:
        for target in rng.sample(ids, rng.randint(0, min(3, count))):
            edges.append((g, target, random_update(rng, n, max_abs, max_steps, declining, mul)))
    return GameGraph.build(n, positions, edges)


def grid_game(
    side: int, dimension: int, seed: int = 1, max_weight: int = 4, defender_share: float = 0.1
) -> GameGraph:
    """A multi-reachability grid reduced to an energy game: every node has
    an edge to each of its four neighbours with a random weight vector, a
    random share of nodes belongs to the defender, and the target is the
    corner ``r{side-1}c{side-1}``."""
    rng = random.Random(seed)
    name = "r{}c{}".format
    positions = tuple(
        Position(name(r, c), Owner.DEFENDER if rng.random() < defender_share else Owner.ATTACKER)
        for r in range(side)
        for c in range(side)
    )
    edges = tuple(
        (name(r, c), name(rr, cc), tuple(rng.randint(0, max_weight) for _ in range(dimension)))
        for r in range(side)
        for c in range(side)
        for rr, cc in ((r + 1, c), (r, c + 1), (r - 1, c), (r, c - 1))
        if 0 <= rr < side and 0 <= cc < side
    )
    targets = frozenset({name(side - 1, side - 1)})
    return from_multi_reachability(MultiReachabilityGame(dimension, positions, edges, targets))


def minimiser_inputs(game: GameGraph) -> list[np.ndarray]:
    """Every row set the solver minimises in one solve of ``game``, in call
    order: each matrix ``solver._minimize_rows`` receives, and each
    segment of the ``solver._minimize_segments`` calls made outside it
    (the attacker unions of a pass), rows in input order.  Real traffic to
    replay through either route of the minimiser."""
    inputs: list[np.ndarray] = []
    inside = []
    minimize_rows, minimize_segments = solver._minimize_rows, solver._minimize_segments

    def record_rows(rows):
        inputs.append(rows)
        inside.append(True)
        try:
            return minimize_rows(rows)
        finally:
            inside.pop()

    def record_segments(rows, segments):
        if not inside:
            inputs.extend(rows[segments == s] for s in np.unique(segments))
        return minimize_segments(rows, segments)

    with mock.patch.object(solver, "_minimize_rows", record_rows), mock.patch.object(
        solver, "_minimize_segments", record_segments
    ):
        solver.compute_winning_budgets(game)
    return inputs


def plain_pass(engine: solver._Engine, old: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reference pass: every position from the full fronts of ``old``.

    Attackers minimise all pulled-back successor fronts; defenders fold
    the full pairwise sup-product, starting from the zero row.
    """
    n = engine.n
    new = {}
    for g in engine.ids:
        if engine.is_attacker[g]:
            pulled = [engine.inverses.pull(e, old[t]) for t, e in engine.moves[g]]
            rows = np.vstack([np.empty((0, n), np.int64), *pulled])
            rows = rows[solver._minimize_rows(rows)]
        else:
            rows = np.zeros((1, n), dtype=np.int64)
            for t, e in engine.moves[g]:
                pulled = engine.inverses.pull(e, old[t])
                sups = np.maximum(rows[:, None, :], pulled[None, :, :]).reshape(-1, n)
                rows = sups[solver._minimize_rows(sups)]
        new[g] = rows
    return new


def plain_jacobi(game: GameGraph, cap: int | None = None) -> list[dict[str, np.ndarray]]:
    """Row maps of the plain passes from the empty map up to the first
    repeat, raising ``IterationCapExceeded`` exactly where the solver's
    cap check does, with the row maps of the last two passes and the
    number of rows each position gained in the last one; ``cap=None``
    means no cap, as in the solver."""
    engine = solver._Engine(game)
    history = [engine.empty_map()]
    while True:
        if cap is not None and len(history) - 1 > cap:
            previous, current = history[-2], history[-1]
            gained = {
                g: len(set(map(tuple, current[g].tolist())) - set(map(tuple, previous[g].tolist())))
                for g in engine.ids
            }
            growing = {g: count for g, count in gained.items() if count}
            raise IterationCapExceeded(cap, previous, current, growing)
        history.append(plain_pass(engine, history[-1]))
        if all(np.array_equal(history[-1][g], history[-2][g]) for g in engine.ids):
            return history


History = list[dict[str, np.ndarray]]


def history(result: solver.SolverResult) -> History:
    """Front rows of every position after every pass (index 0 is the
    all-empty start), folded from the entry stamps: pass ``k`` is the
    minimum of pass ``k - 1`` and the rows stamped ``k``, and a position
    with no row stamped ``k`` keeps its array."""
    maps = [{g: rows[:0] for g, (rows, _) in result.entries.items()}]
    for k in range(1, result.iterations + 1):
        step = {}
        for g, (rows, stamps) in result.entries.items():
            lo, hi = np.searchsorted(stamps, (k, k + 1))
            prev = maps[-1][g]
            if hi > lo:
                prev = np.vstack([prev, rows[lo:hi]])
                prev = prev[solver._minimize_rows(prev)]
            step[g] = prev
        maps.append(step)
    return maps


def assert_history_matches_plain(
    game: GameGraph, result: solver.SolverResult, cap: int | None = None
) -> None:
    """The solver's front map after every pass is the plain pass's, and
    the rows stamped ``k`` are exactly ``W_k \\ W_{k-1}`` of the plain
    pass, each stamped once."""
    expected = plain_jacobi(game, cap)
    maps = history(result)
    assert result.iterations == len(expected) - 1
    assert len(maps) == len(expected)
    for k, (got, rows) in enumerate(zip(maps, expected)):
        assert got.keys() == rows.keys()
        for g in got:
            assert np.array_equal(got[g], rows[g])
            if k:
                logged, stamps = result.entries[g]
                entered = set(map(tuple, rows[g].tolist())) - set(
                    map(tuple, expected[k - 1][g].tolist())
                )
                assert sorted(map(tuple, logged[stamps == k].tolist())) == sorted(entered)


ListHistory = list[dict[str, list[list[int]]]]


def reference_birth(hist: ListHistory, g: str, e: Energy) -> int | None:
    """Reference entry pass: index of the first map of ``hist`` (the
    ``history`` rows as Python lists, so every comparison is exact) whose
    front at ``g`` has ``e`` in its upward closure."""
    for k, rows_map in enumerate(hist):
        for row in rows_map[g]:
            for a, b in zip(row, e.components):
                if a > b:
                    break
            else:
                return k
    return None


def reference_choose(game: GameGraph, hist: ListHistory, g: str, e: Energy) -> str:
    """Reference strategy move: the winning successor whose updated energy
    has the least reference entry pass, ties broken on successor id."""
    births = []
    for target, update in game.successors(g):
        nxt = update.apply(e)
        birth = None if nxt is None else reference_birth(hist, target, nxt)
        if birth is not None:
            births.append((birth, target))
    return min(births)[1]


def is_antichain(rows: np.ndarray) -> bool:
    if rows.shape[0] <= 1:
        return True
    dominates = (rows[:, None, :] <= rows[None, :, :]).all(2)
    np.fill_diagonal(dominates, False)
    return not dominates.any()


def closure_grew(prev: np.ndarray, nxt: np.ndarray) -> bool:
    """Upward closure of ``prev`` contained in the one of ``nxt``?"""
    if not prev.shape[0]:
        return True
    if not nxt.shape[0]:
        return False
    return bool((nxt[None, :, :] <= prev[:, None, :]).all(2).any(1).all())


def assert_solver_invariants(game: GameGraph, result: solver.SolverResult) -> None:
    maps = history(result)
    for rows_map in maps:
        for rows in rows_map.values():
            assert is_antichain(rows)
    for earlier, later in zip(maps, maps[1:]):
        for g in earlier:
            assert closure_grew(earlier[g], later[g])
    for g, front in result.fronts.items():
        assert [e.components for e in front] == list(map(tuple, maps[-1][g].tolist()))
    assert solver.iterate_once(game, result.fronts) == result.fronts
    for front in result.fronts.values():
        for e in front:
            assert e.is_finite


def solve_checked(game: GameGraph, **kwargs) -> solver.SolverResult:
    result = solver.compute_winning_budgets(game, **kwargs)
    assert_solver_invariants(game, result)
    return result


def bellman_ford_to_target(
    nodes: tuple[str, ...], edges: tuple[tuple[str, int, str], ...], target: str
) -> dict[str, float]:
    """Single-destination distances by plain edge relaxation.

    Nonnegative weights only; an unreachable node keeps distance inf.
    """
    dist: dict[str, float] = {v: float("inf") for v in nodes}
    dist[target] = 0.0
    for _ in range(max(len(nodes) - 1, 1)):
        changed = False
        for u, w, v in edges:
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def vass_coverable_bruteforce(vass: Vass, clip: int) -> bool:
    """Forward exploration of the vector addition system with clipping."""
    outgoing = defaultdict(list)
    for q, w, q2 in vass.transitions:
        outgoing[q].append((w, q2))
    target_state = vass.target[0]
    target_energy = tuple(int(c) for c in vass.target[1].components)
    start = (vass.initial[0], tuple(int(c) for c in vass.initial[1].components))
    seen = {start}
    queue = deque([start])
    while queue:
        state, energy = queue.popleft()
        if state == target_state and all(a >= b for a, b in zip(energy, target_energy)):
            return True
        for w, q2 in outgoing[state]:
            nxt = tuple(a + b for a, b in zip(energy, w))
            if any(c < 0 for c in nxt):
                continue
            nxt = tuple(min(c, clip) for c in nxt)
            if (q2, nxt) not in seen:
                seen.add((q2, nxt))
                queue.append((q2, nxt))
    return False


def attacker_wins_all_plays(
    game: GameGraph,
    result: solver.SolverResult,
    strategy: solver.AttackerStrategy,
    g: str,
    e: Energy,
    depth: int,
) -> bool:
    """Play the strategy against every defender choice, bounded in depth."""
    if depth < 0:
        return False
    owner = game.owner(g)
    if game.is_deadlock(g):
        return owner is Owner.DEFENDER
    if owner is Owner.ATTACKER:
        target = strategy.choose(g, e)
        update = game.update_between(g, target)
        assert update is not None
        nxt = update.apply(e)
        if nxt is None:
            return False
        return attacker_wins_all_plays(game, result, strategy, target, nxt, depth - 1)
    for target, update in game.successors(g):
        nxt = update.apply(e)
        if nxt is None:
            return False
        if not attacker_wins_all_plays(game, result, strategy, target, nxt, depth - 1):
            return False
    return True
