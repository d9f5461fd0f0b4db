"""Shared fixtures: the espresso game, random game generators, the plain
pass and the history-scanning strategy as references for the solver, and
the independent check helpers used across the suite."""

from __future__ import annotations

import random
from collections import defaultdict, deque

import numpy as np
import pytest

from galois_energy import fileio, solver
from galois_energy.errors import IterationCapExceeded
from galois_energy.game import GameGraph, Owner
from galois_energy.instances import Vass
from galois_energy.lattice import Energy, ParetoFront, member_upward
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


def plain_pass(engine: solver._Engine, old: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reference pass: every position from the full fronts of ``old``.

    Attackers minimise all pulled-back successor fronts; defenders fold
    the full pairwise sup-product, starting from the zero row.
    """
    n = engine.n
    new = {}
    for g in engine.ids:
        if engine.is_attacker[g]:
            pulled = [solver._invert_rows(plan, old[t]) for t, plan in engine.moves[g]]
            rows = solver._minimize_rows(np.vstack([np.empty((0, n), np.int64), *pulled]))
        else:
            rows = np.zeros((1, n), dtype=np.int64)
            for t, plan in engine.moves[g]:
                pulled = solver._invert_rows(plan, old[t])
                rows = solver._minimize_rows(
                    np.maximum(rows[:, None, :], pulled[None, :, :]).reshape(-1, n)
                )
        new[g] = rows
    return new


def plain_jacobi(game: GameGraph, cap: int | None = None) -> list[dict[str, np.ndarray]]:
    """Row maps of the plain passes from the empty map up to the first
    repeat, raising ``IterationCapExceeded`` exactly where the solver's
    cap check does."""
    engine = solver._Engine(game)
    cap = solver.default_iteration_cap(game) if cap is None else cap
    history = [engine.empty_map()]
    while True:
        if len(history) - 1 > cap:
            raise IterationCapExceeded(cap, history[-2] if len(history) > 1 else {}, history[-1])
        history.append(plain_pass(engine, history[-1]))
        if all(np.array_equal(history[-1][g], history[-2][g]) for g in engine.ids):
            return history


def assert_history_matches_plain(
    game: GameGraph, result: solver.SolverResult, cap: int | None = None
) -> None:
    """The solver's front map after every pass is the plain pass's."""
    expected = plain_jacobi(game, cap)
    assert result.iterations == len(expected) - 1
    assert len(result.history) == len(expected)
    for fronts, rows in zip(result.history, expected):
        assert fronts.keys() == rows.keys()
        for g, front in fronts.items():
            assert [e.components for e in front] == list(map(tuple, rows[g].tolist()))


def reference_birth(result: solver.SolverResult, g: str, e: Energy) -> int | None:
    """Reference entry pass: index of the first history map whose front
    at ``g`` has ``e`` in its upward closure."""
    for k, front_map in enumerate(result.history):
        for m in front_map[g]:
            for a, b in zip(m.components, e.components):
                if a > b:
                    break
            else:
                return k
    return None


def reference_choose(game: GameGraph, result: solver.SolverResult, g: str, e: Energy) -> str:
    """Reference strategy move: the winning successor whose updated energy
    has the least reference entry pass, ties broken on successor id."""
    births = []
    for target, update in game.successors(g):
        nxt = update.apply(e)
        birth = None if nxt is None else reference_birth(result, target, nxt)
        if birth is not None:
            births.append((birth, target))
    return min(births)[1]


def _rows(front: ParetoFront) -> np.ndarray:
    return np.array([e.components for e in front], dtype=float)


def is_antichain(front: ParetoFront) -> bool:
    if len(front) <= 1:
        return True
    rows = _rows(front)
    dominates = (rows[:, None, :] <= rows[None, :, :]).all(2)
    np.fill_diagonal(dominates, False)
    return not dominates.any()


def closure_grew(prev: ParetoFront, nxt: ParetoFront) -> bool:
    """Upward closure of ``prev`` contained in the one of ``nxt``?"""
    if prev.is_empty:
        return True
    if nxt.is_empty:
        return False
    p, n = _rows(prev), _rows(nxt)
    return bool((n[None, :, :] <= p[:, None, :]).all(2).any(1).all())


def assert_solver_invariants(game: GameGraph, result: solver.SolverResult) -> None:
    for front_map in result.history:
        for front in front_map.values():
            assert is_antichain(front)
    for earlier, later in zip(result.history, result.history[1:]):
        for g in earlier:
            assert closure_grew(earlier[g], later[g])
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
