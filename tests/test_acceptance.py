"""Acceptance suite.

One test per criterion; each prints a single PASS line on success (run
with ``pytest tests/test_acceptance.py -s`` to see them) and carries its
tolerance inline.  All random batches are seeded and deterministic.
"""

import itertools
import random
import time

import numpy as np

from conftest import (
    EXPECTED_CUPS_TIME,
    assert_solver_invariants,
    bellman_ford_to_target,
    closure_grew,
    cups_time_projection,
    history,
    invert,
    is_antichain,
    random_game,
    solve_checked,
)
from galois_energy.instances import Vass, WeightedGraph, from_shortest_path, from_vass_coverability
from galois_energy.lattice import INF, Energy, ParetoFront
from galois_energy.oracle import stable_decide, stable_decide_many
from galois_energy.solver import compute_winning_budgets, iterate_once, known_initial_credit
from galois_energy.updates import Add, MinOf, Mul, Update, UpdateAtom


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_1_espresso_pareto_front(espresso):
    # the bound times the solve alone; the invariant checks run after it
    start = time.perf_counter()
    result = compute_winning_budgets(espresso)
    elapsed = time.perf_counter() - start
    assert_solver_invariants(espresso, result)
    projection = cups_time_projection(result.fronts["Office"])
    assert projection == EXPECTED_CUPS_TIME
    assert elapsed < 1.0
    report(1, f"cups/time front exact, solved in {elapsed:.2f}s")


def test_criterion_2_iteration_trace(espresso):
    def fronts(*energies):
        return ParetoFront(tuple(Energy(t) for t in energies))

    empty = {g: ParetoFront.empty() for g in espresso.position_ids}
    it1 = iterate_once(espresso, empty)
    assert it1["Energized"] == fronts((0, 0, 0, 0))
    assert it1["Office"] == fronts()
    assert it1["CoffeeMaker"] == fronts()
    it2 = iterate_once(espresso, it1)
    assert it2["Energized"] == fronts((0, 0, 0, 0))
    assert it2["Office"] == fronts((0, 0, 0, 10))
    assert it2["CoffeeMaker"] == fronts()
    it3 = iterate_once(espresso, it2)
    assert it3["Energized"] == fronts((0, 0, 0, 0))
    assert it3["Office"] == fronts((0, 0, 0, 10), (0, 0, 1, 9))
    assert it3["CoffeeMaker"] == fronts((0, 2, 0, 10))
    report(2, "first three passes match the expected trace exactly")


def test_criterion_3_shortest_paths():
    start = time.perf_counter()
    pay_first = WeightedGraph(
        nodes=("s", "x", "t"), edges=(("s", 2, "x"), ("x", -1, "t")), source="s", target="t"
    )
    game, query = from_shortest_path(pay_first)
    assert solve_checked(game).fronts[query].elements == (Energy((2,)),)
    gain_first = WeightedGraph(
        nodes=("s", "x", "t"), edges=(("s", -1, "x"), ("x", 2, "t")), source="s", target="t"
    )
    game, query = from_shortest_path(gain_first)
    assert solve_checked(game).fronts[query].elements == (Energy((1,)),)

    rng = random.Random(2024_03)
    for _ in range(200):
        count = rng.randint(2, 15)
        nodes = tuple(f"v{i}" for i in range(count))
        edges = tuple(
            (rng.choice(nodes), rng.randint(0, 9), rng.choice(nodes))
            for _ in range(rng.randint(1, 3 * count))
        )
        graph = WeightedGraph(
            nodes=nodes, edges=edges, source=rng.choice(nodes), target=rng.choice(nodes)
        )
        game, query = from_shortest_path(graph)
        front = compute_winning_budgets(game).fronts[query]
        distance = bellman_ford_to_target(nodes, edges, graph.target)[graph.source]
        if distance == float("inf"):
            assert front.is_empty
        else:
            assert front.elements == (Energy((int(distance),)),)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"two mixed-sign graphs exact, 200 random graphs match relaxation in {elapsed:.1f}s")


def test_criterion_4_oracle_differential_suite():
    start = time.perf_counter()
    rng = random.Random(2024_04)
    games = 0
    samples = 0
    for _ in range(100):
        game = random_game(rng, max_positions=8, max_dim=3, max_abs=2, max_steps=2)
        games += 1
        result = solve_checked(game)
        queries = [
            (g, Energy(tuple(rng.randint(0, 4) for _ in range(game.dimension))))
            for g in game.position_ids
            for _ in range(20)
        ]
        samples += len(queries)
        for (g, e), verdict in zip(queries, stable_decide_many(game, queries)):
            claimed = known_initial_credit(result, g, e)
            actual = verdict.attacker_wins
            assert claimed == actual, (g, e.render(), claimed, actual)
    elapsed = time.perf_counter() - start
    assert games == 100 and samples >= 100 * 2 * 20
    assert elapsed < 60.0
    report(4, f"{samples} membership queries agree with the oracle in {elapsed:.1f}s")


def _random_atom_or_composite(rng: random.Random, n: int) -> Update:
    steps = []
    for _ in range(rng.randint(1, 2)):
        specs = []
        for i in range(n):
            roll = rng.random()
            if roll < 0.55:
                specs.append(Add(rng.randint(-3, 3)))
            elif roll < 0.85:
                specs.append(MinOf(tuple(rng.sample(range(n), rng.randint(1, n)))))
            else:
                specs.append(Mul(rng.randint(1, 3)))
        steps.append(UpdateAtom(tuple(specs)))
    return Update(tuple(steps))


def test_criterion_5_galois_law_suite():
    rng = random.Random(2024_05)
    values = (0, 1, 2, 3, 4, INF)
    checked_minima = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        update = _random_atom_or_composite(rng, n)
        grid = list(itertools.product(values, repeat=n))
        index = {t: i for i, t in enumerate(grid)}
        points = np.array(grid, dtype=float)
        images = [update.apply(Energy(t)) for t in grid]
        defined = np.array([img is not None for img in images])
        image_rows = np.array(
            [img.components if img is not None else (0.0,) * n for img in images], dtype=float
        )
        inverse_rows = np.array([invert(update, Energy(t)).components for t in grid], dtype=float)
        # forward side: e' <= u(e); backward side: invert(e') <= e
        forward = (points[None, :, :] <= image_rows[:, None, :]).all(2)
        backward = (inverse_rows[None, :, :] <= points[:, None, :]).all(2)
        violations = (forward != backward) & defined[:, None]
        assert not violations.any()
        # wherever the undo lands on the grid it is the least grid point
        # whose image dominates the query
        for j, t in enumerate(grid):
            m = tuple(inverse_rows[j])
            key = tuple(INF if c == INF else int(c) for c in m)
            if key not in index:
                continue
            checked_minima += 1
            candidates = defined & forward[:, j]
            assert candidates[index[key]]
            assert (m <= points[candidates]).all()
    assert checked_minima > 0
    report(5, f"500 updates satisfy the adjunction on the grid; {checked_minima} minima verified")


def test_criterion_6_declining_iteration_bound():
    rng = random.Random(2024_06)
    worst = -(10**9)
    for _ in range(100):
        game = random_game(rng, max_positions=8, max_dim=3, max_abs=2, max_steps=2, declining=True)
        for edge in game.edges:
            for atom in edge.update.steps:
                for i, spec in enumerate(atom.specs):
                    if isinstance(spec, Add):
                        assert spec.z <= 0
                    elif isinstance(spec, MinOf):
                        assert i in spec.indices
        result = solve_checked(game)
        margin = result.iterations - (len(game.positions) + 2)
        worst = max(worst, margin)
        assert margin <= 0
    report(6, f"100 declining games stay within the pass bound (worst margin {worst})")


def test_criterion_7_monotone_and_antichain_invariants(espresso):
    # criteria 1-6 already solve through the checked wrapper; this
    # criterion re-verifies the invariants explicitly on a mixed batch
    rng = random.Random(2024_07)
    solves = 0
    for game in [espresso] + [random_game(rng) for _ in range(30)] + [
        random_game(rng, declining=True) for _ in range(10)
    ]:
        result = compute_winning_budgets(game)
        maps = history(result)
        for rows_map in maps:
            for rows in rows_map.values():
                assert is_antichain(rows)
        for earlier, later in zip(maps, maps[1:]):
            for g in earlier:
                assert closure_grew(earlier[g], later[g])
        assert iterate_once(game, result.fronts) == result.fronts
        solves += 1
    report(7, f"antichain and growth invariants hold on {solves} solves")


def test_criterion_8_vass_coverability():
    start = time.perf_counter()
    rng = random.Random(2024_08)
    agreements = 0
    for _ in range(50):
        count = rng.randint(1, 6)
        states = tuple(f"q{i}" for i in range(count))
        transitions = tuple(
            (
                rng.choice(states),
                (rng.randint(-2, 2), rng.randint(-2, 2)),
                rng.choice(states),
            )
            for _ in range(rng.randint(1, 2 * count))
        )
        vass = Vass(
            states=states,
            transitions=transitions,
            initial=(rng.choice(states), Energy((rng.randint(0, 2), rng.randint(0, 2)))),
            target=(rng.choice(states), Energy((rng.randint(0, 2), rng.randint(0, 2)))),
        )
        game, state, energy = from_vass_coverability(vass)
        result = solve_checked(game)
        assert known_initial_credit(result, state, energy) == stable_decide(
            game, state, energy
        ).attacker_wins
        agreements += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"{agreements} coverability reductions agree with the oracle in {elapsed:.1f}s")
