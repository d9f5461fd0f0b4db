import random

import pytest

from conftest import (
    bellman_ford_to_target,
    invert,
    random_game,
    solve_checked,
    vass_coverable_bruteforce,
)
from galois_energy.game import GameGraph, Owner, Position
from galois_energy.instances import (
    MultiReachabilityGame,
    Vass,
    WeightedGraph,
    add_generalized_reachability,
    add_weak_upper_bound,
    from_multi_reachability,
    from_shortest_path,
    from_vass_coverability,
    generalized_query_energy,
)
from galois_energy.lattice import INF, Energy
from galois_energy.oracle import stable_decide
from galois_energy.solver import (
    compute_winning_budgets,
    known_initial_credit,
    unknown_initial_credit,
)
from galois_energy.updates import Add, MinOf, Update


def E(*cs):
    return Energy(tuple(cs))


def delta(*zs):
    return Update.single(*(Add(z) for z in zs))


def test_shortest_path_pay_before_gain():
    graph = WeightedGraph(
        nodes=("s", "x", "t"), edges=(("s", 2, "x"), ("x", -1, "t")), source="s", target="t"
    )
    game, query = from_shortest_path(graph)
    result = solve_checked(game)
    assert result.fronts[query].elements == (E(2),)


def test_shortest_path_gain_before_pay():
    graph = WeightedGraph(
        nodes=("s", "x", "t"), edges=(("s", -1, "x"), ("x", 2, "t")), source="s", target="t"
    )
    game, query = from_shortest_path(graph)
    result = solve_checked(game)
    assert result.fronts[query].elements == (E(1),)


def test_shortest_path_source_equals_target():
    graph = WeightedGraph(nodes=("s",), edges=(), source="s", target="s")
    game, query = from_shortest_path(graph)
    assert solve_checked(game).fronts[query].elements == (E(0),)


def test_shortest_path_unreachable_target():
    graph = WeightedGraph(
        nodes=("s", "t"), edges=(("t", 1, "s"),), source="s", target="t"
    )
    game, query = from_shortest_path(graph)
    assert solve_checked(game).fronts[query].is_empty


def test_shortest_path_against_relaxation_oracle():
    rng = random.Random(61)
    for _ in range(40):
        count = rng.randint(2, 10)
        nodes = tuple(f"v{i}" for i in range(count))
        edges = []
        for _ in range(rng.randint(1, 2 * count)):
            edges.append((rng.choice(nodes), rng.randint(0, 9), rng.choice(nodes)))
        graph = WeightedGraph(
            nodes=nodes, edges=tuple(edges), source=rng.choice(nodes), target=rng.choice(nodes)
        )
        game, query = from_shortest_path(graph)
        front = solve_checked(game).fronts[query]
        distance = bellman_ford_to_target(nodes, graph.edges, graph.target)[graph.source]
        if distance == float("inf"):
            assert front.is_empty
        else:
            assert front.elements == (E(int(distance)),)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_instances_reject_non_integer_weights(bad):
    """A boolean, float or string in a weight or dimension is refused when
    the instance is built, not read as an integer later."""
    with pytest.raises(ValueError):
        WeightedGraph(nodes=("s", "t"), edges=(("s", bad, "t"),), source="s", target="t")
    with pytest.raises(ValueError):
        Vass(states=("s",), transitions=(("s", (bad,), "s"),),
             initial=("s", E(0)), target=("s", E(0)))
    positions = (Position("a", Owner.ATTACKER),)
    with pytest.raises(ValueError):
        MultiReachabilityGame(1, positions, (("a", "a", (bad,)),), frozenset({"a"}))
    with pytest.raises(ValueError):
        MultiReachabilityGame(bad, positions, (), frozenset({"a"}))


def test_vass_trivial_self_coverability():
    vass = Vass(
        states=("s",),
        transitions=(),
        initial=("s", E(0, 0)),
        target=("s", E(0, 0)),
    )
    game, state, energy = from_vass_coverability(vass)
    result = solve_checked(game)
    assert known_initial_credit(result, state, energy)


def test_vass_unreachable_target_level():
    # all transitions only drain the counters, so a target above the
    # initial energy can never be covered
    vass = Vass(
        states=("s", "t"),
        transitions=(("s", (-1, 0), "t"), ("t", (0, -1), "s")),
        initial=("s", E(2, 2)),
        target=("t", E(3, 3)),
    )
    game, state, energy = from_vass_coverability(vass)
    result = solve_checked(game)
    assert not known_initial_credit(result, state, energy)
    assert not vass_coverable_bruteforce(vass, clip=16)
    assert not stable_decide(game, state, energy).attacker_wins


def test_vass_trade_loop_coverability():
    vass = Vass(
        states=("s", "t"),
        transitions=(("s", (-1, 2), "s"), ("s", (0, 0), "t")),
        initial=("s", E(2, 0)),
        target=("t", E(0, 4)),
    )
    game, state, energy = from_vass_coverability(vass)
    result = solve_checked(game)
    solver_says = known_initial_credit(result, state, energy)
    assert solver_says == vass_coverable_bruteforce(vass, clip=32)
    assert solver_says == stable_decide(game, state, energy).attacker_wins
    assert solver_says


def test_vass_parallel_transitions_are_split():
    vass = Vass(
        states=("s", "t"),
        transitions=(("s", (-2, 0), "t"), ("s", (0, -2), "t")),
        initial=("s", E(2, 0)),
        target=("t", E(0, 0)),
    )
    game, state, energy = from_vass_coverability(vass)
    assert game.validate() == []
    assert len(game.positions) == 4  # two states, one sink, one relay
    result = solve_checked(game)
    assert known_initial_credit(result, state, energy)
    assert vass_coverable_bruteforce(vass, clip=8)


def test_vass_random_agreement_with_bruteforce():
    rng = random.Random(67)
    for _ in range(25):
        count = rng.randint(1, 4)
        states = tuple(f"q{i}" for i in range(count))
        transitions = tuple(
            (
                rng.choice(states),
                (rng.randint(-2, 2), rng.randint(-2, 2)),
                rng.choice(states),
            )
            for _ in range(rng.randint(1, 6))
        )
        vass = Vass(
            states=states,
            transitions=transitions,
            initial=(rng.choice(states), E(rng.randint(0, 2), rng.randint(0, 2))),
            target=(rng.choice(states), E(rng.randint(0, 2), rng.randint(0, 2))),
        )
        game, state, energy = from_vass_coverability(vass)
        result = solve_checked(game)
        assert known_initial_credit(result, state, energy) == vass_coverable_bruteforce(
            vass, clip=64
        )


def test_transforms_share_one_update_per_distinct_weight():
    """Edges with equal weights carry one ``Update`` object, so the solver
    compiles one undo plan for them.  The identity edges of a
    multi-reachability game share the zero weight's update, and the VASS
    sink edge shares the update of a transition with the same vector."""
    rng = random.Random(5)
    ids = [f"p{i}" for i in range(10)]
    positions = tuple(Position(g, rng.choice(list(Owner))) for g in ids)
    weights = [
        (s, t, (rng.randint(0, 1), rng.randint(0, 2))) for s in ids for t in rng.sample(ids, 3)
    ]
    m = MultiReachabilityGame(2, positions, tuple(weights), frozenset(ids[:3]))
    game = from_multi_reachability(m)
    owner = {p.id: p.owner for p in positions}
    kept = {w for s, _, w in weights if not (s in m.targets and owner[s] is Owner.DEFENDER)}
    given = {(s, t) for s, t, _ in weights}
    if any((e.source, e.target) not in given for e in game.edges):
        kept.add((0, 0))
    assert len({id(e.update) for e in game.edges}) == len({e.update for e in game.edges})
    assert len({e.update for e in game.edges}) == len(kept)

    transitions = tuple((s, tuple(-c for c in w), t) for s, t, w in weights)
    vass = Vass(tuple(ids), transitions, ("p0", E(0, 0)), ("p1", E(1, 2)))
    game, _, _ = from_vass_coverability(vass)
    vectors = {w for _, w, _ in transitions}
    assert (-1, -2) in vectors
    assert len({id(e.update) for e in game.edges}) == len(vectors)


def test_vass_with_list_weights_shares_one_update_per_vector():
    """Transition weights given as lists share one ``Update`` per distinct
    vector too, the sink edge included."""
    transitions = (
        ("a", [-1, 2], "b"), ("b", [-1, 2], "a"), ("a", [0, -3], "a"), ("b", [0, 0], "c"),
        ("c", [-1, 2], "c"),
    )
    vass = Vass(("a", "b", "c"), transitions, ("a", E(1, 0)), ("c", E(0, 3)))
    game, _, _ = from_vass_coverability(vass)
    by_vector = {}
    for e in game.edges:
        (atom,) = e.update.steps
        by_vector.setdefault(tuple(s.z for s in atom.specs), set()).add(id(e.update))
    assert by_vector.keys() == {(-1, 2), (0, -3), (0, 0)}
    assert all(len(objects) == 1 for objects in by_vector.values())


def test_multi_reachability_all_targets_trivial():
    m = MultiReachabilityGame(
        dimension=1,
        positions=(Position("a", Owner.ATTACKER), Position("d", Owner.DEFENDER)),
        edges=(("a", "d", (0,)), ("d", "a", (0,))),
        targets=frozenset({"a", "d"}),
    )
    game = from_multi_reachability(m)
    result = solve_checked(game)
    for g in ("a", "d"):
        assert result.fronts[g].elements == (E(0),)


def test_multi_reachability_nontarget_deadlock_loops():
    m = MultiReachabilityGame(
        dimension=1,
        positions=(Position("a", Owner.ATTACKER), Position("dead", Owner.DEFENDER)),
        edges=(("a", "dead", (1,)),),
        targets=frozenset(),
    )
    game = from_multi_reachability(m)
    assert game.update_between("dead", "dead") is not None
    result = solve_checked(game)
    assert result.fronts["dead"].is_empty
    assert result.fronts["a"].is_empty


def test_multi_reachability_two_position_chain():
    m = MultiReachabilityGame(
        dimension=1,
        positions=(Position("start", Owner.ATTACKER), Position("goal", Owner.ATTACKER)),
        edges=(("start", "goal", (3,)),),
        targets=frozenset({"goal"}),
    )
    game = from_multi_reachability(m)
    result = solve_checked(game)
    assert result.fronts["start"].elements == (E(3),)
    assert stable_decide(game, "start", E(3)).attacker_wins
    assert not stable_decide(game, "start", E(2)).attacker_wins


def test_multi_reachability_defender_target_is_terminal():
    m = MultiReachabilityGame(
        dimension=2,
        positions=(
            Position("a", Owner.ATTACKER),
            Position("f", Owner.DEFENDER),
            Position("x", Owner.ATTACKER),
        ),
        edges=(("a", "f", (1, 0)), ("f", "x", (0, 0))),
        targets=frozenset({"f"}),
    )
    game = from_multi_reachability(m)
    assert game.is_deadlock("f")
    result = solve_checked(game)
    assert result.fronts["a"].elements == (E(1, 0),)


def brewing_game():
    # espresso-style brewing without the built-in cap: components are
    # (cups, shots, energization), cups are never touched by any edge
    return GameGraph.build(
        3,
        [("office", Owner.ATTACKER), ("maker", Owner.ATTACKER), ("done", Owner.DEFENDER)],
        [
            ("office", "maker", delta(0, 0, 0)),
            ("maker", "maker", delta(0, 1, 0)),
            ("maker", "office", delta(0, 0, 0)),
            ("office", "office", delta(0, -1, 1)),
            ("office", "done", delta(0, 0, -3)),
        ],
    )


def test_weak_bound_caps_shots_by_cups():
    # without the bound, shots can be brewed from nothing; capping them by
    # the cup count makes at least one cup necessary
    game = brewing_game()
    unbounded = solve_checked(game)
    assert known_initial_credit(unbounded, "office", E(0, 0, 0))
    bounded = add_weak_upper_bound(game, {(1, 0)})
    assert bounded.validate() == []
    for edge in bounded.edges:
        assert edge.update.steps[-1].specs[1] == MinOf((0, 1))
    result = solve_checked(bounded)
    assert not known_initial_credit(result, "office", E(0, 0, 0))
    assert known_initial_credit(result, "office", E(1, 0, 0))
    assert known_initial_credit(result, "office", E(0, 0, 3))


def test_weak_bound_rejects_written_bound_dimension(espresso):
    # energization is written by the serving loop, so it cannot act as a bound
    with pytest.raises(ValueError):
        add_weak_upper_bound(espresso, {(0, 3)})
    with pytest.raises(ValueError):
        add_weak_upper_bound(espresso, {(1, 1)})
    with pytest.raises(ValueError):
        add_weak_upper_bound(espresso, {(0, 9)})


def test_weak_bound_infinite_bound_is_noop():
    game = GameGraph.build(
        2,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "d", delta(-3, 0))],
    )
    bounded = add_weak_upper_bound(game, {(0, 1)})
    result = solve_checked(bounded)
    assert known_initial_credit(result, "a", E(3, INF))
    assert not known_initial_credit(result, "a", E(2, INF))


def _freeze_dimension(game: GameGraph, dim: int) -> GameGraph:
    """Replace every write to ``dim`` with a no-op, making it a constant."""
    from galois_energy.updates import UpdateAtom

    edges = []
    for e in game.edges:
        steps = tuple(
            UpdateAtom(
                tuple(Add(0) if i == dim else spec for i, spec in enumerate(atom.specs))
            )
            for atom in e.update.steps
        )
        edges.append((e.source, e.target, Update(steps)))
    return GameGraph.build(game.dimension, [(p.id, p.owner) for p in game.positions], edges)


def test_weak_bound_win_implies_unclamped_win():
    rng = random.Random(71)
    games = 0
    while games < 15:
        raw = random_game(rng, max_positions=5, max_dim=2)
        if raw.dimension != 2:
            continue
        games += 1
        game = _freeze_dimension(raw, 1)
        bounded = add_weak_upper_bound(game, {(0, 1)})
        for g in game.position_ids:
            for _ in range(8):
                e = Energy((rng.randint(0, 3), rng.randint(0, 3)))
                if stable_decide(bounded, g, e).attacker_wins:
                    assert stable_decide(game, g, e).attacker_wins


def chain_game():
    # start -(1)-> mid -(1)-> final, all attacker, one defender deadlock
    return GameGraph.build(
        1,
        [
            ("start", Owner.ATTACKER),
            ("mid", Owner.ATTACKER),
            ("final", Owner.DEFENDER),
        ],
        [("start", "mid", delta(-1)), ("mid", "final", delta(-1))],
    )


def test_generalized_reachability_no_sets_kills_all_wins():
    game = chain_game()
    assert unknown_initial_credit(solve_checked(game), "start")
    extended = add_generalized_reachability(game, [])
    assert extended.dimension == 2
    result = solve_checked(extended)
    for g in game.position_ids:
        assert result.fronts[g].is_empty


def test_generalized_reachability_single_set_on_path():
    game = chain_game()
    extended = add_generalized_reachability(game, [{"mid"}])
    assert extended.dimension == 3
    result = solve_checked(extended)
    plain = solve_checked(game)
    # reaching the flagged position is now the whole objective, and it
    # costs exactly what plain reachability of that position costs
    query = generalized_query_energy(E(1), 1)
    assert known_initial_credit(result, "start", query)
    assert not known_initial_credit(result, "start", generalized_query_energy(E(0), 1))
    assert plain.fronts["start"].elements == (E(2),)
    restricted = [
        e.components[0]
        for e in result.fronts["start"]
        if e.components[1] == 0 and e.components[2] == 1
    ]
    assert restricted == [1]
    for g in extended.position_ids:
        for e in result.fronts[g]:
            assert stable_decide(extended, g, e).attacker_wins


def test_generalized_reachability_diamond_needs_both_branches():
    game = GameGraph.build(
        1,
        [
            ("s", Owner.ATTACKER),
            ("left", Owner.ATTACKER),
            ("right", Owner.ATTACKER),
            ("m", Owner.ATTACKER),
        ],
        [
            ("s", "left", delta(-1)),
            ("s", "right", delta(-2)),
            ("left", "m", delta(0)),
            ("right", "m", delta(0)),
            ("m", "s", delta(0)),
        ],
    )
    extended = add_generalized_reachability(game, [{"left"}, {"right"}])
    assert extended.dimension == 4
    result = solve_checked(extended)
    # visiting one branch costs its edge, visiting both costs 1 + 2
    assert known_initial_credit(result, "s", generalized_query_energy(E(3), 2))
    assert not known_initial_credit(result, "s", generalized_query_energy(E(2), 2))
    single = add_generalized_reachability(game, [{"left"}])
    single_result = solve_checked(single)
    assert known_initial_credit(single_result, "s", generalized_query_energy(E(1), 1))
    for g in ("s", "left", "right"):
        for e in result.fronts[g]:
            assert stable_decide(extended, g, e).attacker_wins


def test_generalized_reachability_unreachable_target_loses():
    game = GameGraph.build(
        1,
        [
            ("s", Owner.ATTACKER),
            ("final", Owner.DEFENDER),
            ("island", Owner.ATTACKER),
        ],
        [("s", "final", delta(-1)), ("island", "final", delta(0))],
    )
    extended = add_generalized_reachability(game, [{"island"}])
    result = solve_checked(extended)
    assert result.fronts["s"].is_empty


def _produced_games():
    graph = WeightedGraph(
        nodes=("a", "b", "c"),
        edges=(("a", 3, "b"), ("b", 1, "c"), ("a", 5, "c")),
        source="a",
        target="c",
    )
    yield from_shortest_path(graph)[0]
    vass = Vass(
        states=("s", "t"),
        transitions=(("s", (-1, 2), "s"), ("s", (0, 0), "t")),
        initial=("s", E(2, 0)),
        target=("t", E(0, 4)),
    )
    yield from_vass_coverability(vass)[0]
    m = MultiReachabilityGame(
        dimension=1,
        positions=(Position("start", Owner.ATTACKER), Position("goal", Owner.ATTACKER)),
        edges=(("start", "goal", (3,)),),
        targets=frozenset({"goal"}),
    )
    yield from_multi_reachability(m)
    yield add_weak_upper_bound(brewing_game(), {(1, 0)})
    yield add_generalized_reachability(chain_game(), [{"mid"}, {"final"}])


def test_reductions_produce_valid_monotone_galois_games():
    import itertools

    from galois_energy.lattice import leq

    for game in _produced_games():
        assert game.validate() == []
        n = game.dimension
        grid = [Energy(t) for t in itertools.product(range(3), repeat=n)]
        for edge in game.edges:
            update = edge.update
            images = {e: update.apply(e) for e in grid}
            for e in grid:
                if images[e] is None:
                    continue
                for ep in grid:
                    if leq(e, ep):
                        assert images[ep] is not None
                        assert leq(images[e], images[ep])
                    assert leq(ep, images[e]) == leq(invert(update, ep), e)
                assert update.apply(invert(update, e)) is not None
