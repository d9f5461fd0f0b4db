import copy
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ReferenceArena, random_game, reference_hopeful
from galois_energy import oracle
from galois_energy.errors import OracleCapacityError
from galois_energy.game import GameGraph, Owner, Verdict
from galois_energy.lattice import INF, Energy
from galois_energy.oracle import (
    attractor_decide,
    stable_decide,
    stable_decide_many,
    starting_bound,
)
from galois_energy.solver import compute_winning_budgets, known_initial_credit
from galois_energy.updates import Add, MinOf, Mul, Update, UpdateAtom


def E(*cs):
    return Energy(tuple(cs))


def delta(*zs):
    return Update.single(*(Add(z) for z in zs))


def test_hopeful_positions_are_those_reaching_a_defender_deadlock():
    """The arena's mask of positions with a path to a defender deadlock is
    the set search's, on seeded games with self-loops and with positions
    that reach no deadlock (a defender and an attacker looping among
    themselves, entered from the game)."""
    rng = random.Random(13)
    seen = Counter()
    for _ in range(80):
        base = random_game(rng)
        ident = Update.identity(base.dimension)
        positions = [(p.id, p.owner) for p in base.positions]
        positions += [("loop", Owner.DEFENDER), ("spin", Owner.ATTACKER)]
        edges = [(e.source, e.target, e.update) for e in base.edges]
        edges += [("loop", "loop", ident), ("spin", "spin", ident), ("spin", "loop", ident)]
        edges += [(g, "spin", ident) for g in rng.sample(base.position_ids, 1)]
        game = GameGraph.build(base.dimension, positions, edges)
        hopeful = oracle._Arena(game, 4, oracle.DEFAULT_CONFIG_BUDGET).hopeful
        assert hopeful.dtype == bool
        assert hopeful.tolist() == reference_hopeful(game)
        seen.update(hopeful.tolist())
        seen["self-loop"] += any(e.source == e.target for e in base.edges)
    assert seen[True] and seen[False] > 160 and seen["self-loop"]


def test_espresso_energization_budget(espresso):
    assert attractor_decide(espresso, "Office", E(0, 0, 0, 10), 32) is Verdict.ATTACKER
    assert attractor_decide(espresso, "Office", E(0, 0, 0, 9), 32) is Verdict.DEFENDER


def test_no_defender_deadlock_means_defender_wins():
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "d", delta(0)), ("d", "a", delta(0))],
    )
    for g in game.position_ids:
        assert attractor_decide(game, g, E(3), 16) is Verdict.DEFENDER
        assert stable_decide(game, g, E(3)).winner is Verdict.DEFENDER


def test_pump_loop_needs_large_bound():
    game = GameGraph.build(
        1,
        [("s", Owner.ATTACKER), ("end", Owner.DEFENDER)],
        [("s", "s", delta(5)), ("s", "end", delta(-8))],
    )
    assert attractor_decide(game, "s", E(0), 4) is Verdict.DEFENDER
    assert attractor_decide(game, "s", E(0), 8) is Verdict.ATTACKER
    verdict = stable_decide(game, "s", E(0))
    assert verdict.winner is Verdict.ATTACKER
    assert verdict.bound >= 8


def test_zero_update_defender_deadlock_any_bound():
    game = GameGraph.build(1, [("d", Owner.DEFENDER)], [])
    for bound in (0, 1, 32):
        assert attractor_decide(game, "d", E(0), bound) is Verdict.ATTACKER
    assert stable_decide(game, "d", E(0)).winner is Verdict.ATTACKER


def test_monotone_in_bound():
    rng = random.Random(41)
    for _ in range(30):
        game = random_game(rng, max_positions=5)
        e = Energy(tuple(rng.randint(0, 3) for _ in range(game.dimension)))
        for g in game.position_ids:
            small = attractor_decide(game, g, e, 6)
            large = attractor_decide(game, g, e, 12)
            if small is Verdict.ATTACKER:
                assert large is Verdict.ATTACKER


def test_monotone_in_energy():
    rng = random.Random(43)
    for _ in range(30):
        game = random_game(rng, max_positions=5)
        n = game.dimension
        low = Energy(tuple(rng.randint(0, 2) for _ in range(n)))
        high = Energy(tuple(c + rng.randint(0, 2) for c in low.components))
        for g in game.position_ids:
            if stable_decide(game, g, low).attacker_wins:
                assert stable_decide(game, g, high).attacker_wins


def test_agreement_with_solver_on_random_games():
    rng = random.Random(47)
    for _ in range(20):
        game = random_game(rng, max_positions=6)
        result = compute_winning_budgets(game)
        queries = [
            (g, Energy(tuple(rng.randint(0, 4) for _ in range(game.dimension))))
            for g in game.position_ids
            for _ in range(10)
        ]
        for (g, e), verdict in zip(queries, stable_decide_many(game, queries)):
            assert known_initial_credit(result, g, e) == verdict.attacker_wins


def test_agreement_on_multiplicative_updates():
    from galois_energy.updates import Mul, UpdateAtom

    doubler = Update((UpdateAtom((Mul(2),)),))
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("b", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "b", doubler), ("b", "d", delta(-4))],
    )
    result = compute_winning_budgets(game)
    assert result.fronts["a"].elements == (E(2),)
    for value in range(5):
        assert known_initial_credit(result, "a", E(value)) == stable_decide(
            game, "a", E(value)
        ).attacker_wins


def test_rejects_infinite_or_oversized_energy(espresso):
    with pytest.raises(ValueError):
        attractor_decide(espresso, "Office", E(INF, 0, 0, 0), 8)
    with pytest.raises(ValueError):
        attractor_decide(espresso, "Office", E(9, 0, 0, 0), 8)
    with pytest.raises(KeyError):
        stable_decide(espresso, "Lounge", E(0, 0, 0, 0))


def test_starting_bound_covers_query(espresso):
    e = E(40, 41, 0, 0)
    assert starting_bound(espresso, e) >= 41


def test_starting_bound_zero_updates():
    game = GameGraph.build(
        2,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "d", delta(0, 0))],
    )
    assert starting_bound(game, E(0, 0)) == 0


def test_starting_bound_espresso(espresso):
    # estimate 10 * (5 - 1), headroom 10 * 5
    assert starting_bound(espresso, E(0, 0, 0, 0)) == 90


def test_starting_bound_pure_min_game():
    u = Update((UpdateAtom((MinOf((0, 1)), Add(0))),))
    game = GameGraph.build(
        2,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "d", u)],
    )
    assert starting_bound(game, E(0, 0)) == 0


def test_starting_bound_mul_scales():
    u = Update((UpdateAtom((Mul(3),)),))
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("b", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "b", u), ("b", "d", delta(-2))],
    )
    # estimate 2 * (3 - 1) * 3^(3 - 1), headroom 2 * 3
    assert starting_bound(game, E(0)) == 36 + 6


def test_config_budget_enforced():
    game = GameGraph.build(
        2,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "a", delta(1, 1)), ("a", "d", delta(-30, -30))],
    )
    with pytest.raises(OracleCapacityError):
        attractor_decide(game, "a", E(0, 0), 40, config_budget=30)
    with pytest.raises(OracleCapacityError):
        attractor_decide(game, "a", E(0, 0), 40, config_budget=30)


def _explorations(monkeypatch):
    """Record every exploration as its clip bound and the configuration
    index it numbers, which the list keeps after the call."""
    seen = []
    explore = oracle._Arena._explore

    def recorded(arena, *args):
        seen.append((arena.bound, args[0]))
        return explore(arena, *args)

    monkeypatch.setattr(oracle._Arena, "_explore", recorded)
    return seen


def _decide(arena, *queries):
    """``decide_rows`` on ``(position id, energy)`` queries."""
    rows = np.array([(arena.pos_index[g], *e.components) for g, e in queries], dtype=np.int64)
    return arena.decide_rows(rows)[0].tolist()


def _state(arena):
    """A deep copy of the arena's attributes, arrays as lists."""
    return copy.deepcopy(
        {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(arena).items()}
    )


def test_arena_keeps_nothing_between_calls(espresso, monkeypatch):
    explored = _explorations(monkeypatch)
    arena = oracle._arena_for(espresso, 8, oracle.DEFAULT_CONFIG_BUDGET)
    queries = [
        ("Office", E(0, 0, 0, 8)), ("Office", E(0, 0, 0, 7)), ("CoffeeMaker", E(3, 1, 0, 2))
    ]
    before = _state(arena)
    first = _decide(arena, *queries)
    second = _decide(arena, *queries)
    assert first == second
    assert len(explored) == 2
    assert len(explored[0][1]) == len(explored[1][1]) > len(queries)
    assert _state(arena) == before


def _pay_three_game():
    return GameGraph.build(
        1, [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)], [("a", "d", delta(-3))]
    )


def test_a_region_below_every_start_is_decided_by_one_exploration(monkeypatch):
    # estimate 3, headroom 6: a(0) starts at 9 and a(8) at 14; a(0) has no
    # defined move and a(8) wins on the spot, so the region {a(0), a(8)}
    # stays below 9 at every bound, and 14 decides both
    game = _pay_three_game()
    assert [starting_bound(game, E(v)) for v in (0, 8)] == [9, 14]
    explored = _explorations(monkeypatch)
    assert stable_decide_many(game, [("a", E(0)), ("a", E(8))]) == [
        oracle.OracleVerdict(Verdict.DEFENDER, 18),
        oracle.OracleVerdict(Verdict.ATTACKER, 14),
    ]
    assert [bound for bound, _ in explored] == [14]
    # a(12), starting at 18, is itself past 9: that batch runs the rule,
    # which reuses the first exploration's answers at 18
    explored.clear()
    assert stable_decide_many(game, [("a", E(0)), ("a", E(12))]) == [
        oracle.OracleVerdict(Verdict.DEFENDER, 18),
        oracle.OracleVerdict(Verdict.ATTACKER, 18),
    ]
    assert [bound for bound, _ in explored] == [18, 9]


def _climbing_game():
    """An attacker that climbs its first component up to the clip bound
    and wins by paying 3 of its second."""
    return GameGraph.build(
        2,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "a", delta(1, 0)), ("a", "d", delta(0, -3))],
    )


def test_confirming_and_starting_queries_share_one_exploration(monkeypatch):
    # estimate 3, headroom 6: a(0, 0) starts at 9 and confirms at 18, where
    # a(0, 12) starts; a(0, 0) climbs to each bound, so 18 cannot decide it alone
    game = _climbing_game()
    assert [starting_bound(game, E(0, v)) for v in (0, 12)] == [9, 18]
    explored = _explorations(monkeypatch)
    verdicts = stable_decide_many(game, [("a", E(0, 0)), ("a", E(0, 12))])
    assert verdicts == [
        oracle.OracleVerdict(Verdict.DEFENDER, 18),
        oracle.OracleVerdict(Verdict.ATTACKER, 18),
    ]
    assert [bound for bound, _ in explored] == [18, 9]
    assert _stored(oracle._arena_for(game, 18, oracle.DEFAULT_CONFIG_BUDGET), explored[0][1]) == {
        *(("a", (k, 0)) for k in range(19)), ("a", (0, 12))
    }


def test_widely_spread_starts_run_the_doubling_loop(monkeypatch):
    # a(0, 100000) starts at 100006, past twice a(0, 0)'s 9: exploring the
    # batch at 100006 would let a(0, 0) climb through 100,007 configurations
    game = _climbing_game()
    queries = [("a", E(0, 0)), ("a", E(0, 100000))]
    assert [starting_bound(game, e) for _, e in queries] == [9, 100006]
    explored = _explorations(monkeypatch)
    assert stable_decide_many(game, queries) == [
        oracle.OracleVerdict(Verdict.DEFENDER, 18),
        oracle.OracleVerdict(Verdict.ATTACKER, 100006),
    ]
    assert [(bound, len(index)) for bound, index in explored] == [(9, 10), (18, 19), (100006, 1)]


def test_empty_batch_explores_nothing(monkeypatch):
    explored = _explorations(monkeypatch)
    assert stable_decide_many(_pay_three_game(), []) == []
    assert explored == []


def test_refused_confirming_bound_raises_as_the_doubling_loop(monkeypatch):
    # a(0, c) has no defined move, so one exploration at its starting
    # bound s decides it; but the doubling move at 2s passes int64
    game = GameGraph.build(
        2,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "a", Update.single(Mul(2), Add(0))), ("a", "d", delta(-3, 0))],
    )
    e = E(0, 2**61)
    start = starting_bound(game, e)
    assert attractor_decide(game, "a", e, start) is Verdict.DEFENDER
    with pytest.raises(OracleCapacityError, match="int64") as loop:
        _doubling_reference(game, "a", e)
    explored = _explorations(monkeypatch)
    with pytest.raises(OracleCapacityError) as batch:
        stable_decide_many(game, [("a", e)])
    assert str(batch.value) == str(loop.value)
    assert [bound for bound, _ in explored] == [start]


def test_refused_first_exploration_runs_the_doubling_loop(monkeypatch):
    # w(0, 3) wins at its starting bound 36 through x but also climbs
    # through c, so its closure at the batch's largest start, 60 for
    # x(40, 3), passes a budget that no bound of the doubling loop does
    game = GameGraph.build(
        2,
        [("w", Owner.ATTACKER), ("c", Owner.ATTACKER), ("x", Owner.ATTACKER),
         ("y", Owner.DEFENDER), ("d", Owner.DEFENDER)],
        [("w", "c", delta(0, 0)), ("w", "x", delta(0, 0)), ("x", "d", delta(0, -3)),
         ("c", "c", delta(1, 0)), ("c", "y", delta(0, 0)), ("y", "d", delta(0, -4))],
    )
    queries = [("w", E(0, 3)), ("x", E(40, 3))]
    assert [starting_bound(game, e) for _, e in queries] == [36, 60]
    budget = 100
    explored = _explorations(monkeypatch)
    with pytest.raises(OracleCapacityError):
        attractor_decide(game, "w", E(0, 3), 60, config_budget=budget)
    explored.clear()
    assert stable_decide_many(game, queries, config_budget=budget) == [
        oracle.OracleVerdict(Verdict.ATTACKER, 36),
        oracle.OracleVerdict(Verdict.ATTACKER, 60),
    ]
    assert [bound for bound, _ in explored] == [60, 36, 60]


def test_game_bound_is_computed_once_per_batch(monkeypatch):
    queries = [(g, E(v)) for g in ("a", "d") for v in (0, 2, 12, 40)]
    game = _pay_three_game()
    expected = [_doubling_reference(game, g, e) for g, e in queries]
    calls = []
    game_bound = oracle._game_bound

    def counted(game):
        calls.append(game)
        return game_bound(game)

    monkeypatch.setattr(oracle, "_game_bound", counted)
    assert stable_decide_many(game, queries) == expected
    assert calls == [game]


def test_config_budget_boundary_is_exact(monkeypatch):
    # 31 attacker configurations a(k, k), k <= 30: a(30, 30) wins on the spot
    # by its move into the deadlock d(0, 0) and stores neither successor
    game = GameGraph.build(
        2,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "a", delta(1, 1)), ("a", "d", delta(-30, -30))],
    )
    needed = 31
    explored = _explorations(monkeypatch)
    assert attractor_decide(game, "a", E(0, 0), 40, config_budget=needed) is Verdict.ATTACKER
    assert [len(index) for _, index in explored] == [needed]
    for _ in range(2):
        with pytest.raises(OracleCapacityError):
            attractor_decide(game, "a", E(0, 0), 40, config_budget=needed - 1)


def _outcome(decide, *args):
    try:
        return decide(*args)
    except OracleCapacityError:
        return "capacity"


@pytest.mark.parametrize("kind", ["plain", "declining", "mul"])
def test_arena_matches_reference_arena(kind, monkeypatch):
    """On random games, queries on one arena give a fresh reference
    arena's verdict, the capacity refusal included, and its configuration
    count on every answered one (a refused exploration stops at a
    different point in each order).  The answered verdicts also match the
    plain attractor over the full forward closure, which settles nothing
    on the spot."""
    explored = _explorations(monkeypatch)
    rng = random.Random(f"arena-{kind}")
    budget = 300  # a few plain games exceed it
    compared = 0
    for _ in range(60):
        game = random_game(
            rng, max_positions=6, max_dim=4, declining=kind == "declining", mul=kind == "mul"
        )
        bound = rng.randint(0, 20)
        arena = oracle._Arena(game, bound, budget)
        unsettled = ReferenceArena(game, bound, 20 * budget, settle=False)
        for _ in range(12):
            g = rng.choice(game.position_ids)
            top = rng.choice((bound, min(bound, 2)))
            e = Energy(tuple(rng.randint(0, top) for _ in range(game.dimension)))
            reference = ReferenceArena(game, bound, budget)
            got = _outcome(lambda: _decide(arena, (g, e))[0])
            assert got == _outcome(reference.decide, g, e)
            if got != "capacity":
                assert len(explored[-1][1]) == len(reference.keys)
                full = _outcome(unsettled.decide, g, e)
                if full != "capacity":
                    assert got == full
                    compared += 1
    assert compared >= 700, compared


def _stored(arena, index):
    """The configurations ``index`` numbers, as ``(position id, energy)`` pairs."""
    rows = np.frombuffer(b"".join(index), dtype=np.int64).reshape(-1, arena.width)
    ids = list(arena.pos_index)
    return {(ids[row[0]], tuple(row[1:].tolist())) for row in rows}


def test_attacker_with_a_defined_move_into_a_deadlock_wins_on_the_spot(monkeypatch):
    # a(1) reaches the deadlock d(0) in one move, so its move to b is never taken
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("b", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "d", delta(-1)), ("a", "b", delta(0)), ("b", "d", delta(-5))],
    )
    arena = oracle._Arena(game, 4, oracle.DEFAULT_CONFIG_BUDGET)
    explored = _explorations(monkeypatch)
    assert _decide(arena, ("a", E(1))) == [True]
    assert _stored(arena, explored[-1][1]) == {("a", (1,))}
    # at a(0) the move into the deadlock is undefined, so a(0) expands
    assert _decide(arena, ("a", E(1)), ("a", E(0))) == [True, False]
    assert _stored(arena, explored[-1][1]) == {("a", (1,)), ("a", (0,)), ("b", (0,))}


def test_defender_with_an_undefined_move_escapes_on_the_spot(monkeypatch):
    # x(0) cannot pay for its move to d, so its move to b is never taken
    game = GameGraph.build(
        1,
        [("x", Owner.DEFENDER), ("b", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("x", "d", delta(-1)), ("x", "b", delta(0)), ("b", "d", delta(0))],
    )
    arena = oracle._Arena(game, 4, oracle.DEFAULT_CONFIG_BUDGET)
    explored = _explorations(monkeypatch)
    assert _decide(arena, ("x", E(0))) == [False]
    assert _stored(arena, explored[-1][1]) == {("x", (0,))}
    # x(1) pays for both moves, and b wins on the spot by its move into d
    assert _decide(arena, ("x", E(0)), ("x", E(1))) == [False, True]
    assert _stored(arena, explored[-1][1]) == {("x", (0,)), ("x", (1,)), ("d", (0,)), ("b", (1,))}


def test_defender_counts_every_edge_won_in_one_round():
    # both successors of d win in the first round, so both edges must count
    game = GameGraph.build(
        1,
        [("d", Owner.DEFENDER), ("x", Owner.DEFENDER), ("y", Owner.DEFENDER)],
        [("d", "x", delta(0)), ("d", "y", delta(-1))],
    )
    assert attractor_decide(game, "d", E(1), 4) is Verdict.ATTACKER
    assert attractor_decide(game, "d", E(0), 4) is Verdict.DEFENDER


def _doubling_game():
    return GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "a", Update.single(Mul(2))), ("a", "d", delta(-3))],
    )


def test_int64_safe_bound_matches_reference(monkeypatch):
    # the doubling move reaches 2 * bound, the largest int64 value at most
    game, bound = _doubling_game(), 2**62 - 1
    explored = _explorations(monkeypatch)
    unsettled = ReferenceArena(game, bound, settle=False)
    for value in (0, 1, 2, 3, 2**61, bound):
        reference = ReferenceArena(game, bound)
        expected = reference.decide("a", E(value))
        assert unsettled.decide("a", E(value)) is expected
        verdict = attractor_decide(game, "a", E(value), bound)
        assert (verdict is Verdict.ATTACKER) is expected
        assert len(explored[-1][1]) == len(reference.keys)


def test_int64_unsafe_bound_is_refused():
    game = _doubling_game()
    for _ in range(2):
        with pytest.raises(OracleCapacityError, match="int64"):
            attractor_decide(game, "a", E(1), 2**62)


def test_list_valued_updates_are_stored_as_tuples():
    listed = Update([UpdateAtom([Add(-1)])])
    assert listed == Update.single(Add(-1))
    assert hash(listed) == hash(Update.single(Add(-1)))
    game = GameGraph.build(1, [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)], [("a", "d", listed)])
    assert game.validate() == []
    assert stable_decide(game, "a", E(1)).attacker_wins
    assert not stable_decide(game, "a", E(0)).attacker_wins


def _doubling_reference(game, g, e):
    """The doubling rule spelled out over single-bound decisions: double
    the bound until two consecutive answers agree, stopping at the first
    attacker answer."""
    bound = max(1, starting_bound(game, e))
    prev = attractor_decide(game, g, e, bound)
    while prev is Verdict.DEFENDER:
        bound *= 2
        cur = attractor_decide(game, g, e, bound)
        if cur is prev:
            break
        prev = cur
    return oracle.OracleVerdict(prev, bound)


@pytest.mark.parametrize("kind", ["plain", "declining", "mul"])
def test_stable_decide_many_matches_one_query_at_a_time(kind, monkeypatch):
    """A batch gives each query the verdict and bound of the doubling rule
    run alone, and of ``stable_decide``, and explores each bound at most
    once.  Each batch holds duplicates and, on most games, queries that
    need the confirming bound."""
    rng = random.Random(f"many-{kind}")
    seen = Counter()
    explored = _explorations(monkeypatch)
    for _ in range(12):
        game = random_game(
            rng, max_positions=4, max_dim=4, max_abs=1, declining=kind == "declining",
            mul=kind == "mul",
        )
        # energies past the game's own estimate start at bounds of their own
        top = oracle._game_bound(game)[0] + 2

        def draw():
            return (rng.choice(game.position_ids),
                    Energy(tuple(rng.randint(0, top) for _ in range(game.dimension))))

        queries = [draw() for _ in range(8)]
        queries += rng.sample(queries, 3)
        rng.shuffle(queries)
        alone = [_doubling_reference(game, g, e) for g, e in queries]
        starts = [max(1, starting_bound(game, e)) for _, e in queries]
        assert [stable_decide(game, g, e) for g, e in queries] == alone
        explored.clear()
        assert stable_decide_many(game, queries) == alone
        bounds = [bound for bound, _ in explored]
        assert len(bounds) == len(set(bounds))
        seen.update(v.winner for v in alone)
        seen[f"dimension {game.dimension}"] += 1
        seen["confirmed"] += any(v.bound > b for v, b in zip(alone, starts))
        seen["several starts"] += len(set(starts)) > 1
    assert len(seen) == 8, seen  # both winners, each dimension 1-4, both kinds of batch


@st.composite
def _batches(draw):
    """A small random plain, declining or ``mul`` game and a batch on it
    whose components run past the smallest starting bound, so that some
    explored regions stay below it and some do not.  Some plain and
    declining games get an attacker ``up`` whose closure climbs its first
    component up to the clip bound, one unit a level: its defender ``w``
    can always move back to it.  (A ``mul`` game's bound grows with the
    power of its factors, and so would the climb.)"""
    kind = draw(st.sampled_from(["plain", "declining", "mul"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    game = random_game(
        rng, max_positions=4, max_dim=3, max_abs=1, declining=kind == "declining",
        mul=kind == "mul",
    )
    if kind != "mul" and draw(st.booleans()):
        n = game.dimension
        positions = [(p.id, p.owner) for p in game.positions]
        positions += [("up", Owner.ATTACKER), ("w", Owner.DEFENDER), ("sink", Owner.DEFENDER)]
        stay = delta(*[0] * n)
        edges = [(e.source, e.target, e.update) for e in game.edges]
        edges += [("up", "up", delta(1, *[0] * (n - 1))), ("up", "w", stay),
                  ("w", "up", stay), ("w", "sink", stay)]
        game = GameGraph.build(n, positions, edges)
    low = sum(oracle._game_bound(game))
    energy = st.tuples(*[st.integers(0, low + 2)] * game.dimension).map(Energy)
    query = st.tuples(st.sampled_from(game.position_ids), energy)
    return game, draw(st.lists(query, min_size=1, max_size=8))


SEEDED = settings(
    max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


def test_one_exploration_and_doubling_loop_match_the_doubling_rule(monkeypatch):
    """On random batches, ``stable_decide_many`` gives each query the
    doubling rule's verdict and bound and explores no bound twice; both
    batches that one exploration decides and batches that run the
    doubling loop occur."""
    calls = []
    paths = Counter()
    decide_rows = oracle._Arena.decide_rows

    def counted(arena, rows):
        won, peak = decide_rows(arena, rows)
        calls.append((arena.bound, peak))
        return won, peak

    @SEEDED
    @given(_batches())
    def check(batch):
        game, queries = batch
        expected = [_doubling_reference(game, g, e) for g, e in queries]
        starts = [max(1, starting_bound(game, e)) for _, e in queries]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(oracle._Arena, "decide_rows", counted)
            assert stable_decide_many(game, queries) == expected
        bounds = [bound for bound, _ in calls]
        assert len(bounds) == len(set(bounds))
        first_bound, peak = calls[0]
        if first_bound == max(starts) and peak < min(starts):
            assert len(calls) == 1
            paths["one exploration"] += 1
        elif len(calls) > 1:
            paths["doubling loop"] += 1

    check()
    assert paths["one exploration"] and paths["doubling loop"], paths


def test_stable_decide_many_is_exported():
    import galois_energy
    from galois_energy import stable_decide_many as exported

    assert exported is stable_decide_many
    assert "stable_decide_many" in galois_energy.__all__


def test_insert_numbers_rows_by_place():
    """A new row's number is its place in the stream of rows, and a row
    seen before, in the same batch or an earlier one, gets the number of
    its first appearance."""
    arena = oracle._Arena(_pay_three_game(), 10, 100)
    a, b, c, d = ([0, v] for v in (1, 2, 3, 4))
    index = {}
    numbers, fresh = arena._insert(index, np.array([a, b, a]), 0)
    assert numbers.tolist() == [0, 1, 0]
    assert fresh.tolist() == [True, True, False]
    numbers, fresh = arena._insert(index, np.array([c, b, c, d, a]), 3)
    assert numbers.tolist() == [3, 1, 3, 6, 0]
    assert fresh.tolist() == [True, False, False, True, False]
    assert len(index) == 4


def test_repeated_rows_match_fresh_reference_arenas(monkeypatch):
    """Batches with repeated queries, explored through levels that repeat
    successor rows within a level and across levels, give each query a
    fresh ``ReferenceArena``'s verdict and number as many configurations
    as one fresh reference arena that decides the whole batch.  Every
    configuration number handed on, to ``_propagate`` or for a query, is
    below the configuration count."""
    explored = _explorations(monkeypatch)
    recorded, insert = oracle._Arena._explore, oracle._Arena._insert
    propagate = oracle._Arena._propagate
    repeats = Counter()

    def counted_insert(arena, index, rows, first):
        numbers, fresh = insert(arena, index, rows, first)
        repeats["within a level"] += bool((~fresh & (numbers >= first)).any())
        repeats["across levels"] += bool((numbers < first).any())
        return numbers, fresh

    def checked_explore(arena, index, rows):
        region, numbers, peak = recorded(arena, index, rows)
        assert ((0 <= numbers) & (numbers < len(index))).all()
        return region, numbers, peak

    def checked_propagate(arena, positions, *numbered):
        assert len(positions) == len(explored[-1][1])
        for numbers in numbered:
            assert ((0 <= numbers) & (numbers < len(positions))).all()
        return propagate(arena, positions, *numbered)

    monkeypatch.setattr(oracle._Arena, "_insert", counted_insert)
    monkeypatch.setattr(oracle._Arena, "_explore", checked_explore)
    monkeypatch.setattr(oracle._Arena, "_propagate", checked_propagate)
    rng = random.Random("places")
    budget = 5000  # above every region these games and bounds can have
    for _ in range(40):
        game = random_game(rng, max_positions=6, max_dim=3)
        bound = rng.randint(0, 6)
        queries = [
            (rng.choice(game.position_ids),
             Energy(tuple(rng.randint(0, bound) for _ in range(game.dimension))))
            for _ in range(rng.randint(1, 6))
        ]
        queries += rng.choices(queries, k=rng.randint(1, 4))
        rng.shuffle(queries)
        got = _decide(oracle._Arena(game, bound, budget), *queries)
        assert got == [ReferenceArena(game, bound, budget).decide(g, e) for g, e in queries]
        together = ReferenceArena(game, bound, budget)
        for g, e in queries:
            together.decide(g, e)
        assert len(explored[-1][1]) == len(together.keys)
    assert repeats["within a level"] and repeats["across levels"], repeats
