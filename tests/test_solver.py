import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import (
    EXPECTED_CUPS_TIME,
    assert_history_matches_plain,
    attacker_wins_all_plays,
    cups_time_projection,
    espresso_with_target,
    grid_game,
    history,
    invert,
    minimiser_inputs,
    minimize,
    plain_pass,
    random_game,
    reference_birth,
    reference_choose,
    solve_checked,
)
from galois_energy import cli, fileio, solver
from galois_energy.errors import (
    DimensionMismatch,
    InvalidGameError,
    IterationCapExceeded,
    MagnitudeOverflow,
    StrategyError,
)
from galois_energy.game import GameGraph, Owner
from galois_energy.lattice import INF, Energy, ParetoFront, sup2
from galois_energy.solver import (
    compute_new_win,
    compute_winning_budgets,
    extract_strategy,
    iterate_once,
    known_initial_credit,
    unknown_initial_credit,
)
from galois_energy.updates import Add, Mul, Update


def E(*cs):
    return Energy(tuple(cs))


def delta(*zs):
    return Update.single(*(Add(z) for z in zs))


def empty_map(game):
    return {g: ParetoFront.empty() for g in game.position_ids}


def test_iteration_trace_matches_hand_run(espresso):
    it1 = iterate_once(espresso, empty_map(espresso))
    assert it1["Energized"].elements == (E(0, 0, 0, 0),)
    assert all(it1[g].is_empty for g in it1 if g != "Energized")
    it2 = iterate_once(espresso, it1)
    assert it2["Office"].elements == (E(0, 0, 0, 10),)
    it3 = iterate_once(espresso, it2)
    assert it3["Office"].elements == (E(0, 0, 0, 10), E(0, 0, 1, 9))
    assert it3["CoffeeMaker"].elements == (E(0, 2, 0, 10),)


def test_espresso_cups_time_front(espresso):
    result = solve_checked(espresso)
    assert cups_time_projection(result.fronts["Office"]) == EXPECTED_CUPS_TIME


def test_compute_new_win_defender_deadlock(espresso):
    fronts = empty_map(espresso)
    assert compute_new_win(espresso, fronts, "Energized").elements == (E(0, 0, 0, 0),)


def test_compute_new_win_folds_both_branches(espresso):
    # department head with only the office front known: both outgoing
    # branches pull (0,0,0,10) back, one through the chat detour
    fronts = empty_map(espresso)
    office = minimize([E(0, 0, 0, 10)])
    fronts["Office"] = office
    fronts["Chat"] = minimize(
        [invert(espresso.update_between("Chat", "Office"), e) for e in office]
    )
    chat_pull = invert(
        espresso.update_between("DepartmentHead", "Chat"), fronts["Chat"].elements[0]
    )
    direct_pull = invert(
        espresso.update_between("DepartmentHead", "Office"), office.elements[0]
    )
    expected = minimize([sup2(chat_pull, direct_pull)])
    assert compute_new_win(espresso, fronts, "DepartmentHead") == expected
    assert expected.elements == (E(1, 1, 1, 10),)


def test_compute_new_win_empty_successor_front():
    game = GameGraph.build(
        1,
        [("d", Owner.DEFENDER), ("x", Owner.ATTACKER)],
        [("d", "x", delta(0))],
    )
    assert compute_new_win(game, empty_map(game), "d").is_empty


def test_compute_new_win_rejects_attacker_position(espresso):
    with pytest.raises(ValueError):
        compute_new_win(espresso, empty_map(espresso), "Office")


def _fork() -> GameGraph:
    return GameGraph.build(
        2,
        [("d", Owner.DEFENDER), ("x", Owner.ATTACKER)],
        [("d", "x", delta(0, 0)), ("x", "d", delta(-1, 0))],
    )


def test_iterate_once_names_a_front_of_the_wrong_dimension():
    fronts = {"d": ParetoFront.empty(), "x": minimize([E(1, 2, 3)])}
    with pytest.raises(DimensionMismatch, match="'x'"):
        iterate_once(_fork(), fronts)
    with pytest.raises(DimensionMismatch, match="'x'"):
        compute_new_win(_fork(), fronts, "d")


def test_iterate_once_names_a_missing_position():
    with pytest.raises(KeyError, match="no front given for position 'd'"):
        iterate_once(_fork(), {"x": minimize([E(1, 0)])})
    with pytest.raises(KeyError, match="no front given for position 'x'"):
        compute_new_win(_fork(), {"d": ParetoFront.empty()}, "d")


def test_iterate_once_refuses_a_key_that_is_not_a_position():
    fronts = {"d": ParetoFront.empty(), "x": minimize([E(1, 0)]), "y": ParetoFront.empty()}
    with pytest.raises(KeyError, match="unknown position 'y'"):
        iterate_once(_fork(), fronts)
    with pytest.raises(KeyError, match="unknown position 'y'"):
        compute_new_win(_fork(), fronts, "d")


@pytest.mark.parametrize(
    "bounds",
    [
        ([], []),
        ([3, 5, 5, 0, 9, 2], [7, 5, 5, 4, 9, 3]),
        ([0, 4, 4], [0, 4, 6]),
        ([11], [5011]),
    ],
)
def test_ranges_concatenates_aranges(bounds):
    """No ranges, empty ranges in the middle and at either end, and one
    long range."""
    lo, hi = (np.array(b, dtype=np.intp) for b in bounds)
    expected = np.concatenate([np.empty(0, np.intp), *map(np.arange, lo, hi)])
    got = solver._ranges(lo, hi)
    assert got.dtype.kind == "i"
    assert got.tolist() == expected.tolist()


def test_single_attacker_deadlock_loses():
    game = GameGraph.build(1, [("a", Owner.ATTACKER)], [])
    result = solve_checked(game)
    assert result.fronts["a"].is_empty
    assert not unknown_initial_credit(result, "a")


def test_single_defender_deadlock_wins_with_zero():
    game = GameGraph.build(2, [("d", Owner.DEFENDER)], [])
    result = solve_checked(game)
    assert result.fronts["d"].elements == (E(0, 0),)


def test_known_initial_credit_espresso(espresso):
    result = solve_checked(espresso)
    assert known_initial_credit(result, "Office", E(10, 1, 0, 0))
    assert known_initial_credit(result, "Office", E(0, 0, 0, 10))
    assert not known_initial_credit(result, "Office", E(1, 19, 0, 0))
    assert known_initial_credit(result, "Office", E(INF, INF, INF, INF))
    with pytest.raises(KeyError):
        known_initial_credit(result, "Lounge", E(0, 0, 0, 0))


def test_membership_rejects_wrong_dimension_and_unknown_position():
    # "a" has an empty front ("b" is an attacker deadlock), "c" a nonempty one
    step = Update.single(Add(-1), Add(0))
    game = GameGraph.build(
        2,
        [(g, Owner.ATTACKER) for g in "abc"] + [("d", Owner.DEFENDER)],
        [("a", "b", step), ("c", "d", step)],
    )
    result = compute_winning_budgets(game)
    assert result.fronts["a"].is_empty and result.fronts["c"].elements == (E(1, 0),)
    strategy = extract_strategy(game, result)
    for g in ("a", "c"):
        with pytest.raises(DimensionMismatch):
            known_initial_credit(result, g, E(5))
        with pytest.raises(DimensionMismatch):
            result.entry_pass(g, E(5))
        with pytest.raises(DimensionMismatch):
            strategy.choose(g, E(5))
    with pytest.raises(KeyError):
        result.entry_pass("ghost", E(5, 5))
    with pytest.raises(KeyError):
        known_initial_credit(result, "ghost", E(5))
    assert result.entry_pass("c", E(5, 5)) == 2
    assert result.entry_pass("a", E(5, 5)) is None


def test_unknown_initial_credit_espresso(espresso):
    result = solve_checked(espresso)
    assert unknown_initial_credit(result, "Office")
    assert unknown_initial_credit(result, "Energized")


def test_strategy_with_one_cup_avoids_department_head(espresso):
    result = solve_checked(espresso)
    strategy = extract_strategy(espresso, result)
    g, e = "Office", E(1, 20, 0, 0)
    for _ in range(200):
        if espresso.is_deadlock(g):
            break
        assert espresso.owner(g) is Owner.ATTACKER
        target = strategy.choose(g, e)
        assert target != "DepartmentHead"
        e = espresso.update_between(g, target).apply(e)
        assert e is not None
        g = target
    assert g == "Energized"


def test_strategy_single_winning_successor():
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER), ("trap", Owner.ATTACKER)],
        [("a", "d", delta(-1)), ("a", "trap", delta(0))],
    )
    result = solve_checked(game)
    strategy = extract_strategy(game, result)
    assert strategy.choose("a", E(1)) == "d"
    assert strategy.choose("a", E(7)) == "d"


def test_strategy_self_play_wins_against_all_defender_choices(espresso):
    result = solve_checked(espresso)
    strategy = extract_strategy(espresso, result)
    depth = 4 * (result.iterations + 1) + 4
    for e in (E(2, 10, 0, 0), E(10, 1, 0, 0), E(0, 0, 0, 10), E(3, 6, 0, 0)):
        assert attacker_wins_all_plays(espresso, result, strategy, "Office", e, depth)


def test_strategy_self_play_on_random_games():
    import random

    rng = random.Random(23)
    games = 0
    while games < 25:
        game = random_game(rng, max_positions=6)
        result = solve_checked(game)
        strategy = extract_strategy(game, result)
        depth = 4 * (result.iterations + 1) + 4
        for g in game.position_ids:
            for m in result.fronts[g]:
                if game.owner(g) is Owner.ATTACKER and not game.is_deadlock(g):
                    assert attacker_wins_all_plays(game, result, strategy, g, m, depth)
        games += 1


def test_strategy_play_verdict_consistent_with_membership(espresso):
    from galois_energy.game import Verdict, winner_of_finite_play

    result = solve_checked(espresso)
    strategy = extract_strategy(espresso, result)
    e0 = E(2, 10, 0, 0)
    assert known_initial_credit(result, "Office", e0)
    play = ["Office"]
    e = e0
    for _ in range(300):
        g = play[-1]
        if espresso.is_deadlock(g):
            break
        if espresso.owner(g) is Owner.ATTACKER:
            target = strategy.choose(g, e)
        else:
            target = espresso.successors(g)[0][0]
        e = espresso.update_between(g, target).apply(e)
        assert e is not None
        play.append(target)
    assert winner_of_finite_play(espresso, play, e0) is Verdict.ATTACKER


def test_strategy_rejects_out_of_domain(espresso):
    result = solve_checked(espresso)
    strategy = extract_strategy(espresso, result)
    with pytest.raises(LookupError):
        strategy.choose("DepartmentHead", E(9, 9, 9, 9))
    with pytest.raises(LookupError):
        strategy.choose("Office", E(0, 0, 0, 0))
    with pytest.raises(LookupError):
        strategy.choose("Energized", E(0, 0, 0, 0))


@pytest.mark.parametrize("target", [10, 16])
def test_history_matches_plain_pass_on_espresso(target):
    game = espresso_with_target(target)
    assert_history_matches_plain(game, compute_winning_budgets(game))


def test_history_matches_plain_pass_on_random_games():
    import random

    rng = random.Random(31)
    for i in range(40):
        game = random_game(rng, declining=i % 2 == 1)
        assert_history_matches_plain(game, compute_winning_budgets(game))


def test_history_matches_plain_pass_with_attacker_unions_on_both_sides_of_the_chunk(
    monkeypatch,
):
    """A multi-reachability grid on which some attacker passes minimise
    unions of more than ``_CHUNK`` rows and smaller ones as segments of
    one batch."""
    unions = []  # per attacker pass, the sizes of the unions it minimised
    inside = []
    attacker_pass, segments = solver._Engine.attacker_pass, solver._minimize_segments

    def counted_pass(self, *args):
        unions.append([])
        inside.append(True)
        try:
            return attacker_pass(self, *args)
        finally:
            inside.pop()

    def counted_segments(rows, ids):
        if inside:
            unions[-1].extend(np.unique(ids, return_counts=True)[1].tolist())
        return segments(rows, ids)

    monkeypatch.setattr(solver._Engine, "attacker_pass", counted_pass)
    monkeypatch.setattr(solver, "_minimize_segments", counted_segments)
    game = grid_game(8, 4, seed=2)
    result = compute_winning_budgets(game)
    assert any(u and max(u) > solver._CHUNK >= min(u) for u in unions)
    assert_history_matches_plain(game, result)


@pytest.mark.parametrize("name", ["mwr-grid", "espresso"])
def test_attacker_pass_minimises_every_union_in_one_call(name, monkeypatch):
    """Each attacker pass of a solve minimises the unions of all touched
    attackers in exactly one ``_minimize_segments`` call, and makes no
    ``_minimize_rows`` call: on the benchmark's 16×16 multi-reachability
    grid and on espresso with target 16."""
    calls = []  # per attacker pass, the minimiser calls made inside it
    inside = []
    attacker_pass = solver._Engine.attacker_pass
    segments, minimize_rows = solver._minimize_segments, solver._minimize_rows

    def counted_pass(self, *args):
        calls.append([])
        inside.append(True)
        try:
            return attacker_pass(self, *args)
        finally:
            inside.pop()

    def counted(label, minimiser):
        def call(*args):
            if inside:
                calls[-1].append(label)
            return minimiser(*args)

        return call

    monkeypatch.setattr(solver._Engine, "attacker_pass", counted_pass)
    monkeypatch.setattr(solver, "_minimize_segments", counted("segments", segments))
    monkeypatch.setattr(solver, "_minimize_rows", counted("rows", minimize_rows))
    compute_winning_budgets(grid_game(16, 3) if name == "mwr-grid" else espresso_with_target(16))
    assert len(calls) > 30
    assert all(c == ["segments"] for c in calls)


def _changed_defenders(game: GameGraph, fresh) -> list[str]:
    """The defenders of ``game`` with a successor among the positions that
    gained rows, named by ``fresh.pos``, in id order."""
    grown = {game.position_ids[k] for k in fresh.pos.tolist()}
    return [
        g
        for g in game.position_ids
        if game.owner(g) is Owner.DEFENDER and any(t in grown for t, _ in game.successors(g))
    ]


def test_each_pass_pulls_and_meets_its_defenders_in_one_batch(monkeypatch):
    """On the benchmark's 16×16 multi-reachability grid, where a pass often
    changes several defenders, each defender pass pulls all their
    successor fronts back in one ``_Inverses.pull`` call and meets them on
    one grid in one ``_meet_cells`` call (its map always fits here).  Each
    attacker pass reads the new rows of the pass before only as one stacked
    matrix: it runs without the per-position masks, and the solve keeps
    its answers."""
    game = grid_game(16, 3)
    calls = []  # per defender pass: its defenders, pulls and meets per grid
    inside = []
    defender_pass, attacker_pass = solver._Engine.defender_pass, solver._Engine.attacker_pass
    pull, meet_cells = solver._Inverses.pull, solver._meet_cells

    def counted_pass(self, cur, fresh, base):
        changed = _changed_defenders(game, fresh)
        calls.append({"defenders": len(changed), "pulls": 0, "meets": []})
        inside.append(True)
        try:
            return defender_pass(self, cur, fresh, base)
        finally:
            inside.pop()

    def counted_pull(self, *args):
        if inside:
            calls[-1]["pulls"] += 1
        return pull(self, *args)

    def counted_meet(keys, sizes, firsts):
        if inside:
            calls[-1]["meets"].append(len(firsts))
        return meet_cells(keys, sizes, firsts)

    def maskless_pass(self, fresh, base):
        return attacker_pass(self, fresh._replace(masks=None), base)

    expected = compute_winning_budgets(game)
    monkeypatch.setattr(solver._Engine, "defender_pass", counted_pass)
    monkeypatch.setattr(solver._Inverses, "pull", counted_pull)
    monkeypatch.setattr(solver, "_meet_cells", counted_meet)
    monkeypatch.setattr(solver._Engine, "attacker_pass", maskless_pass)
    result = compute_winning_budgets(game)
    assert len(calls) > 30
    assert all(c["pulls"] == (c["defenders"] > 0) for c in calls)
    assert all(len(c["meets"]) <= 1 for c in calls)
    assert sum(c["meets"] != [] and c["meets"][0] >= 2 for c in calls) >= 10
    for g in expected.rows:
        assert np.array_equal(result.rows[g], expected.rows[g])
        for a, b in zip(result.entries[g], expected.entries[g]):
            assert np.array_equal(a, b)


def test_iteration_cap_raises():
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "a", delta(-1)), ("a", "d", delta(-3))],
    )
    with pytest.raises(IterationCapExceeded) as err:
        compute_winning_budgets(game, iteration_cap=1)
    assert err.value.cap == 1
    assert err.value.previous == {"a": ParetoFront.empty(), "d": minimize([E(0)])}
    assert err.value.current == {"a": minimize([E(3)]), "d": minimize([E(0)])}


@pytest.mark.parametrize("cap", [True, -1, 2.5, "3"])
def test_iteration_cap_must_be_none_or_a_natural(espresso, cap):
    with pytest.raises(ValueError, match="iteration_cap"):
        compute_winning_budgets(espresso, iteration_cap=cap)


def test_iteration_cap_names_the_positions_still_growing(espresso):
    """At a cap of 5 the solver stops after its sixth pass; the positions
    still growing are those with rows stamped 6 in the full solve, each
    with its count of such rows, and the message names every one."""
    full = compute_winning_budgets(espresso)
    expected = {}
    for g, (_, stamps) in full.entries.items():
        if (stamps == 6).any():
            expected[g] = int((stamps == 6).sum())
    assert expected
    with pytest.raises(IterationCapExceeded) as err:
        compute_winning_budgets(espresso, iteration_cap=5)
    assert err.value.growing == expected
    for g, count in expected.items():
        assert f"{g} (+{count})" in str(err.value)
    assert err.value.current == iterate_once(espresso, err.value.previous)


INT64_MAX = 2**63 - 1


def chain(*updates):
    """Attacker positions ``p0 -> p1 -> ...``, edge ``i`` labelled
    ``updates[i]``, ending in the defender deadlock ``d``."""
    ids = [f"p{i}" for i in range(len(updates))] + ["d"]
    positions = [(g, Owner.ATTACKER) for g in ids[:-1]] + [("d", Owner.DEFENDER)]
    return GameGraph.build(1, positions, list(zip(ids, ids[1:], updates)))


@pytest.mark.parametrize("links", [2, 3])
def test_chained_subtractions_past_int64_raise(links):
    # the true minimum at p0 is links * 2**62 >= 2**63
    game = chain(*[delta(-(2**62))] * links)
    with pytest.raises(MagnitudeOverflow):
        compute_winning_budgets(game)


@pytest.mark.parametrize("z", [2**62, INT64_MAX])
def test_largest_answers_within_int64_are_exact(z):
    result = compute_winning_budgets(chain(delta(-z)))
    assert result.fronts["p0"].elements == (E(z),)


def test_mul_step_next_to_int64_limit_is_exact():
    # pulling INT64_MAX - 1 back through Mul(3) must not compute
    # INT64_MAX - 1 + 2 on the way to its ceiling quotient
    top = INT64_MAX - 1
    game = chain(Update.single(Mul(3)), delta(-top))
    result = compute_winning_budgets(game)
    assert result.fronts["p1"].elements == (E(top),)
    assert result.fronts["p0"].elements == (E(-(-top // 3)),)


@pytest.mark.parametrize("z", [-(2**70), 2**70])
def test_edge_parameter_outside_int64_raises(z):
    game = chain(delta(z))
    with pytest.raises(MagnitudeOverflow):
        compute_winning_budgets(game)
    with pytest.raises(MagnitudeOverflow):
        iterate_once(game, empty_map(game))


@pytest.mark.parametrize("top", [INT64_MAX - 7, INT64_MAX - 6])
def test_overflow_limit_is_the_largest_growth_of_the_incoming_attacker_edges(top):
    """Three attacker predecessors pull ``t``'s front back in one batch,
    growing it by 5, by 3 + 4 over two steps and by nothing: ``t`` may hold
    ``INT64_MAX - 7`` and no more."""
    game = GameGraph.build(
        1,
        [(g, Owner.ATTACKER) for g in ("a1", "a2", "a3", "t")] + [("d", Owner.DEFENDER)],
        [
            ("a1", "t", delta(-5)),
            ("a2", "t", Update((*delta(-3).steps, *delta(-4).steps))),
            ("a3", "t", Update.single(Mul(2))),
            ("t", "d", delta(-top)),
        ],
    )
    if top > INT64_MAX - 7:
        with pytest.raises(MagnitudeOverflow, match=f"front of 't' reaches {top}"):
            compute_winning_budgets(game)
        return
    fronts = compute_winning_budgets(game).fronts
    assert fronts["a2"].elements == (E(INT64_MAX),)
    assert fronts["a1"].elements == (E(top + 5),)
    assert fronts["a3"].elements == (E(-(-top // 2)),)


def test_given_front_past_int64_headroom_raises():
    game = chain(delta(-(2**62)), delta(-(2**62)))
    fronts = empty_map(game)
    fronts["p1"] = minimize([E(2**62)])
    with pytest.raises(MagnitudeOverflow):
        iterate_once(game, fronts)
    fronts["p1"] = minimize([E(2**70)])
    with pytest.raises(MagnitudeOverflow):
        iterate_once(game, fronts)
    fork = GameGraph.build(
        1,
        [("d", Owner.DEFENDER), ("x", Owner.ATTACKER)],
        [("d", "x", delta(-(2**62))), ("x", "d", delta(-(2**62)))],
    )
    with pytest.raises(MagnitudeOverflow):
        compute_new_win(fork, {"d": ParetoFront.empty(), "x": minimize([E(2**62)])}, "d")


def _strategy_games(count=25):
    """Seeded random games, in turn plain, declining and with ``Mul``,
    where some attacker position with a move has a nonempty front."""
    rng = random.Random(47)
    games = []
    while len(games) < count:
        kind = len(games) % 3
        game = random_game(rng, declining=kind == 1, mul=kind == 2)
        result = compute_winning_budgets(game)
        if any(
            game.owner(g) is Owner.ATTACKER and not game.is_deadlock(g) and len(result.fronts[g])
            for g in game.position_ids
        ):
            games.append((game, result))
    return games


@pytest.mark.parametrize("name", ["espresso", "random"])
def test_entry_stamps_match_history_scan(name, espresso):
    if name == "espresso":
        games = [(espresso, compute_winning_budgets(espresso))]
    else:
        games = _strategy_games()
    for game, result in games:
        strategy = extract_strategy(game, result)
        hist = [{g: rows.tolist() for g, rows in m.items()} for m in history(result)]
        for g in game.position_ids:
            probes = [Energy.zero(game.dimension), *result.fronts[g]]
            # dominating energies with a component that is infinite, beyond
            # float precision or beyond int64
            for m in result.fronts[g].elements[:2]:
                probes += [E(*m.components[:-1], big) for big in (INF, 2**53 + 1, 2**70)]
            for e in probes:
                assert result.entry_pass(g, e) == reference_birth(hist, g, e)
                if (
                    game.owner(g) is Owner.ATTACKER
                    and not game.is_deadlock(g)
                    and known_initial_credit(result, g, e)
                ):
                    assert strategy.choose(g, e) == reference_choose(game, hist, g, e)


def _naive_entry_log(result):
    """Per position, the rows every logged pass gave it and their stamps,
    concatenated pass by pass."""
    ids = list(result.rows)
    n = next(iter(result.rows.values())).shape[1]
    rows = {g: [np.empty((0, n), dtype=np.int64)] for g in ids}
    stamps = {g: [np.empty(0, dtype=np.int64)] for g in ids}
    for k, (added, positions, firsts) in enumerate(result.pass_log, 1):
        ends = [*firsts[1:].tolist(), added.shape[0]]
        for p, a, b in zip(positions.tolist(), firsts.tolist(), ends):
            rows[ids[p]].append(added[a:b])
            stamps[ids[p]].append(np.full(b - a, k))
    return {g: (np.vstack(rows[g]), np.concatenate(stamps[g])) for g in ids}


def test_entry_log_is_the_pass_log_concatenated_by_position():
    """``entries`` gives each position the rows of every pass in pass
    order, on seeded games with a position that never gains a row (an
    attacker deadlock) and on a game whose log is empty."""
    rng = random.Random(29)
    games = [GameGraph.build(2, [("a", Owner.ATTACKER), ("b", Owner.ATTACKER)],
                             [("a", "b", delta(-1, 0))])]
    while len(games) < 31:
        base = random_game(rng)
        ident = Update.identity(base.dimension)
        positions = [(p.id, p.owner) for p in base.positions] + [("stuck", Owner.ATTACKER)]
        edges = [(e.source, e.target, e.update) for e in base.edges]
        game = GameGraph.build(base.dimension, positions, [*edges, ("p0", "stuck", ident)])
        if compute_winning_budgets(game).pass_log:
            games.append(game)
    passes = []
    for game in games:
        result = compute_winning_budgets(game)
        passes.append(len(result.pass_log))
        expected = _naive_entry_log(result)
        assert result.entries.keys() == expected.keys()
        assert not len(result.entries["stuck" if "stuck" in expected else "a"][0])
        for g, (rows, stamps) in result.entries.items():
            assert rows.dtype == stamps.dtype == np.int64
            assert np.array_equal(rows, expected[g][0])
            assert np.array_equal(stamps, expected[g][1])
    assert passes[0] == 0 and min(passes[1:]) > 0 and max(passes) > 3


def test_entry_log_is_built_on_first_read_only(espresso, monkeypatch, capsys):
    """``solve``, ``query`` and ``check`` build no entry log; a result
    builds it once, when ``entries`` or ``entry_pass`` is first read."""
    calls = []
    entry_log = solver._entry_log

    def counted(*args):
        calls.append(args)
        return entry_log(*args)

    monkeypatch.setattr(solver, "_entry_log", counted)
    path = str(fileio.bundled_game_path())
    for argv in (["solve", path], ["query", path, "--position", "Office", "--energy", "0,0,0,10"],
                 ["check", path, "--samples", "3"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == []
    for read in (lambda r: r.entries, lambda r: r.entry_pass("Office", E(0, 0, 0, 10))):
        result = compute_winning_budgets(espresso)
        assert known_initial_credit(result, "Office", E(0, 0, 0, 10))
        assert unknown_initial_credit(result, "Office")
        assert calls == []
        read(result)
        result.entries
        assert result.entry_pass("Office", E(0, 0, 0, 9)) is None
        assert len(calls) == 1
        calls.clear()


def test_known_initial_credit_is_entry_pass_membership():
    """``known_initial_credit`` tests the fixed point's rows and
    ``entry_pass`` every entered row; they agree on seeded games and
    energies, components at and past the int64 maximum and ``inf``
    included."""
    rng = random.Random("membership")
    games = [chain(delta(-INT64_MAX)), chain(delta(-(2**62)), delta(-(2**62 - 1)))]
    games += [random_game(rng, declining=k % 2 == 1, mul=k % 3 == 2) for k in range(30)]
    huge = (INT64_MAX - 1, INT64_MAX, INT64_MAX + 1, 2**70, INF)
    agreed = Counter()
    for game in games:
        result = compute_winning_budgets(game)
        for _ in range(30):
            g = rng.choice(game.position_ids)
            front = result.rows[g].tolist()
            near = rng.choice(front) if front else [0] * game.dimension
            e = Energy(tuple(
                rng.choice((rng.randint(0, 4), max(c - 1, 0), c, c + 1, rng.choice(huge)))
                for c in near
            ))
            wins = known_initial_credit(result, g, e)
            assert wins == (result.entry_pass(g, e) is not None)
            agreed[wins, any(c > INT64_MAX for c in e.components)] += 1
    assert len(agreed) == 4, agreed


def test_max_front_size_counts_largest_front(espresso):
    result = solve_checked(espresso)
    assert result.max_front_size == max(
        rows.shape[0] for rows_map in history(result) for rows in rows_map.values()
    )
    assert result.max_front_size >= len(result.fronts["Office"])


def _sweep_inputs():
    """Row sets whose rank grid the cap refuses: over 2^22 cells (5
    columns of about 30 distinct values) and over 2^62 cells (8 columns
    of a few hundred distinct values), each with some rows repeated."""
    rng = np.random.default_rng(5)
    capped = rng.integers(0, 30, size=(300, 5))
    wide = rng.integers(0, 2**40, size=(300, 8))
    return {
        "cap": (np.vstack([capped, capped[:20]]), 1 << 22),
        "int64": (np.vstack([wide, wide[:20]]), 1 << 62),
    }


def _count_sweeps(monkeypatch) -> list[int]:
    """Sizes of the inputs ``_minimize_by_sweep`` receives, from now on."""
    calls = []
    sweep = solver._minimize_by_sweep

    def counted(unique, segments):
        calls.append(unique.shape[0])
        return sweep(unique, segments)

    monkeypatch.setattr(solver, "_minimize_by_sweep", counted)
    return calls


def _assert_minimal(rows: np.ndarray, got: np.ndarray) -> None:
    expected = minimize(Energy(tuple(r)) for r in rows.tolist())
    assert got.tolist() == [list(e.components) for e in expected]


@pytest.mark.parametrize("name", ["cap", "int64"])
def test_minimize_rows_sweeps_grids_over_the_cap(name, monkeypatch):
    rows, cells = _sweep_inputs()[name]
    sizes = [len(np.unique(rows[:, c])) for c in range(rows.shape[1])]
    assert math.prod(sizes) > cells
    calls = _count_sweeps(monkeypatch)
    got = rows[solver._minimize_rows(rows)]
    assert calls == [len({tuple(r) for r in rows.tolist()})]
    _assert_minimal(rows, got)


@pytest.mark.parametrize("extra, sweeps", [(0, 1), (1, 0)])
def test_minimize_rows_route_at_the_chunk_boundary(extra, sweeps, monkeypatch):
    """``_CHUNK`` rows are swept in one call; one row more, on a rank grid
    of 5^3 cells, never reaches the sweep."""
    rows = np.random.default_rng(7).integers(0, 5, size=(solver._CHUNK + extra, 3))
    calls = _count_sweeps(monkeypatch)
    got = rows[solver._minimize_rows(rows)]
    assert len(calls) == sweeps
    _assert_minimal(rows, got)


@pytest.mark.parametrize("name", ["espresso", "grid"])
def test_minimiser_routes_agree_on_recorded_inputs(name, monkeypatch):
    """Every minimiser input of a real solve gives the same indices when
    all inputs are swept (no grid fits a cap of 0 cells) as when all go
    to the rank grid.  For the grid every input is over a chunk of 1 row,
    every grid fits the cap, and each input is stacked on itself until its
    threshold map has at most as many cells as rows: repeats keep the
    first occurrences, so the indices do not change."""
    game = espresso_with_target(10) if name == "espresso" else grid_game(6, 3)
    inputs = minimiser_inputs(game)
    if name == "espresso":
        # the solve itself takes both routes
        assert any(rows.shape[0] > solver._CHUNK for rows in inputs)
        assert any(1 < rows.shape[0] <= solver._CHUNK for rows in inputs)
    calls = _count_sweeps(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_GRID_CELL_CAP", 0)
        swept = [solver._minimize_rows(rows) for rows in inputs]
    assert len(calls) == sum(rows.shape[0] > 1 for rows in inputs)
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_CHUNK", 1)
        gridded = []
        for rows in inputs:
            cells = math.prod(len(np.unique(c)) for c in rows.T[:-1])
            copies = -(-cells // max(rows.shape[0], 1))
            gridded.append(solver._minimize_rows(np.tile(rows, (copies, 1))))
    assert calls == []
    for a, b in zip(swept, gridded):
        assert np.array_equal(a, b)


def _count_defender_paths(monkeypatch) -> dict[str, int]:
    """Counts of defender fronts answered by the meet (with every factor
    nonempty) and by the telescoped fold, from now on."""
    paths = {"meet": 0, "fold": 0}
    meet, fold = solver._meet_cells, solver._telescoped_fold

    def counted_meet(keys, sizes, firsts):
        paths["meet"] += len(firsts)
        return meet(keys, sizes, firsts)

    def counted_fold(*args):
        paths["fold"] += 1
        return fold(*args)

    monkeypatch.setattr(solver, "_meet_cells", counted_meet)
    monkeypatch.setattr(solver, "_telescoped_fold", counted_fold)
    return paths


def test_meet_and_fold_both_match_plain_pass(monkeypatch):
    """At a cap of 2^12 cells espresso's defenders take both routes."""
    monkeypatch.setattr(solver, "_GRID_CELL_CAP", 1 << 12)
    paths = _count_defender_paths(monkeypatch)
    rng = random.Random(31)
    games = [espresso_with_target(10)]
    games += [random_game(rng, declining=i % 2 == 1) for i in range(40)]
    for game in games:
        assert_history_matches_plain(game, compute_winning_budgets(game))
    assert paths["meet"] > 0
    assert paths["fold"] > 0


def test_defender_over_the_grid_cap_folds(monkeypatch):
    """Two successor fronts of 40 rows whose values barely repeat: their
    rank grid has about 80^5 cells, over the cap, so the fold runs."""
    rng = np.random.default_rng(11)
    fronts = {}
    for g in ("a", "b"):
        rows = rng.integers(0, 2**40, size=(40, 5))
        fronts[g] = minimize(Energy(tuple(r)) for r in rows.tolist())
    fronts["d"] = ParetoFront.empty()
    game = GameGraph.build(
        5,
        [("d", Owner.DEFENDER), ("a", Owner.ATTACKER), ("b", Owner.ATTACKER)],
        [("d", "a", Update.identity(5)), ("d", "b", Update.identity(5))],
    )
    union = np.array([e.components for g in "ab" for e in fronts[g]], dtype=np.int64)
    assert math.prod(len(np.unique(c)) for c in union.T) > solver._GRID_CELL_CAP
    paths = _count_defender_paths(monkeypatch)
    got = iterate_once(game, fronts)["d"]
    rows = {
        g: np.array([e.components for e in f], dtype=np.int64).reshape(-1, 5)
        for g, f in fronts.items()
    }
    expected = plain_pass(game, rows)["d"]
    assert paths == {"meet": 0, "fold": 1}
    assert [e.components for e in got] == list(map(tuple, expected.tolist()))
    assert len(got) > 0


def test_defender_under_the_grid_cap_meets(monkeypatch):
    """Two one-row successor fronts, (1,0,0) and (0,1,0): their rank grid
    has 4 cells, more than the one row of their sup product, but it is
    within the cap, so the meet answers with the sup and no fold runs.
    No defender of an espresso solve folds either."""
    fronts = {"a": minimize([E(1, 0, 0)]), "b": minimize([E(0, 1, 0)])}
    fronts["d"] = ParetoFront.empty()
    game = GameGraph.build(
        3,
        [("d", Owner.DEFENDER), ("a", Owner.ATTACKER), ("b", Owner.ATTACKER)],
        [("d", "a", Update.identity(3)), ("d", "b", Update.identity(3))],
    )
    paths = _count_defender_paths(monkeypatch)
    assert iterate_once(game, fronts)["d"] == minimize([E(1, 1, 0)])
    assert paths == {"meet": 1, "fold": 0}
    compute_winning_budgets(espresso_with_target(16))
    assert paths["meet"] > 1
    assert paths["fold"] == 0


def test_fold_order_of_the_other_factors_leaves_the_rows_alone():
    """Each term of the telescoped fold is a product of upward closures,
    so folding its non-delta factors in any order gives the same rows as
    the fold's own smallest-first order."""
    rng = random.Random(31)

    def antichain(count, dim):
        rows = np.array([[rng.randint(0, 6) for _ in range(dim)] for _ in range(count)],
                        dtype=np.int64).reshape(count, dim)
        return rows[solver._minimize_rows(rows)]

    for _ in range(60):
        dim, m = rng.randint(1, 4), rng.randint(2, 4)
        base = antichain(rng.randint(0, 6), dim)
        after = [antichain(rng.randint(0, 9), dim) for _ in range(m)]
        new = [np.array([rng.random() < 0.3 for _ in f], dtype=bool) for f in after]
        deltas = [f[mask] for f, mask in zip(after, new)]
        before = [f[~mask] for f, mask in zip(after, new)]
        terms = [base]
        for i, d in enumerate(deltas):
            others = [*after[:i], *before[i + 1:]]
            rng.shuffle(others)
            for f in others:
                d = np.maximum(d[:, None, :], f[None, :, :]).reshape(-1, dim)
                d = d[solver._minimize_rows(d)]
            terms.append(d)
        stacked = np.vstack(terms)
        expected = stacked[solver._minimize_rows(stacked)]
        assert np.array_equal(solver._telescoped_fold(base, deltas, after, before), expected)


def test_fold_splits_the_current_fronts_by_their_new_rows(monkeypatch):
    """Every telescoped fold of an espresso solve reads ``N_i``, the
    successor fronts of ``W_k`` pulled back, split row by row into
    ``D_i``, the rows absent from ``W_{k-1}``, and ``O_i``, the rows that
    ``W_{k-1}`` held as well.  ``O_i`` is not the whole pulled-back front
    of ``W_{k-1}``: some of its rows have left ``W_k``.  Passing ``N_i``
    for ``O_i`` keeps the answers but starts the products from whole
    fronts, so the fold would no longer telescope.  Under the default cap
    espresso never folds; a cap of 2^16 cells sends 37 defenders there."""
    monkeypatch.setattr(solver, "_GRID_CELL_CAP", 1 << 16)
    game = espresso_with_target(16)
    calls = []  # per defender pass: pass, defenders, then its folds
    passes = []

    def pull(update, rows):
        return solver._Inverses([update], game.dimension).pull(0, rows)

    delta_pass, defender_pass, fold = (
        solver._Engine.delta_pass,
        solver._Engine.defender_pass,
        solver._telescoped_fold,
    )

    def counted_pass(self, *args):
        passes.append(None)
        return delta_pass(self, *args)

    def named_defenders(self, cur, fresh, base):
        calls.append([len(passes), _changed_defenders(game, fresh)])
        return defender_pass(self, cur, fresh, base)

    def recorded_fold(base, deltas, after, before):
        calls[-1].append((deltas, after, before))
        return fold(base, deltas, after, before)

    monkeypatch.setattr(solver._Engine, "delta_pass", counted_pass)
    monkeypatch.setattr(solver._Engine, "defender_pass", named_defenders)
    monkeypatch.setattr(solver, "_telescoped_fold", recorded_fold)
    maps = history(compute_winning_budgets(game))
    folds = [(k, names, *f) for k, names, *fs in calls for f in fs]
    assert len(folds) == 37
    shrunk = 0
    several = 0
    for k, names, deltas, after, before in folds:
        nonempty = sum(d.shape[0] > 0 for d in deltas)
        assert nonempty >= 1
        several += nonempty >= 2
        # the defender whose pulled-back successor fronts the fold read
        (g,) = [
            g
            for g in names
            if len(game.successors(g)) == len(after)
            and all(
                np.array_equal(n_i, pull(u, maps[k][t]))
                for (t, u), n_i in zip(game.successors(g), after)
            )
        ][:1]
        for (t, u), d_i, n_i, o_i in zip(game.successors(g), deltas, after, before):
            rows, previous = maps[k][t], {tuple(r) for r in maps[k - 1][t].tolist()}
            kept = np.array([tuple(r) in previous for r in rows.tolist()], dtype=bool)
            assert np.array_equal(n_i, pull(u, rows))
            assert np.array_equal(d_i, pull(u, rows[~kept]))
            assert np.array_equal(o_i, pull(u, rows[kept]))
            shrunk += np.count_nonzero(kept) < len(previous)
    assert several == 32
    assert shrunk >= 1


def test_invalid_game_rejected():
    game = GameGraph.build(1, [("a", Owner.ATTACKER)], [("a", "ghost", delta(0))])
    with pytest.raises(Exception):
        compute_winning_budgets(game)


def test_iterate_once_rejects_an_edge_to_an_unknown_position():
    """The engine numbers edge targets among the sorted position ids, so
    an edge to a position the game lacks is refused before numbering."""
    game = GameGraph.build(
        1, [("a", Owner.ATTACKER), ("z", Owner.DEFENDER)], [("a", "ghost", delta(0))]
    )
    fronts = {"a": ParetoFront.empty(), "z": ParetoFront.empty()}
    with pytest.raises(InvalidGameError, match="edge to unknown position 'ghost'"):
        iterate_once(game, fronts)
