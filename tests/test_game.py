import pickle

import pytest

from galois_energy.errors import InvalidGameError
from galois_energy.game import (
    GameGraph,
    Owner,
    Verdict,
    energy_level,
    split_parallel_edges,
    winner_of_finite_play,
)
from galois_energy.lattice import Energy
from galois_energy.solver import compute_winning_budgets
from galois_energy.updates import Add, Update


def E(*cs):
    return Energy(tuple(cs))


def delta(*zs):
    return Update.single(*(Add(z) for z in zs))


@pytest.fixture
def tiny():
    return GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("d", Owner.DEFENDER), ("dead", Owner.ATTACKER)],
        [("a", "d", delta(-2)), ("d", "a", delta(0)), ("a", "dead", delta(0))],
    )


def test_validate_espresso_ok(espresso):
    assert espresso.validate() == []


def test_hash_is_the_field_hash_and_survives_pickle(espresso):
    assert hash(espresso) == hash((espresso.dimension, espresso.positions, espresso.edges))
    copy = pickle.loads(pickle.dumps(espresso))
    assert copy == espresso
    assert hash(copy) == hash(espresso)
    # positions and edges are slotted: no instance dict, hashed by their fields
    for p, q in zip(espresso.positions, copy.positions):
        assert not hasattr(p, "__dict__")
        assert q == p and hash(q) == hash(p) == hash((p.id, p.owner))
    for e, f in zip(espresso.edges, copy.edges):
        assert not hasattr(e, "__dict__")
        assert f == e and hash(f) == hash(e) == hash((e.source, e.target, e.update))


def test_validate_reports_missing_endpoint():
    game = GameGraph.build(1, [("a", Owner.ATTACKER)], [("a", "ghost", delta(0))])
    violations = game.validate()
    assert any("ghost" in v for v in violations)
    with pytest.raises(InvalidGameError):
        game.require_valid()


def test_validate_reports_wrong_dimension():
    game = GameGraph.build(
        2, [("a", Owner.ATTACKER), ("b", Owner.DEFENDER)], [("a", "b", delta(0))]
    )
    assert any("dimension" in v for v in game.validate())


def test_validate_rejects_dimension_zero():
    """Also a dimension that is not an integer: ``True`` is no dimension 1."""
    for dimension, violation in (
        (0, "dimension must be at least 1, got 0"),
        (True, "dimension must be an integer, got True"),
        (1.0, "dimension must be an integer, got 1.0"),
    ):
        game = GameGraph.build(
            dimension,
            [("a", Owner.ATTACKER), ("d", Owner.DEFENDER)],
            [("a", "d", Update.identity(int(dimension)))],
        )
        assert game.validate() == [violation]
        with pytest.raises(InvalidGameError):
            compute_winning_budgets(game)


def test_validate_reports_duplicates():
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("a", Owner.DEFENDER), ("b", Owner.DEFENDER)],
        [("a", "b", delta(0)), ("a", "b", delta(-1))],
    )
    violations = game.validate()
    assert any("duplicate" in v for v in violations)
    assert any("parallel" in v for v in violations)


def test_validate_returns_a_fresh_list_each_call():
    """The violations are found once per graph, but no caller can change
    what a later call sees by mutating the list it got."""
    game = GameGraph.build(1, [("a", Owner.ATTACKER)], [("a", "ghost", delta(0))])
    first = game.validate()
    assert first == ["edge to unknown position 'ghost'"]
    first.clear()
    assert game.validate() == ["edge to unknown position 'ghost'"]
    with pytest.raises(InvalidGameError, match="ghost"):
        game.require_valid()
    valid = GameGraph.build(1, [("a", Owner.ATTACKER)], [("a", "a", delta(0))])
    valid.validate().append("edge to nowhere")
    assert valid.validate() == []
    assert valid.require_valid() is valid


def test_successors_of_deadlock_and_fanout(espresso):
    assert espresso.successors("Energized") == ()
    assert [t for t, _ in espresso.successors("Office")] == [
        "CoffeeMaker",
        "Energized",
        "Office",
    ]
    with pytest.raises(KeyError):
        espresso.successors("Lounge")


def test_energy_level_starts_at_initial(espresso):
    play = ["Office", "Energized"]
    assert energy_level(espresso, play, E(0, 0, 0, 10), 0) == E(0, 0, 0, 10)


def test_energy_level_applies_updates(espresso):
    play = ["Office", "Energized"]
    assert energy_level(espresso, play, E(0, 0, 0, 10), 1) == E(0, 0, 0, 0)
    assert energy_level(espresso, play, E(0, 0, 0, 9), 1) is None


def test_energy_level_bad_index(espresso):
    with pytest.raises(IndexError):
        energy_level(espresso, ["Office"], E(0, 0, 0, 0), 1)


def test_energy_level_rejects_non_edges(espresso):
    with pytest.raises(ValueError):
        energy_level(espresso, ["Office", "DepartmentHead"], E(0, 0, 0, 0), 1)


def test_energy_level_prefix_closure(tiny):
    play = ["a", "d", "a", "d"]
    levels = [energy_level(tiny, play, E(3), i) for i in range(4)]
    undefined_seen = False
    for level in levels:
        if level is None:
            undefined_seen = True
        else:
            assert not undefined_seen


def test_winner_defender_deadlock_is_attacker_win(espresso):
    verdict = winner_of_finite_play(espresso, ["Office", "Energized"], E(0, 0, 0, 10))
    assert verdict is Verdict.ATTACKER


def test_winner_undefined_level_is_defender_win(espresso):
    verdict = winner_of_finite_play(espresso, ["Office", "Energized"], E(0, 0, 0, 9))
    assert verdict is Verdict.DEFENDER


def test_winner_attacker_deadlock_is_defender_win(tiny):
    assert winner_of_finite_play(tiny, ["a", "dead"], E(5)) is Verdict.DEFENDER


def test_winner_not_over(tiny):
    assert winner_of_finite_play(tiny, ["a", "d"], E(5)) is Verdict.NOT_OVER


def test_split_parallel_edges_inserts_attacker_relay():
    positions = [("DH", Owner.DEFENDER), ("O", Owner.ATTACKER)]
    edges = [
        ("DH", "O", delta(0, -1)),
        ("DH", "O", delta(-1, 0)),
    ]
    out_positions, out_edges, report = split_parallel_edges(positions, edges)
    assert len(report) == 1
    aux = report[0].auxiliary
    assert (aux, Owner.ATTACKER) in out_positions
    assert ("DH", "O", delta(0, -1)) in out_edges
    assert ("DH", aux, delta(-1, 0)) in out_edges
    assert (aux, "O", Update.identity(2)) in out_edges
    game = GameGraph.build(2, out_positions, out_edges)
    assert game.validate() == []
    assert len(game.successors(aux)) == 1


def test_split_parallel_edges_share_one_identity():
    """Every relay's identity edge carries the same ``Update`` object."""
    positions = [("a", Owner.ATTACKER), ("b", Owner.DEFENDER)]
    edges = [("a", "b", delta(-k)) for k in range(4)]
    _, out_edges, report = split_parallel_edges(positions, edges)
    relays = {r.auxiliary for r in report}
    identities = {id(u) for s, _, u in out_edges if s in relays}
    assert len(relays) == 3
    assert len(identities) == 1


def test_split_preserves_single_self_loops():
    positions = [("a", Owner.ATTACKER)]
    edges = [("a", "a", delta(1))]
    _, out_edges, report = split_parallel_edges(positions, edges)
    assert report == []
    assert out_edges == edges
