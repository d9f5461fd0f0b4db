import json

import pytest

from galois_energy import fileio
from galois_energy.errors import GameFileError
from galois_energy.game import Owner
from galois_energy.lattice import Energy
from galois_energy.updates import Add, MinOf, Mul


def test_bundled_espresso_has_chat_and_composed_loop(espresso):
    assert espresso.has_position("Chat")
    assert espresso.owner("Chat") is Owner.ATTACKER
    loop = espresso.update_between("CoffeeMaker", "CoffeeMaker")
    assert len(loop.steps) == 2
    assert loop.steps[0].specs[2] == Add(1)
    assert loop.steps[1].specs[2] == MinOf((0, 2))


def test_round_trip_identity(tmp_path, espresso):
    out = tmp_path / "copy.json"
    fileio.save_game(espresso, out, annotations={"query": {"position": "Office"}})
    loaded = fileio.load_game(out)
    assert loaded.game == espresso
    assert loaded.annotations == {"query": {"position": "Office"}}
    assert loaded.insertions == ()


def test_save_is_deterministic(tmp_path, espresso):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save_game(espresso, a)
    fileio.save_game(espresso, b)
    assert a.read_bytes() == b.read_bytes()


def _doc(**overrides):
    doc = {
        "schema": "galois-energy/1",
        "dimension": 1,
        "positions": [
            {"id": "a", "owner": "attacker"},
            {"id": "d", "owner": "defender"},
        ],
        "edges": [
            {"from": "a", "to": "d", "update": [[{"op": "add", "z": -1}]]},
        ],
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parallel_edges_are_split_and_reported(tmp_path):
    doc = _doc(
        edges=[
            {"from": "a", "to": "d", "update": [[{"op": "add", "z": -1}]]},
            {"from": "a", "to": "d", "update": [[{"op": "add", "z": -2}]]},
        ]
    )
    loaded = fileio.load_game(_write(tmp_path, doc))
    assert len(loaded.insertions) == 1
    ins = loaded.insertions[0]
    assert (ins.source, ins.target) == ("a", "d")
    assert loaded.game.has_position(ins.auxiliary)
    assert loaded.game.owner(ins.auxiliary) is Owner.ATTACKER
    assert loaded.game.validate() == []


def test_mul_spec_round_trip(tmp_path):
    doc = _doc(edges=[{"from": "a", "to": "d", "update": [[{"op": "mul", "m": 3}]]}])
    loaded = fileio.load_game(_write(tmp_path, doc))
    assert loaded.game.update_between("a", "d").steps[0].specs[0] == Mul(3)
    out = tmp_path / "out.json"
    fileio.save_game(loaded.game, out)
    assert fileio.load_game(out).game == loaded.game


def test_rejects_wrong_schema(tmp_path):
    with pytest.raises(GameFileError):
        fileio.load_game(_write(tmp_path, _doc(schema="nope/9")))


def test_rejects_malformed_update(tmp_path):
    doc = _doc(edges=[{"from": "a", "to": "d", "update": [[{"op": "sub", "z": 1}]]}])
    with pytest.raises(GameFileError):
        fileio.load_game(_write(tmp_path, doc))
    doc = _doc(edges=[{"from": "a", "to": "d", "update": [[]]}])
    with pytest.raises(GameFileError):
        fileio.load_game(_write(tmp_path, doc))


def test_rejects_unknown_endpoint(tmp_path):
    doc = _doc(edges=[{"from": "a", "to": "ghost", "update": [[{"op": "add", "z": 0}]]}])
    with pytest.raises(GameFileError):
        fileio.load_game(_write(tmp_path, doc))


@pytest.mark.parametrize("bad", [5, None, {"id": "a"}], ids=["int", "null", "object"])
@pytest.mark.parametrize("key", ["positions", "edges"])
def test_rejects_non_list_positions_and_edges(tmp_path, key, bad):
    with pytest.raises(GameFileError, match=f"'{key}' must be a list"):
        fileio.load_game(_write(tmp_path, _doc(**{key: bad})))


def test_rejects_non_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(GameFileError):
        fileio.load_game(path)
    with pytest.raises(GameFileError):
        fileio.load_game(tmp_path / "missing.json")


def test_instance_loaders(tmp_path):
    wg = _write(
        tmp_path,
        {
            "schema": "weighted-graph/1",
            "nodes": ["s", "t"],
            "edges": [["s", 2, "t"]],
            "source": "s",
            "target": "t",
        },
        "wg.json",
    )
    graph = fileio.load_weighted_graph(wg)
    assert graph.edges == (("s", 2, "t"),)

    vass = _write(
        tmp_path,
        {
            "schema": "vass/1",
            "states": ["q0", "q1"],
            "transitions": [["q0", [1, -1], "q1"]],
            "initial": {"state": "q0", "energy": [1, 0]},
            "target": {"state": "q1", "energy": "0,0"},
        },
        "vass.json",
    )
    v = fileio.load_vass(vass)
    assert v.initial == ("q0", Energy((1, 0)))
    assert v.target == ("q1", Energy((0, 0)))

    mr = _write(
        tmp_path,
        {
            "schema": "multi-reachability/1",
            "dimension": 1,
            "positions": [
                {"id": "a", "owner": "attacker"},
                {"id": "b", "owner": "defender"},
            ],
            "edges": [{"from": "a", "to": "b", "weight": [2]}],
            "targets": ["b"],
        },
        "mr.json",
    )
    m = fileio.load_multi_reachability(mr)
    assert m.targets == frozenset({"b"})

    wb = _write(
        tmp_path,
        {"schema": "weak-bound/1", "game": _doc(dimension=2, edges=[]), "pairs": [[0, 1]]},
        "wb.json",
    )
    loaded, pairs = fileio.load_weak_bound(wb)
    assert pairs == {(0, 1)}

    gr = _write(
        tmp_path,
        {"schema": "generalized-reachability/1", "game": _doc(), "targets": [["a"]]},
        "gr.json",
    )
    loaded, targets = fileio.load_generalized_reachability(gr)
    assert targets == [frozenset({"a"})]


@pytest.mark.parametrize("bad", [-1.9, True, 2.0, "1"])
@pytest.mark.parametrize(
    "spec",
    [
        lambda v: _doc(edges=[{"from": "a", "to": "d", "update": [[{"op": "add", "z": v}]]}]),
        lambda v: _doc(edges=[{"from": "a", "to": "d", "update": [[{"op": "mul", "m": v}]]}]),
        lambda v: _doc(edges=[{"from": "a", "to": "d", "update": [[{"op": "min", "of": [v]}]]}]),
        lambda v: _doc(dimension=v),
    ],
    ids=["z", "m", "of", "dimension"],
)
def test_game_file_rejects_non_integers(tmp_path, spec, bad):
    with pytest.raises(GameFileError, match="must be an integer"):
        fileio.load_game(_write(tmp_path, spec(bad)))


def _multi_reachability(dimension=1, weight=(2,)):
    return {
        "schema": "multi-reachability/1",
        "dimension": dimension,
        "positions": [{"id": "a", "owner": "attacker"}, {"id": "b", "owner": "defender"}],
        "edges": [{"from": "a", "to": "b", "weight": list(weight)}],
        "targets": ["b"],
    }


@pytest.mark.parametrize("bad", [1.5, True])
def test_multi_reachability_file_rejects_non_integers(tmp_path, bad):
    for doc in (_multi_reachability(weight=(bad,)), _multi_reachability(dimension=bad)):
        with pytest.raises(GameFileError, match="must be an integer"):
            fileio.load_multi_reachability(_write(tmp_path, doc, "mr.json"))


@pytest.mark.parametrize("bad", [0.5, False])
def test_instance_files_reject_non_integers(tmp_path, bad):
    wg = {"schema": "weighted-graph/1", "nodes": ["s", "t"], "edges": [["s", bad, "t"]],
          "source": "s", "target": "t"}
    with pytest.raises(GameFileError, match="must be an integer"):
        fileio.load_weighted_graph(_write(tmp_path, wg, "wg.json"))
    vass = {"schema": "vass/1", "states": ["q"], "transitions": [["q", [bad], "q"]],
            "initial": {"state": "q", "energy": [1]}, "target": {"state": "q", "energy": [bad]}}
    with pytest.raises(GameFileError, match="must be an integer"):
        fileio.load_vass(_write(tmp_path, vass, "vass.json"))
    vass["transitions"] = [["q", [1], "q"]]
    with pytest.raises(GameFileError, match="must be an integer"):
        fileio.load_vass(_write(tmp_path, vass, "vass.json"))


def _with_bad_position(bad):
    return _doc(positions=[{"id": "a", "owner": "attacker"}, {"id": bad, "owner": "defender"}],
                edges=[])


# one document per loader, with ``bad`` where a position, node or state id belongs
_BAD_ID_CASES = {
    "game": (fileio.load_game, _with_bad_position),
    "game-edge": (
        fileio.load_game,
        lambda bad: _doc(edges=[{"from": bad, "to": "d", "update": [[{"op": "add", "z": 0}]]}]),
    ),
    "weighted-graph": (
        fileio.load_weighted_graph,
        lambda bad: {"schema": "weighted-graph/1", "nodes": ["s", "t", bad],
                     "edges": [["s", 1, "t"]], "source": "s", "target": "t"},
    ),
    "vass": (
        fileio.load_vass,
        lambda bad: {"schema": "vass/1", "states": ["q", bad], "transitions": [],
                     "initial": {"state": "q", "energy": [0]},
                     "target": {"state": "q", "energy": [1]}},
    ),
    "multi-reachability": (
        fileio.load_multi_reachability,
        lambda bad: {**_multi_reachability(),
                     "positions": _multi_reachability()["positions"]
                     + [{"id": bad, "owner": "attacker"}]},
    ),
    "weak-bound": (
        fileio.load_weak_bound,
        lambda bad: {"schema": "weak-bound/1", "game": _with_bad_position(bad), "pairs": []},
    ),
    "generalized-reachability": (
        fileio.load_generalized_reachability,
        lambda bad: {"schema": "generalized-reachability/1", "game": _with_bad_position(bad),
                     "targets": [["a"]]},
    ),
}


@pytest.mark.parametrize("bad", [None, 7, [1, 2]], ids=["null", "int", "list"])
@pytest.mark.parametrize("case", sorted(_BAD_ID_CASES))
def test_loaders_reject_non_string_ids(tmp_path, case, bad):
    load, make = _BAD_ID_CASES[case]
    with pytest.raises(GameFileError, match="must be a string"):
        load(_write(tmp_path, make(bad)))


# one document per loader that reads a list of ids, with a string in its place
_STRING_ID_LIST_CASES = {
    "weighted-graph": (
        fileio.load_weighted_graph,
        {"schema": "weighted-graph/1", "nodes": "st", "edges": [["s", 1, "t"]],
         "source": "s", "target": "t"},
    ),
    "vass": (
        fileio.load_vass,
        {"schema": "vass/1", "states": "q", "transitions": [],
         "initial": {"state": "q", "energy": [0]}, "target": {"state": "q", "energy": [1]}},
    ),
    "multi-reachability": (
        fileio.load_multi_reachability,
        {**_multi_reachability(), "targets": "b"},
    ),
    "generalized-reachability": (
        fileio.load_generalized_reachability,
        {"schema": "generalized-reachability/1", "game": _doc(), "targets": ["ad"]},
    ),
}


@pytest.mark.parametrize("case", sorted(_STRING_ID_LIST_CASES))
def test_loaders_reject_a_string_as_id_list(tmp_path, case):
    load, doc = _STRING_ID_LIST_CASES[case]
    with pytest.raises(GameFileError, match="must be a list of strings"):
        load(_write(tmp_path, doc))


def test_both_position_readers_report_a_bad_owner(tmp_path):
    game = _doc(positions=[{"id": "a", "owner": "boss"}], edges=[])
    with pytest.raises(GameFileError, match="bad owner 'boss'"):
        fileio.load_game(_write(tmp_path, game))
    mr = {**_multi_reachability(), "positions": [{"id": "a", "owner": "boss"}]}
    with pytest.raises(GameFileError, match="bad owner 'boss'"):
        fileio.load_multi_reachability(_write(tmp_path, mr))
