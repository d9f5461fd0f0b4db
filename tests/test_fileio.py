import copy
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import grid_game

import galois_energy
from galois_energy import fileio
from galois_energy.errors import GameFileError
from galois_energy.game import GameGraph, Owner
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


def _three_edges(*updates):
    """A one-dimensional game whose attacker ``a`` has one edge, labelled
    in turn by each of ``updates``, to each of three defender deadlocks."""
    targets = ["b", "c", "d"]
    return _doc(
        positions=[{"id": "a", "owner": "attacker"}]
        + [{"id": t, "owner": "defender"} for t in targets],
        edges=[{"from": "a", "to": t, "update": u} for t, u in zip(targets, updates)],
    )


@pytest.mark.parametrize(
    "zs, bad",
    [((1, True, 1.0), "True"), ((True, 1.0, 1), "True"), ((1.0, True, 1), "1.0")],
    ids=["valid-first", "bool-first", "float-first"],
)
def test_shared_updates_reject_what_a_parse_per_edge_rejects(tmp_path, zs, bad):
    """``1``, ``true`` and ``1.0`` are equal in Python, but only ``1`` is an
    integer: an update parsed once for ``1`` is not handed to the others,
    and the first bad one is reported, wherever the good one stands."""
    doc = _three_edges(*([[{"op": "add", "z": z}]] for z in zs))
    message = f"bad component spec {{'op': 'add', 'z': {bad}}}: 'z' must be an integer, got {bad}"
    with pytest.raises(GameFileError, match=f"^{re.escape(message)}$"):
        fileio.load_game(_write(tmp_path, doc))
    with pytest.raises(GameFileError, match=f"^{re.escape(message)}$"):
        fileio.game_from_dict(doc)


def test_edges_with_equal_update_json_share_one_update(tmp_path):
    """Equal update JSON gives one ``Update`` object, and the game equals
    one built from an update per edge and saves to the same bytes."""
    minus = [[{"op": "add", "z": -1}], [{"op": "min", "of": [0]}]]
    doc = _three_edges(minus, [[{"op": "mul", "m": 2}]], json.loads(json.dumps(minus)))
    game = fileio.load_game(_write(tmp_path, doc)).game
    b, c, d = (game.update_between("a", t) for t in "bcd")
    assert b is d
    assert c is not b
    built = fileio.game_from_dict(doc).game  # equal update JSON in distinct objects
    assert built.update_between("a", "b") is built.update_between("a", "d")
    unshared = GameGraph.build(
        1,
        [(p.id, p.owner) for p in game.positions],
        [(e.source, e.target, copy.deepcopy(e.update)) for e in game.edges],
    )
    assert unshared.update_between("a", "b") is not unshared.update_between("a", "d")
    assert game == unshared
    fileio.save_game(game, tmp_path / "shared.json")
    fileio.save_game(unshared, tmp_path / "unshared.json")
    assert (tmp_path / "shared.json").read_bytes() == (tmp_path / "unshared.json").read_bytes()


def test_update_past_the_digit_limit_loads_unshared():
    """``repr`` refuses an integer past Python's digit limit, which a dict
    built in code can hold; such an update is still parsed and loaded."""
    huge = [[{"op": "add", "z": 10**5000}]]
    game = fileio.game_from_dict(_three_edges(huge, copy.deepcopy(huge), huge)).game
    assert {game.update_between("a", t).steps[0].specs[0] for t in "bcd"} == {Add(10**5000)}


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


def _traced_peak(f):
    gc.collect()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    """A saved 16x16 d=3 multi-reachability grid game: 961 edges, few
    distinct updates."""
    path = tmp_path_factory.mktemp("grid") / "grid-game.json"
    fileio.save_game(grid_game(16, 3), path)
    return path


def test_load_peaks_below_the_parsed_document(grid_file):
    """Repeated updates and ids are shared while the file is parsed, so a
    load holds less at its peak than the plain document does."""
    plain = _traced_peak(lambda: json.loads(grid_file.read_text()))
    assert _traced_peak(lambda: fileio.load_game(grid_file)) < plain


def test_edge_ends_are_their_positions_id_objects(grid_file):
    game = fileio.load_game(grid_file).game
    ids = {p.id: p.id for p in game.positions}
    assert all(e.source is ids[e.source] and e.target is ids[e.target] for e in game.edges)


def test_annotations_come_back_as_parsed(tmp_path):
    """Annotations that hold the keys a load shares, with values that are
    equal in Python but not in JSON, come back as ``json.loads`` gives them."""
    update = [[{"op": "add", "z": -1}]]
    annotations = {
        "update": update,
        "from": "a",
        "id": "d",
        "runs": [{"update": 1, "to": "a"}, {"update": 1.0, "id": 7}, {"update": True},
                 {"update": update, "from": ["a"]}],
    }
    path = _write(tmp_path, _doc(annotations=annotations))
    loaded = fileio.load_game(path).annotations
    parsed = json.loads(path.read_text())["annotations"]
    assert loaded == parsed
    assert json.dumps(loaded) == json.dumps(parsed)


def test_deeply_nested_objects_fail_naming_the_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"id": ' * 100_000 + "1" + "}" * 100_000)
    with pytest.raises(GameFileError, match=f"^{re.escape(str(path))} nests too deeply to parse$"):
        fileio.load_game(path)


def test_files_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_doc(positions=[{"id": "Büro", "owner": "defender"}], edges=[]),
                               ensure_ascii=False), encoding="utf-8")
    package_root = str(Path(galois_energy.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c",
         "import sys; from galois_energy import fileio; "
         "print(ascii(fileio.load_game(sys.argv[1]).game.position_ids))", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "LC_ALL": "C", "PYTHONPATH": package_root},
    )
    assert proc.stderr == ""
    assert proc.stdout == "('B\\xfcro',)\n"

