"""Reading and writing games and problem instances.

All files are single JSON documents with a ``schema`` marker.  Game files
use ``galois-energy/1``:

.. code-block:: json

    {
      "schema": "galois-energy/1",
      "dimension": 2,
      "positions": [{"id": "a", "owner": "attacker"}],
      "edges": [{"from": "a", "to": "a", "update": [[
          {"op": "add", "z": -1}, {"op": "min", "of": [0, 1]}
      ]]}],
      "annotations": {}
    }

An update is a list of steps; a step lists one spec per component:
``{"op": "add", "z": int}``, ``{"op": "min", "of": [indices]}`` or
``{"op": "mul", "m": nat}``.  Parallel edges in a file are legal and get
rerouted through fresh auxiliary positions on load; the load report
records every insertion.

Game files label many edges with few distinct updates, so each distinct
update is parsed once: edges whose update JSON is equal share one
``Update`` object, and the solver and the oracle compile one plan per
object.  A shared update accepts and rejects exactly what a parse per
edge would (``_json_key``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import GameFileError, InvalidGameError
from .game import AuxiliaryInsertion, GameGraph, Owner, Position, split_parallel_edges
from .instances import MultiReachabilityGame, Vass, WeightedGraph
from .lattice import Energy, is_int
from .updates import Add, ComponentSpec, MinOf, Mul, Update, UpdateAtom

GAME_SCHEMA = "galois-energy/1"


@dataclass(frozen=True)
class LoadedGame:
    game: GameGraph
    insertions: tuple[AuxiliaryInsertion, ...] = ()
    annotations: dict[str, Any] = field(default_factory=dict)


def bundled_game_path(name: str = "espresso") -> Path:
    """Path of a game file shipped with the package."""
    return Path(str(resources.files("galois_energy").joinpath(f"data/{name}.json")))


def _int(raw: Any, what: str) -> int:
    """``raw`` itself when it is a JSON integer; floats, booleans and
    strings are rejected rather than converted."""
    if not is_int(raw):
        raise GameFileError(f"{what} must be an integer, got {raw!r}")
    return raw


def _ints(raw: Any, what: str) -> tuple[int, ...]:
    if not isinstance(raw, list):
        raise GameFileError(f"{what} must be a list of integers, got {raw!r}")
    return tuple(_int(c, what) for c in raw)


def _id(raw: Any, what: str) -> str:
    """``raw`` itself when it is a JSON string; ``null``, numbers and lists
    are rejected rather than converted."""
    if not isinstance(raw, str):
        raise GameFileError(f"{what} must be a string, got {raw!r}")
    return raw


def _ids(raw: Any, what: str) -> tuple[str, ...]:
    if not isinstance(raw, list):
        raise GameFileError(f"{what} must be a list of strings, got {raw!r}")
    return tuple(_id(c, what) for c in raw)


def _position(raw: Any) -> tuple[str, Owner]:
    if not isinstance(raw, dict) or "id" not in raw or "owner" not in raw:
        raise GameFileError(f"bad position entry {raw!r}")
    try:
        owner = Owner(raw["owner"])
    except ValueError:
        raise GameFileError(
            f"bad owner {raw['owner']!r} (use 'attacker' or 'defender')"
        ) from None
    return _id(raw["id"], "a position id"), owner


def _spec_from_json(raw: Any) -> ComponentSpec:
    if not isinstance(raw, dict) or "op" not in raw:
        raise GameFileError(f"bad component spec {raw!r}")
    op = raw["op"]
    try:
        if op == "add":
            return Add(_int(raw["z"], "'z'"))
        if op == "min":
            return MinOf(_ints(raw["of"], "'of'"))
        if op == "mul":
            return Mul(_int(raw["m"], "'m'"))
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"bad component spec {raw!r}: {exc}") from None
    raise GameFileError(f"unknown op {op!r} in component spec")


def _spec_to_json(spec: ComponentSpec) -> dict[str, Any]:
    if isinstance(spec, Add):
        return {"op": "add", "z": spec.z}
    if isinstance(spec, MinOf):
        return {"op": "min", "of": list(spec.indices)}
    return {"op": "mul", "m": spec.factor}


def _update_from_json(raw: Any, dimension: int) -> Update:
    if not isinstance(raw, list) or not raw:
        raise GameFileError(f"an update must be a nonempty list of steps, got {raw!r}")
    steps = []
    for step in raw:
        if not isinstance(step, list) or len(step) != dimension:
            raise GameFileError(f"a step must list {dimension} component specs, got {step!r}")
        try:
            steps.append(UpdateAtom(tuple(_spec_from_json(s) for s in step)))
        except ValueError as exc:
            raise GameFileError(str(exc)) from None
    return Update(tuple(steps))


def _json_key(raw: Any) -> str | int:
    """The key under which equal update JSON shares one parse: ``repr(raw)``,
    which tells ``1``, ``1.0`` and ``true`` apart (a key on values would
    not, as ``True == 1``); for a value ``repr`` refuses, an integer past
    Python's digit limit, the id of ``raw``."""
    try:
        return repr(raw)
    except ValueError:
        return id(raw)


def _update_to_json(update: Update) -> list[list[dict[str, Any]]]:
    return [[_spec_to_json(s) for s in atom.specs] for atom in update.steps]


def _load_document(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise GameFileError(f"{path} nests too deeply to parse") from None


def _list_field(doc: dict[str, Any], key: str) -> list[Any]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise GameFileError(f"{key!r} must be a list")
    return raw


def game_from_dict(doc: Any) -> LoadedGame:
    doc = _require_schema(doc, GAME_SCHEMA)
    if "dimension" not in doc:
        raise GameFileError("missing 'dimension'")
    dimension = _int(doc["dimension"], "'dimension'")
    if dimension < 1:
        raise GameFileError(f"dimension must be at least 1, got {dimension}")
    positions = [_position(p) for p in _list_field(doc, "positions")]
    edges: list[tuple[str, str, Update]] = []
    parsed: dict[str | int, Update] = {}
    for e in _list_field(doc, "edges"):
        if not isinstance(e, dict) or "from" not in e or "to" not in e or "update" not in e:
            raise GameFileError(f"bad edge entry {e!r}")
        source, target = _id(e["from"], "an edge end"), _id(e["to"], "an edge end")
        key = _json_key(e["update"])
        if key not in parsed:
            parsed[key] = _update_from_json(e["update"], dimension)
        edges.append((source, target, parsed[key]))
    positions, edges, insertions = split_parallel_edges(positions, edges)
    game = GameGraph.build(dimension, positions, edges)
    try:
        game.require_valid()
    except InvalidGameError as exc:
        raise GameFileError(f"invalid game: {exc}") from None
    annotations = doc.get("annotations", {})
    if not isinstance(annotations, dict):
        raise GameFileError("'annotations' must be an object")
    return LoadedGame(game=game, insertions=tuple(insertions), annotations=annotations)


def load_game(path: str | Path) -> LoadedGame:
    return game_from_dict(_load_document(path))


def game_to_dict(game: GameGraph, annotations: dict[str, Any] | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "schema": GAME_SCHEMA,
        "dimension": game.dimension,
        "positions": [
            {"id": p.id, "owner": p.owner.value}
            for p in sorted(game.positions, key=lambda p: p.id)
        ],
        "edges": [
            {"from": e.source, "to": e.target, "update": _update_to_json(e.update)}
            for e in sorted(game.edges, key=lambda e: (e.source, e.target))
        ],
    }
    if annotations:
        doc["annotations"] = annotations
    return doc


def save_game(game: GameGraph, path: str | Path, annotations: dict[str, Any] | None = None) -> None:
    text = json.dumps(game_to_dict(game, annotations), indent=2) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise GameFileError(f"cannot write {path}: {exc}") from None


def _require_schema(doc: Any, schema: str) -> dict[str, Any]:
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        got = doc.get("schema") if isinstance(doc, dict) else None
        raise GameFileError(f"expected schema {schema!r}, got {got!r}")
    return doc


def _energy_from_json(raw: Any) -> Energy:
    if isinstance(raw, str):
        return Energy.parse(raw)
    if isinstance(raw, list):
        return Energy(_ints(raw, "an energy component"))
    raise GameFileError(f"bad energy {raw!r}")


def load_weighted_graph(path: str | Path) -> WeightedGraph:
    doc = _require_schema(_load_document(path), "weighted-graph/1")
    try:
        return WeightedGraph(
            nodes=_ids(doc["nodes"], "'nodes'"),
            edges=tuple(
                (_id(v, "an edge end"), _int(w, "a weight"), _id(u, "an edge end"))
                for v, w, u in doc["edges"]
            ),
            source=_id(doc["source"], "'source'"),
            target=_id(doc["target"], "'target'"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"bad weighted graph: {exc}") from None


def load_vass(path: str | Path) -> Vass:
    doc = _require_schema(_load_document(path), "vass/1")
    try:
        initial, target = doc["initial"], doc["target"]
        return Vass(
            states=_ids(doc["states"], "'states'"),
            transitions=tuple(
                (_id(q, "a state"), _ints(w, "a transition"), _id(q2, "a state"))
                for q, w, q2 in doc["transitions"]
            ),
            initial=(_id(initial["state"], "a state"), _energy_from_json(initial["energy"])),
            target=(_id(target["state"], "a state"), _energy_from_json(target["energy"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"bad vass: {exc}") from None


def load_multi_reachability(path: str | Path) -> MultiReachabilityGame:
    doc = _require_schema(_load_document(path), "multi-reachability/1")
    try:
        dimension = _int(doc["dimension"], "'dimension'")
        positions = tuple(Position(*_position(p)) for p in doc["positions"])
        edges = tuple(
            (_id(e["from"], "an edge end"), _id(e["to"], "an edge end"),
             _ints(e["weight"], "a weight"))
            for e in doc["edges"]
        )
        targets = frozenset(_ids(doc["targets"], "'targets'"))
        return MultiReachabilityGame(
            dimension=dimension, positions=positions, edges=edges, targets=targets
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"bad multi-reachability game: {exc}") from None


def load_weak_bound(path: str | Path) -> tuple[LoadedGame, set[tuple[int, int]]]:
    doc = _require_schema(_load_document(path), "weak-bound/1")
    try:
        loaded = game_from_dict(doc["game"])
        pairs = {(_int(i, "a pair index"), _int(j, "a pair index")) for i, j in doc["pairs"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"bad weak-bound instance: {exc}") from None
    return loaded, pairs


def load_generalized_reachability(path: str | Path) -> tuple[LoadedGame, list[frozenset[str]]]:
    doc = _require_schema(_load_document(path), "generalized-reachability/1")
    try:
        loaded = game_from_dict(doc["game"])
        targets = [frozenset(_ids(f, "a target set")) for f in doc["targets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"bad generalized-reachability instance: {exc}") from None
    return loaded, targets
