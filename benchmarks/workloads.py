"""Benchmark workloads: the input files each one generates, and why it exists.

Every workload writes the files the operations run on into a fresh
directory.  The program under test only ever sees these files, through
``cli.main``.  Sizes are fixed here; the run's ``--seed`` picks the query
samples and, for ``mwr-grid``, a relabelling of the grid's positions.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from galois_energy import cli, fileio


@dataclass(frozen=True)
class Inputs:
    """Files one set-up wrote.

    ``game`` is solved and queried; ``canonical`` maps its position ids to
    the ids the committed reference uses; ``check`` is the argv of the
    ``check`` operation.
    """

    game: Path
    canonical: dict[str, str]
    check: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict[str, Any]
    prepare: Callable[[Path, int], Inputs] = field(repr=False)


def espresso_doc(target: int) -> dict[str, Any]:
    """The bundled espresso game with ``Office -> Energized`` subtracting ``target``."""
    doc = json.loads(fileio.bundled_game_path().read_text())
    (edge,) = [e for e in doc["edges"] if (e["from"], e["to"]) == ("Office", "Energized")]
    edge["update"][0][3]["z"] = -target
    return doc


def grid_doc(instance_seed: int, side: int, dimension: int, max_weight: int,
             defender_share: float) -> dict[str, Any]:
    """A ``multi-reachability/1`` grid: every node has an edge to each of its
    four neighbours with a random weight vector, a random share of nodes
    belongs to the defender, and the target is the corner ``r{side-1}c{side-1}``."""
    rng = random.Random(instance_seed)
    name = lambda r, c: f"r{r}c{c}"  # noqa: E731
    positions = [
        {"id": name(r, c), "owner": "defender" if rng.random() < defender_share else "attacker"}
        for r in range(side)
        for c in range(side)
    ]
    edges = []
    for r in range(side):
        for c in range(side):
            for rr, cc in ((r + 1, c), (r, c + 1), (r - 1, c), (r, c - 1)):
                if 0 <= rr < side and 0 <= cc < side:
                    weight = [rng.randint(0, max_weight) for _ in range(dimension)]
                    edges.append({"from": name(r, c), "to": name(rr, cc), "weight": weight})
    return {
        "schema": "multi-reachability/1",
        "dimension": dimension,
        "positions": positions,
        "edges": edges,
        "targets": [name(side - 1, side - 1)],
    }


def relabel(doc: dict[str, Any], seed: int) -> tuple[dict[str, Any], dict[str, str]]:
    """Rename positions by a seeded permutation and shuffle the file order.

    The game stays isomorphic, so fronts and pass counts do not change,
    but the solver visits positions and folds defender successors in
    another order.  Returns the new document and new id -> old id.
    """
    rng = random.Random(seed)
    old = [p["id"] for p in doc["positions"]]
    new = [f"v{i:03d}" for i in range(len(old))]
    rng.shuffle(new)
    rename = dict(zip(old, new))
    positions = [{**p, "id": rename[p["id"]]} for p in doc["positions"]]
    edges = [{**e, "from": rename[e["from"]], "to": rename[e["to"]]} for e in doc["edges"]]
    rng.shuffle(positions)
    rng.shuffle(edges)
    out = {**doc, "positions": positions, "edges": edges,
           "targets": [rename[t] for t in doc["targets"]]}
    return out, {v: k for k, v in rename.items()}


def _write(path: Path, doc: dict[str, Any]) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _transform(source: Path, target: Path) -> Path:
    code = cli.main(["transform", "multi-reachability", str(source), "-o", str(target)])
    if code != 0:
        raise RuntimeError(f"transform of {source.name} exited with {code}")
    return target


def _check_argv(game: Path, samples: int, bound: int) -> list[str]:
    return ["check", str(game), "--samples", str(samples), "--bound", str(bound), "--seed", "0"]


def parse_fronts(csv_text: str) -> dict[str, list[tuple[int, ...]]]:
    """Front elements per position from ``solve --format csv`` output."""
    fronts: dict[str, list[tuple[int, ...]]] = {}
    for line in csv_text.splitlines()[1:]:
        position, *components = line.split(",")
        fronts.setdefault(position, []).append(tuple(int(c) for c in components))
    return fronts


def front_digest(csv_text: str, canonical: dict[str, str]) -> str:
    """Digest of ``solve --format csv`` output with positions renamed to
    their canonical ids, independent of row order."""
    header, *rows = csv_text.splitlines()
    renamed = []
    for row in rows:
        position, rest = row.split(",", 1)
        renamed.append(f"{canonical.get(position, position)},{rest}")
    return hashlib.sha256("\n".join([header, *sorted(renamed)]).encode()).hexdigest()


REFERENCE = Path(__file__).with_name("reference.json")


DEEP_TARGET = 16
DEEP_CHECK = {"samples": 4, "bound": 8}


def _prepare_espresso_deep(workdir: Path, seed: int) -> Inputs:
    game = _write(workdir / "espresso-deep.json", espresso_doc(DEEP_TARGET))
    return Inputs(game, {}, _check_argv(game, **DEEP_CHECK))


GRID = {"instance_seed": 1, "side": 16, "dimension": 3, "max_weight": 4, "defender_share": 0.1}
GRID_HELD_OUT_SEED = 2
SMALL_GRID = {"instance_seed": 1, "side": 3, "dimension": 3, "max_weight": 4, "defender_share": 0.1}
SMALL_GRID_CHECK = {"samples": 10, "bound": 40}


def _prepare_mwr_grid(workdir: Path, seed: int) -> Inputs:
    doc, canonical = relabel(grid_doc(**GRID), seed)
    game = _transform(_write(workdir / "grid.json", doc), workdir / "grid-game.json")
    small = _transform(_write(workdir / "small.json", grid_doc(**SMALL_GRID)),
                       workdir / "small-game.json")
    return Inputs(game, canonical, _check_argv(small, **SMALL_GRID_CHECK))


ORACLE_TARGET = 10
ORACLE_CHECK = {"samples": 20, "bound": 12}


def _prepare_oracle_check(workdir: Path, seed: int) -> Inputs:
    game = _write(workdir / "espresso.json", espresso_doc(ORACLE_TARGET))
    return Inputs(game, {}, _check_argv(game, **ORACLE_CHECK))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "espresso-deep",
            "the paper's espresso game scaled up: 5 positions, deep fronts; time goes into "
            "the defender sup-product, a few very large rank-grid minimisations and history objects",
            {"energization_target": DEEP_TARGET, "check": DEEP_CHECK},
            _prepare_espresso_deep,
        ),
        Workload(
            "mwr-grid",
            "a wide game from transform multi-reachability: 257 positions, shallow fronts; "
            "thousands of small minimisations and inversions, a large file load and render",
            {"grid": GRID, "check_grid": SMALL_GRID, "check": SMALL_GRID_CHECK},
            _prepare_mwr_grid,
        ),
        Workload(
            "oracle-check",
            "check on the bundled espresso game: almost all time is the oracle's "
            "pure-Python configuration search; solver-only changes should leave check_s unchanged",
            {"energization_target": ORACLE_TARGET, "check": ORACLE_CHECK},
            _prepare_oracle_check,
        ),
    )
}
