import argparse
import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import espresso_with_target, grid_game, random_game
import galois_energy
from galois_energy import fileio, solver
from galois_energy.cli import _csv_field, main
from galois_energy.lattice import Energy


ESPRESSO = str(fileio.bundled_game_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_text_output(capsys):
    code, out, _ = run(capsys, "solve", ESPRESSO)
    assert code == 0
    lines = out.splitlines()
    office = next(line for line in lines if line.startswith("Office:"))
    assert "0,0,0,10" in office
    assert "0,0,1,9" in office
    assert "1,20,0,0" in office
    ids = [line.split(":", 1)[0] for line in lines]
    assert ids == sorted(ids)


def test_solve_csv_output(capsys):
    code, out, _ = run(capsys, "solve", ESPRESSO, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "position,component_0,component_1,component_2,component_3"
    assert "Office,0,0,0,10" in lines
    assert "Office,0,0,1,9" in lines
    assert "Energized,0,0,0,0" in lines


def test_solve_csv_quotes_ids_that_need_it(tmp_path, capsys):
    """Position ids holding a comma, a double quote, CR or LF are quoted
    as RFC 4180 quotes them, so ``csv.reader`` reads every id and value
    back; other ids are written as they are."""
    ids = ["a,b", 'say "hi"', "two\nlines", "cr\rid", "plain"]
    doc = {
        "schema": "galois-energy/1",
        "dimension": 1,
        "positions": [{"id": g, "owner": "defender"} for g in ids],
        "edges": [],
    }
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows == [["position", "component_0"], *([g, "0"] for g in sorted(ids))]
    assert "\nplain,0\n" in out


def test_solve_stats(capsys):
    code, out, _ = run(capsys, "solve", ESPRESSO, "--stats")
    assert code == 0
    assert any(line.startswith("iterations: ") for line in out.splitlines())
    assert any(line.startswith("max_front_size: ") for line in out.splitlines())
    code, out, _ = run(capsys, "solve", ESPRESSO, "--format", "csv", "--stats")
    assert code == 0
    assert any(line.startswith("# iterations=") for line in out.splitlines())
    assert any(line.startswith("# max_front_size=") for line in out.splitlines())


def render_fronts(result: solver.SolverResult, fmt: str, stats: bool, dimension: int) -> str:
    """Reference ``solve`` output: ``result.fronts`` rendered element by
    element through ``Energy.render`` and ``ParetoFront.render``."""
    lines = []
    if fmt == "csv":
        lines.append("position," + ",".join(f"component_{i}" for i in range(dimension)))
        for g in sorted(result.fronts):
            lines += [f"{g},{e.render()}" for e in result.fronts[g]]
        if stats:
            lines += [f"# iterations={result.iterations}"]
            lines += [f"# max_front_size={result.max_front_size}"]
    else:
        for g in sorted(result.fronts):
            front = result.fronts[g]
            lines.append(f"{g}:" + ("" if front.is_empty else " " + front.render()))
        if stats:
            lines += [f"iterations: {result.iterations}"]
            lines += [f"max_front_size: {result.max_front_size}"]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("name", ["espresso-16", "grid"])
def test_solve_output_is_the_rendered_fronts(name, capsys, tmp_path):
    game = espresso_with_target(16) if name == "espresso-16" else grid_game(8, 4, seed=2)
    path = tmp_path / "game.json"
    fileio.save_game(game, path)
    result = solver.compute_winning_budgets(fileio.load_game(path).game)
    if name == "grid":
        assert any(f.is_empty for f in result.fronts.values())
    for fmt in ("text", "csv"):
        for stats in ([], ["--stats"]):
            code, out, _ = run(capsys, "solve", str(path), "--format", fmt, *stats)
            assert code == 0
            assert out == render_fronts(result, fmt, bool(stats), game.dimension)


def render_rows(result: solver.SolverResult, fmt: str, dimension: int) -> str:
    """Reference ``solve`` output without stats: one f-string per front
    row, position ids quoted by ``_csv_field`` in CSV."""
    out = []
    if fmt == "csv":
        out.append("position," + ",".join(f"component_{i}" for i in range(dimension)) + "\n")
        for g in sorted(result.rows):
            field = _csv_field(g)
            out += [f"{field},{','.join(map(str, row))}\n" for row in result.rows[g].tolist()]
    else:
        for g in sorted(result.rows):
            front = "; ".join(",".join(map(str, row)) for row in result.rows[g].tolist())
            out.append(f"{g}:" + (" " + front if front else "") + "\n")
    return "".join(out)


ODD_IDS = [",", '"', "%", "%d", "100%", "p%s%%", "\n", "", 'a,"b"\r\n%', "plain"]


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_solve_renders_as_one_f_string_per_row(fmt, tmp_path, capsys):
    """``solve`` writes what one f-string per row writes, on random games
    whose position ids hold CSV's special characters, ``%`` and the empty
    string, with empty fronts among them."""
    rng = random.Random(f"render-{fmt}")
    path = tmp_path / "game.json"
    empty = 0
    for _ in range(30):
        game = random_game(rng, max_positions=6, declining=True)
        names = dict(zip(game.position_ids, rng.sample(ODD_IDS, len(game.position_ids))))
        doc = fileio.game_to_dict(game)
        for p in doc["positions"]:
            p["id"] = names[p["id"]]
        for e in doc["edges"]:
            e["from"], e["to"] = names[e["from"]], names[e["to"]]
        path.write_text(json.dumps(doc))
        result = solver.compute_winning_budgets(fileio.load_game(path).game)
        empty += sum(rows.shape[0] == 0 for rows in result.rows.values())
        code, out, _ = run(capsys, "solve", str(path), "--format", fmt)
        assert code == 0
        assert out == render_rows(result, fmt, game.dimension)
    assert empty


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", ESPRESSO, "--format", "csv", "--stats"],
        ["query", ESPRESSO, "--position", "Office", "--energy", "0,0,0,10"],
        ["check", ESPRESSO, "--samples", "2"],
    ],
    ids=["solve", "query", "check"],
)
def test_commands_build_no_front_objects(argv, capsys, monkeypatch):
    def refuse(rows):
        raise AssertionError("a command built a ParetoFront")

    monkeypatch.setattr(solver, "_rows_to_front", refuse)
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", ESPRESSO],
        ["query", ESPRESSO, "--position", "Office", "--energy", "0,0,0,10"],
        ["check", ESPRESSO],
    ],
    ids=["solve", "query", "check"],
)
def test_iteration_cap_exit_code(capsys, monkeypatch, argv):
    from galois_energy import cli
    from galois_energy.errors import IterationCapExceeded

    def blow_up(game, **kwargs):
        raise IterationCapExceeded(7, {}, {}, {})

    monkeypatch.setattr(cli.solver, "compute_winning_budgets", blow_up)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "7" in err


def test_oracle_capacity_exit_code(capsys, monkeypatch):
    from galois_energy import cli

    decide = cli.oracle.stable_decide_many

    def small_budget(game, queries):
        return decide(game, queries, config_budget=30)

    monkeypatch.setattr(cli.oracle, "stable_decide_many", small_budget)
    code, out, err = run(capsys, "check", ESPRESSO, "--samples", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "30 configurations" in err


def test_int64_overflow_exit_code(tmp_path, capsys):
    from galois_energy.game import GameGraph, Owner
    from galois_energy.updates import Add, Update

    # p0 needs 2**63, one more than int64 holds
    step = Update.single(Add(-(2**62)))
    game = GameGraph.build(
        1,
        [("p0", Owner.ATTACKER), ("p1", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("p0", "p1", step), ("p1", "d", step)],
    )
    path = tmp_path / "chain.json"
    fileio.save_game(game, path)
    for argv in (
        ["solve", str(path)],
        ["query", str(path), "--position", "p0", "--energy", "0"],
        ["check", str(path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "int64" in err


def test_oracle_int64_refusal_exit_code(tmp_path, capsys):
    from galois_energy.game import GameGraph, Owner
    from galois_energy.updates import Add, Mul, Update

    # the solver stays in range, but the oracle's first clip bound, about
    # 2**81, times the factor leaves int64
    game = GameGraph.build(
        1,
        [("a", Owner.ATTACKER), ("b", Owner.ATTACKER), ("d", Owner.DEFENDER)],
        [("a", "b", Update.single(Mul(2**40))), ("b", "d", Update.single(Add(-1)))],
    )
    path = tmp_path / "scale.json"
    fileio.save_game(game, path)
    code, out, err = run(capsys, "check", str(path), "--samples", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "int64" in err


def test_main_parses_every_call_with_one_parser(capsys, monkeypatch):
    parsers = []
    parse = argparse.ArgumentParser.parse_args

    def recorded(parser, *args, **kwargs):
        parsers.append(parser)
        return parse(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    _, with_stats, _ = run(capsys, "solve", ESPRESSO, "--stats")
    code, plain, _ = run(capsys, "solve", ESPRESSO)
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert "\niterations: " in with_stats
    assert code == 0 and with_stats.startswith(plain)
    assert not any(line.startswith(("iterations", "max_front_size")) for line in plain.splitlines())


def test_solve_deterministic(capsys):
    _, first, _ = run(capsys, "solve", ESPRESSO, "--format", "csv", "--stats")
    _, second, _ = run(capsys, "solve", ESPRESSO, "--format", "csv", "--stats")
    assert first == second


def test_solve_empty_game(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps(
            {"schema": "galois-energy/1", "dimension": 1, "positions": [], "edges": []}
        )
    )
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert out == ""


def test_solve_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "schema": "galois-energy/1",
                "dimension": 1,
                "positions": [{"id": "a", "owner": "attacker"}],
                "edges": [{"from": "a", "to": "a", "update": [[{"op": "sub", "z": 2}]]}],
            }
        )
    )
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("key", ["positions", "edges"])
def test_solve_non_list_field_exits_2(tmp_path, capsys, key):
    doc = {"schema": "galois-energy/1", "dimension": 1, "positions": [], "edges": []}
    doc[key] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: '{key}' must be a list")


def test_query_win_and_lose(capsys):
    code, out, _ = run(capsys, "query", ESPRESSO, "--position", "Office", "--energy", "10,1,0,0")
    assert (code, out.strip()) == (0, "WIN")
    code, out, _ = run(capsys, "query", ESPRESSO, "--position", "Office", "--energy", "0,0,0,0")
    assert (code, out.strip()) == (1, "LOSE")
    code, out, _ = run(
        capsys, "query", ESPRESSO, "--position", "Office", "--energy", "inf,inf,inf,inf"
    )
    assert (code, out.strip()) == (0, "WIN")


def test_query_bad_energy(capsys):
    code, _, err = run(capsys, "query", ESPRESSO, "--position", "Office", "--energy", "1,2")
    assert code == 2
    code, _, err = run(capsys, "query", ESPRESSO, "--position", "Nowhere", "--energy", "0,0,0,0")
    assert code == 2
    # Python's int reads "1_0" as 10, a winning energy here
    code, out, err = run(capsys, "query", ESPRESSO, "--position", "Office", "--energy", "1_0,0,0,0")
    assert (code, out) == (2, "")
    assert "bad energy component '1_0'" in err


def test_transform_shortest_path_and_solve(tmp_path, capsys):
    src = tmp_path / "graph.json"
    src.write_text(
        json.dumps(
            {
                "schema": "weighted-graph/1",
                "nodes": ["s", "x", "t"],
                "edges": [["s", 2, "x"], ["x", -1, "t"]],
                "source": "s",
                "target": "t",
            }
        )
    )
    out_file = tmp_path / "game.json"
    code, _, _ = run(capsys, "transform", "shortest-path", str(src), "-o", str(out_file))
    assert code == 0
    loaded = fileio.load_game(out_file)
    assert loaded.annotations["query"]["position"] == "s"
    code, out, _ = run(capsys, "query", str(out_file), "--position", "s", "--energy", "2")
    assert (code, out.strip()) == (0, "WIN")
    code, out, _ = run(capsys, "query", str(out_file), "--position", "s", "--energy", "1")
    assert (code, out.strip()) == (1, "LOSE")


def test_transform_vass_round_trip(tmp_path, capsys):
    src = tmp_path / "vass.json"
    src.write_text(
        json.dumps(
            {
                "schema": "vass/1",
                "states": ["s", "t"],
                "transitions": [["s", [-1, 2], "s"], ["s", [0, 0], "t"]],
                "initial": {"state": "s", "energy": [2, 0]},
                "target": {"state": "t", "energy": [0, 4]},
            }
        )
    )
    out_file = tmp_path / "vass-game.json"
    code, _, _ = run(capsys, "transform", "vass-coverability", str(src), "-o", str(out_file))
    assert code == 0
    loaded = fileio.load_game(out_file)
    query = loaded.annotations["query"]
    code, out, _ = run(
        capsys, "query", str(out_file), "--position", query["position"], "--energy", query["energy"]
    )
    assert (code, out.strip()) == (0, "WIN")
    reloaded = fileio.load_game(out_file)
    assert reloaded.game == loaded.game


def test_transform_unknown_kind_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["transform", "fancy-kind", "in.json", "-o", "out.json"])
    assert err.value.code == 2


def test_transform_parse_failure(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text("{}")
    code, _, err = run(capsys, "transform", "shortest-path", str(src), "-o", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "FILE"],
        ["query", "FILE", "--position", "a", "--energy", "0"],
        ["check", "FILE"],
        ["transform", "shortest-path", "FILE", "-o", "OUT"],
    ],
    ids=["solve", "query", "check", "transform"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    paths = {"FILE": str(src), "OUT": str(tmp_path / "out.json")}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {src} nests too deeply to parse")
    assert not (tmp_path / "out.json").exists()


def test_transform_unwritable_output_exits_2(tmp_path, capsys):
    src = tmp_path / "graph.json"
    src.write_text(
        json.dumps(
            {
                "schema": "weighted-graph/1",
                "nodes": ["s", "t"],
                "edges": [["s", 1, "t"]],
                "source": "s",
                "target": "t",
            }
        )
    )
    out_file = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, "transform", "shortest-path", str(src), "-o", str(out_file))
    assert code == 2
    assert err.startswith("error: cannot write")
    assert not out_file.exists()


def test_transform_dimension_zero_exits_2(tmp_path, capsys):
    src = tmp_path / "flat.json"
    src.write_text(
        json.dumps(
            {
                "schema": "multi-reachability/1",
                "dimension": 0,
                "positions": [{"id": "a", "owner": "attacker"}, {"id": "t", "owner": "attacker"}],
                "edges": [{"from": "a", "to": "t", "weight": []}],
                "targets": ["t"],
            }
        )
    )
    out_file = tmp_path / "game.json"
    code, _, err = run(capsys, "transform", "multi-reachability", str(src), "-o", str(out_file))
    assert code == 2
    assert "dimension must be at least 1" in err
    assert not out_file.exists()


def test_transform_string_id_list_exits_2(tmp_path, capsys):
    src = tmp_path / "mr.json"
    src.write_text(
        json.dumps(
            {
                "schema": "multi-reachability/1",
                "dimension": 1,
                "positions": [{"id": "a", "owner": "attacker"}, {"id": "t", "owner": "attacker"}],
                "edges": [{"from": "a", "to": "t", "weight": [1]}],
                "targets": "t",
            }
        )
    )
    out_file = tmp_path / "game.json"
    code, _, err = run(capsys, "transform", "multi-reachability", str(src), "-o", str(out_file))
    assert code == 2
    assert "'targets' must be a list of strings" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "kind, extra, message",
    [
        ("weak-bound", {"schema": "weak-bound/1", "pairs": [[0, 0]]}, "coincide"),
        (
            "generalized-reachability",
            {"schema": "generalized-reachability/1", "targets": [["ghost"]]},
            "do not exist",
        ),
    ],
    ids=["weak-bound", "generalized-reachability"],
)
def test_transform_reduction_failure_exits_2(tmp_path, capsys, kind, extra, message):
    """The loader accepts the file; the reduction itself refuses it."""
    game = fileio.game_to_dict(fileio.load_game(ESPRESSO).game)
    src = tmp_path / "instance.json"
    src.write_text(json.dumps({"game": game, **extra}))
    out_file = tmp_path / "game.json"
    code, out, err = run(capsys, "transform", kind, str(src), "-o", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert not out_file.exists()


def test_check_espresso_agrees(capsys):
    code, out, _ = run(capsys, "check", ESPRESSO, "--samples", "8", "--seed", "1", "--bound", "6")
    assert code == 0
    assert "0 mismatches" in out
    assert "MISMATCH" not in out


def test_check_corrupt_front_detected(capsys, monkeypatch):
    from galois_energy import cli

    # a solver that claims every energy winning must surface as mismatches
    monkeypatch.setattr(cli.solver, "known_initial_credit", lambda result, g, energy: True)
    code, out, _ = run(
        capsys,
        "check",
        ESPRESSO,
        "--samples",
        "8",
        "--seed",
        "1",
        "--bound",
        "6",
    )
    assert code == 1
    assert "MISMATCH" in out


def test_check_reports_mismatches_as_the_per_sample_loop(tmp_path, capsys, monkeypatch):
    from galois_energy import cli, oracle

    path = tmp_path / "small.json"
    fileio.save_game(random_game(random.Random(5), max_positions=4, max_dim=2), path)
    game = fileio.load_game(path).game
    honest = solver.known_initial_credit
    # a solver that negates every answer disagrees with the oracle on every sample
    monkeypatch.setattr(cli.solver, "known_initial_credit", lambda r, g, e: not honest(r, g, e))
    code, out, _ = run(capsys, "check", str(path), "--samples", "6", "--seed", "4", "--bound", "5")
    result = solver.compute_winning_budgets(game)
    rng = random.Random(4)
    lines = []
    for g in game.position_ids:
        for _ in range(6):
            energy = Energy(tuple(rng.randrange(5) for _ in range(game.dimension)))
            claimed = not honest(result, g, energy)
            actual = oracle.stable_decide(game, g, energy).attacker_wins
            if claimed != actual:
                lines.append(
                    f"MISMATCH {g} {energy.render()} "
                    f"solver={'WIN' if claimed else 'LOSE'} oracle={'WIN' if actual else 'LOSE'}"
                )
    lines.append(f"checked {6 * len(game.positions)} samples, {len(lines)} mismatches")
    assert code == 1
    assert len(lines) == 6 * len(game.positions) + 1
    assert out == "\n".join(lines) + "\n"


def test_check_on_the_small_grid_explores_once(tmp_path, capsys, monkeypatch):
    """No configuration the grid's samples reach has a component at the
    smallest starting bound, so one exploration at the largest decides
    every sample."""
    from galois_energy import oracle

    path = tmp_path / "grid.json"
    fileio.save_game(grid_game(3, 3), path)
    bounds = []
    explore = oracle._Arena._explore

    def recorded(arena, *args):
        bounds.append(arena.bound)
        return explore(arena, *args)

    monkeypatch.setattr(oracle._Arena, "_explore", recorded)
    code, out, _ = run(capsys, "check", str(path), "--samples", "10", "--bound", "40")
    assert (code, out) == (0, "checked 100 samples, 0 mismatches\n")
    assert len(bounds) == 1


def test_check_seed_determinism(capsys):
    args = ("check", ESPRESSO, "--samples", "5", "--seed", "9", "--bound", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_rejects_samples_below_one(capsys, samples):
    code, out, err = run(capsys, "check", ESPRESSO, "--samples", samples)
    assert code == 2
    assert "--samples must be at least 1" in err
    assert "checked" not in out


def test_check_guard_rejects_large_dimension(tmp_path, capsys):
    doc = {
        "schema": "galois-energy/1",
        "dimension": 5,
        "positions": [{"id": "d", "owner": "defender"}],
        "edges": [],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "dimension" in err


def test_check_rejects_a_game_without_positions(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps(
            {"schema": "galois-energy/1", "dimension": 1, "positions": [], "edges": []}
        )
    )
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert "at least one position" in err
    assert "checked" not in out


def test_module_entry_point():
    # the child process finds the package where this process found it
    package_root = str(Path(galois_energy.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "galois_energy", "query", ESPRESSO, "--position", "Office",
         "--energy", "0,0,0,10"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "WIN"
