"""Command-line front end.

Commands: ``solve`` (print all budget fronts), ``query`` (decide one
initial credit), ``transform`` (reduce a classical problem to a game
file) and ``check`` (differentially test the solver against the
brute-force oracle on a small game).

``check --samples`` and ``--bound`` must be at least 1, and ``check``
refuses a game without positions: a check of no samples would pass
vacuously.

Commands return 0 or 1 and raise on failure; ``main`` prints the error
and maps it to an exit code through ``_EXIT_CODES``.  Exit codes: 0
success / WIN / no mismatches, 1 LOSE or mismatches found, 2 parse or
validation failure (any ``ValueError``), an output file ``transform``
cannot write, a ``check`` argument below 1, or a game ``check`` cannot
test (without positions, over its size guard, or one where the oracle
runs out of configurations or its clip bound would carry a move past
int64), 3 iteration cap exceeded (only for a solve
given an ``iteration_cap``; the commands solve without one), 4 a front
value or edge parameter outside the solver's int64 range.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Sequence

from . import fileio, instances, oracle, solver
from .errors import GameFileError, IterationCapExceeded, MagnitudeOverflow, OracleCapacityError
from .lattice import Energy

EXIT_OK = 0
EXIT_LOSE_OR_MISMATCH = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_OVERFLOW = 4

# GameFileError, InvalidGameError and DimensionMismatch are ValueErrors.
_EXIT_CODES = {
    ValueError: EXIT_PARSE,
    OracleCapacityError: EXIT_PARSE,
    IterationCapExceeded: EXIT_CAP,
    MagnitudeOverflow: EXIT_OVERFLOW,
}

CHECK_MAX_POSITIONS = 12
CHECK_MAX_DIMENSION = 4


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, as RFC 4180 and ``csv.QUOTE_MINIMAL``
    write it: in double quotes, each quote doubled, exactly when it holds
    a comma, a double quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _print_fronts(result: solver.SolverResult, fmt: str, stats: bool, dimension: int) -> None:
    """Print the fixed point straight from its rows, one ``%`` format and
    one write per position; each element reads as ``Energy.render``
    renders it.  A ``%`` in a position id is doubled in the format."""
    out = sys.stdout
    row = ",".join(["%d"] * dimension)
    if fmt == "csv":
        print("position," + ",".join(f"component_{i}" for i in range(dimension)))
        for g in sorted(result.rows):
            rows = result.rows[g]
            line = _csv_field(g).replace("%", "%%") + "," + row + "\n"
            out.write(line * len(rows) % tuple(rows.ravel().tolist()))
        if stats:
            print(f"# iterations={result.iterations}")
            print(f"# max_front_size={result.max_front_size}")
    else:
        for g in sorted(result.rows):
            rows = result.rows[g]
            front = "; ".join([row] * len(rows))
            line = g.replace("%", "%%") + ":" + (" " + front if front else "") + "\n"
            out.write(line % tuple(rows.ravel().tolist()))
        if stats:
            print(f"iterations: {result.iterations}")
            print(f"max_front_size: {result.max_front_size}")


def _cmd_solve(args: argparse.Namespace) -> int:
    loaded = fileio.load_game(args.file)
    result = solver.compute_winning_budgets(loaded.game)
    _print_fronts(result, args.format, args.stats, loaded.game.dimension)
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    loaded = fileio.load_game(args.file)
    energy = Energy.parse(args.energy)
    if not loaded.game.has_position(args.position):
        raise GameFileError(f"unknown position {args.position!r}")
    if energy.dimension != loaded.game.dimension:
        raise GameFileError(
            f"energy has {energy.dimension} components, game has {loaded.game.dimension}"
        )
    result = solver.compute_winning_budgets(loaded.game)
    if solver.known_initial_credit(result, args.position, energy):
        print("WIN")
        return EXIT_OK
    print("LOSE")
    return EXIT_LOSE_OR_MISMATCH


def _cmd_transform(args: argparse.Namespace) -> int:
    if args.kind == "shortest-path":
        graph = fileio.load_weighted_graph(args.file)
        game, source = instances.from_shortest_path(graph)
        annotations = {"query": {"position": source}}
    elif args.kind == "vass-coverability":
        vass = fileio.load_vass(args.file)
        game, state, energy = instances.from_vass_coverability(vass)
        annotations = {"query": {"position": state, "energy": energy.render()}}
    elif args.kind == "multi-reachability":
        instance = fileio.load_multi_reachability(args.file)
        game = instances.from_multi_reachability(instance)
        annotations = {"targets": sorted(instance.targets)}
    elif args.kind == "weak-bound":
        loaded, pairs = fileio.load_weak_bound(args.file)
        game = instances.add_weak_upper_bound(loaded.game, pairs)
        annotations = {"pairs": [list(p) for p in sorted(pairs)]}
    else:
        loaded, targets = fileio.load_generalized_reachability(args.file)
        game = instances.add_generalized_reachability(loaded.game, targets)
        suffix = instances.generalized_query_energy(Energy(()), len(targets))
        annotations = {
            "tracking_sets": [sorted(f) for f in targets],
            "query_energy_suffix": suffix.render(),
        }
    fileio.save_game(game, args.output, annotations)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    game = fileio.load_game(args.file).game
    if not game.positions:
        raise ValueError("check needs a game with at least one position")
    if len(game.positions) > CHECK_MAX_POSITIONS or game.dimension > CHECK_MAX_DIMENSION:
        raise ValueError(
            f"check handles at most {CHECK_MAX_POSITIONS} positions "
            f"and dimension {CHECK_MAX_DIMENSION}"
        )
    for flag, value in (("--samples", args.samples), ("--bound", args.bound)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    result = solver.compute_winning_budgets(game)
    rng = random.Random(args.seed)
    samples = [
        (g, Energy(tuple(rng.randrange(args.bound) for _ in range(game.dimension))))
        for g in game.position_ids
        for _ in range(args.samples)
    ]
    verdicts = oracle.stable_decide_many(game, samples)
    mismatches = 0
    for (g, energy), verdict in zip(samples, verdicts):
        claimed = solver.known_initial_credit(result, g, energy)
        actual = verdict.attacker_wins
        if claimed != actual:
            mismatches += 1
            print(
                f"MISMATCH {g} {energy.render()} "
                f"solver={'WIN' if claimed else 'LOSE'} oracle={'WIN' if actual else 'LOSE'}"
            )
    print(f"checked {len(samples)} samples, {mismatches} mismatches")
    return EXIT_OK if mismatches == 0 else EXIT_LOSE_OR_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each ``parse_args``
    returns a fresh namespace, and building it anew would leave its
    reference cycles to the garbage collector on every call."""
    parser = argparse.ArgumentParser(
        prog="galois-energy",
        description="Solve energy games over vectors of extended naturals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="print the budget front of every position")
    p_solve.add_argument("file")
    p_solve.add_argument("--format", choices=["text", "csv"], default="text")
    p_solve.add_argument("--stats", action="store_true")
    p_solve.set_defaults(handler=_cmd_solve)

    p_query = sub.add_parser("query", help="decide one known-initial-credit question")
    p_query.add_argument("file")
    p_query.add_argument("--position", required=True)
    p_query.add_argument("--energy", required=True, help='e.g. "0,2,0,10" or "inf,0"')
    p_query.set_defaults(handler=_cmd_query)

    p_transform = sub.add_parser("transform", help="reduce a problem instance to a game file")
    p_transform.add_argument(
        "kind",
        choices=[
            "shortest-path",
            "vass-coverability",
            "multi-reachability",
            "weak-bound",
            "generalized-reachability",
        ],
    )
    p_transform.add_argument("file")
    p_transform.add_argument("-o", "--output", required=True)
    p_transform.set_defaults(handler=_cmd_transform)

    p_check = sub.add_parser("check", help="compare solver answers against the oracle")
    p_check.add_argument("file")
    p_check.add_argument("--samples", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--bound", type=int, default=8)
    p_check.set_defaults(handler=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
