"""Write benchmarks/reference.json: the answers every timed operation is checked against.

    python3 benchmarks/make_reference.py

For each workload this solves the game once, then validates the fronts
without trusting the solver before recording them:

* espresso with target 10: the ``Office`` front restricted to zero shots
  and zero energization must be the hand-derived cups/time trade-off;
* every workload: for a seeded sample of front elements, the brute-force
  oracle must find that the element wins and that each of its one-unit
  decrements loses.

It records the digest of the ``solve --format csv`` output, the exact
output of the workload's ``check`` operation, and the measured regime
(positions, passes, max front).  For ``mwr-grid`` it also records the
regime of a held-out grid instance that was not used to choose sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from galois_energy import cli, fileio, instances, oracle, solver  # noqa: E402
from galois_energy.lattice import Energy  # noqa: E402

EXPECTED_CUPS_TIME = [[1, 20], [2, 10], [3, 6], [4, 4], [5, 2], [10, 1]]
SPOT_CHECKS = 8
# the oracle explores every configuration below an energy, so grid
# spot checks stay on elements with small components
SPOT_MAX_SUM = 40


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def regime(game, result) -> dict[str, int]:
    return {
        "positions": len(game.positions),
        "passes": result.iterations,
        "max_front": result.max_front_size,
        "front_rows": sum(len(f) for f in result.fronts.values()),
    }


def spot_check(game, result, seed: int) -> int:
    """Oracle verdicts on sampled front elements and their decrements."""
    rng = random.Random(seed)
    elements = [
        (g, e)
        for g in sorted(result.fronts)
        for e in result.fronts[g]
        if any(e.components) and sum(e.components) <= SPOT_MAX_SUM
    ]
    decided = 0
    for g, e in rng.sample(elements, min(SPOT_CHECKS, len(elements))):
        oracle._arena_for.cache_clear()
        if not oracle.stable_decide(game, g, e).attacker_wins:
            raise SystemExit(f"oracle: front element {e.render()} at {g} does not win")
        for i, c in enumerate(e.components):
            if c:
                lower = Energy(tuple(x - (j == i) for j, x in enumerate(e.components)))
                if oracle.stable_decide(game, g, lower).attacker_wins:
                    raise SystemExit(f"oracle: {lower.render()} at {g} wins below the front")
        decided += 1
    oracle._arena_for.cache_clear()
    return decided


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            inputs = workload.prepare(workdir, 0)
            game = fileio.load_game(inputs.game).game
            result = solver.compute_winning_budgets(game)
            entry = {"regime": regime(game, result)}
            office = result.fronts.get("Office")
            if office is not None:
                cups_time = sorted(
                    [e.components[0], e.components[1]]
                    for e in office
                    if e.components[2] == 0 and e.components[3] == 0
                )
                entry["cups_time"] = cups_time
                if workload.params.get("energization_target") == 10:
                    if cups_time != EXPECTED_CUPS_TIME:
                        raise SystemExit(f"espresso cups/time front is {cups_time}")
                    entry["cups_time_matches_hand_derived"] = True
            entry["oracle_spot_checks"] = spot_check(game, result, seed=0)
            code, out = run_cli(["solve", "--format", "csv", str(inputs.game)])
            if code != 0:
                raise SystemExit(f"{name}: solve exited with {code}")
            entry["solve_digest"] = workloads.front_digest(out, inputs.canonical)
            code, out = run_cli(inputs.check)
            if code != 0:
                raise SystemExit(f"{name}: check reports mismatches:\n{out}")
            entry["check_output"] = out
            if name == "mwr-grid":
                held_out = {**workloads.GRID, "instance_seed": workloads.GRID_HELD_OUT_SEED}
                path = workdir / "held-out.json"
                path.write_text(json.dumps(workloads.grid_doc(**held_out)))
                held = instances.from_multi_reachability(fileio.load_multi_reachability(path))
                entry["held_out"] = {
                    "instance_seed": workloads.GRID_HELD_OUT_SEED,
                    **regime(held, solver.compute_winning_budgets(held)),
                }
            reference[name] = entry
            print(name, json.dumps({k: v for k, v in entry.items() if k != "check_output"}))
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
