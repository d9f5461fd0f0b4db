"""galois-energy benchmark: end-to-end solve, query and check times on one
workload, or a traced run that splits them by layer.

    python3 benchmarks/run.py --workload espresso-deep --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
Every operation is one ``cli.main`` call in this process, with stdout
captured, a cold oracle arena cache and a fresh load of the game file,
and its output is checked against ``benchmarks/reference.json``.  A round
is: solve, query a front element (WIN), solve, query a one-unit decrement
of it (LOSE), check.  Rounds repeat until ``--seconds`` have passed, at least
one untraced or two traced ones.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics:
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``.
"""

import os
import sys
import time

_START = time.perf_counter()
# the solver is single-threaded numpy; keep BLAS from spawning threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_TRACED_ROUNDS = 2


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


class _Discard(io.TextIOBase):
    """A stdout that keeps nothing, so the output does not count as memory."""

    def write(self, text: str) -> int:
        return len(text)


class Bench:
    """Runs and checks the operations of one workload."""

    def __init__(self, workload, reference, seed, cli, oracle, workloads):
        self.workload = workload
        self.reference = reference
        self.cli = cli
        self.oracle = oracle
        self.w = workloads
        self.rng = random.Random(seed)
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.fronts = None
        self.queries: list[tuple[str, str, str]] = []

    def prepare(self, workdir: Path):
        workdir.mkdir()
        return self.workload.prepare(workdir, self.seed)

    def run(self, argv: list[str], expect) -> float | None:
        """Time one CLI call; None when it raised or its output is wrong."""
        arenas = getattr(self.oracle, "_arena_for", None)
        if arenas is not None:
            arenas.cache_clear()
        gc.collect()
        out = io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main(argv)
                elapsed = time.perf_counter() - start
            problem = expect(code, out.getvalue())
        except (Exception, SystemExit) as exc:
            problem = f"raised {exc!r}"
        if problem:
            self.failed += 1
            print(f"FAILED {argv[0]}: {problem}")
            return None
        return elapsed

    def expect_solve(self, inputs):
        def expect(code: int, out: str) -> str | None:
            if code != 0:
                return f"exit code {code}"
            if self.fronts is None:
                self.fronts = self.w.parse_fronts(out)
            if self.w.front_digest(out, inputs.canonical) != self.reference["solve_digest"]:
                return "fronts differ from the reference"
            return None

        return expect

    @staticmethod
    def expect_exact(want_code: int, want_out: str):
        def expect(code: int, out: str) -> str | None:
            if (code, out) != (want_code, want_out):
                return f"got exit {code} {out!r}, want exit {want_code} {want_out!r}"
            return None

        return expect

    def query(self, r: int) -> tuple[str, str, str] | None:
        """Round ``r``'s query: a seeded front element and a one-unit decrement."""
        while len(self.queries) <= r:
            candidates = sorted(p for p, f in (self.fronts or {}).items() if any(map(any, f)))
            if not candidates:
                return None
            position = self.rng.choice(candidates)
            element = self.rng.choice([e for e in self.fronts[position] if any(e)])
            i = self.rng.choice([i for i, c in enumerate(element) if c])
            lower = tuple(c - (j == i) for j, c in enumerate(element))
            render = lambda e: ",".join(map(str, e))  # noqa: E731
            self.queries.append((position, render(element), render(lower)))
        return self.queries[r]

    def timed(self, times: dict[str, list[float]], kind: str, argv: list[str], expect) -> None:
        elapsed = self.run(argv, expect)
        if elapsed is not None:
            times[kind].append(elapsed)

    def round(self, r: int, inputs, times: dict[str, list[float]], deadline: float) -> None:
        """Round ``r``: solve, query WIN, solve, query LOSE, check.  After the
        first round, stops at the deadline."""
        game = str(inputs.game)
        solve = ["solve", "--format", "csv", game]
        for verdict, code in (("WIN", 0), ("LOSE", 1)):
            if r and time.perf_counter() >= deadline:
                return
            self.timed(times, "solve", solve, self.expect_solve(inputs))
            q = self.query(r)
            if q is None:
                self.attempted += 1
                self.failed += 1
                print("FAILED query: no fronts to sample from")
                continue
            position, win, lose = q
            argv = ["query", game, "--position", position, "--energy", win if code == 0 else lose]
            self.timed(times, "query", argv, self.expect_exact(code, verdict + "\n"))
        if not (r and time.perf_counter() >= deadline):
            self.timed(times, "check", inputs.check,
                       self.expect_exact(0, self.reference["check_output"]))

    def peak_mem_mb(self, inputs) -> float:
        """tracemalloc peak of one solve, outside the timed operations."""
        gc.collect()
        with contextlib.redirect_stdout(_Discard()):
            tracemalloc.start()
            try:
                self.cli.main(["solve", "--format", "csv", str(inputs.game)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak / 1e6


def describe(values: list[float]) -> str:
    if not values:
        return "no samples"
    return f"median of {len(values)} (min {min(values):.4f}, max {max(values):.4f})"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def start_up() -> float:
    """Wall time of a fresh interpreter that imports the program and exits."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import galois_energy.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def end_to_end(bench: Bench, tmp: Path, seconds: float, imports_s: float) -> dict:
    starts, setups = [], []
    for i in range(SETUP_REPEATS):
        starts.append(start_up())
        start = time.perf_counter()
        inputs = bench.prepare(tmp / f"setup{i}")
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(starts) + statistics.median(setups)
    times: dict[str, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    for r in count():
        if r and time.perf_counter() >= deadline:
            break
        bench.round(r, inputs, times, deadline)
    metrics = {f"{kind}_s": (median(times[kind]), "s", describe(times[kind]))
               for kind in ("solve", "query", "check")}
    metrics["setup_s"] = (setup_s, "s", f"start-up and imports {describe(starts)} + inputs "
                          f"{describe(setups)}; imports in this process {imports_s:.4f} s")
    metrics["peak_mem_mb"] = (bench.peak_mem_mb(inputs), "MB", "tracemalloc peak, one solve")
    return metrics


def per_layer(bench: Bench, tmp: Path, seconds: float, modules: dict) -> tuple[dict, bool]:
    tracer = tracing.Tracer(modules)
    inputs = bench.prepare(tmp / "setup")
    untraced: dict[str, list[float]] = defaultdict(list)
    traced: dict[str, list[float]] = defaultdict(list)
    rounds = []
    deadline = time.perf_counter() + seconds
    for r in count():
        if r >= MIN_TRACED_ROUNDS and time.perf_counter() >= deadline:
            break
        elapsed = bench.run(["solve", "--format", "csv", str(inputs.game)],
                            bench.expect_solve(inputs))
        if elapsed is not None:
            untraced["solve"].append(elapsed)
        tracer.install()
        try:
            traced_inputs = bench.prepare(tmp / f"round{r}")
            bench.round(r, traced_inputs, traced, float("inf"))
        finally:
            tracer.uninstall()
        rounds.append((tracer.self_times(), +tracer.counts))

    exact = all(c == rounds[0][1] for _, c in rounds[1:])
    if not exact:
        print("FAILED counts differ between traced rounds of the same seed:")
        for _, c in rounds:
            print("  ", dict(sorted(c.items())))
    counts = rounds[0][1]
    absent = tracer.absent_layers()
    ratios = {
        "solver.minimize_keep": ("solver.minimize_rows_out", "solver.minimize_rows_in"),
        "oracle.arena_hits": ("oracle.arena_hit_count", "oracle.arena_decides"),
    }
    metrics = {}
    for name, unit, _, layer in tracing.PER_LAYER:
        if name in ratios:
            top, base = (counts[k] for k in ratios[name])
            value, note = (top / base if base else 0.0), f"{top} of {base}"
        elif unit == "s":
            per_round = [s[layer] for s, _ in rounds]
            value, note = median(per_round), describe(per_round)
        else:
            value, note = counts[name], "exact count per round"
        if layer in absent:
            note = "absent: the program has no function for this layer"
        metrics[name] = (value, unit, note)
    overhead = median(traced["solve"]) - median(untraced["solve"])
    metrics["trace.overhead_s"] = (
        overhead, "s", f"traced solve {median(traced['solve']):.4f} s - untraced "
        f"{median(untraced['solve']):.4f} s")
    if tracer.absent:
        print("absent names:", ", ".join(tracer.absent))
    regime = bench.reference["regime"]
    print(f"regime: {counts['solver.passes']} passes, max front {counts['solver.max_front']} "
          f"(reference {regime['passes']} passes, max front {regime['max_front']})")
    return metrics, exact


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "galois_energy" / "__init__.py").is_file():
        print(f"benchmark: no galois_energy package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from galois_energy import cli, fileio, game, instances, oracle, solver

    imports_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(workloads.REFERENCE.read_text())[workload.name]
    bench = Bench(workload, reference, args.seed, cli, oracle, workloads)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"parameters {json.dumps(workload.params)}, reference regime "
          f"{json.dumps(reference['regime'])}")
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        if args.trace:
            modules = {"solver": solver, "cli": cli, "fileio": fileio, "game": game,
                       "instances": instances, "oracle": oracle}
            metrics, exact = per_layer(bench, Path(tmp), args.seconds, modules)
        else:
            metrics, exact = end_to_end(bench, Path(tmp), args.seconds, imports_s), True
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28} {value:12.4f} {unit:6} {note}")
    print(f"{'fail_rate':28} {bench.failed / max(bench.attempted, 1):12.4f} {'ratio':6} "
          f"{bench.failed} of {bench.attempted} operations failed")
    result = {
        "correct": bench.failed == 0 and exact,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
