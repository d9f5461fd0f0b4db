"""Fixed points at workload scale, compared with recorded digests.

Solves a fixed list of games with ``compute_winning_budgets`` and compares,
per game, the SHA-256 of the fixed point's rows, the number of passes and
the largest front with the values recorded in ``EXPECTED``.  The games are
built by the benchmark's own generators: espresso with its energization
target raised (``workloads.espresso_doc``) and multi-reachability grids
(``workloads.grid_doc(1, side, d, 4, 0.1)``) reduced to energy games.

    python3 scripts/fixed_points.py              # the default list, ~5 s
    python3 scripts/fixed_points.py "10x10 d=6"  # named games only

Prints one line per game with its solve time and exits 1 when any game
differs from its record.  A change to the solver that keeps its answers
keeps every line; one that means to change them re-records ``EXPECTED``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from galois_energy import GameGraph, compute_winning_budgets, fileio, instances  # noqa: E402
from workloads import espresso_doc, grid_doc  # noqa: E402

# name: (SHA-256 of the rows, passes, max front)
EXPECTED = {
    "espresso k=16": ("4e866894ad80796b9bcde6dadae8a4645ea06e2005be5b7e5ec61cf44aaf97f6", 68, 510),
    "espresso k=32": ("67d882237d3628cd9415f2644c626949428e8546791e12565b0d310f70b70844", 132, 2356),
    "espresso k=40": ("d1791211037b325c67a6102929ee9509225afda42bf9db125e2e8dc24a981c7f", 164, 3871),
    "9x9 d=4": ("27fa24a19421077183b43ce4b636ecf2eda8c50048fa2909c120b71ab2594bce", 22, 82),
    "9x9 d=5": ("3492216f16347ed78b771a5fae74b851df178c9cf33fae58f48ee032794ffe5a", 22, 246),
    "9x9 d=6": ("2affc5effec591d1494e13555397322756f849e7db74bf5d24bdcde0c849edcc", 24, 562),
    "11x11 d=5": ("070f11a171776b764eac6b977360f4b59c1a1978364f144ede0afe6b7a9ecb68", 29, 864),
    "16x16 d=3": ("a1b1243bde1825bba0c947bc24a0c3e9fb8ab43af4c2cdec4fbfbae59e7c5310", 37, 133),
    "32x32 d=3": ("a65e05d69ce38728fc410f0299abeeacf14023846a11f7f6995b552592d3bc0f", 74, 782),
    "10x10 d=6": ("bfa74514aa6849622b144320c8bb0f9f0ff26c4de1c75132e6b5eb0342ebc740", 27, 1742),
}

# games outside the default list, run by naming them
SLOW = {"10x10 d=6"}


def build(name: str) -> GameGraph:
    """``espresso k=K`` or ``SxS d=D``."""
    if name.startswith("espresso k="):
        return fileio.game_from_dict(espresso_doc(int(name.split("=")[1]))).game
    side, dimension = name.split("x")[0], name.split("d=")[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        path.write_text(json.dumps(grid_doc(1, int(side), int(dimension), 4, 0.1)))
        return instances.from_multi_reachability(fileio.load_multi_reachability(path))


def digest(rows: dict) -> str:
    """SHA-256 over the positions in sorted id order: each id, its row
    count, and its rows as little-endian int64."""
    h = hashlib.sha256()
    for g in sorted(rows):
        h.update(f"{g}\0{rows[g].shape[0]}\0".encode())
        h.update(rows[g].astype("<i8").tobytes())
    return h.hexdigest()


def main(names: list[str]) -> int:
    failed = 0
    for name in names or [g for g in EXPECTED if g not in SLOW]:
        game = build(name)
        start = time.perf_counter()
        result = compute_winning_budgets(game)
        seconds = time.perf_counter() - start
        got = (digest(result.rows), result.iterations, result.max_front_size)
        ok = EXPECTED.get(name) == got
        failed += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {name:14} {seconds:7.3f} s  {got!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
