"""Fixed-point computation of minimal attacker winning budgets.

Starting from the empty budget at every position, each pass pulls winning
energies backwards over the edges via the update inverses and keeps the
minima, until two consecutive passes agree.  Pass ``k+1`` computes
``F(W_k)`` from the map ``W_k`` of pass ``k``:

* attacker position: minimal elements of
  ``{ inv_u(e') | g -u-> g', e' in W_k[g'] }``, where ``inv_u(e')`` is the
  least energy whose image under ``u`` dominates ``e'`` (the Galois
  inverse of ``updates``, evaluated on rows by ``_Inverses``)
* defender position: minimal suprema of one pulled-back energy per
  successor (``compute_new_win``); a defender deadlock therefore
  yields exactly the zero vector, and one empty successor budget empties
  the whole result.

Every pass reads the previous map only (Jacobi style), so the iteration
sequence is deterministic and position evaluations are independent.

The passes are evaluated semi-naively.  Upward closures only grow along
the iteration, so ``↑W_k = ↑W_{k-1} ∪ ↑Δ_k`` where ``Δ_k[g]`` are the rows
of ``W_k[g]`` absent from ``W_{k-1}[g]``.  Pulling back is monotone and
distributes over union, so with ``D_i`` the pulled-back ``Δ_k`` at the
``i``-th successor an attacker position needs the new rows only:

* attacker: ``W_{k+1}[g] = min(W_k[g] ∪ ⋃_i D_i)``

Inside the passes a position is named by its number alone, its index in
the sorted position ids: a map is a list of row matrices by position
number, position ``k`` owns a contiguous range of the edge arrays, and a
pass writes the fronts it computes into a copy of the list.  Ids appear
only in the results and in the maps ``iterate_once`` takes and returns.
Each pass returns its new rows stacked in position order, with their
position numbers.  The attacker side of the next pass runs set-at-a-time,
as one batch over all positions: that matrix is pulled back over all
incoming attacker edges in one gather through ``_Inverses``, which holds
the undo plan of every distinct update as padded per-step arrays.  The
unions ``W_k[g] ∪ ⋃_i D_i`` of every touched attacker are then minimised
in one call, as the segments of one batch (``_minimize_segments``).

A defender position whose successors gained rows is computed as the meet
``W_{k+1}[g] = min(⋂_i ↑N_i)`` of the pulled-back fronts ``N_i`` of
``W_k``, the antichain intersection of upward-closed sets.  The defender
side is set-at-a-time too: the successor fronts of every such defender
are pulled back in one gather and met in one batch
(``_defender_batch``).  Each column is ranked per defender, on the
defender's own values, so a defender's fronts lie on its own rank grid,
on which an upward closure is a threshold map: per line along the last
axis, the least rank it holds.  The maps of all factors of the batch
share one grid with a leading factor axis, whose other axes are as long
as the longest defender's; a defender's maps meet by an element-wise max,
and a line holds a minimal cell when its threshold is below every lower
line's.  The batch takes one grid when its map has at most
``rows·_CHUNK`` cells, the minimiser's rule, since padding to the longest
axes can make the joint map far larger than the defenders' own maps;
otherwise each defender meets on its own grid.  Only a defender whose own
grid has more than ``_GRID_CELL_CAP`` cells (the map has ``sizes[-1]``
times fewer) takes the fallback: with ``N_i`` split row by row into
``D_i`` and ``O_i``, the pulled-back rows of ``W_k`` that were already
rows of ``W_{k-1}`` (``O_i = N_i`` where the successor gained no rows),
the front is then the telescoped fold

* defender: ``W_{k+1}[g] = min(W_k[g] ∪ ⋃_i N_1⊔…⊔N_{i-1}⊔D_i⊔O_{i+1}⊔…⊔O_m)``

whose products start from the few new rows ``D_i`` rather than from
whole fronts and take the other factors smallest first.  The terms
telescope ``⋂_i ↑N_i`` minus ``⋂_i ↑O_i``, since ``↑N_i = ↑O_i ∪ ↑D_i``
and intersection of upward closures distributes over union; the part
left out lies in ``↑W_k[g]``, since ``↑O_i`` lies in the closure of the
pulled-back ``W_{k-1}``.  Defenders keep nothing between passes, and a
pass reads no map but ``W_k``: each evaluation pulls back the successor
fronts of ``W_k`` once, and the masks of new rows split them.

Both grid kernels rank a batch per segment (``_rank_segments``): by a
counting table of every segment's span of values when it has at most
``m·_CHUNK`` cells, and otherwise by one lexsort.  The minimiser returns
the indices of the minimal rows of each segment, one antichain being the
one-segment case: up to ``_CHUNK`` rows by a pairwise dominance sweep,
``O(m²·d)``, and above that on one rank grid with a leading segment axis,
against the threshold map of each row's segment, or by the sweep when
the grid or its map is too large.  ``W_k[g]`` is stacked first, so the
new rows ``Δ_{k+1}[g]`` are exactly the survivors past it.  The defender
batch stacks its met and folded fronts by defender, and marks the rows
that are not rows of ``W_k[g]`` by one binary search of the batch's
earlier rows among them.  A position without new rows among its
successors keeps its array, and the loop stops once no position gained a
row.  Pass 1 is ``F(∅)``: the zero row at defender deadlocks, all of it
new.  Each pass yields exactly the front map of the plain pass; with
``W_{k-1}`` empty the formulas are the plain pass itself, which is how
``iterate_once`` (and ``compute_new_win`` through it) evaluates arbitrary
maps.

The resulting fixed point maps each position to the Pareto front of its
winning budgets; membership of arbitrary energies follows by upward
closure.  Fronts of games with integer edge parameters stay finite
throughout, so the passes run on int64 row matrices.  A row is refused
with ``MagnitudeOverflow`` when it enters a front above what pulling it
back over an incoming edge keeps within int64, so no value ever wraps.

The fixed point stays int64 rows (``SolverResult.rows``); ``ParetoFront``
values are built on the first access to ``SolverResult.fronts``.  Every
row that enters a front is logged once with the pass it entered at (a
row that leaves a front is dominated from then on and never re-enters):
the loop range-checks and logs each pass's stacked new rows in one step,
and on its first access ``SolverResult.entries`` sorts the logged rows by
position in one stable sort, which keeps them in pass order, and splits
them at the position boundaries.  So ``↑W_k[g]`` is the upward closure
of the rows stamped at most ``k``.  The pass at which an energy became
winning is read off these stamps (``SolverResult.entry_pass``).
Membership in the upward closure of the fixed point
(``known_initial_credit``) needs no stamps: every logged row is above
some fixed-point row, so an energy is winning exactly when some row of
``SolverResult.rows`` is below it.  The tests keep a per-pass
concatenation of the log as the reference for ``entries``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, TypeVar

import numpy as np

from .errors import DimensionMismatch, IterationCapExceeded, MagnitudeOverflow, StrategyError
from .game import GameGraph, Owner
from .lattice import Energy, ParetoFront, is_int
from .updates import Add, MinOf, Update

FrontMap = dict[str, ParetoFront]
# Per position, every row that entered its front and the pass it entered at.
EntryLog = dict[str, tuple[np.ndarray, np.ndarray]]
# Per pass, its new rows stacked by position, the positions, and where each
# position's rows start.
PassLog = list[tuple[np.ndarray, np.ndarray, np.ndarray]]

_T = TypeVar("_T")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_CHUNK = 128
_GRID_CELL_CAP = 1 << 22


def _front_to_rows(g: str, front: ParetoFront, dimension: int, limit: int) -> np.ndarray:
    rows = np.empty((len(front), dimension), dtype=np.int64)
    for r, e in enumerate(front):
        if e.dimension != dimension:
            raise DimensionMismatch(f"front of {g!r} has dimension {e.dimension}, not {dimension}")
        if not e.is_finite:
            raise ValueError("iteration handles finite fronts only")
        if max(e.components, default=0) > limit:
            raise MagnitudeOverflow(f"front element {e.render()} exceeds {limit}")
        rows[r] = e.components
    return rows


def _rows_to_front(rows: np.ndarray) -> ParetoFront:
    return ParetoFront(tuple(Energy(tuple(int(c) for c in row)) for row in rows))


def _minimize_by_sweep(unique: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Indices of the minimal rows of each segment, in order, for rows
    sorted by segment id (``segments``, one per row) and then
    lexicographically, distinct within their segment.

    A row that dominates another is at most it in every column and below
    it in the first column where they differ, so it comes first in that
    order; a row is minimal exactly when no kept row of its segment before
    its chunk and no other row of its chunk and segment is below it.  Each
    chunk is compared with those rows column by column, one 2-D ``<=`` per
    column AND-ed together, and by segment id when it spans segments.
    """
    keep = np.zeros(unique.shape[0], dtype=bool)
    for start in range(0, unique.shape[0], _CHUNK):
        chunk = unique[start : start + _CHUNK]
        end = start + chunk.shape[0]
        lo = np.searchsorted(segments[:start], segments[start])
        kept = keep[lo:start]
        lower = np.vstack([unique[lo:start][kept], chunk])
        below = lower[:, :1] <= chunk[:, 0]
        for c in range(1, chunk.shape[1]):
            below &= lower[:, c : c + 1] <= chunk[:, c]
        if segments[start] != segments[end - 1]:
            ids = np.concatenate([segments[lo:start][kept], segments[start:end]])
            below &= ids[:, None] == segments[start:end]
        np.fill_diagonal(below[-chunk.shape[0] :], False)
        keep[start:end] = ~below.any(0)
    return np.flatnonzero(keep)


def _rank_segments(
    column: np.ndarray, segment: np.ndarray, nseg: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value of ``column``, its rank among the distinct values of its
    segment (``segment``, ids ``0`` to ``nseg - 1``); those values,
    ascending within each segment and segments in id order; and the
    ``nseg + 1`` offsets where each segment's values start.

    When a table of every segment's span of values has at most
    ``m·_CHUNK`` cells, a presence table ranks the values in
    ``O(m + table)`` (counting sort; Cormen et al., *Introduction to
    Algorithms*, §8.2), its running count held in the narrowest type that
    holds ``m``.  Otherwise one ``np.lexsort`` by segment and value."""
    m = column.shape[0]
    lo = int(column.min())
    span = int(column.max()) - lo + 1
    if nseg * span <= m * _CHUNK:
        cell = segment * span + (column - lo)
        present = np.zeros(nseg * span, dtype=bool)
        present[cell] = True
        count = np.cumsum(present, dtype=np.min_scalar_type(m))
        starts = np.zeros(nseg + 1, dtype=np.intp)
        starts[1:] = count[span - 1 :: span]
        rank = count[cell] - starts[segment] - 1
        return rank, np.flatnonzero(present) % span + lo, starts
    order = np.lexsort((column, segment))
    ordered, ids = column[order], segment[order]
    head = np.ones(m, dtype=bool)
    head[1:] = (ordered[1:] != ordered[:-1]) | (ids[1:] != ids[:-1])
    starts = np.searchsorted(ids[head], np.arange(nseg + 1))
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.cumsum(head) - starts[ids] - 1
    return rank, ordered[head], starts


def _segment_keys(
    rows: np.ndarray, segment: np.ndarray, nseg: int
) -> tuple[np.ndarray, list[int]] | None:
    """Every row's cell key on one grid for all segments: axis 0 is the
    segment axis, and each column is ranked within its row's segment
    (``_rank_segments``), on an axis as long as the largest segment's.
    Keys are ``np.ravel_multi_index`` of (segment, ranks), so they order
    rows by segment and then lexicographically.  ``None`` once one
    segment's grid exceeds ``_GRID_CELL_CAP`` cells or the threshold map
    (``nseg·∏ sizes[:-1]`` cells) more than ``m·_CHUNK``, the fewest pair
    tests the sweep makes on ``m`` rows, so no key outgrows int64.  The
    cap counts neither the map's ``sizes[-1]`` times fewer cells (which
    made a 9×9 grid game of dimension 6 solve 3.5× slower) nor the segment
    axis (which sent the attacker batch of a wide game to the sweep)."""
    m, n = rows.shape
    keys = segment.astype(np.int64)
    sizes: list[int] = []
    for c in range(n):
        rank, _, starts = _rank_segments(rows[:, c], segment, nseg)
        sizes.append(int((starts[1:] - starts[:-1]).max()))
        if math.prod(sizes) > _GRID_CELL_CAP or nseg * math.prod(sizes[: n - 1]) > m * _CHUNK:
            return None
        keys = keys * sizes[-1] + rank
    return keys, [nseg, *sizes]


def _threshold(keys: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The upward closure of the cells ``keys`` within each segment, as a
    map over all axes of the grid but the last.  Axis 0 is the segment
    axis (a meet's factor axis), of length 1 for one antichain.  Per line
    along the last axis the map holds the least rank ``least[x]`` of the
    closure on it, ``sizes[-1]`` where it holds none, so cell ``(x, l)`` is
    in the closure iff ``l >= least[x]``.  Each line takes its least key rank,
    the first of its keys in sorted order, closed by a running minimum
    along every axis but the segment axis, which no closure crosses.  The
    map's dtype is the narrowest that holds ``sizes[-1]``."""
    line, rank = np.divmod(np.sort(keys, kind="stable"), sizes[-1])
    head = np.diff(line, prepend=-1) != 0
    least = np.full(sizes[:-1], sizes[-1], dtype=np.min_scalar_type(sizes[-1]))
    least.reshape(-1)[line[head]] = rank[head]
    for axis in range(1, len(sizes) - 1):
        np.minimum.accumulate(least, axis=axis, out=least)
    return least


def _grid_minima(keys: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Indices of the minimal rows of each segment, as
    ``_minimize_segments`` returns them, for rows given by their cell keys
    on a grid whose axis 0 is the segment axis.  Deduplication runs on the
    keys, and with ``least`` the ``_threshold`` of the rows, a row at
    ``(x, l)`` is dominated exactly when ``least[x] < l`` or ``least[x -
    e_j] <= l`` for some axis ``j`` other than the segment axis."""
    unique_keys, first = np.unique(keys, return_index=True)
    least = _threshold(unique_keys, sizes).reshape(-1)
    line, rank = np.divmod(unique_keys, sizes[-1])
    dominated = least[line] < rank
    stride = 1
    for size in reversed(sizes[1:-1]):
        # at rank 0 the index wraps to an unrelated line, masked out
        dominated |= (least[line - stride] <= rank) & (line // stride % size > 0)
        stride *= size
    return first[~dominated]


def _minimize_segments(rows: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Indices of the minimal rows of each segment (the rows sharing one
    value of ``segments``): the first occurrence of each, ordered by
    segment id and then lexicographically.

    Above ``_CHUNK`` rows the segments and the rows' ranks within their
    segments make one grid, segment axis first (``_segment_keys``,
    ``_grid_minima``), when it fits.  Otherwise one stable ``np.lexsort``
    by segment and row drops each row equal to its predecessor in its
    segment, and the pairwise sweep takes the rest.
    """
    m = rows.shape[0]
    if m <= 1:
        return np.arange(m)
    if m > _CHUNK:
        # dense segment ids: the ranks of the ids among the distinct ids
        segment, labels, _ = _rank_segments(segments, np.zeros(m, dtype=np.intp), 1)
        if (grid := _segment_keys(rows, segment, len(labels))) is not None:
            return _grid_minima(*grid)
    order = np.lexsort((*rows.T[::-1], segments))
    ordered, ids = rows[order], segments[order]
    first = np.ones(m, dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(1) | (ids[1:] != ids[:-1])
    return order[first][_minimize_by_sweep(ordered[first], ids[first])]


def _minimize_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of the minimal rows, the first occurrence of each in
    lexicographic order: the one-segment case of ``_minimize_segments``."""
    return _minimize_segments(rows, np.zeros(rows.shape[0], dtype=np.intp))


def _meet_cells(
    keys: np.ndarray, sizes: list[int], firsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The minimal cells of a batch of meets ``min(⋂_i ↑N_i)``.  ``keys``
    are the cell keys of the factors' rows on a grid whose axis 0 is the
    factor axis, and meet ``j`` intersects the factors from ``firsts[j]``
    up to the next meet's first.  Returns per minimal cell its meet and its
    key on the grid without the factor axis, by meet and then in
    lexicographic order.

    A meet's ``_threshold`` map is the element-wise max of its factors'
    maps, and its minimal cells are ``(x, least[x])`` for the lines with
    ``least[x] < sizes[-1]`` and ``least[x - e_j] > least[x]`` along every
    axis ``j`` but the meet axis: one per line.  A meet whose own values
    span shorter axes holds no minimal cell past them, since its map
    repeats the last line of its own grid along a padded axis."""
    maps = _threshold(keys, sizes)
    # per meet its j-th factor, the last one repeated (max is idempotent)
    degree = np.subtract([*firsts[1:], sizes[0]], firsts)
    factor = firsts[:, None] + np.minimum(np.arange(degree.max()), degree[:, None] - 1)
    least = maps[factor[:, 0]]
    for j in range(1, factor.shape[1]):
        np.maximum(least, maps[factor[:, j]], out=least)
    del maps
    minimal = least < sizes[-1]
    for axis in range(1, least.ndim):
        inner = (slice(None),) * axis
        lower, upper = (*inner, slice(None, -1)), (*inner, slice(1, None))
        minimal[upper] &= least[lower] > least[upper]
    lines = np.flatnonzero(minimal)
    cells = lines * sizes[-1] + least.reshape(-1)[lines]
    return np.divmod(cells, math.prod(sizes[1:]))


class _Inverses:
    """Batched inverse evaluator: the undo plans of a list of updates,
    applied to rows that each name their update.  ``_Engine`` passes each
    distinct update once and maps edges to plans itself.

    Plans are padded per-step arrays, indexed ``[step, update, component]``;
    step ``s`` undoes an update's ``s``-th last atom, and a shorter plan is
    padded with identity steps (``Add(0)`` everywhere).  ``sub`` holds the
    Add amounts (0 elsewhere), ``div`` the Mul factors (1 elsewhere),
    ``keep`` is False at a MinOf, and ``drain[s, u, i, j]`` marks the MinOf
    components ``j`` reading ``i``.  A step maps component ``i`` of ``e'``
    to ``max(keep_i · ceil(max(e'_i - z_i, 0) / m_i), max_j drain_ij · e'_j)``.
    ``growth`` holds, per update, the most that pulling a row back adds to
    its largest component, intermediate values included: per step, the
    largest subtracted Add magnitude (a Mul or MinOf never exceeds its
    inputs).
    """

    def __init__(self, updates: list[Update], dimension: int):
        shape = (max((len(u.steps) for u in updates), default=0), len(updates), dimension)
        self.sub = np.zeros(shape, dtype=np.int64)
        self.div = np.ones(shape, dtype=np.int64)
        self.keep = np.ones(shape, dtype=bool)
        self.drain = np.zeros((*shape, dimension), dtype=bool)
        self.growth = []
        for u, update in enumerate(updates):
            growth = 0
            for s, atom in enumerate(reversed(update.steps)):
                for i, spec in enumerate(atom.specs):
                    if isinstance(spec, MinOf):
                        self.keep[s, u, i] = False
                        self.drain[s, u, list(spec.indices), i] = True
                        continue
                    param = spec.z if isinstance(spec, Add) else spec.factor
                    if not _INT64_MIN <= param <= _INT64_MAX:
                        raise MagnitudeOverflow(f"edge parameter {param} is outside int64")
                    (self.sub if isinstance(spec, Add) else self.div)[s, u, i] = param
                growth += max([0, *(-spec.z for spec in atom.specs if isinstance(spec, Add))])
            self.growth.append(growth)
        self.scaled = (self.div != 1).any((1, 2))
        self.drained = [np.flatnonzero(step.any((0, 1))) for step in self.drain]

    def pull(self, updates: np.ndarray | int, rows: np.ndarray) -> np.ndarray:
        """``inv_u(e')`` for every row ``e'`` of ``rows``, with ``u`` the
        update ``updates`` names for it (one index for all rows, or one
        per row)."""
        for s in range(self.sub.shape[0]):
            out = rows - self.sub[s, updates]
            np.maximum(out, 0, out=out)
            if self.scaled[s]:
                out = -(-out // self.div[s, updates])
            if self.drained[s].size:
                out *= self.keep[s, updates]
                drain = self.drain[s, updates]
                for j in self.drained[s]:
                    np.maximum(out, rows[:, j : j + 1], out=out, where=drain[..., j])
            rows = out
        return rows


class _Fresh(NamedTuple):
    """The rows of a map that are new since the previous map: per position
    number, the mask of the new rows among its front, ``None`` where it
    gained none (``masks``); and those rows stacked in position order
    (``rows``), with their position numbers (``pos``)."""

    masks: list[np.ndarray | None]
    rows: np.ndarray
    pos: np.ndarray


def _to_fronts(ids: Iterable[str], rows: Iterable[np.ndarray]) -> FrontMap:
    return {g: _rows_to_front(r) for g, r in zip(ids, rows)}


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated ``np.arange(lo[i], hi[i])``, in one gather."""
    count = hi - lo
    return np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())


def _telescoped_fold(
    base: np.ndarray, deltas: list[np.ndarray], after: list[np.ndarray], before: list[np.ndarray]
) -> np.ndarray:
    """``min(base ∪ ⋃_i N_1⊔…⊔N_{i-1}⊔D_i⊔O_{i+1}⊔…⊔O_k)`` in lexicographic
    order, where ``after`` holds the N, ``deltas`` the D and ``before`` the
    O.  Each term is a fold of pairwise sup products through the
    minimiser, starting from its small delta factor and taking the other
    factors smallest first, which keeps the intermediate products small; a
    term with an empty factor (an empty D_i above all) is empty and skipped.
    """
    terms = [base]
    for i, delta in enumerate(deltas):
        factors = [delta, *sorted([*after[:i], *before[i + 1 :]], key=len)]
        if any(not f.shape[0] for f in factors):
            continue
        acc = factors[0]
        for f in factors[1:]:
            sups = np.maximum(acc[:, None, :], f[None, :, :]).reshape(-1, acc.shape[1])
            acc = sups[_minimize_rows(sups)]
        terms.append(acc)
    rows = np.vstack(terms)
    return rows[_minimize_rows(rows)]


def _row_keys(ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of non-negative values: the big-endian bytes
    of its id and its row, which compare bytewise as ``(id, *row)`` does
    numerically, in lexicographic order."""
    keys = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=">i8")
    keys[:, 0] = ids
    keys[:, 1:] = rows
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).reshape(-1)


def _defender_batch(
    pulled: np.ndarray,
    counts: list[int],
    degree: list[int],
    bases: list[np.ndarray],
    new: list[np.ndarray | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``min(⋂_i ↑N_i)`` for each of a batch of defenders, stacked by
    defender and then in lexicographic order (``rows``), with the number of
    its defender in the batch (``owner``) and whether it is absent from the
    defender's antichain in ``bases``, whose upward closure lies in the meet
    (``fresh``).  ``pulled`` stacks the pulled-back successor fronts ``N_i``
    of all of them: ``counts`` rows per factor, ``degree`` factors per
    defender, in order.  ``new`` holds per factor the mask of its new rows
    (``None`` for none), read by the fold only.

    A defender with an empty factor contributes no rows.  Each column is
    ranked per defender, on the defender's own values (``_rank_segments``),
    and a defender whose own grid has more than ``_GRID_CELL_CAP`` cells
    takes the telescoped fold.  The rest meet on one grid with a leading
    factor axis whose other axes are as long as their longest
    (``_meet_cells``), when its map has at most ``rows·_CHUNK`` cells, the
    minimiser's rule; otherwise each meets on its own grid, as a batch of
    one.  A row, met or folded, is old where one ``np.searchsorted`` of the
    bases' rows among the stacked rows, keyed by defender and row
    (``_row_keys``), finds it.
    """
    first = np.cumsum([0, *degree[:-1]])
    nonempty = np.minimum.reduceat(counts, first) > 0
    if not nonempty.any():
        return pulled[:0], np.empty(0, dtype=np.intp), np.empty(0, dtype=bool)
    size = np.add.reduceat(counts, first)
    segment = np.repeat(np.arange(len(degree)), size)
    ranked = [_rank_segments(column, segment, len(degree)) for column in pulled.T]
    own = np.stack([s[1:] - s[:-1] for _, _, s in ranked], axis=1)
    # in floats, so that no product of many long axes wraps around
    fits = np.prod(own, axis=1, dtype=float) <= _GRID_CELL_CAP
    ends = np.cumsum(counts)
    found, owner = [], []
    folded = np.flatnonzero(nonempty & ~fits)
    for b in folded:
        moves = range(first[b], first[b] + degree[b])
        after = [pulled[ends[f] - counts[f] : ends[f]] for f in moves]
        marks = [np.zeros(counts[f], bool) if new[f] is None else new[f] for f in moves]
        deltas = [f[m] for f, m in zip(after, marks)]
        before = [f[~m] for f, m in zip(after, marks)]
        found.append(_telescoped_fold(bases[b], deltas, after, before))
        owner.append(np.full(found[-1].shape[0], b))
    # each array goes as soon as it is used: a late batch can set the
    # peak memory of a solve
    del pulled
    met = np.flatnonzero(nonempty & fits)
    if met.size:
        joint = sum(degree[b] for b in met) * math.prod(own[met].max(0)[:-1].tolist())
        groups = [met] if joint <= int(size[met].sum()) * _CHUNK else met[:, None]
        factor = np.repeat(np.arange(len(counts)), counts)
        for group in groups:
            chosen = np.zeros(len(degree), dtype=bool)
            chosen[group] = True
            take = chosen[segment]
            dense = np.cumsum(np.repeat(chosen, degree)) - 1
            grid = own[group].max(0).tolist()
            keys = dense[factor[take]]
            for (rank, _, _), length in zip(ranked, grid):
                keys = keys * length + rank[take]
            which, cells = _meet_cells(keys, [int(dense[-1]) + 1, *grid], dense[first[group]])
            del keys, take
            of = group[which]
            digits = np.unravel_index(cells, grid)
            found.append(np.stack([v[s[of] + d] for (_, v, s), d in zip(ranked, digits)], axis=1))
            owner.append(of)
    del ranked, segment
    rows, owner = np.vstack(found), np.concatenate(owner)
    del found
    if folded.size and met.size:  # the folded fronts came first
        order = np.argsort(owner, kind="stable")
        rows, owner = rows[order], owner[order]
    keys = _row_keys(owner, rows)
    old = _row_keys(np.repeat(np.arange(len(bases)), [b.shape[0] for b in bases]), np.vstack(bases))
    at = np.minimum(np.searchsorted(keys, old), keys.size - 1)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[at[keys[at] == old]] = False
    return rows, owner, fresh


class _Engine:
    """Array-based semi-naive pass evaluator for one game.

    A pass computes ``F(cur)`` from ``base = F(old)`` and the rows of
    ``cur`` that are not in ``old`` (``_Fresh``), for maps whose upward
    closures grow from ``old`` to ``cur``; ``old`` itself is not needed.
    With every row marked new (``old`` empty) it is the plain pass over
    the full fronts.  Positions are numbered in the order of ``ids``, and a
    map is a list of row matrices indexed by position number.  Edges are
    numbered in position order: position ``k`` owns the edges
    ``out_start[k]:out_start[k + 1]``, each leading to ``target``.  Many
    edges carry the same update object (file loads and transforms share
    one per distinct update), so ``inverses`` compiles one undo plan per
    distinct object and ``edge_plan`` names each edge's plan; both pulls
    read the plans through it.
    """

    def __init__(self, game: GameGraph):
        self.n = game.dimension
        self.ids = game.position_ids
        moves = [game.successors(g) for g in self.ids]
        self.attacker = np.array([game.owner(g) is Owner.ATTACKER for g in self.ids], dtype=bool)
        self.out_start = np.cumsum([0, *map(len, moves)])
        # the ids are sorted, so a bisection numbers each target
        self.target = np.array([bisect_left(self.ids, t) for m in moves for t, _ in m], np.intp)
        # one undo plan per distinct update object, numbered by first edge;
        # the game holds the objects, so their ids stay distinct
        updates = [u for m in moves for _, u in m]
        distinct = {id(u): u for u in updates}
        plan = {key: k for k, key in enumerate(distinct)}
        self.edge_plan = np.array([plan[id(u)] for u in updates], np.intp)
        self.inverses = _Inverses(list(distinct.values()), self.n)
        source = np.repeat(np.arange(len(self.ids)), np.diff(self.out_start))
        defended = ~self.attacker[source]
        self.defender_source, self.defender_target = source[defended], self.target[defended]
        # per position, the largest front value that every pull-back over an
        # incoming edge keeps within int64; -1 refuses every row
        plan_limit = np.array([max(_INT64_MAX - g, -1) for g in self.inverses.growth], np.int64)
        self.limit = np.full(len(self.ids), _INT64_MAX)
        np.minimum.at(self.limit, self.target, plan_limit[self.edge_plan])
        # the attacker edges by target position: those into position k are
        # pull_start[k]:pull_start[k + 1], from pull_source through pull_plan
        edges = np.flatnonzero(~defended)
        edges = edges[np.argsort(self.target[edges], kind="stable")]
        self.pull_plan, self.pull_source = self.edge_plan[edges], source[edges]
        self.pull_start = np.searchsorted(self.target[edges], np.arange(len(self.ids) + 1))

    def from_fronts(self, fronts: Mapping[str, ParetoFront]) -> list[np.ndarray]:
        """The row map of ``fronts``, which names every position once."""
        if unknown := set(fronts) - set(self.ids):
            raise KeyError(f"unknown position {min(unknown)!r}")
        if missing := [g for g in self.ids if g not in fronts]:
            raise KeyError(f"no front given for position {missing[0]!r}")
        limits = self.limit.tolist()
        return [_front_to_rows(g, fronts[g], self.n, limits[k]) for k, g in enumerate(self.ids)]

    def start(self) -> list[np.ndarray]:
        """``F`` of the empty map: the zero row at defender deadlocks, empty
        elsewhere.  Nothing else is carried into the passes."""
        deadlock = ~self.attacker & (np.diff(self.out_start) == 0)
        return [np.zeros((int(d), self.n), dtype=np.int64) for d in deadlock]

    def every_row(self, rows: list[np.ndarray]) -> _Fresh:
        """Every row of the map ``rows`` marked new."""
        sizes = [r.shape[0] for r in rows]
        masks = [np.ones(size, dtype=bool) if size else None for size in sizes]
        pos = np.repeat(np.arange(len(rows)), sizes)
        return _Fresh(masks, np.vstack([np.empty((0, self.n), dtype=np.int64), *rows]), pos)

    def attacker_pass(
        self, fresh: _Fresh, base: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``min(base ∪ ⋃_t inv_t(Δ_t))`` for every attacker with a successor
        that gained rows, stacked by position and then in lexicographic
        order; their position numbers; and the mask of the rows absent from
        ``base``.

        The stacked new rows of the previous pass are pulled back over all
        their incoming attacker edges in one call.  Every union is
        minimised in one ``_minimize_segments`` call, one segment per
        attacker, with all ``base`` rows stacked before the pulled rows.
        """
        # each new row once per attacker edge into its position
        lo, hi = self.pull_start[fresh.pos], self.pull_start[fresh.pos + 1]
        k = _ranges(lo, hi)
        delta = fresh.rows[np.repeat(np.arange(fresh.pos.size), hi - lo)]
        pulled, source = self.inverses.pull(self.pull_plan[k], delta), self.pull_source[k]
        sources = np.flatnonzero(np.bincount(source, minlength=len(self.ids)))
        bases = [base[s] for s in sources.tolist()]
        rows = np.vstack([*bases, pulled])
        segments = np.concatenate([np.repeat(sources, [b.shape[0] for b in bases]), source])
        keep = _minimize_segments(rows, segments)
        return rows[keep], segments[keep], keep >= rows.shape[0] - pulled.shape[0]

    def defender_pass(
        self, cur: list[np.ndarray], fresh: _Fresh, base: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``min(⋂_i ↑N_i)`` over the pulled-back successor fronts N of
        ``cur``, for every defender with a successor that gained rows,
        stacked by position and then in lexicographic order; their position
        numbers; and the mask of the rows absent from ``base``.

        The successor fronts of all these defenders are pulled back in one
        call, and a defender keeps nothing between passes.  The fronts are
        met in one batch (``_defender_batch``); a defender over the cap
        takes the telescoped fold, which splits each N_i by ``fresh``:
        D_i are the pulled-back new rows, and O_i the pulled-back rows that
        the previous map held as well.
        """
        changed = np.bincount(fresh.pos, minlength=len(self.ids)) > 0
        names = np.unique(self.defender_source[changed[self.defender_target]])
        if not names.size:
            return np.empty((0, self.n), dtype=np.int64), names, np.empty(0, dtype=bool)
        lo, hi = self.out_start[names], self.out_start[names + 1]
        edges = _ranges(lo, hi)
        targets = self.target[edges].tolist()
        counts = [cur[t].shape[0] for t in targets]
        rows, owner, grown = _defender_batch(
            self.inverses.pull(
                np.repeat(self.edge_plan[edges], counts), np.vstack([cur[t] for t in targets])
            ),
            counts,
            (hi - lo).tolist(),
            [base[d] for d in names.tolist()],
            [fresh.masks[t] for t in targets],
        )
        return rows, names[owner], grown

    def delta_pass(
        self, cur: list[np.ndarray], fresh: _Fresh, base: list[np.ndarray]
    ) -> tuple[list[np.ndarray], _Fresh]:
        """``F(cur)`` and its new rows: those absent from ``base``.

        ``fresh`` holds the rows of ``cur`` absent from the previous map
        ``old``, and ``base`` is ``F(old)``; ``old`` itself is never read.
        The map starts as a copy of ``base``, and each side's pass writes
        its fronts into it: a position with no new rows among its
        successors keeps its array.  No other state passes from one pass to
        the next.
        """
        new, masks, rows, pos = list(base), [None] * len(self.ids), [], []
        sides = self.attacker_pass(fresh, base), self.defender_pass(cur, fresh, base)
        for fronts, owner, grown in sides:
            touched = np.flatnonzero(np.bincount(owner, minlength=len(self.ids)))
            firsts = np.searchsorted(owner, touched).tolist()
            gained = np.bincount(owner[grown], minlength=len(self.ids)).tolist()
            for k, a, b in zip(touched.tolist(), firsts, [*firsts[1:], owner.size]):
                # each front its own copy: a view would keep the whole stack alive
                new[k] = fronts[a:b].copy()
                if gained[k]:
                    masks[k] = grown[a:b]
            rows.append(fronts[grown])
            pos.append(owner[grown])
        pos = np.concatenate(pos)
        order = np.argsort(pos, kind="stable")
        return new, _Fresh(masks, np.vstack(rows)[order], pos[order])


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Fixed point plus instrumentation.

    ``rows`` holds the fixed point: per position its front as an int64
    matrix, one row per element in lexicographic order.  ``fronts`` turns
    it into ``ParetoFront`` values on first access.  ``iterations`` counts
    passes of the do-while loop including the final confirming pass;
    ``max_front_size`` is the largest front cardinality observed anywhere
    during the run.  ``pass_log`` holds the rows each pass added to the
    fronts; ``entries`` sorts them by position on first access, and only
    ``entry_pass`` reads it.
    """

    rows: dict[str, np.ndarray] = field(repr=False)
    iterations: int
    max_front_size: int
    pass_log: PassLog = field(repr=False)

    @cached_property
    def fronts(self) -> FrontMap:
        return _to_fronts(self.rows, self.rows.values())

    @cached_property
    def entries(self) -> EntryLog:
        """Per position, every row that ever entered its front (an int64
        matrix) and the pass it entered at, in pass order; the front after
        pass ``k`` is the minimal rows stamped at most ``k``."""
        n = next((rows.shape[1] for rows in self.rows.values()), 0)
        return _entry_log(tuple(self.rows), n, self.pass_log)

    def entry_pass(self, g: str, e: Energy) -> int | None:
        """First pass after which ``e`` is winning at ``g``, or ``None``
        when ``e`` is not winning there.

        Raises ``KeyError`` for an unknown position and
        ``DimensionMismatch`` for an energy of the wrong dimension.
        """
        rows, stamps = _at(self.entries, g)
        below = _below(rows, e)
        return int(stamps[below].min()) if below.any() else None


def _at(table: Mapping[str, _T], g: str) -> _T:
    """``table[g]``, or a ``KeyError`` naming the unknown position ``g``."""
    try:
        return table[g]
    except KeyError:
        raise KeyError(f"unknown position {g!r}") from None


def _below(rows: np.ndarray, e: Energy) -> np.ndarray:
    """Which of ``rows`` are below ``e``.  Exact at every magnitude: a
    component of ``e`` at or above the int64 maximum (``inf`` included) is
    at least every row component, so clipping ``e`` there changes no
    comparison."""
    if e.dimension != rows.shape[1]:
        raise DimensionMismatch(f"energy dim {e.dimension} vs game dim {rows.shape[1]}")
    top = np.array([min(c, _INT64_MAX) for c in e.components], dtype=np.int64)
    return (rows <= top).all(1)


def compute_new_win(game: GameGraph, old_win: Mapping[str, ParetoFront], g: str) -> ParetoFront:
    """Budget front of defender position ``g`` from the previous front map:
    the minima of suprema of one pulled-back energy per successor, since
    the attacker must afford every defender choice simultaneously."""
    if game.owner(g) is not Owner.DEFENDER:
        raise ValueError(f"{g!r} is not a defender position")
    return iterate_once(game, old_win)[g]


def iterate_once(game: GameGraph, old_win: Mapping[str, ParetoFront]) -> FrontMap:
    """One full pass over all positions, reading only the old snapshot.

    ``old_win`` names every position once: a key that is not a position,
    or a position without a front, raises ``KeyError`` naming it, and a
    front of the wrong dimension ``DimensionMismatch`` naming its position.
    Raises ``InvalidGameError`` for a game that fails ``GameGraph.validate``.
    """
    engine = _Engine(game.require_valid())
    cur = engine.from_fronts(old_win)
    new, _ = engine.delta_pass(cur, engine.every_row(cur), engine.start())
    return _to_fronts(engine.ids, new)


def _entry_log(ids: tuple[str, ...], n: int, log: PassLog) -> EntryLog:
    """Per position, every row that entered its front and the pass it
    entered at, in pass order, from the log of passes 1, 2, ...: the
    logged rows, their positions and their stamps sorted by position in
    one stable sort, and split at the position boundaries."""
    rows = np.concatenate([np.empty((0, n), np.int64), *(r for r, _, _ in log)])
    pos = np.concatenate(
        [np.empty(0, np.intp), *(np.repeat(p, np.diff(f, append=r.shape[0])) for r, p, f in log)]
    )
    order = np.argsort(pos, kind="stable")
    stamps = np.repeat(np.arange(1, len(log) + 1), [r.shape[0] for r, _, _ in log])[order]
    cuts = np.searchsorted(pos[order], np.arange(1, len(ids)))
    # ``take`` gathers narrow rows several times faster than ``rows[order]``
    return dict(zip(ids, zip(np.split(rows.take(order, 0), cuts), np.split(stamps, cuts))))


def _solve_jacobi(
    engine: _Engine, cap: int | None
) -> tuple[int, dict[str, np.ndarray], int, PassLog]:
    """Passes, fixed point, largest front and pass log of one solve."""
    ids = engine.ids
    win = engine.start()
    prev = [rows[:0] for rows in win]
    fresh = engine.every_row(win)
    log: PassLog = []
    max_front = 0
    passes = 1
    while fresh.pos.size:
        top = fresh.rows.max(1)
        over = top > engine.limit[fresh.pos]
        if over.any():
            k = fresh.pos[over.argmax()]
            raise MagnitudeOverflow(
                f"front of {ids[k]!r} reaches {int(top[fresh.pos == k].max())}; "
                "pulling it back over an incoming edge could exceed int64"
            )
        firsts = np.flatnonzero(np.diff(fresh.pos, prepend=-1))
        grown = fresh.pos[firsts].tolist()
        log.append((fresh.rows, fresh.pos[firsts], firsts))
        max_front = max(max_front, *(win[k].shape[0] for k in grown))
        if cap is not None and passes > cap:
            gained = np.diff(firsts, append=fresh.pos.size).tolist()
            growing = {ids[k]: count for k, count in zip(grown, gained)}
            raise IterationCapExceeded(cap, _to_fronts(ids, prev), _to_fronts(ids, win), growing)
        new, fresh = engine.delta_pass(win, fresh, win)
        passes += 1
        prev, win = win, new
    return passes, dict(zip(ids, win)), max_front, log


def compute_winning_budgets(game: GameGraph, *, iteration_cap: int | None = None) -> SolverResult:
    """Iterate to the least fixed point and return all budget fronts.

    The passes stop once no front gains a row, which always happens:
    upward closures of fronts only grow, and an ascending chain of
    upward-closed subsets of ℕ^d stabilises (Dickson's lemma).  A caller
    that wants a bound on the passes anyway passes ``iteration_cap``: a
    pass after that many that still changes a front raises
    ``IterationCapExceeded``, naming the positions still growing; a cap
    that is neither ``None`` nor an integer of at least 0 raises
    ``ValueError``.  Raises ``MagnitudeOverflow`` when a front value
    outgrows the int64 range the passes compute in.
    """
    if iteration_cap is not None and not (is_int(iteration_cap) and iteration_cap >= 0):
        raise ValueError(f"iteration_cap must be None or an integer >= 0, got {iteration_cap!r}")
    game.require_valid()
    engine = _Engine(game)
    passes, fixed, max_front, log = _solve_jacobi(engine, iteration_cap)
    return SolverResult(rows=fixed, iterations=passes, max_front_size=max_front, pass_log=log)


def known_initial_credit(result: SolverResult, g: str, e: Energy) -> bool:
    """Does energy ``e`` suffice to win from ``g``?  The same answer as
    ``entry_pass(g, e) is not None``, with the same errors, read off the
    fixed point: the upward closure of every entered row is that of the
    fixed point's rows."""
    return bool(_below(_at(result.rows, g), e).any())


def unknown_initial_credit(result: SolverResult, g: str) -> bool:
    """Does any energy suffice to win from ``g``?"""
    return _at(result.rows, g).shape[0] > 0


@dataclass(frozen=True)
class AttackerStrategy:
    """Energy-positional winning strategy read off a solved game.

    ``choose`` picks, for an attacker position and an energy in the
    upward closure of its front, a successor whose updated energy is
    winning and entered the iteration as early as possible; that entry
    pass (``SolverResult.entry_pass``) drops strictly along every move
    inside the winning region, so following the strategy reaches a
    defender deadlock without the energy ever becoming undefined.  Ties
    break on successor id.
    """

    game: GameGraph
    result: SolverResult

    def choose(self, g: str, e: Energy) -> str:
        if self.game.owner(g) is not Owner.ATTACKER:
            raise LookupError(f"{g!r} is not an attacker position")
        if self.result.entry_pass(g, e) is None:
            raise LookupError(f"energy {e.render()} is not winning at {g!r}")
        if self.game.is_deadlock(g):
            raise LookupError(f"{g!r} has no successors")
        best: tuple[int, str] | None = None
        for target, update in self.game.successors(g):
            nxt = update.apply(e)
            entry = None if nxt is None else self.result.entry_pass(target, nxt)
            if entry is not None and (best is None or (entry, target) < best):
                best = (entry, target)
        if best is None:
            raise StrategyError(f"no winning move at {g!r} with {e.render()}")
        return best[1]


def extract_strategy(game: GameGraph, result: SolverResult) -> AttackerStrategy:
    game.require_valid()
    return AttackerStrategy(game=game, result=result)
