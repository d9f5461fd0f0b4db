"""Property tests: the solver's kernels against the reference
implementations in ``conftest``, and the semi-naive solver against the
plain reference pass."""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_history_matches_plain,
    invert,
    kernel_invert,
    minimize,
    plain_jacobi,
    reference_apply,
    reference_closure,
    reference_meet,
)
from galois_energy import solver
from galois_energy.errors import IterationCapExceeded
from galois_energy.game import GameGraph, Owner
from galois_energy.lattice import INF, Energy, leq
from galois_energy.solver import compute_winning_budgets
from galois_energy.updates import Add, MinOf, Mul, Update, UpdateAtom, forward

SEEDED = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _specs(n: int) -> st.SearchStrategy:
    return st.one_of(
        st.integers(-2, 2).map(Add),
        st.integers(1, 3).map(Mul),
        st.sets(st.integers(0, n - 1), min_size=1, max_size=2).map(
            lambda ix: MinOf(tuple(ix))
        ),
    )


def _updates(n: int, max_steps: int) -> st.SearchStrategy:
    atom = st.lists(_specs(n), min_size=n, max_size=n).map(lambda s: UpdateAtom(tuple(s)))
    return st.lists(atom, min_size=1, max_size=max_steps).map(lambda a: Update(tuple(a)))


@st.composite
def games(draw) -> GameGraph:
    """Small games whose position ``p0`` is a defender deadlock, so that
    most games have nonempty fronts."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(2, 5))
    ids = [f"p{i}" for i in range(count)]
    positions = [("p0", Owner.DEFENDER)] + [(g, draw(st.sampled_from(Owner))) for g in ids[1:]]
    update = _updates(n, 2)
    edges = []
    for g in ids[1:]:
        for target in sorted(draw(st.sets(st.sampled_from(ids), max_size=3))):
            edges.append((g, target, draw(update)))
    return GameGraph.build(n, positions, edges)


@SEEDED
@given(game=games(), cap=st.one_of(st.none(), st.integers(0, 6)))
def test_semi_naive_history_matches_plain_pass(game, cap):
    try:
        result = compute_winning_budgets(game, iteration_cap=cap)
    except IterationCapExceeded as err:
        with pytest.raises(IterationCapExceeded) as ref:
            plain_jacobi(game, cap)
        assert err.cap == ref.value.cap
        assert err.growing == ref.value.growing
        assert err.current.keys() == ref.value.current.keys()
        for g, rows in ref.value.current.items():
            assert [e.components for e in err.current[g]] == list(map(tuple, rows.tolist()))
        return
    assert_history_matches_plain(game, result, cap)


@st.composite
def shared_update_games(draw) -> GameGraph:
    """Small games whose edges draw their labels from a pool of 1-3 update
    objects (some equal in value), so that most objects label several
    edges; ``p0`` is a defender deadlock and ``p1`` has an edge."""
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(_updates(n, 2), min_size=1, max_size=3))
    count = draw(st.integers(2, 6))
    ids = [f"p{i}" for i in range(count)]
    positions = [("p0", Owner.DEFENDER)] + [(g, draw(st.sampled_from(Owner))) for g in ids[1:]]
    edges = []
    for g in ids[1:]:
        targets = draw(st.sets(st.sampled_from(ids), min_size=int(g == "p1"), max_size=3))
        edges += [(g, t, draw(st.sampled_from(pool))) for t in sorted(targets)]
    return GameGraph.build(n, positions, edges)


@SEEDED
@given(game=shared_update_games(), data=st.data())
def test_edge_plans_pull_like_plans_per_edge(game, data):
    """The engine compiles one plan per distinct update object, and rows
    pulled back through ``edge_plan`` equal rows pulled back through one
    plan per edge, as do the overflow limits."""
    engine = solver._Engine(game)
    labels = [u for g in engine.ids for _, u in game.successors(g)]
    per_edge = solver._Inverses(labels, game.dimension)
    assert engine.inverses.sub.shape[1] == len({id(u) for u in labels})
    edges = np.array(data.draw(st.lists(st.integers(0, len(labels) - 1), max_size=12)), np.intp)
    value = st.one_of(st.integers(0, 12), st.integers(0, 2**60))
    rows = data.draw(st.lists(st.lists(value, min_size=game.dimension, max_size=game.dimension),
                              min_size=edges.size, max_size=edges.size))
    rows = np.array(rows, dtype=np.int64).reshape(-1, game.dimension)
    got = engine.inverses.pull(engine.edge_plan[edges], rows)
    assert got.tolist() == per_edge.pull(edges, rows).tolist()
    top = int(np.iinfo(np.int64).max)
    limit = np.full(len(engine.ids), top)
    np.minimum.at(limit, engine.target, [max(top - g, -1) for g in per_edge.growth])
    assert engine.limit.tolist() == limit.tolist()


@SEEDED
@given(game=shared_update_games())
def test_shared_updates_solve_like_an_update_per_edge(game):
    """A solve on the game equals, row for row, a solve on the game whose
    every edge carries its own deep copy of its update."""
    unshared = GameGraph.build(
        game.dimension,
        [(p.id, p.owner) for p in game.positions],
        [(e.source, e.target, copy.deepcopy(e.update)) for e in game.edges],
    )
    assert len({id(e.update) for e in unshared.edges}) == len(game.edges)
    try:
        shared = compute_winning_budgets(game, iteration_cap=40)
    except IterationCapExceeded:
        with pytest.raises(IterationCapExceeded):
            compute_winning_budgets(unshared, iteration_cap=40)
        return
    alone = compute_winning_budgets(unshared, iteration_cap=40)
    assert (shared.iterations, shared.max_front_size) == (alone.iterations, alone.max_front_size)
    for g in game.position_ids:
        assert shared.rows[g].tolist() == alone.rows[g].tolist()
        for a, b in zip(shared.entries[g], alone.entries[g]):
            assert a.tolist() == b.tolist()


@st.composite
def closure_cases(draw) -> tuple[list[int], np.ndarray]:
    """A rank grid of 1-3 segments and 1-6 axes of 1-4 ranks each (axes of
    size 1 common), and up to 12 cell keys on it, unsorted and some
    repeated, every cell on the small grids."""
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=1, max_size=6))
    sizes = [draw(st.integers(1, 3)), *sizes]
    cells = int(np.prod(sizes))
    keys = draw(st.lists(st.integers(0, cells - 1), max_size=12))
    return sizes, np.array(keys, dtype=np.int64)


@SEEDED
@given(case=closure_cases())
@example(case=([1, 3], np.array([1], dtype=np.int64)))
@example(case=([2, 2, 1], np.array([0], dtype=np.int64)))
def test_threshold_matches_reference_closure(case):
    """Cell ``(x, l)`` of a segment is in the boolean closure of that
    segment's keys exactly when ``l >= least[x]`` in their threshold map,
    on every cell of the grid, so no closure crosses a segment: a segment
    without keys holds no cell.  With one axis besides the segment axis
    the map holds one value per segment."""
    sizes, keys = case
    least = solver._threshold(keys, sizes)
    assert least.shape == tuple(sizes[:-1])
    cells = int(np.prod(sizes[1:]))
    ranks = np.arange(sizes[-1])
    for s in range(sizes[0]):
        mine = keys[keys // cells == s] - s * cells
        closed = ranks >= least[s, ..., None]
        assert (reference_closure(mine, sizes[1:]) == closed).all()


@st.composite
def row_sets(draw) -> tuple[int, list[list[int]]]:
    """Finite rows of one dimension, on either side of ``solver._CHUNK``:
    up to 25 rows of small values (many ties and dominations) mixed with
    values anywhere in int64, or just over ``_CHUNK`` rows of values up to
    4, whose rank grid stays under the cell cap; some rows repeated.
    Dimensions 1-6, as high as the grid games go."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        value = st.one_of(st.integers(0, 4), st.integers(0, 2**63 - 1))
        rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), max_size=25))
    else:
        row = st.lists(st.integers(0, 4), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=solver._CHUNK + 1, max_size=solver._CHUNK + 8))
    repeats = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=5)) if rows else []
    return n, rows + [rows[i] for i in repeats]


def test_minimize_rows_matches_reference(monkeypatch):
    """Minimal rows in lexicographic order, each by the index of its first
    occurrence in the input, through both routes of the minimiser: the
    pairwise sweep and the rank grid (the only caller of ``_threshold``
    here)."""
    routes = {"sweep": 0, "grid": 0}
    sweep, closure = solver._minimize_by_sweep, solver._threshold

    def counted_sweep(unique, segments):
        routes["sweep"] += 1
        return sweep(unique, segments)

    def counted_closure(keys, sizes):
        routes["grid"] += 1
        return closure(keys, sizes)

    monkeypatch.setattr(solver, "_minimize_by_sweep", counted_sweep)
    monkeypatch.setattr(solver, "_threshold", counted_closure)

    @SEEDED
    @given(data=row_sets())
    def check(data):
        n, rows = data
        index = solver._minimize_rows(np.array(rows, dtype=np.int64).reshape(len(rows), n))
        expected = minimize(Energy(tuple(r)) for r in rows)
        assert [rows[i] for i in index] == [list(e.components) for e in expected]
        assert [rows.index(rows[i]) for i in index] == index.tolist()

    check()
    assert routes["sweep"] > 0
    assert routes["grid"] > 0


@st.composite
def segment_batches(draw) -> tuple[int, list[int], list[list[int]]]:
    """A batch of rows of one dimension (1-6) in 1-40 segments, as the
    attacker pass stacks it: segment ids unsorted, rows drawn from a pool
    so that some are shared across segments and repeated within one.  The
    pool mixes small values with values anywhere in int64, and the batch
    has up to 40 rows or just over ``_CHUNK``."""
    n = draw(st.integers(1, 6))
    value = st.one_of(st.integers(0, 4), st.integers(0, 2**63 - 1))
    pool = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=30))
    ids = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=40, unique=True))
    size = draw(st.one_of(st.integers(0, 40), st.integers(solver._CHUNK + 1, solver._CHUNK + 40)))
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.integers(0, len(pool) - 1)),
            min_size=size,
            max_size=size,
        )
    )
    return n, [s for s, _ in picks], [pool[r] for _, r in picks]


def test_minimize_segments_matches_reference(monkeypatch):
    """Per segment in id order, the minimal rows of the segment in
    lexicographic order, each by the index of its first occurrence in the
    segment, through both routes: the pairwise sweep and the segmented
    rank grid."""
    routes = {"sweep": 0, "grid": 0}
    sweep, grid = solver._minimize_by_sweep, solver._grid_minima

    def counted_sweep(unique, segments):
        routes["sweep"] += 1
        return sweep(unique, segments)

    def counted_grid(keys, sizes):
        routes["grid"] += 1
        return grid(keys, sizes)

    monkeypatch.setattr(solver, "_minimize_by_sweep", counted_sweep)
    monkeypatch.setattr(solver, "_grid_minima", counted_grid)

    @SEEDED
    @given(batch=segment_batches())
    def check(batch):
        n, segments, rows = batch
        index = solver._minimize_segments(
            np.array(rows, dtype=np.int64).reshape(len(rows), n),
            np.array(segments, dtype=np.intp),
        )
        expected = []
        for s in sorted(set(segments)):
            mine = [(r, i) for i, (t, r) in enumerate(zip(segments, rows)) if t == s]
            for e in minimize(Energy(tuple(r)) for r, _ in mine):
                expected.append(next(i for r, i in mine if tuple(r) == e.components))
        assert index.tolist() == expected

    check()
    assert routes["sweep"] > 0
    assert routes["grid"] > 0


@st.composite
def ranked_columns(draw) -> tuple[int, np.ndarray, np.ndarray]:
    """One column of 1-60 values in segments ``0`` to ``nseg - 1`` (1-8
    of them), ids unsorted, some segments of one row and some of none.
    Values are small, anywhere in int64, or within 40 of 2^63 - 1, so that
    both a counting table fits and it does not."""
    nseg = draw(st.integers(1, 8))
    value = draw(
        st.sampled_from(
            [st.integers(0, 20), st.integers(0, 2**63 - 1), st.integers(2**63 - 40, 2**63 - 1)]
        )
    )
    rows = draw(st.lists(st.tuples(st.integers(0, nseg - 1), value), min_size=1, max_size=60))
    segment = np.array([s for s, _ in rows], dtype=np.intp)
    return nseg, segment, np.array([v for _, v in rows], dtype=np.int64)


def test_rank_segments_matches_unique():
    """Per segment, the kernel's values are the segment's distinct values
    in order and its ranks index them, as ``np.unique`` gives them, on
    both sides of the rule that picks a counting table over a lexsort."""
    counted = set()  # whether the counting table was taken

    @SEEDED
    @given(case=ranked_columns())
    @example(case=(3, np.array([2, 0, 2]), np.array([2**63 - 1, 5, 0], dtype=np.int64)))
    @example(case=(4, np.array([3, 1]), np.array([7, 7], dtype=np.int64)))
    def check(case):
        nseg, segment, column = case
        rank, values, starts = solver._rank_segments(column, segment, nseg)
        span = int(column.max()) - int(column.min()) + 1
        counted.add(nseg * span <= column.size * solver._CHUNK)
        assert starts[0] == 0 and starts[-1] == values.size
        for s in range(nseg):
            mine = segment == s
            expected, inverse = np.unique(column[mine], return_inverse=True)
            assert values[starts[s] : starts[s + 1]].tolist() == expected.tolist()
            assert rank[mine].tolist() == inverse.tolist()

    check()
    assert counted == {True, False}


def _earlier_front(draw, minimal: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Rows of an earlier front below ``minimal``: some of its rows, and
    rows one unit above others of them (often off the factors' rank grid)."""
    base = []
    for r in minimal:
        kind = draw(st.sampled_from(["skip", "keep", "above"]))
        if kind == "keep":
            base.append(r)
        elif kind == "above":
            c = draw(st.integers(0, n - 1))
            base.append(r[:c] + (min(r[c] + 1, 2**63 - 1),) + r[c + 1 :])
    return base


@st.composite
def meet_batches(draw) -> tuple[int, list[list[list[tuple[int, ...]]]], list, list]:
    """1-5 defenders of one dimension from 1 to 6, each with 1-4 factors of
    0-6 rows: small values mixed with values anywhere in int64, rows
    repeated within and across factors, and the small values shifted per
    defender, by an offset shared with others (overlapping ranges) or its
    own (disjoint ranges).  Each defender has an earlier front
    (``_earlier_front``).  Sometimes, at dimension 5 or 6, one more
    defender of two factors of 12 rows of values below 2^40, almost surely
    distinct, whose rank grid of at least 24^5 cells is over the cap; all
    its rows are marked new, so the fold's last term is the whole product.
    Returns the dimension, the factors and earlier front per defender, and
    the new-row mask per factor (``None`` for none)."""
    over = draw(st.booleans())
    n = draw(st.integers(5 if over else 1, 6))
    value = st.one_of(st.integers(0, 4), st.integers(0, 2**63 - 1))
    defenders = []
    for b in range(draw(st.integers(1, 5))):
        shift = draw(st.sampled_from([0, 8 * (b + 1), 2**40 * (b + 1)]))
        row = st.lists(value, min_size=n, max_size=n).map(
            lambda r, shift=shift: tuple(v + shift if v <= 4 else v for v in r)
        )
        factors = draw(st.lists(st.lists(row, max_size=6), min_size=1, max_size=4))
        pool = [r for f in factors for r in f]
        if pool:
            factors = [f + draw(st.lists(st.sampled_from(pool), max_size=2)) for f in factors]
        defenders.append(factors)
    new = [[None] * len(factors) for factors in defenders]
    if over:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        wide = [list(map(tuple, rng.integers(0, 2**40, size=(12, n)).tolist())) for _ in "ab"]
        at = draw(st.integers(0, len(defenders)))
        defenders.insert(at, wide)
        new.insert(at, [np.ones(12, dtype=bool)] * 2)
    bases = [_earlier_front(draw, reference_meet(factors), n) for factors in defenders]
    return n, defenders, bases, [m for masks in new for m in masks]


def test_meet_matches_reference(monkeypatch):
    """The batch stacks its rows by defender.  Per defender, the meet's
    rows are the minimal sups of one row per factor, in lexicographic
    order, and its mask marks those not in its earlier front; a defender
    with an empty factor contributes no rows.  Every route is taken:
    defenders met on one shared grid, defenders met each on its own grid,
    and the fold."""
    routes = {"shared": 0, "own": 0, "fold": 0}
    meets: list[int] = []  # meets per grid, in the current batch
    meet_cells, fold = solver._meet_cells, solver._telescoped_fold

    def counted_meet(keys, sizes, firsts):
        meets.append(len(firsts))
        return meet_cells(keys, sizes, firsts)

    def counted_fold(*args):
        routes["fold"] += 1
        return fold(*args)

    monkeypatch.setattr(solver, "_meet_cells", counted_meet)
    monkeypatch.setattr(solver, "_telescoped_fold", counted_fold)

    @SEEDED
    @given(batch=meet_batches())
    def check(batch):
        n, defenders, bases, new = batch
        factors = [np.array(f, dtype=np.int64).reshape(len(f), n) for fs in defenders for f in fs]
        meets.clear()
        stack, owner, fresh = solver._defender_batch(
            np.vstack(factors),
            [f.shape[0] for f in factors],
            [len(fs) for fs in defenders],
            [np.array(sorted(set(b)), dtype=np.int64).reshape(-1, n) for b in bases],
            new,
        )
        routes["shared"] += any(m > 1 for m in meets)
        routes["own"] += len(meets) > 1
        assert stack.shape[0] == owner.size == fresh.size
        assert all(0 <= b < len(defenders) for b in owner.tolist())
        assert owner.tolist() == sorted(owner.tolist())
        for b, (fs, base) in enumerate(zip(defenders, bases)):
            rows, mask = stack[owner == b], fresh[owner == b]
            expected = reference_meet(fs)
            assert list(map(tuple, rows.tolist())) == expected
            assert mask.tolist() == [r not in set(base) for r in expected]
            if not all(fs):
                assert rows.shape[0] == 0

    check()
    assert all(routes.values()), routes


@st.composite
def updates_and_rows(draw) -> tuple[list[Update], list[tuple[int, list[int]]]]:
    """1-4 updates of 1-3 steps of one dimension and 1-12 rows, each naming
    one of them, in any order."""
    n = draw(st.integers(1, 3))
    value = st.one_of(st.integers(0, 12), st.integers(0, 2**60))
    updates = draw(st.lists(_updates(n, 3), min_size=1, max_size=4))
    row = st.tuples(
        st.integers(0, len(updates) - 1), st.lists(value, min_size=n, max_size=n)
    )
    return updates, draw(st.lists(row, min_size=1, max_size=12))


@SEEDED
@given(case=updates_and_rows())
def test_invert_rows_matches_reference(case):
    """The batched inverse evaluator pulls every row back through the
    update it names, plans of different lengths padded in one batch."""
    updates, rows = case
    inverses = solver._Inverses(updates, updates[0].dimension)
    edges = np.array([u for u, _ in rows], dtype=np.intp)
    got = inverses.pull(edges, np.array([r for _, r in rows], dtype=np.int64))
    expected = [list(invert(updates[u], Energy(tuple(r))).components) for u, r in rows]
    assert got.tolist() == expected


def test_inverse_batch_mixes_plan_lengths_and_kinds():
    """One batch over plans of 1, 2 and 3 steps that together use Add,
    Mul and MinOf, rows interleaved: each row as its own plan pulls it."""
    updates = [
        Update.single(Add(-2), MinOf((0, 2)), Mul(3)),
        Update((UpdateAtom((Mul(2), Add(1), Add(-1))), UpdateAtom((MinOf((1,)), Add(0), Add(-3))))),
        Update(
            (
                UpdateAtom((Add(-1), Add(-1), MinOf((0, 1)))),
                UpdateAtom((Add(2), Mul(2), Add(0))),
                UpdateAtom((MinOf((2,)), Add(-4), Add(1))),
            )
        ),
    ]
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 20, size=(30, 3))
    edges = np.arange(30) % 3
    got = solver._Inverses(updates, 3).pull(edges, rows)
    for u, row, pulled in zip(edges, rows.tolist(), got.tolist()):
        assert pulled == list(invert(updates[u], Energy(tuple(row))).components)


@st.composite
def galois_cases(draw) -> tuple[Update, Energy]:
    n = draw(st.integers(1, 3))
    ep = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return draw(_updates(n, 3)), Energy(tuple(ep))


@SEEDED
@given(case=galois_cases())
def test_kernel_inverse_is_galois_adjoint(case):
    """``e' <= u(e)`` iff ``inv(e') <= e`` for every ``e`` of a finite grid
    in the domain of ``u``, and ``inv(e')`` lies in that domain."""
    update, ep = case
    inv = kernel_invert(update, ep)
    assert update.apply(inv) is not None
    for t in itertools.product(range(5), repeat=update.dimension):
        e = Energy(t)
        image = update.apply(e)
        if image is not None:
            assert leq(ep, image) == leq(inv, e)


@SEEDED
@given(update=st.integers(1, 3).flatmap(lambda n: _updates(n, 3)))
def test_apply_is_reference_apply(update):
    """``Update.apply`` agrees with the per-spec reference on every energy
    of a grid with infinite components, undefined results included."""
    for t in itertools.product((0, 1, 2, INF), repeat=update.dimension):
        assert update.apply(Energy(t)) == reference_apply(update, Energy(t))


@st.composite
def moves(draw) -> tuple[Update, int, tuple[int, ...]]:
    """An update of 1-3 steps, a clip bound and an energy within it.  Half
    of the updates raise one component past the bound in their first step
    and bring it back down with an ``Add`` in their last."""
    n = draw(st.integers(1, 4))
    bound = draw(st.integers(1, 20))
    energy = tuple(draw(st.lists(st.integers(0, bound), min_size=n, max_size=n)))
    if not draw(st.booleans()):
        return draw(_updates(n, 3)), bound, energy
    j = draw(st.integers(0, n - 1))
    k = draw(st.integers(bound - energy[j] + 1, bound + 3))
    up, down = (UpdateAtom(tuple(Add(z if i == j else 0) for i in range(n))) for z in (k, -k))
    middle = draw(_updates(n, 1)).steps
    return Update((up, *middle, down)), bound, energy


@SEEDED
@given(case=moves())
def test_compiled_move_is_apply_then_one_clip(case):
    """``forward(update, bound)`` on one batch of int64 rows, the drawn
    energy and a grid of small and bound-sized ones: each defined row is
    the reference application clipped once, and the mask marks exactly the
    rows where the reference is defined."""
    update, bound, energy = case
    rows = [energy, *itertools.product(sorted({0, 1, bound}), repeat=len(energy))]
    out, defined = forward(update, bound)(np.array(rows, dtype=np.int64))
    assert out.dtype == np.int64 and defined.shape == (len(rows),)
    for row, got, ok in zip(rows, out.tolist(), defined.tolist()):
        expected = reference_apply(update, Energy(row))
        assert ok == (expected is not None)
        if ok:
            assert tuple(got) == tuple(min(c, bound) for c in expected.components)


def test_compiled_move_masks_undefined_rows():
    update = Update((UpdateAtom((Add(-1),)), UpdateAtom((Add(2),))))
    out, defined = forward(update, 2)(np.array([[0], [1], [2]], dtype=np.int64))
    assert defined.tolist() == [False, True, True]
    assert out[defined].tolist() == [[2], [2]]


@SEEDED
@given(update=st.integers(1, 3).flatmap(lambda n: _updates(n, 3)))
def test_apply_is_exact_past_int64(update):
    """``Update.apply`` stays exact on components above 2^63 and infinite
    ones, mixed with small ones."""
    for t in itertools.product((0, 2**63 + 5, 3 * 2**70 + 1, INF), repeat=update.dimension):
        assert update.apply(Energy(t)) == reference_apply(update, Energy(t))


def test_apply_keeps_python_ints_and_inf():
    update = Update.single(Mul(3), Add(1), MinOf((0, 1)))
    out = update.apply(Energy((2**70, INF, 4)))
    assert out == reference_apply(update, Energy((2**70, INF, 4)))
    assert out.components == (3 * 2**70, INF, 2**70)
    assert type(out.components[0]) is int
