"""Property tests: the solver's kernels against the reference
implementations in ``conftest``, and the semi-naive solver against the
plain reference pass."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_history_matches_plain,
    invert,
    kernel_invert,
    minimize,
    plain_jacobi,
    reference_apply,
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
def row_sets(draw) -> tuple[int, list[list[int]]]:
    """Finite rows of one dimension, on either side of ``solver._CHUNK``:
    up to 25 rows of small values (many ties and dominations) mixed with
    values anywhere in int64, or just over ``_CHUNK`` rows of values up to
    4, whose rank grid stays under the cell cap; some rows repeated."""
    n = draw(st.integers(1, 4))
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
    pairwise sweep and the rank grid (the only caller of
    ``_upward_closure`` here)."""
    routes = {"sweep": 0, "grid": 0}
    sweep, closure = solver._minimize_by_sweep, solver._upward_closure

    def counted_sweep(unique, segments):
        routes["sweep"] += 1
        return sweep(unique, segments)

    def counted_closure(keys, sizes):
        routes["grid"] += 1
        return closure(keys, sizes)

    monkeypatch.setattr(solver, "_minimize_by_sweep", counted_sweep)
    monkeypatch.setattr(solver, "_upward_closure", counted_closure)

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
def meet_cases(draw) -> tuple[int, list[list[tuple[int, ...]]], list[tuple[int, ...]]]:
    """1-4 factors of 0-6 rows of one dimension, small values mixed with
    values anywhere in int64, rows repeated within and across factors; and
    the rows of an earlier front: some minimal rows of the meet, and rows
    one unit above others of them (often off the factors' rank grid)."""
    n = draw(st.integers(1, 4))
    value = st.one_of(st.integers(0, 4), st.integers(0, 2**63 - 1))
    row = st.lists(value, min_size=n, max_size=n).map(tuple)
    factors = draw(st.lists(st.lists(row, max_size=4), min_size=1, max_size=4))
    pool = [r for f in factors for r in f]
    if pool:
        factors = [f + draw(st.lists(st.sampled_from(pool), max_size=2)) for f in factors]
    minimal = reference_meet(factors)
    base = []
    for r in minimal:
        kind = draw(st.sampled_from(["skip", "keep", "above"]))
        if kind == "keep":
            base.append(r)
        elif kind == "above":
            c = draw(st.integers(0, n - 1))
            base.append(r[:c] + (min(r[c] + 1, 2**63 - 1),) + r[c + 1 :])
    return n, factors, base


@SEEDED
@given(case=meet_cases())
def test_meet_matches_reference(case):
    """The meet's rows are the minimal sups of one row per factor, in
    lexicographic order, and its mask marks those not in ``base``."""
    n, factors, base = case
    arrays = [np.array(f, dtype=np.int64).reshape(len(f), n) for f in factors]
    base_rows = np.array(sorted(set(base)), dtype=np.int64).reshape(-1, n)
    rows, mask = solver._meet(base_rows, arrays, solver._GRID_CELL_CAP)
    expected = reference_meet(factors)
    assert list(map(tuple, rows.tolist())) == expected
    assert mask.tolist() == [r not in set(base) for r in expected]
    if not all(factors):
        assert rows.shape[0] == 0


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
    update, bound, energy = case
    expected = reference_apply(update, Energy(energy))
    got = forward(update, bound)(energy)
    if expected is None:
        assert got is None
    else:
        assert got == tuple(min(c, bound) for c in expected.components)
