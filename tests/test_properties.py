"""Property tests: the semi-naive solver against the plain reference pass."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_history_matches_plain, plain_jacobi
from galois_energy.errors import IterationCapExceeded
from galois_energy.game import GameGraph, Owner
from galois_energy.solver import compute_winning_budgets
from galois_energy.updates import Add, MinOf, Mul, Update, UpdateAtom


def _specs(n: int) -> st.SearchStrategy:
    return st.one_of(
        st.integers(-2, 2).map(Add),
        st.integers(1, 3).map(Mul),
        st.sets(st.integers(0, n - 1), min_size=1, max_size=2).map(
            lambda ix: MinOf(tuple(ix))
        ),
    )


@st.composite
def games(draw) -> GameGraph:
    """Small games whose position ``p0`` is a defender deadlock, so that
    most games have nonempty fronts."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(2, 5))
    ids = [f"p{i}" for i in range(count)]
    positions = [("p0", Owner.DEFENDER)] + [(g, draw(st.sampled_from(Owner))) for g in ids[1:]]
    atom = st.lists(_specs(n), min_size=n, max_size=n).map(lambda s: UpdateAtom(tuple(s)))
    update = st.lists(atom, min_size=1, max_size=2).map(lambda a: Update(tuple(a)))
    edges = []
    for g in ids[1:]:
        for target in sorted(draw(st.sets(st.sampled_from(ids), max_size=3))):
            edges.append((g, target, draw(update)))
    return GameGraph.build(n, positions, edges)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(game=games(), cap=st.one_of(st.none(), st.integers(0, 6)))
def test_semi_naive_history_matches_plain_pass(game, cap):
    try:
        result = compute_winning_budgets(game, iteration_cap=cap)
    except IterationCapExceeded as err:
        with pytest.raises(IterationCapExceeded) as ref:
            plain_jacobi(game, cap)
        assert err.cap == ref.value.cap
        assert err.current.keys() == ref.value.current.keys()
        for g, rows in ref.value.current.items():
            assert [e.components for e in err.current[g]] == list(map(tuple, rows.tolist()))
        return
    assert_history_matches_plain(game, result, cap)
