import itertools

import pytest

from conftest import kernel_minimize, member_upward, minimize
from galois_energy.errors import DimensionMismatch
from galois_energy.game import GameGraph, Owner
from galois_energy.lattice import INF, Energy, ParetoFront, leq, sup2
from galois_energy.solver import compute_winning_budgets, known_initial_credit
from galois_energy.updates import Add, Update


def E(*cs):
    return Energy(tuple(cs))


def solved(*minima):
    """Solve a game whose attacker position ``a`` has exactly ``minima`` as
    its front: one edge per element, subtracting it on the way to a
    defender deadlock."""
    n = minima[0].dimension
    positions = [("a", Owner.ATTACKER)] + [(f"d{i}", Owner.DEFENDER) for i in range(len(minima))]
    edges = [
        ("a", f"d{i}", Update.single(*(Add(-c) for c in m.components)))
        for i, m in enumerate(minima)
    ]
    result = compute_winning_budgets(GameGraph.build(n, positions, edges))
    assert result.fronts["a"] == minimize(minima)
    return result


def test_leq_zero_is_bottom():
    assert leq(E(0, 0, 0, 0), E(1, 20, 0, 0))


def test_leq_front_elements_incomparable():
    assert not leq(E(1, 20), E(2, 10))
    assert not leq(E(2, 10), E(1, 20))


def test_leq_reflexive_with_infinity():
    assert leq(E(3, INF), E(3, INF))


def test_leq_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        leq(E(1), E(1, 2))


def test_sup2_componentwise_max():
    assert sup2(E(1, 0), E(0, 2)) == E(1, 2)


def test_sup2_zero_neutral():
    e = E(3, 7, 1)
    assert sup2(e, Energy.zero(3)) == e


def test_sup2_infinity_absorbs():
    assert sup2(E(2, INF), E(3, 1)) == E(3, INF)


def test_minimize_drops_dominated():
    for minimise in (minimize, kernel_minimize):
        front = minimise([E(0, 0, 0, 10), E(0, 0, 1, 9), E(0, 0, 1, 10)])
        assert front.elements == (E(0, 0, 0, 10), E(0, 0, 1, 9))


def test_minimize_empty():
    for minimise in (minimize, kernel_minimize):
        assert minimise([]).is_empty


def test_minimize_antichain_unchanged():
    elements = (E(0, 0, 0, 10), E(0, 0, 1, 9))
    for minimise in (minimize, kernel_minimize):
        assert minimise(elements).elements == elements


def test_member_upward_dominating_element():
    f = minimize([E(1, 20), E(2, 10)])
    assert member_upward(f, E(2, 25))
    assert known_initial_credit(solved(*f), "a", E(2, 25))


def test_member_upward_below_every_element():
    f = minimize([E(1, 20), E(2, 10)])
    # exhaustive comparison: neither (1,20) nor (2,10) is below (1,10)
    assert not any(all(m <= c for m, c in zip(x.components, (1, 10))) for x in f)
    assert not member_upward(f, E(1, 10))
    assert not known_initial_credit(solved(*f), "a", E(1, 10))


def test_member_upward_empty_front():
    assert not member_upward(ParetoFront.empty(), E(0, 0))


VALUES = (0, 1, 2, INF)


def grid(n):
    return [Energy(t) for t in itertools.product(VALUES, repeat=n)]


def test_partial_order_laws_on_grid():
    for n in (1, 2, 3):
        g = grid(n)
        for a in g:
            assert leq(a, a)
        for a in g:
            for b in g:
                if leq(a, b) and leq(b, a):
                    assert a == b
        for a in g:
            for b in g:
                if not leq(a, b):
                    continue
                for c in g:
                    if leq(b, c):
                        assert leq(a, c)


def test_sup2_is_least_upper_bound_on_grid():
    for n in (1, 2):
        g = grid(n)
        for a in g:
            for b in g:
                s = sup2(a, b)
                assert leq(a, s) and leq(b, s)
                for c in g:
                    if leq(a, c) and leq(b, c):
                        assert leq(s, c)


def test_minimize_idempotent_and_closure_preserving():
    import random

    rng = random.Random(42)
    g = grid(2)
    for _ in range(50):
        subset = rng.sample(g, rng.randint(0, 10))
        front = minimize(subset)
        assert minimize(front.elements).elements == front.elements
        for e in g:
            assert member_upward(front, e) == any(leq(x, e) for x in subset)


def test_canonical_order_is_lexicographic():
    for minimise in (minimize, kernel_minimize):
        front = minimise([E(2, 10), E(1, 20), E(10, 1)])
        assert [e.components for e in front] == [(1, 20), (2, 10), (10, 1)]


def test_render_and_parse_round_trip():
    e = E(0, 2, 0, 10)
    assert e.render() == "0,2,0,10"
    assert Energy.parse("0,2,0,10") == e
    assert Energy.parse("inf,3").components == (INF, 3)
    assert Energy.parse("inf,3").render() == "inf,3"


def test_parse_rejects_garbage():
    # Python's int would read the last three as (10, 2), (5, 1) and (12, 1)
    for text in ("1,x", "1_0,2", "+5,1", "\u0661\u0662,1"):
        with pytest.raises(ValueError):
            Energy.parse(text)


def test_energy_rejects_negative_and_fractional():
    with pytest.raises(ValueError):
        Energy((-1,))
    with pytest.raises(ValueError):
        Energy((1.5,))


def test_front_constructor_rejects_unsorted():
    with pytest.raises(ValueError):
        ParetoFront((E(2, 10), E(1, 20)))
