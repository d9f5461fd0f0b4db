import itertools
import random

import pytest

from conftest import invert, kernel_invert
from galois_energy.errors import DimensionMismatch
from galois_energy.lattice import INF, Energy, leq
from galois_energy.updates import Add, MinOf, Mul, Update, UpdateAtom


def E(*cs):
    return Energy(tuple(cs))


def atom(*specs):
    return UpdateAtom(tuple(specs))


# the reference inverse and the solver's evaluator, for finite energies
INVERSES = (invert, kernel_invert)

SERVE = atom(Add(0), Add(0), Add(-1), Add(1))  # -1 shots, +1 energization
BREW = Update(
    (
        atom(Add(0), Add(0), Add(1), Add(0)),
        atom(Add(0), Add(0), MinOf((0, 2)), Add(0)),
    )
)


def test_apply_add_components():
    assert SERVE.apply(E(0, 0, 1, 9)) == E(0, 0, 0, 10)


def test_apply_min_reads_original_vector():
    a = atom(Add(0), Add(0), MinOf((0, 2)), Add(0))
    assert a.apply(E(2, 0, 5, 0)) == E(2, 0, 2, 0)


def test_apply_undefined_below_zero():
    a = atom(Add(0), Add(0), Add(0), Add(-10))
    assert a.apply(E(0, 0, 0, 9)) is None


def test_apply_add_on_infinity_stays_defined():
    a = atom(Add(-5))
    assert a.apply(E(INF)) == E(INF)


def test_apply_mul():
    a = atom(Mul(3), Add(0))
    assert a.apply(E(2, 1)) == E(6, 1)
    assert a.apply(E(INF, 1)) == E(INF, 1)


def test_update_apply_two_steps():
    # brew a shot, then cap shots by cups
    assert BREW.apply(E(2, 0, 2, 0)) == E(2, 0, 2, 0)


def test_identity_update():
    e = E(4, 1, 0, 7)
    assert Update.identity(4).apply(e) == e
    for inv in INVERSES:
        assert inv(Update.identity(4), e) == e


def test_single_step_update_equals_atom():
    e = E(1, 1, 1, 1)
    assert Update((SERVE,)).apply(e) == SERVE.apply(e)


def test_invert_add_subtraction():
    a = atom(Add(0), Add(0), Add(0), Add(-10))
    timed = atom(Add(0), Add(-2), Add(0), Add(0))
    for inv in INVERSES:
        assert inv(a, E(0, 0, 0, 0)) == E(0, 0, 0, 10)
        assert inv(timed, E(0, 0, 0, 10)) == E(0, 2, 0, 10)


def test_invert_add_clamps_at_zero():
    for inv in INVERSES:
        assert inv(atom(Add(5)), E(3)) == E(0)


def test_invert_min_pulls_drained_components():
    a = atom(Add(0), Add(0), MinOf((0, 2)), Add(0))
    e = E(1, 4, 3, 9)
    # component 0 must cover both itself and the minimum target
    for inv in INVERSES:
        assert inv(a, e) == E(max(1, 3), 4, 3, 9)


def test_invert_mul_ceil_division():
    a = atom(Mul(3))
    for inv in INVERSES:
        assert inv(a, E(7)) == E(3)
        assert inv(a, E(6)) == E(2)
    assert invert(a, E(INF)) == E(INF)


def test_brew_inverse_formula():
    # undo of [shots += 1; shots := min(cups, shots)] maps
    # (c, t, s, e) to (max(c, s), t, max(s - 1, 0), e)
    for inv in INVERSES:
        for c, t, s, x in itertools.product(range(4), repeat=4):
            expected = E(max(c, s), t, max(s - 1, 0), x)
            assert inv(BREW, E(c, t, s, x)) == expected
        assert inv(BREW, E(0, 0, 1, 9)) == E(1, 0, 0, 9)


def test_compose_identity_neutral():
    u = Update((SERVE,))
    composed = Update.identity(4).compose(u)
    for e in (E(0, 0, 1, 9), E(2, 2, 2, 2)):
        assert composed.apply(e) == u.apply(e)


def test_compose_matches_sequential_application():
    brew_first = Update((atom(Add(0), Add(0), Add(1), Add(0)),))
    cap_after = Update((atom(Add(0), Add(0), MinOf((0, 2)), Add(0)),))
    composed = brew_first.compose(cap_after)
    assert composed == BREW
    for e in (E(2, 0, 2, 0), E(1, 5, 0, 3)):
        assert composed.apply(e) == cap_after.apply(brew_first.apply(e))


def test_compose_invert_reverses_order():
    rng = random.Random(7)
    for _ in range(40):
        u1 = _random_update(rng, 3)
        u2 = _random_update(rng, 3)
        composed = u1.compose(u2)
        e = E(*(rng.randint(0, 4) for _ in range(3)))
        for inv in INVERSES:
            assert inv(composed, e) == inv(u1, inv(u2, e))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        atom(Add(0)).apply(E(1, 2))
    with pytest.raises(DimensionMismatch):
        Update.identity(2).compose(Update.identity(3))


def test_atom_validation():
    with pytest.raises(ValueError):
        MinOf(())
    with pytest.raises(ValueError):
        atom(MinOf((0, 5)), Add(0))
    with pytest.raises(ValueError):
        Mul(0)
    with pytest.raises(ValueError):
        Update(())
    with pytest.raises(ValueError):
        atom(1, Add(0))
    with pytest.raises(ValueError):
        MinOf((True,))
    with pytest.raises(ValueError):
        MinOf((1.0,))
    with pytest.raises(ValueError):
        Mul(True)


def _random_update(rng: random.Random, n: int, max_abs: int = 2) -> Update:
    steps = []
    for _ in range(rng.randint(1, 2)):
        specs = []
        for i in range(n):
            roll = rng.random()
            if roll < 0.6:
                specs.append(Add(rng.randint(-max_abs, max_abs)))
            elif roll < 0.85:
                size = rng.randint(1, n)
                specs.append(MinOf(tuple(rng.sample(range(n), size))))
            else:
                specs.append(Mul(rng.randint(1, 3)))
        steps.append(UpdateAtom(tuple(specs)))
    return Update(tuple(steps))


def _finite_grid(n, top=4):
    return [Energy(t) for t in itertools.product(range(top + 1), repeat=n)]


def test_monotonicity_on_grid():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        u = _random_update(rng, n)
        g = _finite_grid(n)
        images = {e: u.apply(e) for e in g}
        for e in g:
            if images[e] is None:
                continue
            for ep in g:
                if leq(e, ep):
                    assert images[ep] is not None
                    assert leq(images[e], images[ep])


def test_galois_law_on_grid():
    rng = random.Random(13)
    values = (0, 1, 2, 3, 4, INF)
    for _ in range(60):
        n = rng.randint(1, 3)
        u = _random_update(rng, n)
        g = [Energy(t) for t in itertools.product(values, repeat=n)]
        inverse = {ep: invert(u, ep) for ep in g}
        for e in g:
            image = u.apply(e)
            if image is None:
                continue
            for ep in g:
                assert leq(ep, image) == leq(inverse[ep], e)


def test_invert_lands_in_domain():
    rng = random.Random(17)
    values = (0, 1, 3, INF)
    for _ in range(100):
        n = rng.randint(1, 3)
        u = _random_update(rng, n)
        for t in itertools.product(values, repeat=n):
            assert u.apply(invert(u, Energy(t))) is not None
            if INF not in t:
                assert u.apply(kernel_invert(u, Energy(t))) is not None


def test_invert_is_bruteforce_grid_minimum():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 2)
        u = _random_update(rng, n)
        g = _finite_grid(n)
        for ep in g:
            m = invert(u, ep)
            assert kernel_invert(u, ep) == m
            if not all(c != INF and c <= 4 for c in m.components):
                continue
            candidates = [e for e in g if (img := u.apply(e)) is not None and leq(ep, img)]
            assert m in candidates
            for c in candidates:
                assert leq(m, c)
