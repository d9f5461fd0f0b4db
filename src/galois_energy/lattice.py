"""Energies and Pareto fronts.

An energy is a fixed-length vector whose components are naturals extended
with infinity, ordered component-wise.  This order makes the energy set a
bounded join-semilattice: suprema of finite sets exist (component-wise
maximum) and every subset has minimal elements, so upward-closed sets are
represented by the finite antichain of their minima (a Pareto front).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DimensionMismatch

INF = math.inf

Component = int | float  # a natural number, or INF


def is_int(x: object) -> bool:
    """``x`` is an integer and not a boolean."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_component(c: Component) -> None:
    if is_int(c):
        if c >= 0:
            return
    elif isinstance(c, float) and c == INF:
        return
    raise ValueError(f"energy component must be a natural or inf, got {c!r}")


@dataclass(frozen=True)
class Energy:
    """An immutable vector of extended naturals."""

    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        for c in self.components:
            _check_component(c)

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def is_finite(self) -> bool:
        return all(c != INF for c in self.components)

    @classmethod
    def zero(cls, dimension: int) -> Energy:
        return cls((0,) * dimension)

    @classmethod
    def parse(cls, text: str) -> Energy:
        """Parse the textual rendering, e.g. ``"0,2,0,10"`` or ``"inf,3"``.

        Each comma-separated component, stripped of surrounding whitespace,
        is ``inf`` or ASCII decimal digits; signs, ``_`` separators and
        other scripts' digits are refused."""
        comps: list[Component] = []
        for p in (p.strip() for p in text.split(",")):
            if p == "inf":
                comps.append(INF)
            elif p.isascii() and p.isdigit():
                comps.append(int(p))
            else:
                raise ValueError(f"bad energy component {p!r} in {text!r}")
        return cls(tuple(comps))

    def render(self) -> str:
        """Comma-separated components, ``inf`` for infinity."""
        return ",".join("inf" if c == INF else str(c) for c in self.components)

    def __str__(self) -> str:
        return self.render()

    def __le__(self, other: Energy) -> bool:
        return leq(self, other)


def _require_same_dimension(a: Energy, b: Energy) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimension {a.dimension} vs {b.dimension}")


def leq(a: Energy, b: Energy) -> bool:
    """Component-wise order; every value is below infinity."""
    _require_same_dimension(a, b)
    return all(x <= y for x, y in zip(a.components, b.components))


def sup2(a: Energy, b: Energy) -> Energy:
    """Least upper bound: component-wise maximum (infinity absorbs)."""
    _require_same_dimension(a, b)
    return Energy(tuple(max(x, y) for x, y in zip(a.components, b.components)))


@dataclass(frozen=True)
class ParetoFront:
    """A finite antichain of energies, canonically sorted.

    Represents the upward-closed set of all energies dominating some
    element.  Elements are kept in ascending lexicographic order of their
    components so equal fronts compare and render identically.  The
    solver builds fronts from rows its minimiser returns, which are
    antichains in that order; the constructor only checks cheap shape
    invariants (one dimension, unique, sorted).
    """

    elements: tuple[Energy, ...]

    def __post_init__(self) -> None:
        dims = {e.dimension for e in self.elements}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed dimensions in front: {sorted(dims)}")
        keys = [e.components for e in self.elements]
        if keys != sorted(set(keys)):
            raise ValueError("front elements must be unique and lexicographically sorted")

    @classmethod
    def empty(cls) -> ParetoFront:
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def __iter__(self) -> Iterator[Energy]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def render(self) -> str:
        return "; ".join(e.render() for e in self.elements)
