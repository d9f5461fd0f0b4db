"""Energy updates: partial vector functions with computable Galois inverses.

An atomic update specifies, per component, one of three effects:

* ``Add(z)``      – add the integer ``z``; undefined when the result would
  drop below zero (an infinite component absorbs any addition),
* ``MinOf(D)``    – replace the component by the minimum over the index
  set ``D``, read from the un-updated input vector,
* ``Mul(m)``      – multiply by a natural ``m >= 1``.

All three are monotonic with upward-closed domains, so each atom ``u`` has
a total "undo" ``inv(e') = min {e | e' <= u(e)}``; the pair satisfies
``e' <= u(e)  iff  inv(e') <= e`` on the domain of ``u`` (a Galois
connection).  Component ``i`` of ``inv(e')`` is the maximum of every
constraint pulling on it: ``e'_i - z`` for an Add (when nonnegative),
``ceil(e'_i / m)`` for a Mul, ``e'_j`` for every MinOf component ``j``
drawing on ``i``, and the floor ``0``.  Undo of a composite runs the atom
inverses in reverse order.  The solver evaluates these inverses on int64
rows, for many updates at once (``solver._Inverses``); this module only
defines the updates and their forward application.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .lattice import INF, Component, Energy


@dataclass(frozen=True)
class Add:
    z: int

    def __post_init__(self) -> None:
        if not isinstance(self.z, int) or isinstance(self.z, bool):
            raise ValueError(f"Add amount must be an integer, got {self.z!r}")


@dataclass(frozen=True)
class MinOf:
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(set(self.indices)))
        if not idx:
            raise ValueError("MinOf needs at least one component index")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class Mul:
    factor: int

    def __post_init__(self) -> None:
        if not isinstance(self.factor, int) or self.factor < 1:
            raise ValueError(f"Mul factor must be a natural >= 1, got {self.factor!r}")


ComponentSpec = Add | MinOf | Mul


@dataclass(frozen=True)
class UpdateAtom:
    """One simultaneous update of all components."""

    specs: tuple[ComponentSpec, ...]

    def __post_init__(self) -> None:
        n = len(self.specs)
        for i, spec in enumerate(self.specs):
            if isinstance(spec, MinOf) and any(k < 0 or k >= n for k in spec.indices):
                raise ValueError(f"MinOf indices {spec.indices} out of range for dimension {n}")

    @property
    def dimension(self) -> int:
        return len(self.specs)

    @classmethod
    def identity(cls, dimension: int) -> UpdateAtom:
        return cls((Add(0),) * dimension)

    def apply(self, e: Energy) -> Energy | None:
        """Forward application; ``None`` means undefined (some Add went negative)."""
        if e.dimension != self.dimension:
            raise DimensionMismatch(f"energy dim {e.dimension} vs update dim {self.dimension}")
        src = e.components
        out: list[Component] = []
        for i, spec in enumerate(self.specs):
            if isinstance(spec, Add):
                c = src[i]
                if c == INF:
                    out.append(INF)
                else:
                    v = c + spec.z
                    if v < 0:
                        return None
                    out.append(v)
            elif isinstance(spec, MinOf):
                out.append(min(src[k] for k in spec.indices))
            else:
                c = src[i]
                out.append(INF if c == INF else c * spec.factor)
        return Energy(tuple(out))


@dataclass(frozen=True)
class Update:
    """A nonempty sequence of atoms, applied left to right."""

    steps: tuple[UpdateAtom, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("an update needs at least one step")
        dims = {s.dimension for s in self.steps}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed step dimensions: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.steps[0].dimension

    @classmethod
    def identity(cls, dimension: int) -> Update:
        return cls((UpdateAtom.identity(dimension),))

    @classmethod
    def single(cls, *specs: ComponentSpec) -> Update:
        return cls((UpdateAtom(tuple(specs)),))

    def apply(self, e: Energy) -> Energy | None:
        current: Energy | None = e
        for step in self.steps:
            current = step.apply(current)
            if current is None:
                return None
        return current

    def compose(self, later: Update) -> Update:
        """This update followed by ``later``, as one edge label."""
        if self.dimension != later.dimension:
            raise DimensionMismatch(f"dim {self.dimension} vs {later.dimension}")
        return Update(self.steps + later.steps)
