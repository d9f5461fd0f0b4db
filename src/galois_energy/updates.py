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
rows, for many updates at once (``solver._Inverses``); this module defines
the updates and their one forward evaluator, ``forward``, which both
``Update.apply`` and the oracle's moves run.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter, mul
from typing import Callable

from .errors import DimensionMismatch
from .lattice import Component, Energy, is_int


@dataclass(frozen=True)
class Add:
    z: int

    def __post_init__(self) -> None:
        if not is_int(self.z):
            raise ValueError(f"Add amount must be an integer, got {self.z!r}")


@dataclass(frozen=True)
class MinOf:
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(map(is_int, self.indices)):
            raise ValueError(f"MinOf indices must be integers, got {self.indices!r}")
        idx = tuple(sorted(set(self.indices)))
        if not idx:
            raise ValueError("MinOf needs at least one component index")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class Mul:
    factor: int

    def __post_init__(self) -> None:
        if not is_int(self.factor) or self.factor < 1:
            raise ValueError(f"Mul factor must be a natural >= 1, got {self.factor!r}")


ComponentSpec = Add | MinOf | Mul


@dataclass(frozen=True)
class UpdateAtom:
    """One simultaneous update of all components."""

    specs: tuple[ComponentSpec, ...]

    def __post_init__(self) -> None:
        n = len(self.specs)
        for spec in self.specs:
            if not isinstance(spec, (Add, MinOf, Mul)):
                raise ValueError(f"component spec must be Add, MinOf or Mul, got {spec!r}")
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
        return Update((self,)).apply(e)


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
        """Forward application; ``None`` means undefined (some Add went negative)."""
        if e.dimension != self.dimension:
            raise DimensionMismatch(f"energy dim {e.dimension} vs update dim {self.dimension}")
        out = forward(self)(e.components)
        return None if out is None else Energy(out)

    def compose(self, later: Update) -> Update:
        """This update followed by ``later``, as one edge label."""
        if self.dimension != later.dimension:
            raise DimensionMismatch(f"dim {self.dimension} vs {later.dimension}")
        return Update(self.steps + later.steps)


RawEnergy = tuple[Component, ...]


def forward(update: Update, cap: int | None = None) -> Callable[[RawEnergy], RawEnergy | None]:
    """Compile ``update`` into a function on component tuples that returns
    ``None`` when undefined and clips to ``cap`` once, after the last step
    (no clip when ``cap`` is ``None``).  Infinite components stay infinite."""
    plan = []
    for atom in update.steps:
        zs = tuple(s.z if isinstance(s, Add) else 0 for s in atom.specs)
        ms = tuple(s.factor if isinstance(s, Mul) else 1 for s in atom.specs)
        # repeating an index makes every getter return a tuple
        mins = [(i, itemgetter(*s.indices, s.indices[0]))
                for i, s in enumerate(atom.specs) if isinstance(s, MinOf)]
        plan.append((zs if any(zs) else None, ms if max(ms, default=1) > 1 else None,
                     min(zs, default=0) < 0, mins))
    # without an increment or a factor, no component exceeds the input's maximum
    grows = cap is not None and any(ms or zs and max(zs) > 0 for zs, ms, _, _ in plan)
    caps = (cap,) * update.dimension

    def run(e: RawEnergy) -> RawEnergy | None:
        for zs, ms, drops, mins in plan:
            out = e
            if ms:
                out = tuple(map(mul, out, ms))
            if zs:
                out = tuple(map(add, out, zs))
                if drops and min(out) < 0:
                    return None
            if mins:
                out = list(out)
                for i, get in mins:
                    out[i] = min(get(e))
                out = tuple(out)
            e = out
        if grows and max(e) > cap:
            return tuple(map(min, e, caps))
        return e

    return run
