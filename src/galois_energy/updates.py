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
the updates and their one forward evaluator, ``forward``, which runs one
update on a matrix of rows.  The oracle's moves run it on int64 rows, and
``Update.apply`` on a one-row ``dtype=object`` matrix, whose Python
numbers keep every value exact, infinite components included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .lattice import Energy, is_int


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
        object.__setattr__(self, "specs", tuple(self.specs))
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
        object.__setattr__(self, "steps", tuple(self.steps))
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
        out, defined = self._forward(np.array([e.components], dtype=object))
        return Energy(tuple(out[0].tolist())) if defined[0] else None

    @cached_property
    def _forward(self) -> Evaluator:
        return forward(self)

    def __getstate__(self) -> dict:
        # a compiled evaluator is a closure, which pickle cannot store
        return {k: v for k, v in self.__dict__.items() if k != "_forward"}

    def compose(self, later: Update) -> Update:
        """This update followed by ``later``, as one edge label."""
        if self.dimension != later.dimension:
            raise DimensionMismatch(f"dim {self.dimension} vs {later.dimension}")
        return Update(self.steps + later.steps)


# rows in, updated rows and the mask of rows where the update is defined out
Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def forward(update: Update, cap: int | None = None) -> Evaluator:
    """Compile ``update`` into a function on a matrix of energies, one row
    each, that returns the updated rows and a mask of the rows where the
    update is defined.  The rows are clipped to ``cap`` once, after the
    last step (no clip when ``cap`` is ``None``); undefined rows carry
    meaningless values.  On ``dtype=object`` rows every value stays a
    Python number, so integers never wrap and infinite components stay
    infinite; on int64 rows the caller keeps every value in range.

    A step multiplies and adds whole rows, then tests for a negative value
    only the columns it decrements and writes only the ``MinOf`` columns
    that are not the identity (a minimum over the component itself)."""
    plan = []
    for atom in update.steps:
        zs = [s.z if isinstance(s, Add) else 0 for s in atom.specs]
        ms = [s.factor if isinstance(s, Mul) else 1 for s in atom.specs]
        drops = [i for i, z in enumerate(zs) if z < 0]
        mins = [(i, s.indices) for i, s in enumerate(atom.specs)
                if isinstance(s, MinOf) and s.indices != (i,)]
        plan.append((np.array(zs) if any(zs) else None, np.array(ms) if max(ms) > 1 else None,
                     drops, mins))
    # without an increment or a factor, no component exceeds the input's maximum
    grows = cap is not None and any(
        ms is not None or zs is not None and zs.max() > 0 for zs, ms, _, _ in plan
    )

    def run(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        defined = None
        for zs, ms, drops, mins in plan:
            out = rows
            if ms is not None:
                out = out * ms
            if zs is not None:
                out = out + zs
                # only a decremented column can go below zero on a defined row
                for i in drops:
                    ok = out[:, i] >= 0
                    defined = ok if defined is None else defined & ok
            if mins:
                if out is rows:
                    out = rows.copy()
                for i, (first, *rest) in mins:
                    low = rows[:, first]
                    for k in rest:
                        low = np.minimum(low, rows[:, k])
                    out[:, i] = low
            rows = out
        if grows:
            rows = np.minimum(rows, cap)
        return rows, np.ones(len(rows), dtype=bool) if defined is None else defined

    return run
