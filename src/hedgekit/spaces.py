"""Labeled tensor-product spaces.

Every operator in the toolkit is tagged with an ordered list of
``(label, dim)`` factors.  Cross-space operations (partial traces,
permutations, identity lifts) address factors by label, never by
position, so that operators living on the same factors in different
orders can always be aligned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpaceError

# Dense desk-scale toolkit: total dimension of any single operator.
DESK_DIM_CAP = 256


@dataclass(frozen=True)
class SpaceList:
    """Ordered sequence of labeled tensor factors.

    ``labels``, ``dims`` and ``dim`` are set once, at construction (the
    list is frozen); equality, hashing and the repr read ``entries``
    alone."""

    entries: tuple[tuple[str, int], ...]

    def __init__(self, entries):
        ents = tuple((str(label), int(dim)) for label, dim in entries)
        seen = set()
        for label, dim in ents:
            if dim < 1:
                raise SpaceError(f"dimension of factor {label!r} must be >= 1, got {dim}")
            if label in seen:
                raise SpaceError(f"duplicate label {label!r}")
            seen.add(label)
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "labels", tuple(label for label, _ in ents))
        object.__setattr__(self, "dims", tuple(dim for _, dim in ents))
        object.__setattr__(self, "dim", math.prod(self.dims))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def position(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.entries):
            if lab == label:
                return i
        raise SpaceError(f"unknown label {label!r}; have {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.entries[self.position(label)][1]

    def has(self, label: str) -> bool:
        return label in self.labels

    def restrict(self, labels) -> "SpaceList":
        """Sub-list of the given labels, keeping this list's order."""
        labels = set(labels)
        unknown = labels - set(self.labels)
        if unknown:
            raise SpaceError(f"unknown labels {sorted(unknown)}; have {self.labels}")
        return SpaceList(tuple(e for e in self.entries if e[0] in labels))

    def drop(self, labels) -> "SpaceList":
        labels = set(labels)
        unknown = labels - set(self.labels)
        if unknown:
            raise SpaceError(f"unknown labels {sorted(unknown)}; have {self.labels}")
        return SpaceList(tuple(e for e in self.entries if e[0] not in labels))

    def concat(self, other: "SpaceList") -> "SpaceList":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise SpaceError(f"label collision on {sorted(overlap)}")
        return SpaceList(self.entries + other.entries)

    def reorder(self, new_labels) -> "SpaceList":
        new_labels = tuple(new_labels)
        if sorted(new_labels) != sorted(self.labels):
            raise SpaceError(
                f"{new_labels} is not a permutation of {self.labels}"
            )
        return SpaceList(tuple((lab, self.dim_of(lab)) for lab in new_labels))

    def relabel(self, mapping) -> "SpaceList":
        """Rename factors through a ``{old: new}`` mapping (missing = keep)."""
        return SpaceList(tuple((mapping.get(lab, lab), d) for lab, d in self.entries))


def space(*entries) -> SpaceList:
    """Shorthand: ``space(("X", 2), ("Z", 2))``."""
    return SpaceList(entries)
