"""Names, letters, permutations, and fresh-name supplies.

The alphabet is split into a countably infinite set of *names* (testable
only for equality) and a finite, user-declared set of *letters*.  Names
are interned: constructing ``Name("n1")`` twice gives the same object.
Names order by label, so no output depends on the order in which
names were first made.  The placeholder
``STAR`` used in automaton name maps is deliberately not a ``Name`` so
it can never leak into words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator


class Name:
    """An interned name: one object per label."""

    __slots__ = ("label",)

    _registry: dict[str, "Name"] = {}

    def __new__(cls, label: str) -> "Name":
        existing = cls._registry.get(label)
        if existing is not None:
            return existing
        obj = object.__new__(cls)
        object.__setattr__(obj, "label", label)
        cls._registry[label] = obj
        return obj

    def __setattr__(self, key, value):
        raise AttributeError("Name is immutable")

    def __repr__(self) -> str:
        return f"#{self.label}"

    def __lt__(self, other: "Name") -> bool:
        return self.label < other.label


_fresh_counter = itertools.count()


def fresh_name(prefix: str = "n") -> Name:
    """A name whose label has never been interned before."""
    while True:
        label = f"{prefix}${next(_fresh_counter)}"
        if label not in Name._registry:
            return Name(label)


def bound_name(k: int) -> Name:
    """The k-th name of the reserved sequence used for canonical binders."""
    return Name(f"~{k}")


def canonical_supply(avoid: Iterable[Name]) -> Iterator[Name]:
    """Yield reserved binder names, skipping any that occur in `avoid`."""
    blocked = set(avoid)
    k = 0
    while True:
        c = bound_name(k)
        k += 1
        if c not in blocked:
            yield c


@dataclass(frozen=True, order=True, slots=True)
class Letter:
    """An element of the finite letter alphabet."""

    symbol: str

    def __repr__(self) -> str:
        return self.symbol


class _Star:
    """Placeholder in name-map codomains marking the slot filled at allocation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


STAR = _Star()


class Permutation:
    """A finite permutation of names, identity outside its mapping."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[Name, Name] | None = None):
        m = {k: v for k, v in (mapping or {}).items() if k is not v}
        if len(set(m.values())) != len(m) or set(m.values()) != set(m.keys()):
            raise ValueError("mapping is not a permutation of its domain")
        self._map = m

    @classmethod
    def transposition(cls, a: Name, b: Name) -> "Permutation":
        if a is b:
            return cls()
        return cls({a: b, b: a})

    def __call__(self, n: Name) -> Name:
        return self._map.get(n, n)

    def __repr__(self) -> str:
        if not self._map:
            return "id"
        return "(" + " ".join(f"{k.label}>{v.label}" for k, v in self._map.items()) + ")"
