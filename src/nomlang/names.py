"""Names, letters, permutations, and fresh-name supplies.

The alphabet is split into a countably infinite set of *names* (testable
only for equality) and a finite, user-declared set of *letters*.  Both
are hash-consed (`Interned`): constructing ``Name("n1")`` or
``Letter("a")`` twice gives the same object, so two are equal iff they
are one object, and hashing is the identity hash, in C.  Names order by
label and letters by symbol, so no output depends on the order in which
they were first made.  That order costs `==` its C path: a class that
defines `__lt__` compares through Python's slot path, so every `==`
against a name or a letter looks a method up.  On an 8-element key,
``key.count(KEY_OPEN)`` took 0.53-0.67 us, and 0.16-0.17 us with
`__lt__` deleted (on a shared 2-vCPU x86-64 VM); so hot scans (the G
token length in `monoids`) test with `is`, and `words.key_decoder`
looks for a binder by hashing, which is by identity.
The placeholder ``STAR`` used in automaton name maps is
deliberately not a ``Name`` so it can never leak into words.

Canonical words name their binders ``~0, ~1, ...``.  One table holds
these reserved names, each interned once, and `binder_names` reads the
first k that a body leaves free from it.
"""

from __future__ import annotations

import itertools


class Interned:
    """Hash-consed values: one object per key, so `==` is identity and
    `hash` is the identity hash, in C, unless a subclass orders its
    values (`Name`, `Letter`; see above).  A subclass names its one field
    in `__slots__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._registry = {}
        (cls._field,) = cls.__slots__

    def __new__(cls, key):
        obj = cls._registry.get(key)
        if obj is None:
            obj = cls._registry[key] = object.__new__(cls)
            object.__setattr__(obj, cls._field, key)
        return obj

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # a copy or an unpickled value is the one object of its key
        return type(self), (getattr(self, self._field),)


class Name(Interned):
    """A name: one object per label."""

    __slots__ = ("label",)

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


# The reserved names interned so far, in order, and as a set; both grow
# together, on demand, in `binder_names`.
_reserved: tuple[Name, ...] = ()
_reserved_set: set[Name] = set()


def binder_names(k: int, body) -> tuple[Name, ...]:
    """The first k reserved names ``~0, ~1, ...`` that do not occur in `body`.

    One test in C, with no name built, decides the common case: no
    reserved name occurs in `body`, and the answer is the table's prefix.
    """
    global _reserved
    if len(_reserved) < k:
        grown = tuple([Name(f"~{i}") for i in range(len(_reserved), k)])
        _reserved += grown
        _reserved_set.update(grown)
    if _reserved_set.isdisjoint(body):
        return _reserved[:k]
    blocked = set(body)
    supply = (Name(f"~{i}") for i in itertools.count())
    return tuple(itertools.islice((c for c in supply if c not in blocked), k))


class Letter(Interned):
    """An element of the finite letter alphabet: one object per symbol."""

    __slots__ = ("symbol",)

    def __repr__(self) -> str:
        return self.symbol

    def __lt__(self, other: "Letter") -> bool:
        return self.symbol < other.symbol


class _Star:
    """Placeholder in name-map codomains marking the slot filled at
    allocation; `STAR` is its one object, which copies and pickles as
    itself."""

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):
        return "STAR"


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
