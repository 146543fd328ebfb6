import random

import pytest

from nomlang.hds import OPEN, PUSH, Hds, NameMap, Transition
from nomlang.names import Letter, Name, STAR

NAMES = [Name("n"), Name("m"), Name("k")]
LETTERS = [Letter("a"), Letter("b")]


@pytest.fixture
def rng():
    return random.Random(20260823)


def repeats_star(h: Hds) -> bool:
    """Whether some open map of `h` sends several locals to the placeholder."""
    return any(t.label is OPEN and t.sigma.values().count(STAR) > 1
               for _, t in h.transitions())


def junk_below(h: Hds, frames: tuple) -> Hds:
    """`h` behind a chain of new states whose pushes build the stack
    (initial name map, *frames) before `h`'s initial state is entered:
    the bottom frame is the chain's initial map, and each push installs
    the next frame up, the last one `h`'s initial map.  A pushed value
    is resolved through the top frame, so no value may be a key of the
    frame below it."""
    chain = [NameMap.of(h.eta), *frames]
    for upper, lower in zip(chain, chain[1:]):
        assert lower.domain.isdisjoint(upper.values())
    ids = [f"junk{i}" for i in range(len(frames))]
    assert not set(ids) & set(h.states)
    targets = [h.initial, *ids]
    return Hds(
        states=dict(h.states) | {q: f.domain for q, f in zip(ids, frames)},
        initial=ids[-1] if frames else h.initial,
        eta=frames[-1].as_dict() if frames else h.eta,
        finals=h.finals,
        trans=dict(h.trans) | {q: (Transition(PUSH, target, sigma),)
                               for q, target, sigma in zip(ids, targets, chain)},
    )
