"""Process-independent rendering of slice words, for fixture digests."""

from __future__ import annotations

import hashlib

from nomlang import monoids
from nomlang.names import Name
from nomlang.syntax import render_word


def _sym(s) -> str:
    return f"#{s.label}" if isinstance(s, Name) else s.symbol


def render(sort: str, w) -> str:
    """Concrete syntax of a canonical word of the given sort.

    S-words list their bound set by label, not by interning id, so the
    text does not depend on what the process interned before.
    """
    if sort == "S":
        pre = "".join(f"[{n.label}]" for n in sorted(w.bound, key=lambda n: n.label))
        return pre + " ".join(_sym(s) for s in w.body)
    return render_word(monoids.SORTS[sort].to_mword(w))


def digest(sort: str, words) -> str:
    text = "\n".join(sorted(render(sort, w) for w in words))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
