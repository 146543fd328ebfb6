"""The three restricted word sorts and their monoid structure.

Besides the fully general words of `words`, balanced token rows whose
binders scope over any subword, there are three progressively more
rigid sorts:

* g-words: binder scopes always extend to the end of the word, so a
  word is a row of tokens (names, letters and `TOpen` binders) with no
  closes;
* l-words: a prefix of binders followed by a binder-free body;
* s-words: an unordered set of bound names plus a binder-free body.

Each sort carries concatenation and a binding operation, computed on
nameless keys as M's are on `words.alpha_key`.  A bound occurrence in a
key is a number that says which binder holds it, so binders carry no
names and the freshness side conditions of the defining equations never
arise; a free name or a letter is its own key element:

* a G key is the token stream with closes dropped and bound occurrences
  as de Bruijn indices, so ``x·y`` is tuple concatenation;
* an L key is (prefix length, body), a bound occurrence being its
  binder's position counted from the right end of the prefix (the
  rightmost binder of a name wins);
* an S key is (number of bound names, body), the bound names numbered
  by first occurrence; binding a name that does not occur is the
  identity.

Equal keys mean alpha-equivalent words.  Every sort in `SORTS`, M
included, is built from its key sort by `_on_keys`: a value operation
encodes its arguments, applies the key operation and decodes the result
to the canonical value, whose binders take the first names of the one
reserved-name table that do not occur free (`names.binder_names`).  A
key with no binder is decoded without a copy: an M or G key is then the
row, and an L or S key's body is the value's body.
Embeddings connect the sorts: s -> l -> g -> m.  The quotients in the
other direction start from the canonical word, whose binders have
distinct names that occur free nowhere, so moving a binder captures
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .names import Letter, Name, Permutation, binder_names
from . import words
from .words import KEY_OPEN, TCLOSE, TClose, MWord, TOpen, alpha_canonical, from_key, key_bind

AtomSym = Union[Name, Letter]


# ---------------------------------------------------------------------------
# g-words

@dataclass(frozen=True, slots=True)
class GWord:
    """A row of names, letters and binders; a binder's scope runs to the end."""

    tokens: tuple[AtomSym | TOpen, ...]

    def __repr__(self):
        return repr(embed_gm(self))


# ---------------------------------------------------------------------------
# l-words

@dataclass(frozen=True, slots=True)
class LWord:
    prefix: tuple[Name, ...]
    body: tuple[AtomSym, ...]

    def __repr__(self):
        pre = "".join(f"[{n.label}]" for n in self.prefix)
        return pre + (" ".join(map(repr, self.body)) or "^")  # `^` spells an empty body


# ---------------------------------------------------------------------------
# s-words

@dataclass(frozen=True, slots=True)
class SWord:
    bound: frozenset[Name]
    body: tuple[AtomSym, ...]

    def __post_init__(self):
        # every bound name is a `Name` that occurs in the body, tested in C
        if not (self.bound.issubset(self.body) and all(map(Name.__instancecheck__, self.bound))):
            raise ValueError("bound names must occur in the body")

    def __repr__(self):
        return repr(embed_sl(self))


# ---------------------------------------------------------------------------
# Nameless keys
#
# Key elements are free `Name`s, `Letter`s, bound occurrences (`int`)
# and, in G keys, `KEY_OPEN`.  Tokens are hash-consed, so an atom is its
# own key element unless it is a bound name.  Tuples are built from lists:
# `tuple(genexpr)` costs about twice as much on a short body.

def _decode_body(body: tuple, names: tuple) -> tuple:
    """The atoms of a key body; `names[i]` is the name of bound occurrence i."""
    return tuple([names[x] if type(x) is int else x for x in body])


_NO_NAMES: frozenset[Name] = frozenset()


def _shift(body: tuple, k: int) -> tuple:
    """The body with every bound occurrence raised by `k`."""
    if not k:  # most L and S concatenations in sort_enum: an operand binds nothing
        return body
    return tuple([x + k if type(x) is int else x for x in body])


def _decode_g(key: tuple) -> GWord:
    # a G key is an M key with no closes, and `from_key` names its binders
    return GWord(from_key(key).tokens)


def _tok_len_g(key: tuple) -> int:
    # each binder also costs the close `embed_gm` appends; `is` keeps the
    # scan off the Python-level `__eq__` that `__lt__` gives names and letters
    return len(key) + len([x for x in key if x is KEY_OPEN])


def _bind_g(n: Name, key: tuple) -> tuple:
    # a G key has no closes, so this is M's bind less the close it appends
    return key_bind(n, key)[:-1]


def _encode_l(x: LWord) -> tuple:
    p = len(x.prefix)
    pos = {n: p - 1 - j for j, n in enumerate(x.prefix)}  # the rightmost binder wins
    return (p, tuple(pos.get(s, s) for s in x.body))


def _decode_l(key: tuple) -> LWord:
    p, body = key
    if not p:  # about two in three words of sort_enum's L slices
        return LWord((), body)
    prefix = binder_names(p, body)
    return LWord(prefix, _decode_body(body, prefix[::-1]))


def _concat_l(x: tuple, y: tuple) -> tuple:
    # y's prefix comes between x's binders and the right end
    return (x[0] + y[0], _shift(x[1], y[0]) + y[1])


def _bind_l(n: Name, key: tuple) -> tuple:
    p, body = key
    return (p + 1, tuple([p if x is n else x for x in body]))


def _encode_s(x: SWord) -> tuple:
    number: dict[Name, int] = {}
    for s in x.body:
        if s in x.bound:
            number.setdefault(s, len(number))
    return (len(number), tuple(number.get(s, s) for s in x.body))


def _decode_s(key: tuple) -> SWord:
    k, body = key
    if not k:  # about three in four words of sort_enum's S slices
        return SWord(_NO_NAMES, body)
    names = binder_names(k, body)
    return SWord(frozenset(names), _decode_body(body, names))


def _concat_s(x: tuple, y: tuple) -> tuple:
    # x's bound names occur first
    return (x[0] + y[0], x[1] + _shift(y[1], x[0]))


def _bind_s(n: Name, key: tuple) -> tuple:
    k, body = key
    # binding a name absent from the body is the identity in S: no binder
    # is added and the count of bound names stays
    if n not in set(body):
        return key
    number: dict = {}
    return (k + 1, tuple([
        number.setdefault(x, len(number)) if x is n or type(x) is int else x for x in body
    ]))


# ---------------------------------------------------------------------------
# Embeddings s -> l -> g -> m

def embed_sl(x: SWord) -> LWord:
    """Order the bound-name set (by label) into a binder prefix."""
    return LWord(tuple(sorted(x.bound)), x.body)


def embed_lg(x: LWord) -> GWord:
    return GWord(tuple(map(TOpen, x.prefix)) + x.body)


def embed_gm(w: GWord) -> MWord:
    """The row, then a close per binder."""
    return MWord(w.tokens + (TCLOSE,) * sum(type(t) is TOpen for t in w.tokens))


def embed_lm(x: LWord) -> MWord:
    return embed_gm(embed_lg(x))


def embed_sm(x: SWord) -> MWord:
    return embed_lm(embed_sl(x))


# ---------------------------------------------------------------------------
# Quotients m -> g -> l -> s
#
# The maps that forget structure.  They are monoid homomorphisms, and
# each embedding above is a section of the matching quotient.

def quot_mg(w: MWord) -> GWord:
    """Extend every binder scope to the end of the word."""
    return GWord(tuple(t for t in alpha_canonical(w).tokens if type(t) is not TClose))


def quot_gl(w: GWord) -> LWord:
    """Hoist every binder into the prefix, keeping their order."""
    row = canon_g(w).tokens
    return LWord(tuple(t.name for t in row if type(t) is TOpen),
                 tuple(t for t in row if type(t) is not TOpen))


def quot_ls(x: LWord) -> SWord:
    """Forget the order of the binder prefix, and drop the binders of no occurrence."""
    x = canon_l(x)
    occurring = set(x.body)
    return SWord(frozenset(n for n in x.prefix if n in occurring), x.body)


# ---------------------------------------------------------------------------
# Plain-word projection (pool-bounded)

PlainWord = tuple


def plain_words_bounded(ws, pool: frozenset[Name]) -> frozenset[PlainWord]:
    """Project words with binders to binder-free plain words.

    A binder contributes the unchanged projections of its body plus
    every renaming of the bound name to a pool name fresh for the
    projected word.  The pool must cover the free names of the input.
    """
    pool = frozenset(pool)
    out: set[PlainWord] = set()
    for w in ws:
        missing = words.support(w) - pool
        if missing:
            raise ValueError(f"pool omits free names: {sorted(n.label for n in missing)}")
        out |= _project(w, pool)
    return frozenset(out)


def _project(w: MWord, pool: frozenset[Name]) -> set[PlainWord]:
    """The plain words of `w` (`plain_words_bounded`); a bound name is
    renamed to a fresh pool name by `Permutation.transposition`."""
    names: list[Name] = []  # the open binders
    accs: list[set] = [{()}]  # projections so far: of the word, then of each open body
    for t in w.tokens:
        if type(t) is TOpen:
            names.append(t.name)
            accs.append({()})
        elif type(t) is TClose:
            n, base = names.pop(), accs.pop()
            part = set(base)
            for v in base:
                for m in pool:
                    if m not in v:
                        part.add(tuple(map(Permutation.transposition(n, m), v)))
            accs[-1] = {u + v for u in accs[-1] for v in part}
        else:
            accs[-1] = {u + (t,) for u in accs[-1]}
    return accs[0]


# ---------------------------------------------------------------------------
# Uniform interface used by the regular-expression semantics

@dataclass(frozen=True)
class SortOps:
    """The operations a sort must provide to interpret regular expressions.

    A sort's words are generated by `unit`, the empty word, and `atom`,
    which makes the one-symbol word of a name or a letter, under
    `concat` and `bind`.  Token length adds up under `concat` in every
    sort.  Every sort in `SORTS` is made by `_on_keys` from `keyed`, the
    same sort on its nameless keys, and `encode`, which maps a value to
    its key; so its operations return canonical values.  A key sort's
    `canon` is the identity, its `to_mword` decodes a key to the
    canonical value of this sort, and it has no `keyed` or `encode` of
    its own.
    `regex.enumerate_slice` runs on the keys and decodes each output
    word once; `regex.member` encodes its candidate and decodes nothing.
    """

    tag: str
    unit: object
    atom: Callable
    concat: Callable
    bind: Callable
    canon: Callable
    tok_len: Callable
    to_mword: Callable
    keyed: Optional["SortOps"] = None
    encode: Optional[Callable] = None


def _identity(x):
    return x


def _on_keys(tag: str, keys: SortOps, encode: Callable, to_mword: Callable) -> SortOps:
    """The sort whose values are decoded keys: each operation encodes its
    arguments, applies the operation of `keys` and decodes the result."""
    decode = keys.to_mword
    return SortOps(
        tag=tag,
        unit=decode(keys.unit),
        atom=lambda s: decode(keys.atom(s)),
        concat=lambda x, y: decode(keys.concat(encode(x), encode(y))),
        bind=lambda n, x: decode(keys.bind(n, encode(x))),
        canon=lambda x: decode(encode(x)),
        tok_len=lambda x: keys.tok_len(encode(x)),
        to_mword=to_mword,
        keyed=keys,
        encode=encode,
    )


# M-words as alpha keys (see `words`): bound names are de Bruijn
# indices, so concatenation is tuple concatenation, with no renaming.
SORT_M_KEYS = SortOps(
    tag="M",
    unit=(),
    atom=lambda s: (s,),
    concat=tuple.__add__,
    bind=key_bind,
    canon=_identity,
    tok_len=len,
    to_mword=from_key,
)

SORT_M = _on_keys("M", SORT_M_KEYS, words.alpha_key, _identity)

# A G key is an M key without closes: `alpha_key` reads a G row as it
# reads an M row, and the closes `embed_gm` would append all come last.
SORT_G = _on_keys("G", replace(
    SORT_M_KEYS, tag="G", bind=_bind_g, tok_len=_tok_len_g, to_mword=_decode_g,
), words.alpha_key, embed_gm)

SORT_L_KEYS = SortOps(
    tag="L",
    unit=(0, ()),
    atom=lambda s: (0, (s,)),
    concat=_concat_l,
    bind=_bind_l,
    canon=_identity,
    tok_len=lambda key: 2 * key[0] + len(key[1]),  # a binder is an open and a close
    to_mword=_decode_l,
)
SORT_L = _on_keys("L", SORT_L_KEYS, _encode_l, embed_lm)

SORT_S = _on_keys("S", replace(
    SORT_L_KEYS, tag="S", concat=_concat_s, bind=_bind_s, to_mword=_decode_s,
), _encode_s, embed_sm)

SORTS = {"M": SORT_M, "G": SORT_G, "L": SORT_L, "S": SORT_S}

concat_g, canon_g = SORT_G.concat, SORT_G.canon
concat_l, canon_l = SORT_L.concat, SORT_L.canon
canon_s = SORT_S.canon
