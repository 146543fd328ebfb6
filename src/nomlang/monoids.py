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

An L or S key is what the sort's `bind` makes from a body key: a value's
key is ``(0, body)`` with its binders bound in turn, by `_bind_l` from
the rightmost binder leftwards or by `_bind_s` in any order.  So the two
rules above are written once, in the binds, and the L and S encoders
and `quot_ls` are folds of them.

Equal keys mean alpha-equivalent words.  A sort on its keys is a
`KeySort`, whose `decode` makes the sort's canonical value of a key.
Every sort in `SORTS`, M included, is a `SortOps` built from its key
sort by `_on_keys`: a value operation encodes its arguments, applies
the key operation and decodes the result to the canonical value,
whose binders take the first names of the one reserved-name table that
do not occur free (`names.binder_names`); its `to_mword` embeds a value
in M.  A key with no binder is decoded without a copy: an M or G key is
then the row, and an L or S key's body is the value's body.  M and G
share one decoder, made per word class by `words.key_decoder`; L and S
decode a body with binders in C, through a table from each bound
occurrence to its binder's name that is made once per binder count
(`_binder_tables`).  A value of
every sort is a `words.Word`, the tuple of its fields (``(tokens,)``,
``(prefix, body)`` or ``(bound, body)``), built and hashed in C and
equal only to a value of its own sort; the decoders build it with
`tuple.__new__`, which runs no Python frame.

Embeddings connect the sorts: s -> l -> g -> m.  Every quotient in the
other direction returns the canonical value: `quot_mg` and `quot_gl`
start from the canonical word, whose binders have distinct names that
occur free nowhere, so moving a binder captures nothing, and `quot_ls`
decodes the S key that `_bind_s` makes of the l-word's binders.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Union

from .names import Letter, Name, Permutation, binder_names
from . import names as _names, words
from .words import (KEY_OPEN, TCLOSE, TClose, MWord, TOpen, Word, _new_word, alpha_canonical,
                    from_key, key_bind, key_decoder)

AtomSym = Union[Name, Letter]


# ---------------------------------------------------------------------------
# g-words

class GWord(Word):
    """A row of names, letters and binders; a binder's scope runs to the end."""

    __slots__ = ()

    tokens = property(itemgetter(0))

    def __repr__(self):
        return repr(embed_gm(self))


# ---------------------------------------------------------------------------
# l-words

class LWord(Word):
    """The pair (prefix, body): a row of binder names and a binder-free body."""

    __slots__ = ()

    prefix = property(itemgetter(0))
    body = property(itemgetter(1))

    def __repr__(self):
        pre = "".join(f"[{n.label}]" for n in self.prefix)
        return pre + (" ".join(map(repr, self.body)) or "^")  # `^` spells an empty body


# ---------------------------------------------------------------------------
# s-words

class SWord(Word):
    """The pair (bound, body): a set of bound names and a binder-free body.

    Its constructor checks what a decoded S word skips (`_decode_s`).
    """

    __slots__ = ()

    def __new__(cls, bound: frozenset[Name], body: tuple[AtomSym, ...]):
        # every bound name is a `Name` that occurs in the body, tested in C
        if not (bound.issubset(body) and all(map(Name.__instancecheck__, bound))):
            raise ValueError("bound names must occur in the body")
        return tuple.__new__(cls, (bound, body))

    bound = property(itemgetter(0))
    body = property(itemgetter(1))

    def __repr__(self):
        return repr(embed_sl(self))


# ---------------------------------------------------------------------------
# Nameless keys
#
# Key elements are free `Name`s, `Letter`s, bound occurrences (`int`)
# and, in G keys, `KEY_OPEN`.  Tokens are hash-consed, so an atom is its
# own key element unless it is a bound name.  Tuples are built from lists:
# `tuple(genexpr)` costs about twice as much on a short body.

def _binder_tables(k: int, body: tuple, made: dict, make: Callable):
    """``make(names)``, where `names` are the k binder names of `body`
    (`names.binder_names`).  Where no reserved name occurs in `body`, they
    are the first k reserved names, so the result is made once per k and
    kept in `made`.

    An L or S decoder makes, from the names, the table of each bound
    occurrence's name, and decodes a body in C, as
    ``tuple(map(table.get, body, body))``: a bound occurrence is its
    binder's name, any other element itself.  Decoding a key with binders
    of sort_enum's L slice took 1.45 us with `binder_names` and a list
    comprehension per key, and 1.21 us so (S: 1.48 and 1.23 us; best of
    21, in-process, on a shared 2-vCPU x86-64 VM).
    """
    tables = made.get(k)
    if tables is None or not _names._reserved_set.isdisjoint(body):
        tables = make(binder_names(k, body))
        if _names._reserved_set.isdisjoint(body):
            made[k] = tables
    return tables


def _shift(body: tuple, k: int) -> tuple:
    """The body with every bound occurrence raised by `k`."""
    if not k:  # most L and S concatenations in sort_enum: an operand binds nothing
        return body
    return tuple([x + k if type(x) is int else x for x in body])


def _tok_len_g(key: tuple) -> int:
    # each binder also costs the close `embed_gm` appends; `is` keeps the
    # scan off the Python-level `__eq__` that `__lt__` gives names and letters
    return len(key) + len([x for x in key if x is KEY_OPEN])


def _bind_g(n: Name, key: tuple) -> tuple:
    # a G key has no closes, so this is M's bind less the close it appends
    return key_bind(n, key)[:-1]


def _bound_key(bind: Callable, bound, body: tuple) -> tuple:
    """The key of `body` with the names of `bound` bound by `bind`, in turn."""
    key = (0, body)
    for n in bound:
        key = bind(n, key)
    return key


def _encode_l(x: LWord) -> tuple:
    # the rightmost binder is bound first, so it holds the occurrences of its name
    return _bound_key(_bind_l, reversed(x.prefix), x.body)


# L's binder prefix, and the table of each bound occurrence's name, by
# binder count (`_binder_tables`)
_L_TABLES: dict[int, tuple] = {}


def _l_tables(prefix: tuple) -> tuple:
    return prefix, dict(enumerate(reversed(prefix)))


def _decode_l(key: tuple) -> LWord:
    p, body = key
    if not p:  # about two in three words of sort_enum's L slices
        return _new_word(LWord, ((), body))
    prefix, table = _binder_tables(p, body, _L_TABLES, _l_tables)
    return _new_word(LWord, (prefix, tuple(map(table.get, body, body))))


def _concat_l(x: tuple, y: tuple) -> tuple:
    # y's prefix comes between x's binders and the right end
    return (x[0] + y[0], _shift(x[1], y[0]) + y[1])


def _bind_l(n: Name, key: tuple) -> tuple:
    p, body = key
    return (p + 1, tuple([p if x is n else x for x in body]))


def _encode_s(x: SWord) -> tuple:
    # `_bind_s` numbers bound names by first occurrence, so any order binds alike
    return _bound_key(_bind_s, x.bound, x.body)


# S's set of bound names, and the table of each bound occurrence's name,
# by binder count (`_binder_tables`)
_S_TABLES: dict[int, tuple] = {}

_NO_NAMES: frozenset[Name] = frozenset()


def _s_tables(names: tuple) -> tuple:
    return frozenset(names), dict(enumerate(names))


# A decoded S word skips the check of `SWord.__new__`: a key's bound
# occurrences are the numbers of its bound names, which all occur in the
# body.  The check took a third of the decoding.
def _decode_s(key: tuple) -> SWord:
    k, body = key
    if not k:  # about three in four of sort_enum's words
        return _new_word(SWord, (_NO_NAMES, body))
    bound, table = _binder_tables(k, body, _S_TABLES, _s_tables)
    return _new_word(SWord, (bound, tuple(map(table.get, body, body))))


def _concat_s(x: tuple, y: tuple) -> tuple:
    # x's bound names occur first
    k = x[0]
    if not (k and y[0]):  # y's body has no bound occurrence to renumber, or x adds none
        return (k + y[0], x[1] + y[1])
    return (k + y[0], x[1] + _shift(y[1], k))


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
    # an outer binder of a name bound again further right binds nothing, and
    # `_bind_s` drops it
    return _decode_s(_bound_key(_bind_s, reversed(x.prefix), x.body))


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
class KeySort:
    """A sort on its nameless keys, the operations `regex` enumerates with.

    Its words are generated by `unit`, the empty key, and `atom`, which
    makes the key of the one-symbol word of a name or a letter, under
    `concat` and `bind`; every key is canonical by construction.  Token
    length (`tok_len`) adds up under `concat`.  `decode` makes the
    canonical value of the sort from a key: the decoder
    `words.key_decoder` makes for the word class, `from_key` for M and
    its `GWord` twin for G; `_decode_l` and `_decode_s` for L and S.
    `bind_tokens` is the fewest tokens `bind` adds to a key, so a
    binder's body is enumerated only to the bound less it: 2 in M, G and
    L, where a binder is an open and a close, and 0 in S, where binding a
    name that does not occur is the identity.
    """

    unit: object
    atom: Callable
    concat: Callable
    bind: Callable
    tok_len: Callable
    decode: Callable
    bind_tokens: int


@dataclass(frozen=True)
class SortOps:
    """The operations of a sort on its canonical values.

    Every sort in `SORTS` is made by `_on_keys` from `keyed`, the same
    sort on its nameless keys (`KeySort`), and `encode`, which maps a
    value to its key; so its operations return canonical values, and
    `canon` maps a value to the canonical one of its alpha-class.
    `to_mword` embeds a value in M.  `regex.enumerate_slice` runs on the
    keys and decodes each output word once; `regex.member` encodes its
    candidate and decodes nothing.
    """

    tag: str
    unit: object
    atom: Callable
    concat: Callable
    bind: Callable
    canon: Callable
    tok_len: Callable
    to_mword: Callable
    keyed: KeySort
    encode: Callable


def _identity(x):
    return x


def _on_keys(tag: str, keys: KeySort, encode: Callable, to_mword: Callable) -> SortOps:
    """The sort whose values are decoded keys: each operation encodes its
    arguments, applies the operation of `keys` and decodes the result."""
    decode = keys.decode
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
SORT_M_KEYS = KeySort(
    unit=(),
    atom=lambda s: (s,),
    concat=tuple.__add__,
    bind=key_bind,
    tok_len=len,
    decode=from_key,
    bind_tokens=2,
)

SORT_M = _on_keys("M", SORT_M_KEYS, words.alpha_key, _identity)

# A G key is an M key without closes: `alpha_key` reads a G row as it
# reads an M row, and the closes `embed_gm` would append all come last.
SORT_G = _on_keys("G", replace(
    SORT_M_KEYS, bind=_bind_g, tok_len=_tok_len_g, decode=key_decoder(GWord),
), words.alpha_key, embed_gm)

SORT_L_KEYS = KeySort(
    unit=(0, ()),
    atom=lambda s: (0, (s,)),
    concat=_concat_l,
    bind=_bind_l,
    tok_len=lambda key: 2 * key[0] + len(key[1]),  # a binder is an open and a close
    decode=_decode_l,
    bind_tokens=2,
)
SORT_L = _on_keys("L", SORT_L_KEYS, _encode_l, embed_lm)

SORT_S = _on_keys("S", replace(
    SORT_L_KEYS, concat=_concat_s, bind=_bind_s, decode=_decode_s, bind_tokens=0,
), _encode_s, embed_sm)

SORTS = {"M": SORT_M, "G": SORT_G, "L": SORT_L, "S": SORT_S}

concat_g, canon_g = SORT_G.concat, SORT_G.canon
concat_l, canon_l = SORT_L.concat, SORT_L.canon
canon_s = SORT_S.canon
