"""Languages of words with name binders over an infinite alphabet.

The package provides four word sorts with binders and their monoid
structure, regular expressions with name binding and bounded-slice
semantics, stack automata over names and letters, a compiler from
expressions to automata, brute-force oracles, and a CLI.
"""

from .names import Letter, Name, Permutation, STAR, fresh_name
from .words import (
    EPSILON,
    MWord,
    alpha_canonical,
    alpha_equal,
    bind,
    concat,
    parse_tokens,
    support,
    token_length,
    tokenize,
)
from .syntax import ParseError, parse_nre, parse_regex, parse_word, render_regex, render_word
from .regex import Binder, Cat, LetterLit, NameLit, ONE, One, Regex, Star, Sum, ZERO, Zero, enumerate_slice, member
from .monoids import SORTS
from .hds import Hds, NameMap, Transition, Undecided, accepts, accepts_word, language_slice, run, validate
from .compiler import compile_regex
from . import hds_format, oracle

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
