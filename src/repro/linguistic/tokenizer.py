"""Name tokenization (Section 5.1, "Tokenization").

"The names are parsed into tokens by a customizable tokenizer using
punctuation, upper case, special symbols, digits, etc.
E.g. POLines -> {PO, Lines}."

The tokenizer handles the naming conventions that occur in the paper's
schemas: CamelCase (``UnitOfMeasure``), embedded acronyms (``POLines``
→ ``PO`` + ``Lines``), digits (``Street4`` → ``Street`` + ``4``),
punctuation/underscores (``Customer_Number``, ``e-mail``), and special
symbols (``#``).
"""

from __future__ import annotations

import re
from typing import List

#: Characters treated as special-symbol tokens in their own right.
_SPECIAL_CHARS = "#$%&@*+!?"

#: Case/digit transitions inside an alphanumeric word:
#:   lower→Upper    (poLines   → po | Lines)
#:   ACRONYMWord    (POLines   → PO | Lines)
#:   letter→digit   (Street4   → Street | 4)
#:   digit→letter   (4thStreet → 4 | thStreet)
_CAMEL_PATTERN = r"""
    [A-Z]+(?=[A-Z][a-z])   # acronym followed by a capitalized word
    | [A-Z]?[a-z]+          # capitalized or lowercase word
    | [A-Z]+                # trailing acronym
    | [0-9]+                # digit run
"""
_CAMEL_RE = re.compile(_CAMEL_PATTERN, re.VERBOSE)

#: Every token of a raw name in one scan: the camel pieces of each
#: ASCII alphanumeric run, and each special symbol on its own. Any
#: other character is a separator: no alternative matches it, and no
#: alternative (lookahead included) reads across it, so a run's pieces
#: are exactly what splitting on separators first would give.
_TOKEN_RE = re.compile(
    _CAMEL_PATTERN + "| [" + re.escape(_SPECIAL_CHARS) + "]", re.VERBOSE
)


def split_camel(word: str) -> List[str]:
    """Split one alphanumeric word on case and digit transitions."""
    return _CAMEL_RE.findall(word)


def tokenize(name: str) -> List[str]:
    """Split a raw element name into lower-cased token strings.

    >>> tokenize("POLines")
    ['po', 'lines']
    >>> tokenize("Customer_Number")
    ['customer', 'number']
    >>> tokenize("Street4")
    ['street', '4']
    >>> tokenize("Item#")
    ['item', '#']
    """
    return [piece.lower() for piece in _TOKEN_RE.findall(name)]
