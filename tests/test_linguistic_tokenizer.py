"""Tests for repro.linguistic.tokenizer — Section 5.1 tokenization."""

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linguistic.tokenizer import split_camel, tokenize


class TestTokenize:
    def test_paper_example_polines(self):
        """'E.g. POLines -> {PO, Lines}' (Section 5.1)."""
        assert tokenize("POLines") == ["po", "lines"]

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("Customer_Number", ["customer", "number"]),
            ("UnitOfMeasure", ["unit", "of", "measure"]),
            ("unitPrice", ["unit", "price"]),
            ("Street4", ["street", "4"]),
            ("e-mail", ["e", "mail"]),
            ("ItemNumber", ["item", "number"]),
            ("POBillTo", ["po", "bill", "to"]),
            ("stateProvince", ["state", "province"]),
            ("SSN", ["ssn"]),
            ("order.date", ["order", "date"]),
            ("XMLSchema", ["xml", "schema"]),
            ("ITEM", ["item"]),
            ("x", ["x"]),
        ],
    )
    def test_splitting_rules(self, name, expected):
        assert tokenize(name) == expected

    def test_special_symbol_kept_as_token(self):
        assert tokenize("Item#") == ["item", "#"]
        assert tokenize("#count") == ["#", "count"]

    def test_digits_split_from_letters(self):
        assert tokenize("4thStreet") == ["4", "th", "street"]

    def test_empty_name(self):
        assert tokenize("") == []

    def test_whitespace_separates(self):
        assert tokenize("Order Date") == ["order", "date"]

    def test_tokens_are_lowercase(self):
        for token in tokenize("CustomerOrderLine"):
            assert token == token.lower()


class TestSplitCamel:
    def test_acronym_then_word(self):
        assert split_camel("POLines") == ["PO", "Lines"]

    def test_plain_word(self):
        assert split_camel("street") == ["street"]

    def test_trailing_acronym(self):
        assert split_camel("customerID") == ["customer", "ID"]

    def test_digits(self):
        assert split_camel("Street42b") == ["Street", "42", "b"]


# ----------------------------------------------------------------------
# Oracle: the per-character tokenizer the one-scan regex replaced
# ----------------------------------------------------------------------

_ORACLE_SPECIALS = set("#$%&@*+!?")
_ORACLE_SEPARATOR_RE = re.compile(r"[^A-Za-z0-9#$%&@*+!?]+")


def _oracle_tokenize(name):
    """Split out special symbols character by character, then split
    each remaining piece on separators and camel-case transitions."""
    if not name:
        return []
    tokens = []
    pieces = []
    current = []
    for ch in name:
        if ch in _ORACLE_SPECIALS:
            if current:
                pieces.append("".join(current))
                current = []
            pieces.append(ch)
        else:
            current.append(ch)
    if current:
        pieces.append("".join(current))
    for piece in pieces:
        if piece in _ORACLE_SPECIALS:
            tokens.append(piece)
            continue
        for word in _ORACLE_SEPARATOR_RE.split(piece):
            if word:
                tokens.extend(part.lower() for part in split_camel(word))
    return tokens


#: Names mixing everything the grammar distinguishes: case runs,
#: digits, special symbols, separators, and non-ASCII letters and
#: digits (separators here, since the word class is ASCII).
_TRICKY = (
    string.ascii_letters + string.digits + "#$%&@*+!?" + "_-. /()\t\n"
    + "éÄßİıǅΣ٣"
)
tricky_names = st.text(alphabet=_TRICKY, max_size=32) | st.text(max_size=16)


class TestTokenizeMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(tricky_names)
    def test_equals_per_character_tokenizer(self, name):
        assert tokenize(name) == _oracle_tokenize(name)

    @pytest.mark.parametrize(
        "name",
        ["a-#b", "##", "#a#", "AB#Cd", "x__y", "POLines#2", "İstanbul",
         "Net-Amount (USD)", "eéf", "4thStreet!", "?"],
    )
    def test_boundary_cases(self, name):
        assert tokenize(name) == _oracle_tokenize(name)
