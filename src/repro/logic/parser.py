"""Parser for LTL formulas written as text.

Accepts both ASCII and the Unicode notation used in the paper:

=============  =======================
ASCII          Unicode / paper
=============  =======================
``G``          ``□`` (always)
``F``          ``♢``, ``◇`` (eventually)
``X``          ``◦``, ``○`` (next)
``U``          ``U`` (until)
``R``          ``R`` (release)
``!``          ``¬``
``&``          ``∧``
``|``          ``∨``
``->``         ``→``
``<->``        ``↔``
=============  =======================

Operator precedence (loosest to tightest):
``<->``  <  ``->``  <  ``|``  <  ``&``  <  ``U``/``R``  <  unary (``!``, ``X``, ``F``, ``G``).
``->`` and ``U`` associate to the right, as is conventional.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LTLSyntaxError
from repro.logic.ast import (
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Always,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
)

_UNICODE_REPLACEMENTS = {
    "□": " G ",
    "◻": " G ",
    "[]": " G ",
    "♢": " F ",
    "◇": " F ",
    "<>": " F ",
    "◦": " X ",
    "○": " X ",
    "¬": " ! ",
    "∧": " & ",
    "∨": " | ",
    "→": " -> ",
    "↔": " <-> ",
    "−>": " -> ",
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<iff><->)|(?P<implies>->)"
    r"|(?P<and>&&?|\band\b)|(?P<or>\|\|?|\bor\b)|(?P<not>!|\bnot\b)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_\- ]*?(?=\s*(?:\)|\(|&|\||!|->|<->|$)|\s+[A-Z]\b))"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*))"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str


_KEYWORDS = {"G", "F", "X", "U", "R", "W"}


def _tokenize(text: str) -> list:
    """Tokenize an LTL formula string.

    Proposition names may contain spaces (as in the paper, e.g. ``car from
    left``); a run of lowercase words is folded into a single atom, while the
    single uppercase letters ``G F X U R`` are temporal operators.
    """
    for src, dst in _UNICODE_REPLACEMENTS.items():
        text = text.replace(src, dst)
    # Normalise punctuation spacing so simple splitting is possible.  "<->"
    # must be protected before "->" is padded, or it would be torn apart.
    for ch in "()!&|":
        text = text.replace(ch, f" {ch} ")
    text = text.replace("<->", "  ")
    text = text.replace("->", " -> ")
    text = text.replace("", "<->")
    raw = text.split()

    tokens: list[_Token] = []
    atom_buffer: list[str] = []

    def flush() -> None:
        if atom_buffer:
            tokens.append(_Token("atom", "_".join(atom_buffer)))
            atom_buffer.clear()

    for piece in raw:
        if piece in {"(", ")"}:
            flush()
            tokens.append(_Token("lparen" if piece == "(" else "rparen", piece))
        elif piece in {"&", "&&", "and", "AND"}:
            flush()
            tokens.append(_Token("and", "&"))
        elif piece in {"|", "||", "or", "OR"}:
            flush()
            tokens.append(_Token("or", "|"))
        elif piece in {"!", "not", "NOT"}:
            flush()
            tokens.append(_Token("not", "!"))
        elif piece == "->":
            flush()
            tokens.append(_Token("implies", "->"))
        elif piece == "<->":
            flush()
            tokens.append(_Token("iff", "<->"))
        elif piece in _KEYWORDS:
            flush()
            tokens.append(_Token("op", piece))
        elif piece.lower() in {"true", "false"}:
            flush()
            tokens.append(_Token("const", piece.lower()))
        else:
            atom_buffer.append(piece.lower())
    flush()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list, source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Token:
        token = self.peek()
        if token is None:
            raise LTLSyntaxError(f"unexpected end of formula: {self.source!r}")
        self.pos += 1
        return token

    # Grammar: iff -> implies -> or -> and -> until -> unary -> primary
    def parse(self) -> Formula:
        formula = self.parse_iff()
        if self.peek() is not None:
            raise LTLSyntaxError(f"trailing tokens after formula in {self.source!r}: {self.peek().text!r}")
        return formula

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        while self.peek() is not None and self.peek().kind == "iff":
            self.advance()
            right = self.parse_implies()
            left = And(Implies(left, right), Implies(right, left))
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek() is not None and self.peek().kind == "implies":
            self.advance()
            right = self.parse_implies()  # right associative
            return Implies(left, right)
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek() is not None and self.peek().kind == "or":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_until()
        while self.peek() is not None and self.peek().kind == "and":
            self.advance()
            left = And(left, self.parse_until())
        return left

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        token = self.peek()
        if token is not None and token.kind == "op" and token.text in {"U", "R", "W"}:
            self.advance()
            right = self.parse_until()  # right associative
            if token.text == "U":
                return Until(left, right)
            if token.text == "R":
                return Release(left, right)
            # Weak until: φ W ψ ≡ (φ U ψ) ∨ G φ
            return Or(Until(left, right), Always(left))
        return left

    def parse_unary(self) -> Formula:
        token = self.peek()
        if token is None:
            raise LTLSyntaxError(f"unexpected end of formula: {self.source!r}")
        if token.kind == "not":
            self.advance()
            return Not(self.parse_unary())
        if token.kind == "op" and token.text in {"G", "F", "X"}:
            self.advance()
            operand = self.parse_unary()
            return {"G": Always, "F": Eventually, "X": Next}[token.text](operand)
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        token = self.advance()
        if token.kind == "lparen":
            inner = self.parse_iff()
            closing = self.advance()
            if closing.kind != "rparen":
                raise LTLSyntaxError(f"unbalanced parentheses in {self.source!r}")
            return inner
        if token.kind == "const":
            return TrueFormula() if token.text == "true" else FalseFormula()
        if token.kind == "atom":
            return Atom(token.text)
        if token.kind == "op":
            # A bare U/R/W with no left operand, or G/F/X falling through.
            raise LTLSyntaxError(f"operator {token.text!r} is missing an operand in {self.source!r}")
        raise LTLSyntaxError(f"unexpected token {token.text!r} in {self.source!r}")


def parse_ltl(text: str) -> Formula:
    """Parse an LTL formula string into a :class:`~repro.logic.ast.Formula`."""
    if not isinstance(text, str) or not text.strip():
        raise LTLSyntaxError(f"empty LTL formula: {text!r}")
    tokens = _tokenize(text)
    if not tokens:
        raise LTLSyntaxError(f"empty LTL formula after tokenization: {text!r}")
    return _Parser(tokens, text).parse()
