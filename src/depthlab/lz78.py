"""Bit-exact LZ78: greedy phrase parsing, pointer/bit coding, and the
repeated-block length bound.

Phrases live in a trie rooted at the empty phrase 0. Token i codes its
pointer in exactly ceil(log2 i) bits (the decoder knows i, so the width is
implicit; token 1 has no pointer bits) followed by one literal bit. An
input ending inside a known phrase yields a pointer-only tail token.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import ValidationError

_ROOT = 0


@dataclass
class LzParse:
    """Greedy parse: tokens are (pointer, final bit); a tail pointer marks
    an input that ended inside an already-known phrase."""

    tokens: list[tuple[int, str]] = field(default_factory=list)
    tail: Optional[int] = None
    phrases: list[str] = field(default_factory=list)


class LzParser:
    """A greedy parse that resumes where its last input ended: the phrase
    trie, the node the pending phrase has reached, and the tokens so far.

    Feeding x and then y parses exactly as feeding xy.
    """

    def __init__(self) -> None:
        # Trie node k is phrase k, node 0 the empty phrase; the input so far
        # ends inside a known phrase exactly when node is not the root.
        self.children: list[list[Optional[int]]] = [[None, None]]
        self.tokens: list[tuple[int, str]] = []
        self.node = _ROOT
        self.token_bits = 0  # coded length of the complete tokens

    def feed(self, x: str) -> None:
        children, tokens, node = self.children, self.tokens, self.node
        for b in x:
            nxt = children[node][b == "1"]
            if nxt is None:
                children[node][b == "1"] = len(children)
                children.append([None, None])
                tokens.append((node, b))
                self.token_bits += pointer_width(len(tokens)) + 1
                node = _ROOT
            else:
                node = nxt
        self.node = node

    def coded_bits(self) -> int:
        """len(lz_encode(everything fed so far)), tail pointer included."""
        if self.node != _ROOT:
            return self.token_bits + pointer_width(len(self.tokens) + 1)
        return self.token_bits

    def result(self) -> LzParse:
        phrases = [""]  # phrase k is phrase ptr plus its final bit
        for ptr, bit in self.tokens:
            phrases.append(phrases[ptr] + bit)
        tail = self.node if self.node != _ROOT else None
        return LzParse(list(self.tokens), tail, phrases[1:])


def lz_parse(x: str) -> LzParse:
    parser = LzParser()
    parser.feed(x)
    return parser.result()


def lz_lengths(bits: str, points: Sequence[int]) -> Iterator[int]:
    """len(lz_encode(bits[:n])) for each n of the ascending `points` (all
    <= len(bits)), from one parse fed segment by segment."""
    parser, prev = LzParser(), 0
    for n in points:
        parser.feed(bits[prev:n])
        prev = n
        yield parser.coded_bits()


def pointer_width(token_index: int) -> int:
    """ceil(log2 i), the pointer width of token i: pointers range over 0..i-1."""
    return (token_index - 1).bit_length()


def _encode_tokens(parse: LzParse, first_index: int) -> str:
    pieces = []
    i = first_index
    for ptr, bit in parse.tokens:
        w = pointer_width(i)
        if w:
            pieces.append(format(ptr, f"0{w}b"))
        pieces.append(bit)
        i += 1
    if parse.tail is not None:
        w = pointer_width(i)
        pieces.append(format(parse.tail, f"0{w}b") if w else "")
    return "".join(pieces)


def lz_encode(x: str) -> str:
    return _encode_tokens(lz_parse(x), 1)


def lz_decode(bits: str) -> str:
    """Exact inverse of lz_encode; raises ValueError naming the bit
    position on truncated or corrupt streams."""
    phrases = [""]
    out = []
    pos = 0
    i = 1
    while pos < len(bits):
        w = pointer_width(i)
        remaining = len(bits) - pos
        if remaining < w:
            raise ValueError(f"truncated pointer at bit {pos}")
        ptr = int(bits[pos : pos + w], 2) if w else 0
        if ptr >= len(phrases):
            raise ValueError(f"pointer out of range at bit {pos}")
        if remaining == w:  # pointer-only tail token
            out.append(phrases[ptr])
            pos += w
            break
        phrase = phrases[ptr] + bits[pos + w]
        phrases.append(phrase)
        out.append(phrase)
        pos += w + 1
        i += 1
    return "".join(out)


def lz_conditional(y: str, x: str) -> tuple[str, int]:
    """Code for y with the dictionary primed by parsing x (x's own code is
    discarded; a pending partial phrase of x is abandoned).

    Returns (bits, length). When x ends on a phrase boundary this equals
    the tail of lz_encode(xy) beyond lz_encode(x).
    """
    parser = LzParser()
    parser.feed(x)
    d = len(parser.tokens)
    parser.node = _ROOT
    parser.feed(y)
    parse = parser.result()
    parse.tokens, parse.phrases = parse.tokens[d:], parse.phrases[d:]
    bits = _encode_tokens(parse, d + 1)
    return bits, len(bits)


def repeat_bound(len_y: int, n: int, d: int) -> float:
    """Upper bound on the coded length of y^n against a d-phrase dictionary:
    sqrt(2(|y|+1)|y^n|) * log2(d + sqrt(2(|y|+1)|y^n|))."""
    if len_y < 1 or n < 1 or d < 0:
        raise ValidationError("need len_y >= 1, n >= 1, d >= 0")
    root = math.sqrt(2 * (len_y + 1) * (len_y * n))
    return root * math.log2(d + root)


def check_parse(parse: LzParse) -> None:
    """Structural sanity: phrases distinct and prefix-closed."""
    seen = set(parse.phrases)
    if len(seen) != len(parse.phrases):
        raise ValidationError("duplicate complete phrase")
    for p in parse.phrases:
        if p[:-1] and p[:-1] not in seen:
            raise ValidationError(f"phrase {p!r} lacks its prefix")
