"""Bit-exact LZ78: greedy phrase parsing, pointer/bit coding, and the
repeated-block length bound.

Phrase k (phrase 0 is the empty phrase) is a node of a binary trie kept as
two flat child tables, one per bit. Token i codes its pointer in exactly
ceil(log2 i) bits (the decoder knows i, so the width is implicit; token 1
has no pointer bits) followed by one literal bit, so the coded length of t
tokens has a closed form. An input ending inside a known phrase yields a
pointer-only tail token.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import ValidationError
from .fst import check_bits, is_bits

_ROOT = 0
FEED_CHUNK = 1 << 16  # input bits LzParser.feed encodes to bytes at a time


class LzParse(NamedTuple):
    """Greedy parse: tokens are (pointer, final bit); a tail pointer marks
    an input that ended inside an already-known phrase."""

    tokens: list[tuple[int, str]]
    tail: Optional[int]
    phrases: list[str]


class LzParser:
    """A greedy parse that resumes where its last input ended: the phrase
    trie as two child tables, the node the pending phrase has reached, and
    the tokens so far as a pointer list and a literal list, which encode()
    codes directly and only result() pairs up. Every entry is a plain int,
    so a phrase costs four list slots and one new int.

    Feeding x and then y parses exactly as feeding xy.
    """

    def __init__(self) -> None:
        # c0[k] and c1[k] are node k's children on bits 0 and 1, 0 when
        # absent: the root is never a child. Node k is phrase k, the phrase
        # of token k, which extends phrase ptrs[k-1] by the byte lits[k-1].
        # The input so far ends inside a known phrase exactly when node is
        # not the root.
        self.c0: list[int] = [0]
        self.c1: list[int] = [0]
        self.ptrs: list[int] = []
        self.lits: list[int] = []
        self.node = _ROOT

    def feed(self, x: str) -> None:
        """Parse the bit string x on from where the last input ended."""
        c0, c1, ptrs, lits, node = self.c0, self.c1, self.ptrs, self.lits, self.node
        # Indexed by the input byte: b"0"[0] == 48 picks c0, 49 picks c1.
        tables = (c0, c1) * 25
        # A chunk at a time, so that a long x is never copied whole.
        for start in range(0, len(x), FEED_CHUNK):
            for b in x[start : start + FEED_CHUNK].encode():
                kids = tables[b]
                nxt = kids[node]
                if nxt:
                    node = nxt
                else:
                    kids[node] = len(c0)
                    c0.append(0)
                    c1.append(0)
                    ptrs.append(node)
                    lits.append(b)
                    node = _ROOT
        self.node = node

    def coded_bits(self) -> int:
        """len(lz_encode(everything fed so far)), tail pointer included.

        Token i costs pointer_width(i) + 1 bits, and the widths of tokens
        1..t sum to t*w - 2**w + 1 with w = pointer_width(t).
        """
        t = len(self.ptrs)
        if not t:
            return 0
        w = pointer_width(t)
        bits = t + t * w - (1 << w) + 1
        if self.node != _ROOT:
            bits += pointer_width(t + 1)
        return bits

    def encode(self, skip: int) -> str:
        """The code of the tokens after the first `skip`, numbered on from
        skip + 1, then the tail pointer if the input ends inside a phrase.

        A token's pointer in w bits followed by its literal bit is 2*ptr +
        bit in w + 1 bits, and tokens 2**(w-1) + 1 .. 2**w share w.
        """
        ptrs, lits = self.ptrs, self.lits
        t, i = len(ptrs), skip
        pieces = []
        while i < t:  # tokens i+1 .. end share pointer width w
            w = pointer_width(i + 1)
            end, fmt = min(t, 1 << w), f"0{w + 1}b"
            # A literal is the byte b"0"[0] == 48 or b"1"[0] == 49.
            pieces += [
                format(2 * p + b - 48, fmt) for p, b in zip(ptrs[i:end], lits[i:end])
            ]
            i = end
        if self.node != _ROOT:  # a phrase exists, so t >= 1 and the width >= 1
            pieces.append(format(self.node, f"0{pointer_width(t + 1)}b"))
        return "".join(pieces)

    def result(self) -> LzParse:
        tokens = list(zip(self.ptrs, map(chr, self.lits)))
        phrases = [""]  # phrase k is phrase ptr plus its final bit
        for ptr, bit in tokens:
            phrases.append(phrases[ptr] + bit)
        tail = self.node if self.node != _ROOT else None
        return LzParse(tokens, tail, phrases[1:])


def lz_parse(x: str) -> LzParse:
    check_bits(x, "LZ78 input")
    parser = LzParser()
    parser.feed(x)
    return parser.result()


def lz_lengths(bits: str, points: Sequence[int]) -> Iterator[int]:
    """len(lz_encode(bits[:n])) for each n of the ascending `points` (all
    <= len(bits)), from one parse fed segment by segment; non-bits raise."""
    if not is_bits(bits):
        raise ValidationError("LZ78 input must be a string over 0/1")
    parser, prev = LzParser(), 0
    for n in points:
        parser.feed(bits[prev:n])
        prev = n
        yield parser.coded_bits()


def pointer_width(token_index: int) -> int:
    """ceil(log2 i), the pointer width of token i: pointers range over 0..i-1."""
    return (token_index - 1).bit_length()


def lz_encode(x: str) -> str:
    check_bits(x, "LZ78 input")
    parser = LzParser()
    parser.feed(x)
    return parser.encode(0)


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
            if ptr == 0:  # the encoder never ends on the empty phrase
                raise ValueError(f"empty tail phrase at bit {pos}")
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
    check_bits(y, "LZ78 input")
    check_bits(x, "LZ78 context")
    parser = LzParser()
    parser.feed(x)
    d = len(parser.ptrs)
    parser.node = _ROOT
    parser.feed(y)
    bits = parser.encode(d)
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
