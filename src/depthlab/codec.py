"""Binary code for transducers, plus the small string codes it is built from.

A machine description is: the start-state index in binary with every bit
doubled, a "01" separator, then the transition table, two entries per
state. Each entry is an optional target code (dagger-marked binary of a
state offset; empty for a self-loop) followed by the emission in the
complemented diamond code. `_DESCRIPTION` states this grammar as one
regular expression, with `_ENTRY` for a table entry; a dagger chunk begins
10/11 and a diamond chunk 00/01, so the parse is unique.
"""
from __future__ import annotations

import re
from typing import Optional

from .errors import ValidationError
from .fst import BITS, FstSpec

# A table entry: (dagger chunk or empty for a self-loop)(diamond chunk).
_ENTRY = re.compile(r"(1(?:0(?:[01]0)*[01]1|1))?(0(?:0|1(?:[01]1)*[01]0))")
# Doubled start pointer, separator, then the entries two per state.
_DESCRIPTION = re.compile(rf"(11(?:00|11)*)01((?:(?:{_ENTRY.pattern}){{2}})+)")


def nat_bin(n: int) -> str:
    """Standard binary of n >= 1 (always starts with 1)."""
    if n < 1:
        raise ValidationError("nat_bin needs n >= 1")
    return format(n, "b")


def dagger(x: str) -> str:
    """Interleave a 0 after every bit of x except the last, which gets a 1."""
    if not x:
        raise ValidationError("dagger needs a nonempty string")
    return "".join(c + "0" for c in x[:-1]) + x[-1] + "1"


def complement(x: str) -> str:
    return "".join("1" if c == "0" else "0" for c in x)


def diamond(x: str) -> str:
    """Complemented dagger of 1x; self-delimits even for empty x."""
    return complement(dagger("1" + x))


def double_bits(x: str) -> str:
    """Duplicate every bit: 10 -> 1100."""
    return "".join(c + c for c in x)


def target_code(m: int, q: int, tgt: int) -> str:
    """Canonical target chunk of a move from q to tgt among m states.

    Empty for a self-loop; otherwise the dagger of the smallest n >= 1
    with 1 + (n mod m) = tgt.
    """
    if tgt == q:
        return ""
    return dagger(nat_bin(tgt - 1 if tgt >= 2 else m))


def encode_fst(T: FstSpec) -> str:
    """Canonical description of T: minimal offset in every dagger chunk."""
    m = T.num_states
    parts = [double_bits(nat_bin(T.start)), "01"]
    for q in range(1, m + 1):
        for b in BITS:
            tgt, e = T.moves[(q, b)]
            # The emission e is itself string(n') for n' = value of 1e.
            parts.append(target_code(m, q, tgt) + diamond(e))
    return "".join(parts)


def decode_fst(bits: str) -> Optional[FstSpec]:
    """Inverse of encode_fst on its range; None for anything malformed.

    None covers: any string outside the grammar of `_DESCRIPTION` (bad
    doubling in the start pointer, missing separator, truncated or
    misaligned table chunks, an odd entry count) and a start index beyond
    the decoded state count.
    """
    match = _DESCRIPTION.fullmatch(bits)
    if match is None:
        return None
    start = int(match[1][::2], 2)
    entries = _ENTRY.findall(match[2])
    m = len(entries) // 2
    if start > m:
        return None
    moves = {
        (idx // 2 + 1, BITS[idx % 2]): (
            1 + int(tgt_code[::2], 2) % m if tgt_code else idx // 2 + 1,
            complement(emit_code[2::2]),
        )
        for idx, (tgt_code, emit_code) in enumerate(entries)
    }
    return FstSpec(m, start, moves)
