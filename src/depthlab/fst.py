"""Finite-state transducers over the binary alphabet.

A transducer has states 1..m, a start state, and a total move map on
(state, bit): each move names a target state and the bits it emits.
Running one on an input concatenates the per-step emissions.

`fst_run` reads its input in blocks of FST_BLOCK bits and looks each up
in a memo the spec owns, keyed by (state, block), so a run costs one
lookup per block rather than per bit. A miss runs the block one bit at
a time and memoizes it until the memo holds BLOCK_MEMO_CAP entries; past
that, blocks it lacks keep running one bit at a time. Everything else
here is a pure function over immutable specs, and a memo entry is the
same whichever run writes it, so concurrent use needs no coordination.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from .errors import ValidationError

BITS = ("0", "1")

FST_BLOCK = 8  # input bits per memoized block
BLOCK_MEMO_CAP = 1 << 16  # most memoized blocks per spec, FST or PDC


def check_bits(s: str, what: str) -> None:
    if s.strip("01") != "":
        raise ValidationError(f"{what} must be a string over 0/1, got {s!r}")


@dataclass(frozen=True)
class FstSpec:
    """A finite-state transducer: states 1..num_states, total on (state, bit).

    `moves` maps (state, bit) -> (target state, emitted bits, possibly
    empty). Runs memoize blocks in `_blocks`, so the map must not change
    after the first run.
    """

    num_states: int
    start: int
    moves: Mapping[tuple[int, str], tuple[int, str]]

    def __post_init__(self) -> None:
        m = self.num_states
        if m < 1:
            raise ValidationError("num_states must be >= 1")
        if not 1 <= self.start <= m:
            raise ValidationError(f"start state {self.start} not in 1..{m}")
        # Count first: a huge header with a short table fails at once.
        if len(self.moves) != 2 * m or any(
            (q, b) not in self.moves for q in range(1, m + 1) for b in BITS
        ):
            raise ValidationError("moves must be total on states x bits")
        for key, (t, _) in self.moves.items():
            if not 1 <= t <= m:
                raise ValidationError(f"target state {t} out of range 1..{m} in {key}")
        for key, (_, e) in self.moves.items():
            check_bits(e, f"emission {key}")

    def max_emission(self) -> int:
        return max(len(e) for _, e in self.moves.values())

    @cached_property
    def _blocks(self) -> dict[tuple[int, str], tuple[int, str]]:
        """The block memo, filled as runs go: (state, block) -> (state,
        emission)."""
        return {}


@dataclass(frozen=True)
class RunResult:
    output: str
    final_state: int


def fst_run(T: FstSpec, x: str, start: Optional[int] = None) -> RunResult:
    """Run T on x: output is the concatenation of per-step emissions."""
    q = T.start if start is None else start
    if not 1 <= q <= T.num_states:
        raise ValidationError(f"state {q} out of range 1..{T.num_states}")
    moves, blocks = T.moves, T._blocks
    pieces = []
    i, n = 0, len(x)
    while i < n:
        block = x[i : i + FST_BLOCK]
        move = blocks.get((q, block))
        if move is None:
            q0, emitted = q, []
            for b in block:
                q, e = moves[(q, b)]
                emitted.append(e)
            move = q, "".join(emitted)
            if len(blocks) < BLOCK_MEMO_CAP:
                blocks[(q0, block)] = move
        q, e = move
        pieces.append(e)
        i += FST_BLOCK
    return RunResult("".join(pieces), q)


def fst_lengths(T: FstSpec, bits: str, points: Sequence[int]) -> Iterator[int]:
    """The output bit count of T on bits[:n] for each n of the ascending
    `points` (all <= len(bits)), resuming from the last point's state."""
    q, total, prev = T.start, 0, 0
    for n in points:
        run = fst_run(T, bits[prev:n], start=q)
        q, total, prev = run.final_state, total + len(run.output), n
        yield total


# Common machines, also exposed as CLI builtins.

def identity_fst() -> FstSpec:
    return FstSpec(1, 1, {(1, b): (1, b) for b in BITS})


def repeater_fst(r: str) -> FstSpec:
    """Single state, emits r on every input bit: T(x) = r^|x|."""
    check_bits(r, "repeater emission")
    return FstSpec(1, 1, {(1, b): (1, r) for b in BITS})


# Textual machine format: header "fst m start", then one line per entry
# "q b -> q' emission" with "-" standing for the empty emission.

def format_fst(T: FstSpec) -> str:
    lines = [f"fst {T.num_states} {T.start}"]
    for q in range(1, T.num_states + 1):
        for b in BITS:
            tgt, e = T.moves[(q, b)]
            lines.append(f"{q} {b} -> {tgt} {e or '-'}")
    return "\n".join(lines) + "\n"


def parse_fst(text: str) -> FstSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty transducer description")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "fst":
        raise ValidationError(f"bad fst header: {lines[0]!r}")
    try:
        m, start = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ValidationError(f"bad fst header: {lines[0]!r}") from exc
    moves: dict[tuple[int, str], tuple[int, str]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 5 or parts[2] != "->":
            raise ValidationError(f"bad fst line: {ln!r}")
        try:
            q, b, tgt, e = int(parts[0]), parts[1], int(parts[3]), parts[4]
        except ValueError as exc:
            raise ValidationError(f"bad fst line: {ln!r}") from exc
        if b not in BITS:
            raise ValidationError(f"bad input bit in line: {ln!r}")
        if (q, b) in moves:
            raise ValidationError(f"duplicate entry for ({q}, {b})")
        moves[(q, b)] = (tgt, "" if e == "-" else e)
    return FstSpec(m, start, moves)
