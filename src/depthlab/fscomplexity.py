"""Size-bounded machine complexity.

Enumerates every transducer with a description of at most k bits and asks,
for a target string x, for the shortest input some machine in that set
maps to x. The per-machine search is a breadth-first shortest path over
(state, matched-prefix-length) nodes, so it is exact and terminates even
when emissions are empty.
"""
from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterator, Optional, Sequence, Union

from .codec import diamond, double_bits, nat_bin, target_code
from .errors import UnreachableError, ValidationError
from .fst import BITS, FstSpec

INFINITE = math.inf
ENUM_CEILING = 14


@dataclass(frozen=True)
class FstUniverse:
    """All machines with a description of length <= k.

    Entries are (canonical description, machine), ordered by description
    length then description bits.
    """

    k: int
    entries: tuple[tuple[str, FstSpec], ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Witness:
    description: str
    input_bits: str
    machine_index: int


@dataclass(frozen=True)
class ComplexityResult:
    """Minimum input length (math.inf when no machine can emit the target)."""

    value: float
    witness: Optional[Witness]


def enum_fsts(k: int) -> FstUniverse:
    """Every machine with a canonical description of at most k bits.

    Refuses k beyond ENUM_CEILING. The universe for each k is built once
    per process and shared, so callers must not mutate its machines.
    """
    if k > ENUM_CEILING:
        raise ValidationError(
            f"enumeration bound {k} exceeds ceiling {ENUM_CEILING} "
            f"(the machine count grows exponentially in k)"
        )
    return _universe(k)


@cache
def _universe(k: int) -> FstUniverse:
    """Build canonical descriptions straight from the grammar of encode_fst.

    Each machine has exactly one canonical description, its shortest (see
    fst_size), so no two branches meet and nothing needs deduplicating.
    """
    entries: list[tuple[str, FstSpec]] = []
    # m states take >= 4 + 4m bits: a start pointer, then 2m entries.
    for m in range(1, (k - 4) // 4 + 1):
        for start in range(1, m + 1):
            _fill_tables(m, start, k, entries)
    entries.sort(key=lambda e: (len(e[0]), e[0]))
    return FstUniverse(k, tuple(entries))


def _fill_tables(
    m: int, start: int, k: int, entries: list[tuple[str, FstSpec]]
) -> None:
    """Append every m-state machine starting in `start` whose canonical
    description fits in k bits. A branch is cut once its bits plus 2 per
    unwritten table entry (the shortest chunk, an empty emission on a
    self-loop) exceed k."""
    moves: dict[tuple[int, str], tuple[int, str]] = {}

    def extend(i: int, desc: str) -> None:
        if i == 2 * m:
            entries.append((desc, FstSpec(m, start, dict(moves))))
            return
        q, b = i // 2 + 1, BITS[i % 2]
        budget = k - len(desc) - 2 * (2 * m - i - 1)
        for tgt in range(1, m + 1):
            code = target_code(m, q, tgt)
            # An emission e takes a diamond chunk of 2 |e| + 2 bits.
            for size in range((budget - len(code)) // 2):
                for e in map("".join, product(BITS, repeat=size)):
                    moves[(q, b)] = tgt, e
                    extend(i + 1, desc + code + diamond(e))

    extend(0, double_bits(nat_bin(start)) + "01")


def min_input_for_output(T: FstSpec, x: str) -> Optional[tuple[int, str]]:
    """Shortest input y with T(y) = x, together with the lex-least such y.

    Breadth-first search over (state, matched length) nodes: one
    unit-cost edge per input bit, allowed only when the step's emission
    extends x at the match point. Each queued cell (state, matched, bit,
    previous cell) links back to the start, so a step costs O(1) however
    deep the path. Returns None when no input works.
    """
    n = len(x)
    if n == 0:
        return (0, "")
    moves = T.moves
    seen = defaultdict(set)  # state -> matched lengths reached
    seen[T.start].add(0)
    queue = deque([(T.start, 0, "", None)])
    while queue:
        cell = queue.popleft()
        q, pos, _, _ = cell
        for b in BITS:  # bit order makes the first-found path lex-least
            tgt, e = moves[(q, b)]
            end = pos + len(e)
            if end > n or x[pos:end] != e or end in seen[tgt]:
                continue
            if end == n:
                bits = [b]
                while cell[3] is not None:
                    bits.append(cell[2])
                    cell = cell[3]
                return (len(bits), "".join(reversed(bits)))
            seen[tgt].add(end)
            queue.append((tgt, end, b, cell))
    return None


def kfs_over_set(
    x: str, entries: Sequence[tuple[str, FstSpec]]
) -> ComplexityResult:
    """Exact minimum input length over an explicit list of (description,
    machine) entries.

    Ties resolve to the earliest entry in the list (callers pass lists
    ordered by description), and within a machine to the lex-least input.
    """
    if not entries:
        raise ValidationError("machine list must be nonempty")
    best: Optional[tuple[int, str, int]] = None
    for idx, (_, T) in enumerate(entries):
        found = min_input_for_output(T, x)
        if found is None:
            continue
        length, y = found
        if best is None or length < best[0]:
            best = (length, y, idx)
    if best is None:
        return ComplexityResult(INFINITE, None)
    length, y, idx = best
    return ComplexityResult(length, Witness(entries[idx][0], y, idx))


def kfs_lengths(
    k: int, entries: Sequence[tuple[str, FstSpec]], bits: str, points: Sequence[int]
) -> Iterator[Union[int, UnreachableError]]:
    """kfs_over_set(bits[:n], entries) for each n of `points`, searched
    afresh per prefix; a prefix that no machine of <= k bits outputs
    yields an UnreachableError."""
    for n in points:
        value = kfs_over_set(bits[:n], entries).value
        yield UnreachableError(k, n) if math.isinf(value) else int(value)


def kfs_complexity(x: str, k: int) -> ComplexityResult:
    """Minimum input length over every machine described in <= k bits."""
    universe = enum_fsts(k)
    if not universe.entries:
        return ComplexityResult(INFINITE, None)
    return kfs_over_set(x, universe.entries)
