"""Size-bounded machine complexity.

Enumerates every transducer with a description of at most k bits and asks,
for a target string x, for the shortest input some machine in that set
maps to x. The per-machine search is a breadth-first shortest path over
(state, matched-prefix-length) nodes, so it is exact and terminates even
when emissions are empty.

Machines whose outputs agree on every input form a behaviour class, and
only the first machine of each class is searched. A `kfs(k)` profile makes
one pass per class over the stream, settling nodes in order of matched
length, so it costs one pass whatever the grid.
"""
from __future__ import annotations

import math
from functools import cache, cached_property
from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .codec import diamond, double_bits, nat_bin, target_code
from .errors import UnreachableError, ValidationError
from .fst import BITS, FrozenRecord, FstSpec

INFINITE = math.inf
ENUM_CEILING = 14


class FstUniverse(FrozenRecord):
    """All machines with a description of length <= k.

    Entries are (canonical description, machine), ordered by description
    length then description bits.
    """

    _fields = ("k", "entries")

    def __init__(self, k: int, entries: tuple[tuple[str, FstSpec], ...]) -> None:
        vars(self).update(k=k, entries=entries)

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """The index of the first entry of each behaviour class, ascending.
        A move's emission is what T(y b) adds to T(y), so machines whose
        outputs agree on every input agree move by move, and their minimal
        machines, numbered breadth-first, are equal: that table keys the
        class."""
        firsts: dict[tuple, int] = {}
        for i, (_, T) in enumerate(self.entries):
            firsts.setdefault(_minimal(T), i)
        return tuple(firsts.values())

    @cached_property
    def representatives(self) -> tuple[tuple[str, FstSpec], ...]:
        """The entries that `classes` indexes, in the same order."""
        return tuple(self.entries[i] for i in self.classes)


def _minimal(T: FstSpec) -> tuple:
    """The moves of T's minimal machine, (target, emission) per state and
    bit, its states numbered from 1 breadth-first from the start: Mealy
    partition refinement on (per-bit emission, target block) over the
    reachable states."""
    rows = T._rows
    if T.num_states == 1:
        return rows[1]
    reach = [T.start]
    for q in reach:
        for t, _ in rows[q]:
            if t not in reach:
                reach.append(t)
    block, size = dict.fromkeys(reach, 0), 0
    while True:
        ids: dict[tuple, int] = {}  # reach is breadth-first, so blocks are too
        block = {q: ids.setdefault(tuple((block[t], e) for t, e in rows[q]), len(ids))
                 for q in reach}
        if len(ids) == size:
            break
        size = len(ids)
    first = {block[q]: q for q in reversed(reach)}  # each block's first state
    return tuple((block[t] + 1, e) for b in range(size) for t, e in rows[first[b]])


class Witness(NamedTuple):
    description: str
    input_bits: str
    machine_index: int


class ComplexityResult(NamedTuple):
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
    rows = T._rows
    seen = {(T.start, 0)}
    queue = [(T.start, 0, "", None)]
    for cell in queue:  # the list grows behind the cursor: a FIFO queue
        q, pos, _, _ = cell
        for b, (tgt, e) in zip(BITS, rows[q]):  # bit order: lex-least first
            end = pos + len(e)
            if not x.startswith(e, pos) or (tgt, end) in seen:  # past n: no match
                continue
            if end == n:
                bits = [b]
                while cell[3] is not None:
                    bits.append(cell[2])
                    cell = cell[3]
                return (len(bits), "".join(reversed(bits)))
            seen.add((tgt, end))
            queue.append((tgt, end, b, cell))
    return None


def kfs_over_set(
    x: str, entries: Sequence[tuple[str, FstSpec]]
) -> ComplexityResult:
    """Exact minimum input length over an explicit list of (description,
    machine) entries.

    Ties resolve to the earliest entry in the list (callers pass lists
    ordered by description), and within a machine to the lex-least input.
    Once a best length is found, a machine whose longest emission c gives
    ceil(|x| / c) >= it is skipped, as is a silent one (c = 0, which
    outputs only ""): only a strictly shorter input replaces the best.
    """
    if not entries:
        raise ValidationError("machine list must be nonempty")
    n = len(x)
    best: Optional[tuple[int, str, int]] = None
    for idx, (_, T) in enumerate(entries):
        c = T._longest
        if best is not None and (c == 0 or -(-n // c) >= best[0]):
            continue
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
    """kfs_over_set(bits[:n], entries).value for each n of the ascending
    `points` (all <= len(bits)), in one pass per machine over the stream.

    Nodes are (state, matched length) and settle in order of matched
    length; moves with empty emissions relax within a length, and every
    move costs one input bit. A prefix that no machine of <= k bits
    outputs yields an UnreachableError.
    """
    best: dict[int, float] = dict.fromkeys(points, INFINITE)
    for _, T in entries:
        rows = T._rows
        levels = {0: {T.start: 0}}  # matched length -> {state: shortest input}
        for j in range(max(points, default=0) + 1):
            nodes = levels.pop(j, None)
            if nodes is None:
                if not levels:
                    break
                continue
            stack = list(nodes)
            while stack:
                q = stack.pop()
                for t, e in rows[q]:
                    if not e and nodes[q] + 1 < nodes.get(t, INFINITE):
                        nodes[t] = nodes[q] + 1
                        stack.append(t)
            if j in best:
                best[j] = min(best[j], *nodes.values())
            for q, d in nodes.items():
                for t, e in rows[q]:
                    if e and bits.startswith(e, j):
                        level = levels.setdefault(j + len(e), {})
                        if d + 1 < level.get(t, INFINITE):
                            level[t] = d + 1
    for n in points:
        yield UnreachableError(k, n) if math.isinf(best[n]) else int(best[n])


def kfs_complexity(x: str, k: int) -> ComplexityResult:
    """Minimum input length over every machine described in <= k bits,
    searched on the first machine of each behaviour class; the witness
    indexes enum_fsts(k).entries."""
    universe = enum_fsts(k)
    if not universe.entries:
        return ComplexityResult(INFINITE, None)
    result = kfs_over_set(x, universe.representatives)
    if result.witness is None:
        return result
    w = result.witness
    index = universe.classes[w.machine_index]
    return result._replace(witness=w._replace(machine_index=index))
