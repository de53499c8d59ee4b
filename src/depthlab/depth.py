"""Depth profiles: run one compressor, or a weak and a strong one, over a
prefix grid and tabulate the output lengths with their ratio or gap.

A compressor is a label and a stream of output lengths at the grid
points, in emitted bits for machines and in coded bits for LZ78. Each
engine module owns its stream (`fst.fst_lengths`, `pushdown.pdc_lengths`,
`lz78.lz_lengths`, `fscomplexity.kfs_lengths`), which walks the stream
once, resuming from its own checkpoint at every grid point, so a profile
costs one pass per compressor whatever the grid (for kfs(k), one pass per
behaviour class of its universe). This module keeps the names, the grids
and the table. Rows always come out sorted by n.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import StuckError, ValidationError
from .fst import FstSpec, ascii_number, fst_lengths, identity_fst, repeater_fst
from .fscomplexity import enum_fsts, kfs_lengths
from .lz78 import lz_lengths
from .pushdown import (
    PdcSpec,
    build_half_compressor,
    check_half_compressor,
    identity_pdc,
    load_machine,
    pdc_lengths,
)

# Most points of a linear grid, and most multiplications parse_grid spends
# walking a geometric grid.
MAX_GRID_STEPS = 10**6
# Builtin machines a process keeps for later requests, dropping the least
# recently used: one profile's weak and strong side. A kept machine keeps
# the blocks its runs memoized.
BUILTIN_CACHE_SIZE = 2


class Compressor(NamedTuple):
    """A label and its stream of output lengths: `lengths(bits, points)`
    yields the output bit count of bits[:n] for each n of the ascending
    `points` (all <= len(bits)), or the StuckError that stops it."""

    label: str
    lengths: Callable[[str, Sequence[int]], Iterator[Union[int, StuckError]]]


def _int_arg(text: str, name: str) -> int:
    try:
        return ascii_number(text)
    except ValueError as exc:
        raise ValidationError(f"{name}: argument {text!r} is not an integer") from exc


@lru_cache(maxsize=BUILTIN_CACHE_SIZE)
def _builtin(build: Callable, *args) -> Union[FstSpec, PdcSpec]:
    """build(*args), kept for reuse; a build that raises is not kept."""
    return build(*args)


def make_compressor(name: str) -> Compressor:
    """Resolve a builtin name or a machine file path.

    Builtins: identity-fst, identity-pdc, lz78, half-compressor(k,v,m),
    repeater(bits), kfs(k). The identity, half-compressor and repeater
    machines are kept for later calls (see BUILTIN_CACHE_SIZE); every limit
    is still checked on every call, and a machine file is read on every
    call.
    """
    name = name.strip()
    if name == "identity-fst":
        return Compressor(name, partial(fst_lengths, _builtin(identity_fst)))
    if name == "identity-pdc":
        return Compressor(name, partial(pdc_lengths, _builtin(identity_pdc)))
    if name == "lz78":
        return Compressor(name, lz_lengths)
    if name.startswith("half-compressor(") and name.endswith(")"):
        args = name[len("half-compressor(") : -1].split(",")
        if len(args) != 3:
            raise ValidationError("half-compressor takes (k, v, m)")
        k, v, m = (_int_arg(a, name) for a in args)
        check_half_compressor(k, v, m)  # a kept machine skips the build's checks
        C = _builtin(build_half_compressor, k, v, m)
        return Compressor(name, partial(pdc_lengths, C))
    if name.startswith("repeater(") and name.endswith(")"):
        T = _builtin(repeater_fst, name[len("repeater(") : -1])
        return Compressor(name, partial(fst_lengths, T))
    if name.startswith("kfs(") and name.endswith(")"):
        k = _int_arg(name[len("kfs(") : -1], name)
        universe = enum_fsts(k)
        if not universe.entries:
            raise ValidationError(f"no machines with descriptions <= {k} bits")
        return Compressor(f"kfs({k})", partial(kfs_lengths, k, universe.representatives))
    path = Path(name)
    if not path.exists():
        raise ValidationError(f"no builtin or machine file named {name!r}")
    machine = load_machine(name)
    run = fst_lengths if isinstance(machine, FstSpec) else pdc_lengths
    return Compressor(path.name, partial(run, machine))


def parse_grid(text: str) -> list[int]:
    """Grid syntax a:b:step (linear) or a:b:xF (geometric by factor F)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be a:b:step or a:b:xF, got {text!r}")
    try:
        a, b = ascii_number(parts[0]), ascii_number(parts[1])
        geometric = parts[2].startswith("x")
        factor = ascii_number(parts[2][1:], float) if geometric else None
        step = None if geometric else ascii_number(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}") from exc
    if a < 1 or b < a:
        raise ValidationError(f"bad grid range {a}:{b}")
    points: list[int] = []
    if factor is not None:
        if not math.isfinite(factor):
            raise ValidationError(f"geometric factor must be finite, got {text!r}")
        if factor <= 1:
            raise ValidationError("geometric factor must be > 1")
        # The loop below multiplies a float once per step until round(x) > b.
        try:
            steps = math.log((b + 0.5) / a) / math.log(factor)
        except OverflowError as exc:
            raise ValidationError("geometric grid end is beyond float range") from exc
        if steps > MAX_GRID_STEPS:
            raise ValidationError(
                f"geometric factor {parts[2][1:]} needs over "
                f"{MAX_GRID_STEPS} steps from {a} to {b}"
            )
        x = float(a)
        while math.isfinite(x) and round(x) <= b:  # a huge factor overflows x
            if not points or round(x) > points[-1]:
                points.append(round(x))
            x *= factor
    else:
        if step < 1:
            raise ValidationError("step must be >= 1")
        if (b - a) // step >= MAX_GRID_STEPS:
            raise ValidationError(
                f"linear grid {text!r} has over {MAX_GRID_STEPS} points"
            )
        points = list(range(a, b + 1, step))
    if not points:
        raise ValidationError(f"empty grid {text!r}")
    return points


class DepthProfile(NamedTuple):
    """Output bit counts over a prefix grid, one column per compressor.

    Each row is (n, counts, note): the output bit count of bits[:n] per
    compressor in `labels` order, None where the note says why. A row's
    value is the count of a lone compressor (a ratio table), or weak minus
    strong for two (a depth profile).
    """

    labels: tuple[str, ...]
    rows: tuple[tuple[int, tuple[Optional[int], ...], str], ...]

    @staticmethod
    def _value(counts: tuple[Optional[int], ...]) -> Optional[int]:
        if None in counts:
            return None
        return counts[0] if len(counts) == 1 else counts[0] - counts[1]

    def tail_bracket(self, tail_fraction: float = 0.5) -> tuple[float, float]:
        """(min, max) of value/n over the last `tail_fraction` of the usable
        rows (at least the last one)."""
        pairs = [(n, self._value(c)) for n, c, _ in self.rows if None not in c]
        if not pairs:
            raise ValidationError("no usable rows")
        start = math.floor(len(pairs) * (1 - tail_fraction))
        ratios = [v / n for n, v in pairs[start:] or pairs[-1:]]
        return min(ratios), max(ratios)

    def to_csv(self) -> str:
        pair = len(self.labels) == 2
        lines = ["n,weak_bits,strong_bits,gap,gap_over_n" if pair else "n,bits,ratio"]
        for n, counts, note in self.rows:
            v = self._value(counts)
            if v is None:
                lines.append(f"# n={n} flagged: {note}")
            else:
                cells = (n, *counts, v) if pair else (n, v)
                lines.append(",".join(map(str, cells)) + f",{v / n:.6f}")
        return "\n".join(lines) + "\n"


def compute_profile(
    bits: str, comps: Sequence[Compressor], grid: list[int]
) -> DepthProfile:
    """Run one compressor (a ratio table) or a weak and a strong one (a
    depth profile) over every distinct grid point, in ascending order."""
    if len(comps) not in (1, 2):
        raise ValidationError(f"need one or two compressors, got {len(comps)}")
    points = sorted(set(grid))
    inside = [n for n in points if n <= len(bits)]
    streams = [c.lengths(bits, inside) for c in comps]
    rows = []
    for n, *values in zip(inside, *streams):
        note = "; ".join(
            f"{c.label} {v}" for c, v in zip(comps, values) if isinstance(v, StuckError)
        )
        counts = tuple(None if isinstance(v, StuckError) else v for v in values)
        rows.append((n, counts, note))
    for n in points[len(inside):]:
        rows.append((n, (None,) * len(comps), "prefix beyond sequence end"))
    return DepthProfile(tuple(c.label for c in comps), tuple(rows))


def load_profile_csv(text: str) -> list[tuple[int, int, int]]:
    """Re-read profile rows, re-checking the gap arithmetic; a malformed
    row raises ValidationError naming it."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "n,weak_bits,strong_bits,gap,gap_over_n":
        raise ValidationError("not a profile CSV")
    for ln in lines[1:]:
        *ints, over_s = ln.split(",")
        try:
            n, w, s, gap = map(ascii_number, ints)
        except ValueError:  # not five fields, or not ASCII integers
            raise ValidationError(f"bad profile row {ln!r}") from None
        if n < 1:
            raise ValidationError(f"n must be >= 1 in row n={n}")
        if gap != w - s:
            raise ValidationError(f"gap mismatch in row n={n}")
        if f"{gap / n:.6f}" != over_s:
            raise ValidationError(f"gap_over_n mismatch in row n={n}")
        rows.append((n, w, s))
    return rows
