"""Depth profiles: run a weak and a strong compressor over a prefix grid
and tabulate the per-prefix output-length gap.

Output lengths are counted in emitted bits for machines and in coded bits
for LZ78. Each compressor walks the stream once, in grid order, resuming
from its own checkpoint at every grid point, so a profile costs one pass
per compressor whatever the grid (kfs(k) still searches every prefix
afresh). Rows always come out sorted by n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .errors import StuckError, UnreachableError, ValidationError
from .fst import FstSpec, fst_run, identity_fst, parse_fst, repeater_fst
from .fscomplexity import enum_fsts, kfs_over_set
from .lz78 import LzParser
from .pushdown import (
    PdcSpec,
    build_half_compressor,
    identity_pdc,
    parse_pdc,
    pdc_run,
)

# The output bit count of one prefix, or why it has none.
Measure = Union[int, StuckError]


class Compressor:
    """A named map from bit strings to an output bit count."""

    def __init__(self, label: str):
        self.label = label

    def lengths(self, bits: str, points: Sequence[int]) -> Iterator[Measure]:
        """The output bit count of bits[:n] for each n of the ascending
        `points` (all <= len(bits)), or the StuckError that stops it."""
        raise NotImplementedError

    def output_bits(self, x: str) -> int:
        """Output bit count of x; raises the StuckError that stops it."""
        (value,) = self.lengths(x, [len(x)])
        if isinstance(value, StuckError):
            raise value
        return value


class FstCompressor(Compressor):
    def __init__(self, spec: FstSpec, label: str):
        super().__init__(label)
        self.spec = spec

    def lengths(self, bits: str, points: Sequence[int]) -> Iterator[Measure]:
        q, total, prev = self.spec.start, 0, 0
        for n in points:
            run = fst_run(self.spec, bits[prev:n], start=q)
            q, total, prev = run.final_state, total + len(run.output), n
            yield total


class PdcCompressor(Compressor):
    def __init__(self, spec: PdcSpec, label: str):
        super().__init__(label)
        self.spec = spec

    def lengths(self, bits: str, points: Sequence[int]) -> Iterator[Measure]:
        # pdc_run closes over input-free moves on entry and after every bit,
        # and a closed configuration closes to itself, so resuming from the
        # last final (state, stack) runs exactly as a fresh run would.
        q, st, total, prev = None, None, 0, 0
        for i, n in enumerate(points):
            try:
                run = pdc_run(self.spec, bits[prev:n], state=q, stack=st)
            except StuckError as exc:
                # Every longer prefix sticks at the same bit.
                pos = prev + exc.position
                head = pdc_run(self.spec, bits[:pos]).output
                stuck = StuckError(pos, exc.state, exc.top, head)
                yield from [stuck] * (len(points) - i)
                return
            q, st = run.final_state, run.final_stack
            total, prev = total + len(run.output), n
            yield total


class LzCompressor(Compressor):
    def __init__(self):
        super().__init__("lz78")

    def lengths(self, bits: str, points: Sequence[int]) -> Iterator[Measure]:
        parser, prev = LzParser(), 0
        for n in points:
            parser.feed(bits[prev:n])
            prev = n
            yield parser.coded_bits()


class KfsCompressor(Compressor):
    """Minimum input length over every machine describable in k bits.

    Only sensible for small k, and every prefix is searched afresh. A
    prefix no machine outputs reports as unreachable, so profile rows get
    flagged rather than faked.
    """

    def __init__(self, k: int):
        super().__init__(f"kfs({k})")
        universe = enum_fsts(k)
        if not universe.entries:
            raise ValidationError(f"no machines with descriptions <= {k} bits")
        self.k = k
        self.machines = universe.machines
        self.descriptions = [d for d, _ in universe.entries]

    def lengths(self, bits: str, points: Sequence[int]) -> Iterator[Measure]:
        for n in points:
            value = kfs_over_set(bits[:n], self.machines, self.descriptions).value
            yield UnreachableError(self.k, n) if math.isinf(value) else int(value)


def _int_arg(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(f"{name}: argument {text!r} is not an integer") from exc


def make_compressor(name: str) -> Compressor:
    """Resolve a builtin name or a machine file path.

    Builtins: identity-fst, identity-pdc, lz78, half-compressor(k,v,m),
    repeater(bits), kfs(k).
    """
    name = name.strip()
    if name == "identity-fst":
        return FstCompressor(identity_fst(), name)
    if name == "identity-pdc":
        return PdcCompressor(identity_pdc(), name)
    if name == "lz78":
        return LzCompressor()
    if name.startswith("half-compressor(") and name.endswith(")"):
        args = name[len("half-compressor(") : -1].split(",")
        if len(args) != 3:
            raise ValidationError("half-compressor takes (k, v, m)")
        k, v, m = (_int_arg(a, name) for a in args)
        return PdcCompressor(build_half_compressor(k, v, m), name)
    if name.startswith("repeater(") and name.endswith(")"):
        return FstCompressor(repeater_fst(name[len("repeater(") : -1]), name)
    if name.startswith("kfs(") and name.endswith(")"):
        return KfsCompressor(_int_arg(name[len("kfs(") : -1], name))
    path = Path(name)
    if not path.exists():
        raise ValidationError(f"no builtin or machine file named {name!r}")
    machine = load_machine(name)
    if isinstance(machine, FstSpec):
        return FstCompressor(machine, path.name)
    return PdcCompressor(machine, path.name)


def read_text(path: str) -> str:
    """The text of a file; a file that is not UTF-8 is a ValidationError
    naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text") from exc


def load_machine(path: str) -> Union[FstSpec, PdcSpec]:
    """The machine in a file, parsed by its first word: fst or pdc."""
    text = read_text(path)
    head = text.split(None, 1)[0] if text.split() else ""
    if head == "fst":
        return parse_fst(text)
    if head == "pdc":
        return parse_pdc(text)
    raise ValidationError(f"{path}: not a recognized machine format")


def parse_grid(text: str) -> list[int]:
    """Grid syntax a:b:step (linear) or a:b:xF (geometric by factor F)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be a:b:step or a:b:xF, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
        factor = float(parts[2][1:]) if parts[2].startswith("x") else None
        step = None if parts[2].startswith("x") else int(parts[2])
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
        x = float(a)
        while math.isfinite(x) and round(x) <= b:  # a huge factor overflows x
            if not points or round(x) > points[-1]:
                points.append(round(x))
            x *= factor
    else:
        if step < 1:
            raise ValidationError("step must be >= 1")
        points = list(range(a, b + 1, step))
    if not points:
        raise ValidationError(f"empty grid {text!r}")
    return points


def _tail_bracket(
    pairs: list[tuple[int, int]], tail_fraction: float
) -> tuple[float, float]:
    """(min, max) of value/n over the last `tail_fraction` of (n, value) pairs."""
    if not pairs:
        raise ValidationError("no usable rows")
    start = math.floor(len(pairs) * (1 - tail_fraction))
    ratios = [v / n for n, v in pairs[start:] or pairs[-1:]]
    return min(ratios), max(ratios)


@dataclass(frozen=True)
class ProfileRow:
    n: int
    weak_bits: Optional[int]
    strong_bits: Optional[int]
    note: str = ""  # why a count is missing, when one is

    @property
    def ok(self) -> bool:
        return self.weak_bits is not None and self.strong_bits is not None

    @property
    def gap(self) -> int:
        assert self.weak_bits is not None and self.strong_bits is not None
        return self.weak_bits - self.strong_bits


@dataclass(frozen=True)
class DepthProfile:
    weak_label: str
    strong_label: str
    rows: tuple[ProfileRow, ...]

    def tail_bracket(self, tail_fraction: float = 0.5) -> tuple[float, float]:
        """(min, max) of gap/n over the last `tail_fraction` of the grid."""
        return _tail_bracket([(r.n, r.gap) for r in self.rows if r.ok], tail_fraction)

    def to_csv(self) -> str:
        lines = ["n,weak_bits,strong_bits,gap,gap_over_n"]
        for r in self.rows:
            if r.ok:
                lines.append(
                    f"{r.n},{r.weak_bits},{r.strong_bits},{r.gap},"
                    f"{r.gap / r.n:.6f}"
                )
            else:
                lines.append(f"# n={r.n} flagged: {r.note}")
        return "\n".join(lines) + "\n"


def _walk(
    bits: str, grid: list[int], comps: Sequence[Compressor]
) -> Iterator[tuple[int, list[Optional[int]], str]]:
    """(n, output bit count per compressor, note) for every distinct grid
    point in ascending order; a count is None where the note says why."""
    points = sorted(set(grid))
    inside = [n for n in points if n <= len(bits)]
    streams = [c.lengths(bits, inside) for c in comps]
    for n, *values in zip(inside, *streams):
        note = "; ".join(
            f"{c.label} {v}" for c, v in zip(comps, values) if isinstance(v, StuckError)
        )
        yield n, [None if isinstance(v, StuckError) else v for v in values], note
    for n in points[len(inside):]:
        yield n, [None] * len(comps), "prefix beyond sequence end"


def compute_profile(
    bits: str, weak: Compressor, strong: Compressor, grid: list[int]
) -> DepthProfile:
    walk = _walk(bits, grid, (weak, strong))
    rows = tuple(ProfileRow(n, w, s, note) for n, (w, s), note in walk)
    return DepthProfile(weak.label, strong.label, rows)


@dataclass(frozen=True)
class RatioTable:
    label: str
    rows: tuple[tuple[int, Optional[int], str], ...]  # (n, bits, note)

    def tail_bracket(self, tail_fraction: float = 0.5) -> tuple[float, float]:
        return _tail_bracket(
            [(n, b) for n, b, _ in self.rows if b is not None], tail_fraction
        )

    def to_csv(self) -> str:
        lines = ["n,bits,ratio"]
        for n, b, note in self.rows:
            if b is None:
                lines.append(f"# n={n} flagged: {note}")
            else:
                lines.append(f"{n},{b},{b / n:.6f}")
        return "\n".join(lines) + "\n"


def compute_ratio(bits: str, comp: Compressor, grid: list[int]) -> RatioTable:
    rows = tuple((n, b, note) for n, (b,), note in _walk(bits, grid, (comp,)))
    return RatioTable(comp.label, rows)


def load_profile_csv(text: str) -> list[tuple[int, int, int]]:
    """Re-read profile rows, re-checking the gap arithmetic."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "n,weak_bits,strong_bits,gap,gap_over_n":
        raise ValidationError("not a profile CSV")
    for ln in lines[1:]:
        n_s, w_s, s_s, gap_s, over_s = ln.split(",")
        n, w, s, gap = int(n_s), int(w_s), int(s_s), int(gap_s)
        if gap != w - s:
            raise ValidationError(f"gap mismatch in row n={n}")
        if f"{gap / n:.6f}" != over_s:
            raise ValidationError(f"gap_over_n mismatch in row n={n}")
        rows.append((n, w, s))
    return rows
