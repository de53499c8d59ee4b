"""Depth profiles: run a weak and a strong compressor over a prefix grid
and tabulate the per-prefix output-length gap.

Output lengths are counted in emitted bits for machines and in coded bits
for LZ78. Grid points are independent; rows always come out sorted by n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import StuckError, ValidationError
from .fst import FstSpec, fst_run, identity_fst, parse_fst, repeater_fst
from .fscomplexity import enum_fsts, kfs_over_set
from .lz78 import lz_encode
from .pushdown import (
    PdcSpec,
    build_half_compressor,
    identity_pdc,
    parse_pdc,
    pdc_run,
)


class Compressor:
    """A named map from bit strings to an output bit count."""

    def __init__(self, label: str):
        self.label = label

    def output_bits(self, x: str) -> int:
        raise NotImplementedError


class FstCompressor(Compressor):
    def __init__(self, spec: FstSpec, label: str):
        super().__init__(label)
        self.spec = spec

    def output_bits(self, x: str) -> int:
        return len(fst_run(self.spec, x).output)


class PdcCompressor(Compressor):
    def __init__(self, spec: PdcSpec, label: str):
        super().__init__(label)
        self.spec = spec

    def output_bits(self, x: str) -> int:
        return len(pdc_run(self.spec, x).output)


class LzCompressor(Compressor):
    def __init__(self):
        super().__init__("lz78")

    def output_bits(self, x: str) -> int:
        return len(lz_encode(x))


class KfsCompressor(Compressor):
    """Minimum input length over every machine describable in k bits.

    Only sensible for small k; an unreachable prefix reports as stuck so
    profile rows get flagged rather than faked.
    """

    def __init__(self, k: int):
        super().__init__(f"kfs({k})")
        universe = enum_fsts(k)
        if not universe.entries:
            raise ValidationError(f"no machines with descriptions <= {k} bits")
        self.machines = universe.machines
        self.descriptions = [d for d, _ in universe.entries]

    def output_bits(self, x: str) -> int:
        value = kfs_over_set(x, self.machines, self.descriptions).value
        if math.isinf(value):
            raise StuckError(len(x), 0, "-", "")
        return int(value)


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
    text = path.read_text()
    head = text.split(None, 1)[0] if text.split() else ""
    if head == "fst":
        return FstCompressor(parse_fst(text), path.name)
    if head == "pdc":
        return PdcCompressor(parse_pdc(text), path.name)
    raise ValidationError(f"{name}: not a recognized machine format")


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
        if factor <= 1:
            raise ValidationError("geometric factor must be > 1")
        x = float(a)
        while round(x) <= b:
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


@dataclass(frozen=True)
class ProfileRow:
    n: int
    weak_bits: Optional[int]
    strong_bits: Optional[int]
    note: str = ""  # set when a compressor got stuck at this prefix

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
        good = [r for r in self.rows if r.ok]
        if not good:
            raise ValidationError("no usable rows")
        start = math.floor(len(good) * (1 - tail_fraction))
        tail = good[start:] or good[-1:]
        ratios = [r.gap / r.n for r in tail]
        return min(ratios), max(ratios)

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


def _measure(comp: Compressor, prefix: str) -> tuple[Optional[int], str]:
    try:
        return comp.output_bits(prefix), ""
    except StuckError as exc:
        return None, f"{comp.label} {exc}"


def compute_profile(
    bits: str, weak: Compressor, strong: Compressor, grid: list[int]
) -> DepthProfile:
    rows = []
    for n in sorted(set(grid)):
        if n > len(bits):
            rows.append(ProfileRow(n, None, None, "prefix beyond sequence end"))
            continue
        prefix = bits[:n]
        w, wnote = _measure(weak, prefix)
        s, snote = _measure(strong, prefix)
        note = "; ".join(x for x in (wnote, snote) if x)
        rows.append(ProfileRow(n, w, s, note))
    return DepthProfile(weak.label, strong.label, tuple(rows))


@dataclass(frozen=True)
class RatioTable:
    label: str
    rows: tuple[tuple[int, Optional[int], str], ...]  # (n, bits, note)

    def tail_bracket(self, tail_fraction: float = 0.5) -> tuple[float, float]:
        good = [(n, b) for n, b, _ in self.rows if b is not None]
        if not good:
            raise ValidationError("no usable rows")
        start = math.floor(len(good) * (1 - tail_fraction))
        tail = good[start:] or good[-1:]
        ratios = [b / n for n, b in tail]
        return min(ratios), max(ratios)

    def to_csv(self) -> str:
        lines = ["n,bits,ratio"]
        for n, b, note in self.rows:
            if b is None:
                lines.append(f"# n={n} flagged: {note}")
            else:
                lines.append(f"{n},{b},{b / n:.6f}")
        return "\n".join(lines) + "\n"


def compute_ratio(bits: str, comp: Compressor, grid: list[int]) -> RatioTable:
    rows = []
    for n in sorted(set(grid)):
        if n > len(bits):
            rows.append((n, None, "prefix beyond sequence end"))
            continue
        b, note = _measure(comp, bits[:n])
        rows.append((n, b, note))
    return RatioTable(comp.label, tuple(rows))


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
