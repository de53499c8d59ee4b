"""Deterministic, seedable generators for the three bench sequences.

Recipe A interleaves incompressible-looking blocks with blocks that repeat
a short random string, on an interval schedule that doubles exponentially
(or geometrically in scaled mode). Recipe B emits stages R 1^k reverse(R)
with flag-free R. Recipe C enumerates flag-free strings, palindromes
first, then reversal-paired zones separated by growing flags.

Every generator is a pure function of its recipe fields; equal fields give
bit-identical streams.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError
from . import fscomplexity

EXPONENTIAL_GROWTH = "exponential"
SCALED_GROWTH = "scaled"
# Longest interval a schedule may hold: random.getrandbits takes a C int.
MAX_INTERVAL_BITS = 2**31 - 1
SAMPLE_RETRIES = 64  # rejected draws of a recipe-b R before it is forced
MAX_CANDIDATES = 4096  # most strings a certified fs_random_string tries


def _subseed(seed: int, *tags) -> int:
    text = ":".join([str(seed)] + [str(t) for t in tags])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def random_bits(rng: random.Random, n: int) -> str:
    if n == 0:
        return ""
    return format(rng.getrandbits(n), f"0{n}b")


@dataclass(frozen=True)
class IntervalPartition:
    """Consecutive interval lengths starting at index 0.

    In exponential mode |I_1| = 2 and each later interval has length
    2^(total so far); scaled mode uses |I_j| = g^j.
    """

    lengths: tuple[int, ...]
    mode: str
    g: int = 0
    truncated: bool = False


def intervals(
    mode: str = EXPONENTIAL_GROWTH,
    count: Optional[int] = None,
    bit_budget: Optional[int] = None,
    g: int = 4,
) -> IntervalPartition:
    """Build the interval schedule; stops when count is reached or the
    next interval would blow the bit budget (reported via `truncated`)."""
    if count is None and bit_budget is None:
        raise ValidationError("need a count or a bit budget")
    lengths: list[int] = []
    total = 0
    truncated = False
    while count is None or len(lengths) < count:
        if mode == EXPONENTIAL_GROWTH:
            nxt = 2 if not lengths else 2**total
        elif mode == SCALED_GROWTH:
            if g < 2:
                raise ValidationError("scaled growth needs g >= 2")
            nxt = g ** (len(lengths) + 1)
        else:
            raise ValidationError(f"unknown growth mode {mode!r}")
        if bit_budget is not None and total + nxt > bit_budget:
            truncated = True
            break
        if nxt > MAX_INTERVAL_BITS:
            raise ValidationError(
                f"stage {len(lengths) + 1} needs an interval of {nxt} bits, "
                f"over {MAX_INTERVAL_BITS}"
            )
        lengths.append(nxt)
        total += nxt
    return IntervalPartition(tuple(lengths), mode, g, truncated)


@dataclass(frozen=True)
class Certificate:
    mode: str  # "certified" or "surrogate"
    k: int
    bound: int
    value: Optional[float]  # measured complexity; None when uncertified


def fs_random_string(
    length: int,
    k: int,
    mode: str = "surrogate",
    seed: int = 0,
) -> tuple[str, Certificate]:
    """A length-bit string that small machines cannot compress.

    Certified mode searches seeded candidates for one whose 3k-bounded
    machine complexity is at least length - 4k and records the measured
    value, trying at most MAX_CANDIDATES; it requires 3k inside the
    enumeration ceiling. Surrogate mode returns seeded pseudorandom bits
    with no certificate value.
    """
    rng = random.Random(_subseed(seed, "fsr", k, length))
    bound = length - 4 * k
    if mode == "surrogate":
        return random_bits(rng, length), Certificate("surrogate", k, bound, None)
    if mode != "certified":
        raise ValidationError(f"unknown mode {mode!r}")
    ceiling = fscomplexity.ENUM_CEILING  # read per call, as enum_fsts does
    if 3 * k > ceiling:
        raise ValidationError(f"certified mode needs 3k <= {ceiling}, got k={k}")
    for _ in range(MAX_CANDIDATES):
        r = random_bits(rng, length)
        value = fscomplexity.kfs_complexity(r, 3 * k).value
        if value >= bound:
            return r, Certificate("certified", k, bound, value)
    raise ValidationError(
        f"no certified string of length {length} found in "
        f"{MAX_CANDIDATES} candidates"
    )


@dataclass(frozen=True)
class GeneratedStream:
    bits: str
    blocks: tuple[dict, ...]
    truncated: bool = False

    def sha256(self) -> str:
        return hashlib.sha256(self.bits.encode()).hexdigest()


@dataclass(frozen=True)
class SequenceRecipe:
    """Deterministic description of one generated sequence.

    kind "a": interval-schedule stream (uses growth/g/seed; exponential growth
    is only feasible for a handful of stages). kind "b": flagged
    reverse-pair stages (uses k/seed). kind "c": enumeration stream (uses
    k/v). `stages` caps the stage count; `bit_budget`, when set, stops
    after the stage that crosses it.
    """

    kind: str
    k: int = 0
    v: int = 0
    seed: int = 0
    growth: str = SCALED_GROWTH
    g: int = 4
    stages: Optional[int] = None
    bit_budget: Optional[int] = None
    certify: bool = False

    def generate(self) -> GeneratedStream:
        if self.kind == "a":
            return gen_recipe_a(
                stages=self.stages,
                growth=self.growth,
                g=self.g,
                seed=self.seed,
                bit_budget=self.bit_budget,
                certify=self.certify,
            )
        if self.kind == "b":
            return gen_recipe_b(
                self.k, stages=self.stages, seed=self.seed,
                bit_budget=self.bit_budget,
            )
        if self.kind == "c":
            return gen_recipe_c(
                self.k, self.v, stages=self.stages, bit_budget=self.bit_budget
            )
        raise ValidationError(f"unknown recipe kind {self.kind!r}")

    def fields(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def devoted_k(j: int) -> int:
    """Which repeat-block index an even stage j belongs to: the largest
    power of two dividing j (so j = 2^k + t*2^(k+1) for some t >= 0)."""
    if j < 2 or j % 2:
        raise ValidationError("only even stages are devoted")
    return (j & -j).bit_length() - 1


def gen_recipe_a(
    stages: Optional[int] = None,
    growth: str = SCALED_GROWTH,
    g: int = 4,
    seed: int = 0,
    bit_budget: Optional[int] = None,
    certify: bool = False,
) -> GeneratedStream:
    """Odd stages: fresh pseudorandom blocks (stand-ins for maximally
    incompressible strings). Even stage j repeats the block r_k for
    k = devoted_k(j); r_k has the length of interval 2^k, so it always
    divides its stage evenly.
    """
    part = intervals(growth, count=stages, bit_budget=bit_budget, g=g)
    rng = random.Random(_subseed(seed, "a", growth, g))
    rks: dict[int, str] = {}
    blocks: list[dict] = []
    pieces: list[str] = []
    for j, size in enumerate(part.lengths, start=1):
        if j % 2:
            block = random_bits(rng, size)
            blocks.append({"stage": j, "len": size, "kind": "random"})
        else:
            k = devoted_k(j)
            if k not in rks:
                rk_len = part.lengths[2**k - 1] if 2**k <= len(part.lengths) else None
                if rk_len is None:
                    raise ValidationError(
                        f"stage {j} needs interval {2 ** k} inside the schedule"
                    )
                certified = certify and 3 * k <= fscomplexity.ENUM_CEILING
                mode = "certified" if certified else "surrogate"
                rks[k], _cert = fs_random_string(rk_len, k, mode=mode, seed=seed)
            copies = size // len(rks[k])
            block = rks[k] * copies
            blocks.append(
                {"stage": j, "len": size, "kind": "devoted", "k": k, "copies": copies}
            )
        pieces.append(block)
    return GeneratedStream("".join(pieces), tuple(blocks), part.truncated)


def power_ceiling(k: int, n: int) -> int:
    """Smallest power of k that is >= n (k^ceil(log_k n))."""
    t = 1
    while t < n:
        t *= k
    return t


def gen_recipe_b(
    k: int,
    stages: Optional[int] = None,
    seed: int = 0,
    bit_budget: Optional[int] = None,
) -> GeneratedStream:
    """Stages R_j 1^k reverse(R_j) with |R_j| = k * (smallest power of k
    that is >= j) and R_j free of any 1^k substring.

    R_j is drawn seeded-uniformly by rejection; after SAMPLE_RETRIES
    misses, every k-th bit of the draw is forced to 0 instead. A stage
    over MAX_INTERVAL_BITS bits is refused before it is drawn.
    """
    if stages is None and bit_budget is None:
        raise ValidationError("recipe b needs stages or a bit budget")
    if k <= 8:
        raise ValidationError("need k > 8")
    pieces: list[str] = []
    blocks: list[dict] = []
    total = 0
    j = 0
    while True:
        j += 1
        if stages is not None and j > stages:
            break
        if bit_budget is not None and total >= bit_budget:
            break
        t = power_ceiling(k, j)
        rlen = k * t
        if 2 * rlen + k > MAX_INTERVAL_BITS:
            raise ValidationError(
                f"stage {j} needs {2 * rlen + k} bits, over {MAX_INTERVAL_BITS}"
            )
        flag = "1" * k
        rng = random.Random(_subseed(seed, "b", k, j))
        fallback = False
        for attempt in range(SAMPLE_RETRIES + 1):
            r = random_bits(rng, rlen)
            if flag not in r:
                break
            if attempt == SAMPLE_RETRIES:
                r = "".join(
                    "0" if i % k == k - 1 else c for i, c in enumerate(r)
                )
                fallback = True
        stage = r + flag + r[::-1]
        pieces.append(stage)
        total += len(stage)
        blocks.append(
            {"stage": j, "t": t, "len_r": rlen, "fallback": fallback}
        )
    return GeneratedStream("".join(pieces), tuple(blocks))


def _no_long_ones(n: int, k: int) -> list[str]:
    """All length-n strings with every run of 1s shorter than k, in
    lexicographic order."""
    out: list[str] = []

    def grow(prefix: list[str], run: int) -> None:
        if len(prefix) == n:
            out.append("".join(prefix))
            return
        prefix.append("0")
        grow(prefix, 0)
        prefix.pop()
        if run + 1 < k:
            prefix.append("1")
            grow(prefix, run + 1)
            prefix.pop()

    grow([], 0)
    return out


def _rotate_for_leading_zeros(xs: list[str]) -> list[str]:
    """Prefer an ordering whose first element starts with 0 and whose last
    element ends with 0, so zone content never extends a ones flag."""
    t = len(xs)
    for r in range(t):
        rot = xs[r:] + xs[:r]
        if rot[0].startswith("0") and rot[-1].endswith("0"):
            return rot
    return xs


def gen_recipe_c(
    k: int,
    v: int,
    stages: Optional[int] = None,
    bit_budget: Optional[int] = None,
) -> GeneratedStream:
    """Enumeration stream: all strings of each length below k, bridge
    flags 1^k .. 1^(2k-1), then per length n >= k the flag-free strings:
    palindromes first, a 1^f(n) flag, and v+1 reversal-paired zones.

    Zone i lists its lexicographic-minimum representatives, a flag
    1^(f(n)+i), then the reversals in reverse order (the zone tail mirrors
    its head). f(k) = 2k and f grows by v+2 per stage. An empty remainder
    zone is just its flag.
    """
    if k < 4 or v < 1:
        raise ValidationError("need k >= 4 and v >= 1")
    if stages is None and bit_budget is None:
        raise ValidationError("need stages or a bit budget")
    pieces: list[str] = []
    blocks: list[dict] = []
    total = 0

    def push(bitstr: str) -> None:
        nonlocal total
        pieces.append(bitstr)
        total += len(bitstr)

    def done(n: int) -> bool:
        if stages is not None and n > stages:
            return True
        return bit_budget is not None and total >= bit_budget

    n = 0
    while True:
        n += 1
        if done(n):
            break
        if n == k:
            bridge = "".join("1" * j for j in range(k, 2 * k))
            push(bridge)
            blocks.append({"stage": n, "kind": "bridge", "len": len(bridge)})
        if n < k:
            stage = "".join(
                format(i, f"0{n}b") for i in range(2**n)
            )
            push(stage)
            blocks.append({"stage": n, "kind": "all-strings", "len": len(stage)})
            continue
        f_n = 2 * k + (n - k) * (v + 2)
        strings = _no_long_ones(n, k)
        palis = [s for s in strings if s == s[::-1]]
        rest = [s for s in strings if s != s[::-1]]
        xs = [s for s in rest if s < s[::-1]]
        per_zone = len(xs) // v
        zones: list[list[str]] = [
            xs[i * per_zone : (i + 1) * per_zone] for i in range(v)
        ]
        zones.append(xs[v * per_zone :])
        stage_parts = ["".join(palis), "1" * f_n]
        zone_sizes = []
        for i, zone in enumerate(zones, start=1):
            zone = _rotate_for_leading_zeros(zone)
            zone_sizes.append(len(zone))
            head = "".join(zone)
            stage_parts.append(head + "1" * (f_n + i) + head[::-1])
        stage = "".join(stage_parts)
        push(stage)
        blocks.append(
            {
                "stage": n,
                "kind": "zones",
                "len": len(stage),
                "palindromes": len(palis),
                "pairs": len(xs),
                "zone_sizes": zone_sizes,
                "flag": f_n,
            }
        )
    return GeneratedStream("".join(pieces), tuple(blocks))
