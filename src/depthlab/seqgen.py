"""Deterministic, seedable generators for the three bench sequences.

Recipe A interleaves incompressible-looking blocks with blocks that repeat
a short random string, on an interval schedule that doubles exponentially
(or geometrically in scaled mode). Recipe B emits stages R 1^k reverse(R)
with flag-free R. Recipe C enumerates flag-free strings, palindromes
first, then reversal-paired zones separated by growing flags.

Each generator takes one `SequenceRecipe` and is a pure function of its
fields; equal fields give bit-identical streams.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from typing import Callable, Iterator, NamedTuple, Optional

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


class IntervalPartition(NamedTuple):
    """Consecutive interval lengths starting at index 0.

    In exponential mode |I_1| = 2 and each later interval has length
    2^(total so far); scaled mode uses |I_j| = g^j.
    """

    lengths: tuple[int, ...]
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
    if mode not in (EXPONENTIAL_GROWTH, SCALED_GROWTH):
        raise ValidationError(f"unknown growth mode {mode!r}")
    if mode == SCALED_GROWTH and g < 2:
        raise ValidationError("scaled growth needs g >= 2")
    lengths: list[int] = []
    total = 0
    truncated = False
    while count is None or len(lengths) < count:
        if mode == SCALED_GROWTH:
            nxt = g ** (len(lengths) + 1)
        else:
            nxt = 2**total if lengths else 2
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
    return IntervalPartition(tuple(lengths), truncated)


class Certificate(NamedTuple):
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


class GeneratedStream(NamedTuple):
    bits: str
    blocks: tuple[dict, ...]
    truncated: bool = False

    def sha256(self) -> str:
        return hashlib.sha256(self.bits.encode()).hexdigest()


class SequenceRecipe(NamedTuple):
    """Deterministic description of one generated sequence.

    kind "a": interval-schedule stream (uses growth/g/seed/certify;
    exponential growth is only feasible for a handful of stages). kind "b":
    flagged reverse-pair stages (uses k/seed). kind "c": enumeration
    stream (uses k/v). `stages` caps the stage count. `bit_budget`, when
    set, caps the length by stages: recipe a stops before the first stage
    that would cross it and sets `truncated`; recipes b and c finish the
    stage that crosses it (`_staged`), so they can overshoot, and leave
    `truncated` False.
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
        # Looked up per call, so a wrapper installed on a generator's module
        # name sees every call.
        gen = {"a": gen_recipe_a, "b": gen_recipe_b, "c": gen_recipe_c}.get(self.kind)
        if gen is None:
            raise ValidationError(f"unknown recipe kind {self.kind!r}")
        if self.stages is not None and self.stages < 0:
            raise ValidationError(f"need stages >= 0, got {self.stages}")
        if self.bit_budget is not None and self.bit_budget < 0:
            raise ValidationError(f"need a bit budget >= 0, got {self.bit_budget}")
        return gen(self)

    def fields(self) -> dict:
        return self._asdict()


def devoted_k(j: int) -> int:
    """Which repeat-block index an even stage j belongs to: the largest
    power of two dividing j (so j = 2^k + t*2^(k+1) for some t >= 0)."""
    if j < 2 or j % 2:
        raise ValidationError("only even stages are devoted")
    return (j & -j).bit_length() - 1


def gen_recipe_a(recipe: SequenceRecipe) -> GeneratedStream:
    """Odd stages: fresh pseudorandom blocks (stand-ins for maximally
    incompressible strings). Even stage j repeats the block r_k for
    k = devoted_k(j); r_k has the length of interval 2^k, so it always
    divides its stage evenly. The stages follow `intervals`, which stops
    before the first one that would cross `bit_budget`.
    """
    growth, g, seed = recipe.growth, recipe.g, recipe.seed
    part = intervals(growth, count=recipe.stages, bit_budget=recipe.bit_budget, g=g)
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
                # 2^k divides j, so interval 2^k <= j is in the schedule.
                rk_len = part.lengths[2**k - 1]
                certified = recipe.certify and 3 * k <= fscomplexity.ENUM_CEILING
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


def _staged(
    recipe: SequenceRecipe, stage: Callable[[int], Iterator[tuple[str, dict]]]
) -> GeneratedStream:
    """The stage loop of recipes b and c: before stage j, stop once j is
    past `stages` or once the bits so far reach `bit_budget`; otherwise
    append the (bits, manifest block) pieces that `stage(j)` yields."""
    pieces: list[str] = []
    blocks: list[dict] = []
    total = 0
    for j in itertools.count(1):
        if recipe.stages is not None and j > recipe.stages:
            break
        if recipe.bit_budget is not None and total >= recipe.bit_budget:
            break
        for bits, block in stage(j):
            pieces.append(bits)
            blocks.append(block)
            total += len(bits)
    return GeneratedStream("".join(pieces), tuple(blocks))


def gen_recipe_b(recipe: SequenceRecipe) -> GeneratedStream:
    """Stages R_j 1^k reverse(R_j) with |R_j| = k * (smallest power of k
    that is >= j) and R_j free of any 1^k substring.

    R_j is drawn seeded-uniformly by rejection; after SAMPLE_RETRIES
    misses, every k-th bit of the draw is forced to 0 instead. A stage
    over MAX_INTERVAL_BITS bits is refused before it is drawn.
    """
    k = recipe.k
    if recipe.stages is None and recipe.bit_budget is None:
        raise ValidationError("recipe b needs stages or a bit budget")
    if k <= 8:
        raise ValidationError("need k > 8")

    def stage(j: int) -> Iterator[tuple[str, dict]]:
        t = power_ceiling(k, j)
        rlen = k * t
        if 2 * rlen + k > MAX_INTERVAL_BITS:
            raise ValidationError(
                f"stage {j} needs {2 * rlen + k} bits, over {MAX_INTERVAL_BITS}"
            )
        flag = "1" * k
        rng = random.Random(_subseed(recipe.seed, "b", k, j))
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
        yield r + flag + r[::-1], {"stage": j, "t": t, "len_r": rlen, "fallback": fallback}

    return _staged(recipe, stage)


def _no_long_ones(n: int, k: int) -> list[str]:
    """All length-n strings with every run of 1s shorter than k, in
    lexicographic order."""
    strings = map("".join, itertools.product("01", repeat=n))
    return [s for s in strings if "1" * k not in s]


def _count_no_long_ones(n: int, k: int) -> int:
    """len(_no_long_ones(n, k)) without listing them: ends[j] counts the
    strings so far that end in exactly j ones."""
    ends = [1] + [0] * (k - 1)
    for _ in range(n):
        ends = [sum(ends)] + ends[:-1]
    return sum(ends)


def _rotate_for_leading_zeros(xs: list[str]) -> list[str]:
    """Prefer an ordering whose first element starts with 0 and whose last
    element ends with 0, so zone content never extends a ones flag."""
    t = len(xs)
    for r in range(t):
        rot = xs[r:] + xs[:r]
        if rot[0].startswith("0") and rot[-1].endswith("0"):
            return rot
    return xs


def gen_recipe_c(recipe: SequenceRecipe) -> GeneratedStream:
    """Enumeration stream: all strings of each length below k, bridge
    flags 1^k .. 1^(2k-1), then per length n >= k the flag-free strings:
    palindromes first, a 1^f(n) flag, and v+1 reversal-paired zones.

    Zone i lists its lexicographic-minimum representatives, a flag
    1^(f(n)+i), then the reversals in reverse order (the zone tail mirrors
    its head). f(k) = 2k and f grows by v+2 per stage. An empty remainder
    zone is just its flag. A stage over MAX_INTERVAL_BITS bits is refused
    before any of its strings are listed.
    """
    k, v = recipe.k, recipe.v
    if k < 4 or v < 1:
        raise ValidationError("need k >= 4 and v >= 1")
    if recipe.stages is None and recipe.bit_budget is None:
        raise ValidationError("need stages or a bit budget")

    def stage(n: int) -> Iterator[tuple[str, dict]]:
        f_n = 2 * k + (n - k) * (v + 2)
        # A stage lists each of its strings once (a zone's mirrored tail
        # holds the reversals of its head); a zone stage adds the flags
        # 1^f_n and 1^(f_n + i) for zones i = 1 .. v+1.
        size = n * _count_no_long_ones(n, k)
        if n >= k:
            size += (v + 2) * f_n + (v + 1) * (v + 2) // 2
        if size > MAX_INTERVAL_BITS:
            raise ValidationError(
                f"stage {n} needs {size} bits, over {MAX_INTERVAL_BITS}"
            )
        if n == k:
            # Stage k - 1 passed the guard, so k <= 27 and the bridge
            # has at most 1,080 bits.
            bridge = "".join("1" * j for j in range(k, 2 * k))
            yield bridge, {"stage": n, "kind": "bridge", "len": len(bridge)}
        if n < k:
            bits = "".join(format(i, f"0{n}b") for i in range(2**n))
            yield bits, {"stage": n, "kind": "all-strings", "len": len(bits)}
            return
        strings = _no_long_ones(n, k)
        palis = [s for s in strings if s == s[::-1]]
        xs = [s for s in strings if s < s[::-1]]
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
        bits = "".join(stage_parts)
        yield bits, {
            "stage": n,
            "kind": "zones",
            "len": len(bits),
            "palindromes": len(palis),
            "pairs": len(xs),
            "zone_sizes": zone_sizes,
            "flag": f_n,
        }

    return _staged(recipe, stage)
