"""The benchmark's four workloads: inputs, requests and output checks.

Each workload is a closed loop with one client in one process: a request
goes through ``depthlab.cli.main`` exactly as a shell user's command
would, and the next request starts only when it has returned. A *pass*
is the fixed unit of work that ``wall_s`` times; see README.md for why
each workload exists and which layer it loads.

Library calls here go through module attributes (``pushdown.format_pdc``,
not a name imported from it) so that the traced run's wrappers see them.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from depthlab import codec, depth, fst, lz78, pushdown, seqgen
from depthlab.errors import ValidationError

KFS_K = 14
KFS_BITS = 64
HALF = (9, 9, 0)  # half-compressor(k, v, m) used by profile-b-pdc and pdc-deep
CHECK_ROWS = 3  # profile rows re-derived from scratch by the output check


def subseed(seed: int, tag: str) -> int:
    """Independent 64-bit seed for one use of the workload seed."""
    text = f"{seed}:{tag}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Request:
    """One client request: CLI calls run back to back, plus the files they
    write (read back after the request, outside its timing)."""

    key: str
    calls: tuple[tuple[str, ...], ...]
    out_files: tuple[str, ...] = ()


@dataclass
class Output:
    exits: list = field(default_factory=list)  # exit code per call, None on a traceback
    stdout: list = field(default_factory=list)
    files: dict = field(default_factory=dict)  # out file -> text
    error: Optional[str] = None  # traceback text, when a call raised

    def digest(self) -> str:
        h = hashlib.sha256()
        for code, text in zip(self.exits, self.stdout):
            h.update(f"{code}\0{text}\0".encode())
        for name in sorted(self.files):
            h.update(f"{name}\0{self.files[name]}\0".encode())
        return h.hexdigest()


@dataclass
class Inputs:
    """What set-up produced: the files requests read and what checks need."""

    workdir: Path
    files: dict  # name -> path
    stream: str = ""  # the bit stream a profile or run reads, if any
    grid_step: int = 0  # profile grid step
    queries: list = field(default_factory=list)  # kfs-batch strings
    batch: int = 0  # kfs queries per pass

    def provenance(self) -> list[dict]:
        out = []
        for name, path in sorted(self.files.items()):
            data = Path(path).read_bytes()
            out.append({"name": name, "bytes": len(data),
                        "sha256": hashlib.sha256(data).hexdigest()})
        if self.stream:
            out.append({"name": "stream", "bits": len(self.stream),
                        "sha256": sha256_text(self.stream)})
        return out


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text)
    return path


def _exit_errors(out: Output) -> list[str]:
    if out.error:
        return [f"traceback: {out.error.strip().splitlines()[-1]}"]
    return [f"exit code {code}" for code in out.exits if code != 0]


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path, smoke: bool) -> Inputs:
        raise NotImplementedError

    def pass_requests(self, inputs: Inputs, index: int) -> Optional[list[Request]]:
        """Requests of pass `index`, or None when the inputs are used up."""
        raise NotImplementedError

    def check(self, inputs: Inputs, request: Request, out: Output) -> list[str]:
        """Every way `out` is wrong; [] when it is right."""
        raise NotImplementedError


class ProfileWorkload(Workload):
    """`profile` over a dense linear grid that spans the whole stream."""

    weak = strong = ""

    def recipe(self, seed: int, smoke: bool) -> seqgen.SequenceRecipe:
        raise NotImplementedError

    def setup(self, seed, workdir, smoke):
        stream = self.recipe(seed, smoke).generate().bits
        path = _write(workdir, "stream.bits", stream + "\n")
        return Inputs(workdir, {"stream.bits": path}, stream=stream,
                      grid_step=100 if smoke else 1000)

    def pass_requests(self, inputs, index):
        step = inputs.grid_step
        csv = str(inputs.workdir / "profile.csv")
        call = ("profile", "--input", str(inputs.files["stream.bits"]),
                "--weak", self.weak, "--strong", self.strong,
                "--grid", f"{step}:{len(inputs.stream)}:{step}", "--out", csv)
        return [Request("profile", (call,), (csv,))]

    def check(self, inputs, request, out):
        errors = _exit_errors(out)
        if errors:
            return errors
        text = next(iter(out.files.values()))
        if any(ln.startswith("#") for ln in text.splitlines()):
            errors.append("a profile row is flagged")
        try:
            rows = depth.load_profile_csv(text)
        except (ValidationError, ValueError) as exc:
            return errors + [f"profile CSV does not re-read: {exc}"]
        step, n = inputs.grid_step, len(inputs.stream)
        if [r[0] for r in rows] != list(range(step, n + 1, step)):
            errors.append("profile rows do not cover the grid")
        for row_n, weak, _ in rows:
            if weak != row_n:
                errors.append(f"weak_bits {weak} != n at n={row_n}")
                break
        rng = random.Random(subseed(len(rows), "rows"))
        picks = rows[-1:] + rng.sample(rows[:-1], min(CHECK_ROWS - 1, len(rows) - 1))
        for row in picks:
            errors.extend(self.check_row(inputs.stream[: row[0]], row))
        return errors

    def check_row(self, prefix: str, row: tuple[int, int, int]) -> list[str]:
        raise NotImplementedError


class ProfileBPdc(ProfileWorkload):
    name = "profile-b-pdc"
    weak = "identity-pdc"
    strong = "half-compressor({},{},{})".format(*HALF)

    def recipe(self, seed, smoke):
        return seqgen.SequenceRecipe(kind="b", k=9, stages=9 if smoke else 81,
                                     seed=seed)

    def check_row(self, prefix, row):
        n, weak, strong = row
        want_weak = len(pushdown.pdc_run(pushdown.identity_pdc(), prefix).output)
        C = pushdown.build_half_compressor(*HALF)
        want_strong = len(pushdown.pdc_run(C, prefix).output)
        if (weak, strong) != (want_weak, want_strong):
            return [f"row n={n} reads ({weak}, {strong}), a fresh pdc_run "
                    f"gives ({want_weak}, {want_strong})"]
        return []


class ProfileALz(ProfileWorkload):
    name = "profile-a-lz"
    weak = "identity-fst"
    strong = "lz78"

    def recipe(self, seed, smoke):
        return seqgen.SequenceRecipe(kind="a", growth="scaled", g=4,
                                     stages=5 if smoke else 8, seed=seed)

    def check_row(self, prefix, row):
        n, _, strong = row
        code = lz78.lz_encode(prefix)
        errors = []
        if lz78.lz_decode(code) != prefix:
            errors.append(f"lz_decode(lz_encode(prefix)) != prefix at n={n}")
        if strong != len(code):
            errors.append(f"row n={n} strong_bits {strong} != {len(code)}")
        return errors


class PdcDeep(Workload):
    """compose then pdc-run over a flag-free stream, so the stack grows to
    the stream length and C(T(x)) = x."""

    name = "pdc-deep"

    def setup(self, seed, workdir, smoke):
        rng = random.Random(subseed(seed, self.name))
        raw = seqgen.random_bits(rng, 5_000 if smoke else 200_000)
        k = HALF[0]
        # A 0 in every aligned k-bit group: no 1^k flag, so nothing is popped.
        stream = "".join("0" if i % k == k - 1 else c for i, c in enumerate(raw))
        files = {
            "half.pdc": _write(workdir, "half.pdc", pushdown.format_pdc(
                pushdown.build_half_compressor(*HALF))),
            "ident.fst": _write(workdir, "ident.fst",
                                fst.format_fst(fst.identity_fst())),
            "stream.bits": _write(workdir, "stream.bits", stream + "\n"),
        }
        return Inputs(workdir, files, stream=stream)

    def pass_requests(self, inputs, index):
        composed = str(inputs.workdir / "composed.pdc")
        f = inputs.files
        compose = ("compose", "--outer", str(f["half.pdc"]),
                   "--inner", str(f["ident.fst"]), "--out", composed)
        run = ("pdc-run", "--machine", composed, "--input", str(f["stream.bits"]))
        return [Request("compose+pdc-run", (compose, run), (composed,))]

    def check(self, inputs, request, out):
        errors = _exit_errors(out)
        if errors:
            return errors
        try:
            C = pushdown.parse_pdc(next(iter(out.files.values())))
        except (ValidationError, ValueError) as exc:
            return [f"composed machine does not validate: {exc}"]
        errors.extend(pushdown.pdc_validate(C))
        lines = out.stdout[1].splitlines()
        if not lines or lines[0] != f"output {inputs.stream}":
            errors.append("pdc-run output differs from its flag-free input")
        return errors


class KfsBatch(Workload):
    name = "kfs-batch"

    def setup(self, seed, workdir, smoke):
        rng = random.Random(subseed(seed, self.name))
        want = 50 if smoke else 1000
        seen: dict[str, None] = {}
        while len(seen) < want:
            seen[seqgen.random_bits(rng, KFS_BITS)] = None
        queries = list(seen)
        path = _write(workdir, "queries.txt", "\n".join(queries) + "\n")
        return Inputs(workdir, {"queries.txt": path}, queries=queries,
                      batch=5 if smoke else 100)

    def pass_requests(self, inputs, index):
        size = inputs.batch
        batch = inputs.queries[index * size : (index + 1) * size]
        if len(batch) < size:
            return None
        return [Request(f"kfs:{x}", (("kfs", "--bits", x, "--k", str(KFS_K)),))
                for x in batch]

    def check(self, inputs, request, out):
        errors = _exit_errors(out)
        if errors:
            return errors
        x = request.calls[0][2]
        try:
            rec = json.loads(out.stdout[0])
        except ValueError:
            return ["kfs output is not JSON"]
        desc, y, value = (rec.get("witness_description"),
                          rec.get("witness_input"), rec.get("value"))
        if desc is None or y is None:
            return ["kfs returned no witness"]
        T = codec.decode_fst(desc)
        if T is None:
            return ["witness description does not decode"]
        if fst.fst_run(T, y).output != x:
            errors.append("witness machine does not map the witness input to x")
        if value != len(y) or value > len(x):
            errors.append(f"value {value} is not |witness| {len(y)} <= |x| {len(x)}")
        return errors


WORKLOADS = {w.name: w for w in (ProfileBPdc(), PdcDeep(), ProfileALz(), KfsBatch())}
