"""One fresh interpreter of a benchmark run; bench/run.py starts it.

Mode ``setup`` imports depthlab and makes the workload's inputs, and
reports how long that took. Mode ``cold`` then also runs the workload's
first request, the one a fresh CLI process pays for. Mode ``main`` runs
passes of requests until ``--seconds`` is spent (at least two passes),
and reports request times, peak memory, provenance and, with
``--trace 1``, per-layer metrics. Every distinct output is checked. The
report is one JSON object on the last line of stdout.

The host's speed swings by tens of percent for seconds to minutes at a
time, so the child also times a fixed reference kernel: a few runs right
before and after every request and around set-up, and, in untraced
runs, one run every PROBE_EVERY_S from a SIGALRM handler while a request
runs (its time is taken back out of the request's). Each time is
reported raw (``s``) and in reference seconds (``ref_s``): scaled by the
kernel's nominal time over its mean time around and during that
interval, so a request that ran on a slow phase of the host and one that
ran on a fast phase report the same program cost.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
MAX_FAILURE_NOTES = 5
BURST = 3  # reference kernels before and after each timed interval
PROBE_EVERY_S = 0.1  # kernel period inside a request, untraced runs only
REFERENCE_KERNEL_S = 0.004  # nominal kernel time: the unit of reference seconds


def reference_kernel() -> int:
    """Fixed interpreter work shaped like depthlab's inner loops: tuple-keyed
    dict lookups, short string slicing and list appends."""
    table: dict = {}
    text = ""
    out = []
    for j in range(6000):
        key = (j & 63, "01"[j & 1])
        table[key] = table.get(key, 0) + 1
        text = (text + "01")[-48:]
        out.append(text[j & 31])
    return len(out)


def kernel_time() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def calibrate() -> list[float]:
    return [kernel_time() for _ in range(BURST)]


def to_ref(seconds: float, kernel_s: list[float]) -> float:
    return seconds * REFERENCE_KERNEL_S * len(kernel_s) / sum(kernel_s)


class SpeedProbe:
    """Runs the reference kernel from a SIGALRM handler while armed."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.samples.append(kernel_time())

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def execute(cli, request, workloads, probe):
    """Run one request; returns (seconds, kernel times inside, Output).
    The probe's kernel time is not counted; files the request writes are
    read after the timing stops."""
    out = workloads.Output()
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for argv in request.calls:
            stdout = io.StringIO()
            code = None
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # the program's traceback is a failed request
                out.error = traceback.format_exc()
            out.exits.append(code)
            out.stdout.append(stdout.getvalue())
            if out.error:
                break
    inside = probe.samples if probe else []
    took = time.perf_counter() - start - sum(inside)
    for name in request.out_files:
        path = Path(name)
        out.files[path.name] = path.read_text() if path.exists() else ""
    return took, inside, out


def provenance(fscomplexity) -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    pyproject = (ROOT / "pyproject.toml")
    version = None
    if pyproject.exists():
        found = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M)
        version = found.group(1) if found else None
    universe = fscomplexity.enum_fsts(fscomplexity.ENUM_CEILING)
    sizes = {k: sum(1 for d, _ in universe.entries if len(d) <= k)
             for k in range(fscomplexity.ENUM_CEILING + 1)}
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "version": version,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "universe_sizes": sizes,
    }


def git_commit():
    """HEAD read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> dict:
    before = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import depthlab
    import depthlab.cli as cli
    import_s = time.perf_counter() - start

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    inputs = wl.setup(args.seed, workdir, args.smoke)
    gen_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    after = calibrate()
    kernel_s = before + after
    setup_s = import_s + gen_s
    report = {"import_s": import_s, "gen_s": gen_s, "setup_s": setup_s,
              "setup_ref_s": to_ref(setup_s, kernel_s),
              "inputs": inputs.provenance(), "kernel_s": kernel_s}
    if args.mode == "setup":
        return report

    probe = None if tracer else SpeedProbe()
    passes, requests, checked = [], [], {}
    begin = time.perf_counter()
    index = 0
    while True:
        batch = wl.pass_requests(inputs, index)
        if batch is None:
            break
        traced = tracer is not None and index >= 1  # pass 0 is the untraced baseline
        if traced:
            tracer.install()
        pass_s = pass_ref = 0.0
        for request in batch:
            if tracer:
                tracer.op = len(requests)
            took, inside, out = execute(cli, request, workloads, probe)
            after = calibrate()
            ref = to_ref(took, before + inside + after)
            kernel_s += inside + after
            before = after
            pass_s += took
            pass_ref += ref
            digest = out.digest()
            requests.append({"key": request.key, "s": took, "ref_s": ref,
                             "digest": digest, "traced": traced})
            if digest not in checked:
                checked[digest] = (request, out)
            if args.mode == "cold":
                break
        if traced:
            tracer.uninstall()
        passes.append({"s": pass_s, "ref_s": pass_ref, "traced": traced})
        index += 1
        if args.mode == "cold":
            break
        if index >= MIN_PASSES and time.perf_counter() - begin + pass_s > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bad = {}
    for digest, (request, out) in checked.items():
        errors = wl.check(inputs, request, out)
        if errors:
            bad[digest] = errors
    for r in requests:
        r["ok"] = r["digest"] not in bad
    report.update({
        "passes": passes,
        "requests": requests,
        "failures": ["; ".join(e) for e in list(bad.values())[:MAX_FAILURE_NOTES]],
        "rss_mb": rss_mb,
    })
    if args.mode == "cold":
        return report

    first_pass = [r["digest"] for r in requests[: len(wl.pass_requests(inputs, 0))]]
    report.update({
        "first_pass_digest": hashlib.sha256("".join(first_pass).encode()).hexdigest(),
        "provenance": provenance(depthlab.fscomplexity),
    })
    if tracer:
        traced = [r for r in requests if r["traced"]]
        layers = tracing.layer_metrics(tracer, len(traced), len(inputs.stream))
        base = [p["ref_s"] for p in passes if not p["traced"]][0]
        overhead = statistics.median(p["ref_s"] for p in passes if p["traced"]) - base
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / base
        report["layers"] = layers
        report["untraced_targets"] = sorted(tracer.missing)
        tracer.write(workdir / f"spans-seed{args.seed}.jsonl")
    return report


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "cold", "main"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--smoke", action="store_true")
    report = run(p.parse_args())
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
