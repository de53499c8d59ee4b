"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

1. Every workload, untraced and traced, prints a last line with exactly
   the metrics BENCHMARK.json names, each with its unit, and fail_ratio 0.
2. Every output check rejects a deliberately corrupted output: a check
   that cannot fail would pass a broken program.

Exits 0 when all of it holds, 1 otherwise.
"""
from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run_bench(spec: dict, workload: str, trace: int) -> list[str]:
    problems = []
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    ratio = [ln for ln in lines if re.match(r"#\s+fail_ratio 0/\d+ = 0\.0000$", ln)]
    if not ratio:
        problems.append("no 'fail_ratio 0/N' line")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != want.get(name):
            problems.append(f"{name}: entry {entry}, unit should be {want.get(name)}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def _profile_rows(text, edit):
    """Rewrite every data row of a profile CSV with edit(n, weak, strong)."""
    out = []
    for ln in text.splitlines():
        if ln[:1].isdigit():
            n, w, s = (int(v) for v in ln.split(",")[:3])
            w, s = edit(n, w, s)
            ln = f"{n},{w},{s},{w - s},{(w - s) / n:.6f}"
        out.append(ln)
    return "\n".join(out) + "\n"


def _with_file(out, edit):
    (name, text), = out.files.items()
    return replace(out, files={name: edit(text)})


def _with_stdout(out, index, edit):
    stdout = list(out.stdout)
    stdout[index] = edit(stdout[index])
    return replace(out, stdout=stdout)


def _flip(bits: str) -> str:
    return ("1" if bits[0] == "0" else "0") + bits[1:]


def _kfs_edit(key, edit):
    def apply(text):
        rec = json.loads(text)
        rec[key] = edit(rec[key])
        return json.dumps(rec, sort_keys=True) + "\n"
    return apply


PROFILE_CORRUPTIONS = {
    "strong_bits off by one, gap kept consistent":
        lambda o: _with_file(o, lambda t: _profile_rows(t, lambda n, w, s: (w, s + 1))),
    "weak_bits off by one, gap kept consistent":
        lambda o: _with_file(o, lambda t: _profile_rows(t, lambda n, w, s: (w + 1, s))),
    "a row flagged":
        lambda o: _with_file(o, lambda t: re.sub(r"\n(\d+),[^\n]*", r"\n# n=\1 flagged: x", t, 1)),
    "nonzero exit": lambda o: replace(o, exits=[2]),
}
CORRUPTIONS = {
    "profile-b-pdc": PROFILE_CORRUPTIONS,
    "profile-a-lz": PROFILE_CORRUPTIONS,
    "pdc-deep": {
        "one output bit flipped":
            lambda o: _with_stdout(o, 1, lambda t: "output " + _flip(t[len("output "):])),
        "composed machine over its input-free budget":
            lambda o: _with_file(o, lambda t: re.sub(r"^(pdc \d+ \d+ \w+) \d+", r"\1 0", t)),
        "traceback": lambda o: replace(o, error="Traceback ...\nKeyError: 1"),
    },
    "kfs-batch": {
        "value one less": lambda o: _with_stdout(o, 0, _kfs_edit("value", lambda v: v - 1)),
        "witness input bit flipped":
            lambda o: _with_stdout(o, 0, _kfs_edit("witness_input", _flip)),
        "witness description not a machine":
            lambda o: _with_stdout(o, 0, _kfs_edit("witness_description", lambda d: "0")),
    },
}


def check_checks() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import depthlab.cli as cli
    import child
    import workloads

    problems = []
    workdir = ROOT / ".bench_build" / "depthlab" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.setup(SEED, workdir, smoke=True)
        request = wl.pass_requests(inputs, 0)[0]
        _, _, out = child.execute(cli, request, workloads, None)
        errors = wl.check(inputs, request, out)
        if errors:
            problems.append(f"{name}: the true output fails its check: {errors}")
        for what, corrupt in CORRUPTIONS[name].items():
            bad = corrupt(out)
            if bad.digest() == out.digest() and bad.error == out.error:
                problems.append(f"{name}: corruption '{what}' changed nothing")
            elif not wl.check(inputs, request, bad):
                problems.append(f"{name}: check passes with {what}")
            else:
                print(f"PASS {name}: check rejects {what}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = run_bench(spec, w["name"], trace)
            problems += [f"{w['name']} trace {trace}: {p}" for p in found]
            if not found:
                print(f"PASS {w['name']} trace {trace}: every metric named, with its unit; "
                      "fail_ratio 0")
    problems += check_checks()
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
