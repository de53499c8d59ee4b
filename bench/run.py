"""depthlab benchmark: one workload per call, or all four with ``all``.

    python3 bench/run.py --workload profile-b-pdc --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``, so there is nothing to build. Every interpreter this
starts runs one after another and is waited for. Inputs, spans and the
full report go to ``.bench_build/depthlab/`` in the checkout.

With ``--trace 0`` the last line of stdout carries every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` every per-layer metric. The lines
before it name each metric with its unit and sample count, the failure
ratio, and the run's provenance. See README.md for what each workload and
metric is for.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXTRA_CHILDREN = 12  # fresh interpreters after the main one, for set-up and cold samples
COLD_SHARE = 0.4  # of --seconds, spent on extra first requests while they fit
DEADLINE_S = 170  # whole run, under the 180 s a run may take


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def percentile(values, q):
    """Inclusive-method quantile q in (0, 1); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def child(args, mode, workdir, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before a child could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups, colds, main):
    """(value, sample count) per end-to-end metric of BENCHMARK.json, in
    reference seconds (see child.py)."""
    times = [r["ref_s"] for r in main["requests"]]
    warm = times[1:] or times
    walls = [p["ref_s"] for p in main["passes"]]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (main["rss_mb"], 1),
        "op_p50_ms": (statistics.median(warm) * 1e3, len(warm)),
        "op_p90_ms": (percentile(warm, 0.9) * 1e3, len(warm)),
        "cold_ms": (statistics.median(colds) * 1e3, len(colds)),
    }


def run_one(args, spec):
    """Run one workload; returns (result line, report lines)."""
    workdir = ROOT / ".bench_build" / "depthlab" / (
        f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else ""))
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    main = child(args, "main", workdir, deadline)
    requests, failures = list(main["requests"]), list(main["failures"])
    setups, colds = [main["setup_ref_s"]], [requests[0]["ref_s"]]
    # A cold child repeats the main child's set-up and first request; take
    # as many as fit in the cold budget, and set-up-only ones after that.
    cold_cost, spent = main["setup_s"] + requests[0]["s"], 0.0
    for _ in range(0 if args.trace else EXTRA_CHILDREN):
        cold = spent + cold_cost <= COLD_SHARE * args.seconds
        extra = child(args, "cold" if cold else "setup", workdir, deadline)
        setups.append(extra["setup_ref_s"])
        if cold:
            spent += cold_cost
            colds.append(extra["requests"][0]["ref_s"])
            requests += extra["requests"]
            failures += extra["failures"]

    attempted = len(requests)
    failed = sum(not r["ok"] for r in requests)
    if args.trace:
        names = spec["per_layer"]
        traced = sum(p["traced"] for p in main["passes"])
        values = {k: (v, traced) for k, v in main["layers"].items()}
    else:
        names = spec["end_to_end"]
        values = end_to_end(setups, colds, main)
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in names}
    lines = [f"# workload {args.workload} seed {args.seed} trace {args.trace}"]
    for m in names:
        value, n = values[m["name"]]
        lines.append(f"#   {m['name']:<32} {value:>16.6f} {m['unit']:<10} n={n}")
    lines.append(f"#   fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    lines.append(f"#   reference kernel median {statistics.median(main['kernel_s']) * 1e3:.3f} ms, "
                 f"raw pass median {statistics.median(p['s'] for p in main['passes']):.6f} s")
    lines += [f"#   failure: {note}" for note in failures]
    missing = main.get("untraced_targets", [])
    if missing:
        lines.append("#   untraced targets: " + ", ".join(missing))
    prov = dict(main["provenance"], seed=args.seed, inputs=main["inputs"],
                first_pass_digest=main["first_pass_digest"])
    lines.append("# provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full = dict(result, provenance=prov, setups=setups, colds=colds,
                passes=main["passes"], requests=requests, failures=failures,
                untraced_targets=missing)
    (workdir / f"report-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    return result, lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for bench/selftest.py")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "depthlab" / "__init__.py").is_file():
        print(f"error: no depthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            args.workload = name
            results[name], lines = run_one(args, spec)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
