#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the `perfbench`
package (release, offline) next to this file, then runs the workload in
fresh processes -- one per iteration, so peak RSS, the metrics registry and
the profile tree belong to that iteration alone -- until `--seconds` are
used, plus a few processes that only set up. It prints every metric by
name with its unit, a provenance record, and as the last line a JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Before every iteration and after the last, a reference computation that
uses none of the repository's code is timed (`perfbench calibrate`). The
gated time, `time_ref`, is each iteration's time divided by the mean of the
two reference times around it, so that the shared host speeding up or
slowing down between runs is not read as a change in the program. The
campaigns' set-up time is scaled the same way (see `SETUP_SCALED`).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json (medians over
the iterations) and prints the raw times next to them. `--trace 1` runs one untraced and one traced iteration and
reports the per-layer metrics of BENCHMARK.json, including the tracing
overhead; a layer the workload does not exercise reads 0 and is printed as
"n/a". The exit code is 0 when every output matched its reference, 1 on a
mismatch or a failed iteration, 2 on a usage or build error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign_quick", "table2_full", "serve_zipf")
# What `time_ref` normalizes: the campaigns' wall clock, and the CPU time of
# serve_zipf, whose wall clock is fixed by its arrival schedule.
TIMED = {"campaign_quick": "wall_s", "table2_full": "wall_s", "serve_zipf": "cpu_s"}
# Processes that only set up, run after every iteration, so that `setup_s`
# is a median of many set-ups spread over the run even when few iterations
# fit in `--seconds`. One cold set-up varies by about ±30 %.
SETUPS_PER_ITERATION = 10
# Whether `setup_s` is scaled to the reference speed. The campaigns' set-up
# is computation (chip materialization), which slows with the host like the
# timed phase; it is reported as the time it would take when the reference
# computation takes REF_NOMINAL_S. serve_zipf's set-up is mostly the
# server's 25 ms accept poll, a sleep the host's speed does not change, so
# it is reported as measured.
SETUP_SCALED = {"campaign_quick": True, "table2_full": True, "serve_zipf": False}
# The reference computation's typical time on the 2-vCPU Intel Xeon VM the
# benchmark was tuned on, seconds.
REF_NOMINAL_S = 0.6
# Per-process time limit; one iteration takes well under a minute.
CHILD_TIMEOUT_S = 150


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else HERE / "target"


def build():
    if not (ROOT / "crates" / "pudhammer" / "Cargo.toml").is_file():
        die(f"{ROOT} holds no crates/pudhammer: run from a full checkout", 2)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed", 2)
    return target_dir() / "release" / "perfbench"


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def launch(binary, workload, seed, work, trace=None, setup_only=False):
    """Runs one workload process; returns its result."""
    cmd = [str(binary), "run", workload, "--seed", str(seed), "--work", str(work)]
    if trace:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} iteration exceeded {CHILD_TIMEOUT_S} s", 1)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        die(f"{workload} iteration failed with exit code {p.returncode}", 1)
    return json.loads(lines[-1])


def calibrate(binary):
    """Wall time of the reference computation (see src/calib.rs)."""
    p = subprocess.run([str(binary), "calibrate"], capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die("calibration failed", 1)
    return float(p.stdout)


def percentile_ms(binary, samples_ns, p):
    """Percentile `p` in milliseconds of nanosecond samples pooled over
    iterations, by the rules of src/stats.rs; None when not reportable."""
    out = subprocess.run([str(binary), "percentile-ms", str(p)], capture_output=True,
                         text=True, input=" ".join(map(str, samples_ns)), timeout=30)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        die("percentile failed", 1)
    value = out.stdout.strip()
    return None if value == "n/a" else float(value)


def median(values):
    return statistics.median(values) if values else None


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    work = target_dir() / "perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        run(args, spec, binary, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec, binary, work):
    w, seed = args.workload, args.seed
    iterations = []
    started = time.monotonic()
    # The reference computation runs before every iteration and after the
    # last; each iteration is normalized by the mean of the two around it.
    refs = [calibrate(binary)]
    # Set-up samples, each with the reference time measured just before it.
    setups = []

    def setup_batch():
        setups.extend((launch(binary, w, seed, work, setup_only=True)["setup_s"], refs[-1])
                      for _ in range(SETUPS_PER_ITERATION))

    if args.trace:
        traces = target_dir() / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        span_file = traces / f"{w}-seed{seed}.jsonl"
        iterations.append(launch(binary, w, seed, work))
        refs.append(calibrate(binary))
        setup_batch()
        traced = launch(binary, w, seed, work, trace=span_file)
        refs.append(calibrate(binary))
        setup_batch()
        traced["ref_s"] = (refs[-2] + refs[-1]) / 2
    else:
        durations = []
        while True:
            t = time.monotonic()
            iterations.append(launch(binary, w, seed, work))
            refs.append(calibrate(binary))
            setup_batch()
            durations.append(time.monotonic() - t)
            # Start another iteration only if it should end within half an
            # iteration of the budget.
            if time.monotonic() - started >= args.seconds - median(durations) / 2:
                break
    setup_raw_s = median([s for s, _ in setups])

    runs = iterations + ([traced] if args.trace else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    mismatches = [m for r in runs for m in r["mismatches"]]
    for i, r in enumerate(iterations):
        r["ref_s"] = (refs[i] + refs[i + 1]) / 2
    e2e = {
        "time_ref": median([r[TIMED[w]] / r["ref_s"] for r in iterations]),
        "setup_s": (median([s * REF_NOMINAL_S / ref for s, ref in setups])
                    if SETUP_SCALED[w] else setup_raw_s),
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in iterations]),
        "wall_s": median([r["wall_s"] for r in iterations]),
        "cpu_s": median([r["cpu_s"] for r in iterations]),
        "ref_s": median([r["ref_s"] for r in iterations]),
        "fail_frac": failed / attempted if attempted else None,
    }
    extra = sorted({k for r in iterations for k in r["e2e"]})
    for k in extra:
        vals = [r["e2e"][k] for r in iterations]
        # A value an iteration could not report (a percentile with too few
        # samples beyond it, or +inf from failed requests) is not reported.
        e2e[k] = None if None in vals else median(vals)
    late_ns = [ns for r in runs for ns in r["late_ns"]]
    if late_ns:
        e2e["gen.late_p99_ms"] = percentile_ms(binary, late_ns, 0.99)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"wall_s": "s", "cpu_s": "s", "ref_s": "s", "setup_raw_s": "s",
                  "fail_frac": "ratio",
                  "paper_err": "log10", "p50_ms": "ms", "p99_ms": "ms", "slo_frac": "ratio"})
    info = iterations[0]["info"]

    print(f"perfbench {w}: seed {seed}, {len(iterations)} iteration(s), "
          f"{len(setups)} set-up(s), {info}")
    for name, value in e2e.items():
        print(f"  {name:<16} {fmt(value):>12} {units[name]}")
    if "samples" in info:
        print(f"  latency samples per iteration: {info['samples']} "
              f"(percentiles need 10 samples beyond them)")

    metrics = {}
    if args.trace:
        layers = dict(traced["layers"])
        if late_ns:
            layers["gen.late_p99_ms"] = e2e["gen.late_p99_ms"]
        base = iterations[0]
        layers["trace.overhead_frac"] = ((traced[TIMED[w]] / traced["ref_s"])
                                         / (base[TIMED[w]] / base["ref_s"]) - 1)
        print(f"  per-layer (traced iteration, spans in {span_file}):")
        for m in spec["per_layer"]:
            name = m["name"]
            value = layers.get(name)
            print(f"    {name:<34} {fmt(value):>12} {m['unit']}")
            metrics[name] = {"value": value if value is not None else 0, "unit": m["unit"]}
        print(f"  span self time (s): {traced['span_self_s']}")
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}

    record = {
        "workload": w,
        "workload_seed": seed,
        "git_sha": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "-V"]),
        "nproc": os.cpu_count(),
        "scale": info.get("scale"),
        "sweep_threads": info.get("sweep_threads"),
        "fleet_seed": info.get("fleet_seed"),
        "iterations": len(iterations),
        "setup_samples_s": [s for s, _ in setups],
        "samples": info.get("samples"),
        "trace": args.trace,
        "e2e": e2e,
    }
    print(json.dumps({"record": record}))
    for m in mismatches:
        print(f"perfbench: MISMATCH {m}", file=sys.stderr)
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
