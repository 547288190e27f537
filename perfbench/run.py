"""qtchar benchmark: time three library workloads and check every result.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads (all on D4; see BENCHMARK.json for why each was chosen):
    fixpoint_cold  Engine(cache_dir=<empty>).kr_char_direct(2, 4, s)
    decompose      Engine().kl_decompose(DrinfeldPoly.kr(2, 3, s))
    tsystem_warm   verify_t_system_t(D4, 2, 2) on an engine whose disk cache
                   was filled in setup with every character it reads

The seed sets the spectral shift s; results are translated back by -s and
checked against stored digests.  Samples run one after another, each in a
fresh interpreter (sample.py) that is killed if it passes SAMPLE_LIMIT_S.
A new sample starts only while one as long as the longest so far would
still end within --seconds.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json as medians over the passing samples.  With --trace 1 the
run alternates untraced and traced samples and reports the per-layer
metrics; trace.overhead_s is the median traced solve time minus the
median untraced one.  Lines before the last one give the environment and
a readable summary.  --out appends a JSON record of the run (environment,
every sample, the result) to FILE for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fixpoint_cold", "decompose", "tsystem_warm")
SAMPLE_LIMIT_S = 90  # a sample running longer is killed and counts as failed
RUN_LIMIT_S = 150  # no sample may run past this point of a run
SHIFT_RANGE = 40

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from qtchar import kernels
print(kernels.BACKEND)
"""


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so the sample's
    # end-of-setup stamp can be compared with the spawn time taken here.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def environment(seed: int) -> dict:
    """Facts that decide whether two results may be compared.  Importing
    qtchar here also compiles its bytecode before the first timed sample."""
    src = ROOT / "src"
    backend = subprocess.run(
        [sys.executable, "-c", PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    rev = "none"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        rev = got.stdout.strip() or "none"
    h = hashlib.sha256()
    for path in sorted((src / "qtchar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "backend": backend,
        "QTCHAR_PURE_PYTHON": os.environ.get("QTCHAR_PURE_PYTHON", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_sample(workload: str, shift: int, traced: bool, work: Path, limit: float) -> dict:
    """Run one sample in a fresh interpreter; never raises for a failed one."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "sample.py"), workload, str(shift), "1" if traced else "0", str(work)]
    spawn = monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "traced": traced, "problems": [f"killed after {limit:.0f} s"]}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    try:
        res = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = {"ok": False, "problems": [f"exit {proc.returncode}, no result: {stderr.strip()[-500:]}"]}
    if proc.returncode != 0:
        res["ok"] = False
    if "setup_end_ns" in res:
        res["setup_s"] = (res.pop("setup_end_ns") - spawn) / 1e9
    res["traced"] = traced
    return res


def median_of(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(spec: list, passed: list) -> dict:
    return {m["name"]: {"value": median_of(passed, m["name"]), "unit": m["unit"]} for m in spec}


def per_layer(spec: list, passed: list) -> dict:
    plain = [s for s in passed if not s["traced"]]
    traced = [s for s in passed if s["traced"]]
    out = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            value = median_of(traced, "solve_s") - median_of(plain, "solve_s")
        else:
            # A layer the workload never calls has no entry: it did no work.
            value = statistics.median_low(s["layers"].get(name, 0) for s in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def summary(args, shift: int, samples: list, passed: list, metrics: dict) -> list:
    n, failed = len(samples), len(samples) - len(passed)
    lines = [
        f"workload {args.workload}  seed {args.seed}  shift {shift}  trace {args.trace}",
        f"samples {n}  failed {failed}  fail_ratio {failed / n:.4g}",
    ]
    for s in samples:
        if not s["ok"]:
            lines.append("failed sample: " + " | ".join(s.get("problems", [])))
    missing = sorted({b for s in passed for b in s.get("untraced", [])})
    if missing:
        lines.append("bindings not found, so not traced: " + ", ".join(missing))
    if not args.trace and passed:
        times = sorted(s["solve_s"] for s in passed)
        n = len(times)
        if n >= 21:
            tail = f"p{100 * (n - 10) // n} {times[n - 11]:.4f} s (10 samples beyond it)"
        else:
            tail = "no percentile above the median has 10 samples beyond it"
        lines.append(
            f"solve_s over n={n} passing samples: median {statistics.median(times):.4f} s, "
            f"min {times[0]:.4f} s, max {times[-1]:.4f} s; {tail}"
        )
    for name, m in metrics.items():
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a JSON record of this run to this file")
    args = ap.parse_args()

    if not (ROOT / "src" / "qtchar" / "__init__.py").is_file():
        print(f"perfbench: no qtchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    shift = random.Random(args.seed).randint(-SHIFT_RANGE, SHIFT_RANGE)
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    samples: list = []
    start = time.monotonic()
    longest = 0.0
    try:
        # Start a sample only if one as long as the longest so far still ends
        # within --seconds; a traced run needs one untraced and one traced.
        while len(samples) < 1 + args.trace or time.monotonic() - start + longest <= args.seconds:
            began = time.monotonic()
            limit = min(SAMPLE_LIMIT_S, RUN_LIMIT_S - (began - start))
            traced = bool(args.trace) and len(samples) % 2 == 1
            samples.append(run_sample(args.workload, shift, traced, scratch / str(len(samples)), limit))
            longest = max(longest, time.monotonic() - began)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    passed = [s for s in samples if s["ok"]]
    kinds = {s["traced"] for s in passed}
    if kinds != ({False, True} if args.trace else {False}):
        print("\n".join(summary(args, shift, samples, passed, {})))
        print("perfbench: not enough passing samples to report metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(spec["per_layer"], passed)
    else:
        metrics = end_to_end(spec["end_to_end"], passed)
    result = {
        "correct": len(passed) == len(samples),
        "attempted": len(samples),
        "failed": len(samples) - len(passed),
        "metrics": metrics,
    }
    print("\n".join(summary(args, shift, samples, passed, metrics)))
    if args.out:
        record = {"env": env, "workload": args.workload, "trace": args.trace,
                  "shift": shift, "samples": samples, "result": result}
        with open(args.out, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
