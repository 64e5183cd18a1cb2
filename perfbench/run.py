"""Benchmark of the ambigraph CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload small-n-orbits --seed 0 --seconds 28 --trace 0

Run from the root of a checkout.  The run makes its jobs from the seed
(gen.py), measures set-up in fresh processes, then runs passes over the
jobs, each pass in a fresh process (passrun.py), for about --seconds: a
further pass starts when it would end nearer to --seconds than stopping.  Every job's exit code and output are checked, and its
stdout digest is compared with the first pass and, for the default seed,
with the digests recorded in digests.json.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and holds the per-layer metrics.  The
last line of stdout is the JSON result; the lines before it repeat each
metric by name with its unit.  The exit code is 0 whenever a result is
printed, and 2 without one when the program or a pass could not run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import EXPECTED_CODES, WORKLOADS, make_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

# Set-up-only processes after each pass.  The machine's speed changes in
# phases (see passrun.py), so set-up, which lasts 50-90 ms, is sampled across
# the whole run rather than in one burst.
SETUP_PROBES = 2
HARD_LIMIT_S = 170  # a run must end within 180 s whatever the program does
TRACE_COST = 1.6  # first guess of a traced pass's length, untraced = 1

UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "job_p50_ms": "ms", "job_p90_ms": "ms", "peak_rss_mb": "MiB",
}


class PassError(Exception):
    """A pass process crashed, timed out or printed no result."""


def spawn(jobs, codes, trace=False, spans=None, timeout=HARD_LIMIT_S):
    request = {"jobs": jobs, "codes": list(codes), "trace": trace,
               "spans": str(spans) if spans else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py")],
            input=json.dumps(request), capture_output=True, text=True,
            cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def mark_digest_mismatches(passes, recorded):
    """Count a job as failed in a pass whose stdout digest differs from the
    recorded digest, or, without one, from the first pass's."""
    reference = recorded or passes[0]["digests"]
    for result in passes:
        failed = {i for i, _ in result["failures"]}
        for i, (got, want) in enumerate(zip(result["digests"], reference)):
            if got != want and i not in failed:
                result["failures"].append([i, "stdout differs from the reference digest"])


def recorded_digests(workload, seed, count):
    if not DIGESTS.exists():
        return None
    doc = json.loads(DIGESTS.read_text())
    digests = doc["digests"].get(workload)
    if seed != doc["seed"] or digests is None:
        return None
    if len(digests) != count:
        raise PassError("digests.json does not match the generated jobs")
    return digests


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_job_medians(passes, key, speed):
    """Each job's median over the passes: the machine's CPU runs slow in
    phases, and a job's median drops the passes it hit.  With a `speed`
    key, times are first scaled to the reference speed (see passrun.py)."""
    return [statistics.median(times) for times in zip(*(
        [t * (r[speed] if speed else 1) for t in r[key]] for r in passes))]


def end_to_end(untraced, setups, scaled=True):
    """Wall and CPU times at the reference speed the pass measured in the
    same clock.  Job percentiles are taken over CPU times: the program is
    single-threaded and CPU-bound, so a job's CPU time is its latency less
    the time the machine did not run the process; on a shared 2-vCPU
    virtual machine that time reached 17 % of the wall time in some runs."""
    latencies = per_job_medians(untraced, "latencies_ms", scaled and "speed")
    cpu = per_job_medians(untraced, "cpu_ms", scaled and "cpu_speed")
    return {
        "setup_s": statistics.median(
            s * (speed if scaled else 1) for s, speed in setups),
        "wall_s": sum(latencies) / 1000,
        "cpu_s": sum(cpu) / 1000,
        "job_p50_ms": statistics.median(cpu),
        "job_p90_ms": percentile(cpu, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(untraced, traced):
    def scaled(r, name):
        value = r["layers"][name]
        return value * r["speed"] if layer_unit(name) == "s" else value

    metrics = {k: statistics.median(scaled(r, k) for r in traced)
               for k in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] * r["speed"] for r in traced)
        / statistics.median(r["wall_s"] * r["speed"] for r in untraced) - 1
    )
    return metrics


def layer_unit(name):
    if name == "trace.overhead_frac":
        return "frac"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_per_n") or name.endswith("_per_triple"):
        return "ratio"
    return "count"


def measure(workload, seed, seconds, trace):
    started = time.monotonic()

    def remaining():
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - started))

    jobs = make_jobs(workload, seed)
    codes = EXPECTED_CODES[workload]
    recorded = recorded_digests(workload, seed, len(jobs))

    spawn([], codes)  # unmeasured: fills the file cache and writes bytecode
    setups = []

    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    untraced, traced, last = [], [], {}
    t0 = time.monotonic()
    kind = False
    while True:
        p0 = time.monotonic()
        result = spawn(jobs, codes, kind, spans, timeout=remaining())
        (traced if kind else untraced).append(result)
        for probe in [result] + [spawn([], codes, timeout=remaining())
                                 for _ in range(SETUP_PROBES)]:
            setups.append((probe["setup_s"], probe["setup_speed"]))
        last[kind] = time.monotonic() - p0
        if trace:
            kind = not kind
        estimate = last.get(kind, last[False] * TRACE_COST)
        done = untraced and (traced or not trace)
        # another pass if it ends nearer to --seconds than stopping now does
        if done and time.monotonic() - t0 + estimate / 2 > seconds:
            break

    mark_digest_mismatches(untraced + traced, recorded)
    if trace:
        metrics, unscaled = per_layer(untraced, traced), {}
    else:
        metrics = end_to_end(untraced, setups)
        unscaled = end_to_end(untraced, setups, scaled=False)
    failures = [(n, i, why) for n, r in enumerate(untraced + traced)
                for i, why in r["failures"]]
    return {
        "metrics": metrics,
        "unscaled": unscaled,
        "attempted": len(jobs) * (len(untraced) + len(traced)),
        "failures": failures,
        "jobs": jobs,
        "passes": (len(untraced), len(traced)),
        "speeds": [r["speed"] for r in untraced + traced],
        "missing": traced[0]["missing"] if traced else [],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ambigraph" / "cli.py").is_file():
        print(f"error: no ambigraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name in run["missing"]:
        print(f"warning: {name} is gone, so its layer reads 0", file=sys.stderr)
    for n, i, why in run["failures"][:20]:
        print(f"FAILED pass {n} job {i} {run['jobs'][i]['argv']}: {why}",
              file=sys.stderr)
    attempted, failed = run["attempted"], len(run["failures"])
    untraced, traced = run["passes"]
    print(f"# {args.workload} seed {args.seed}: {untraced} untraced and "
          f"{traced} traced passes of {len(run['jobs'])} jobs; times are at "
          f"the reference speed, and each job's time is its median over the "
          f"untraced passes; reference speed per pass "
          + " ".join(f"{speed:.3f}" for speed in run["speeds"]))
    metrics = {}
    for name, value in run["metrics"].items():
        unit = layer_unit(name) if args.trace else UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
        raw = run["unscaled"].get(name)
        print(f"{name:34} {value:14.6f} {unit}"
              + (f"   (unscaled {raw:.6f})" if raw is not None else ""))
    print(f"{'fail_frac':34} {failed / attempted:14.6f} ({failed}/{attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
