"""One pass over a workload's jobs, in a fresh process.

Reads {"jobs", "codes", "trace", "spans"} as JSON on stdin and prints one
JSON line with the pass's figures.  It is started by run.py; a pass with
no jobs only measures set-up.

The program is driven in-process through `ambigraph.cli.dispatch(argv,
out=StringIO())`, one job after another (a closed loop with one client).
Only the dispatch call is timed; digests and output checks run after it.
"""

import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from math import gcd, isqrt
from pathlib import Path

from checks import check
from layers import Tracer, layer_metrics

SRC = Path(__file__).resolve().parent.parent / "src"

# The CPU of a shared machine can run up to 1.9 times slower in phases lasting
# from seconds to minutes, which moves every timing.  A pass therefore
# also times a fixed piece of the benchmark's own Python work, the reference,
# every CALIBRATE_EVERY seconds, from a timer signal so that long jobs are
# sampled too.  run.py scales the pass's times by REFERENCE_S / (median
# reference time), giving seconds at the speed the machine had when
# REFERENCE_S was taken (unloaded, 2 vCPU, Python 3.11).
REFERENCE_S = 0.020
CALIBRATE_EVERY = 0.5


def reference_work():
    """Trial division, tuple keys and dict stores, like the enumeration."""
    n = 200003
    s = isqrt(n)
    table = {}
    for a in range(-s, s + 1):
        m = n - a * a
        d = 1
        while d * d <= m:
            if m % d == 0:
                table[(a, d, m // d)] = gcd(a, d)
            d += 1
    return len(table)


class Calibrator:
    """Times reference_work at the start, every CALIBRATE_EVERY seconds and
    at the end.  `wall` and `cpu` total the time it took, which callers take
    out of what they measure around it."""

    def __init__(self):
        self.samples = []
        self.cpu_samples = []
        self.wall = 0.0
        self.cpu = 0.0

    def sample(self, *_):
        c0 = time.process_time()
        t0 = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.samples.append(elapsed)
        self.cpu_samples.append(cpu)
        self.wall += elapsed
        self.cpu += cpu

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY, CALIBRATE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self):
        return REFERENCE_S / statistics.median(self.samples)

    def cpu_speed(self):
        return REFERENCE_S / statistics.median(self.cpu_samples)


def run_pass(jobs, codes, dispatch, tracer=None):
    """Run every job once; a failed job is recorded and the pass goes on."""
    latencies, cpu, digests, failures = [], [], [], []
    with Calibrator() as calibrator:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            out = io.StringIO()
            stolen = calibrator.wall, calibrator.cpu
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = dispatch(job["argv"], out=out)
                crash = None
            except Exception as exc:  # a crash is one failed job, not a failed pass
                code, crash = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0 - (calibrator.wall - stolen[0]))
            cpu.append(time.process_time() - c0 - (calibrator.cpu - stolen[1]))
            text = out.getvalue()
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            if crash is not None:
                failures.append([i, f"uncaught {crash}"])
            elif code not in codes:
                failures.append([i, f"exit code {code}"])
            else:
                reason = check(job, text)
                if reason is not None:
                    failures.append([i, reason])
    return {
        "speed": calibrator.speed(),
        "cpu_speed": calibrator.cpu_speed(),
        "wall_s": sum(latencies),
        "latencies_ms": [1000 * t for t in latencies],
        "cpu_ms": [1000 * t for t in cpu],
        "digests": digests,
        "failures": failures,
    }


def main():
    # set-up: a fresh process imports the CLI and serves one small request
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ambigraph.cli as cli

    cli.dispatch(["ambiguous", "5", "--count-only"], out=io.StringIO())
    setup_s = time.perf_counter() - t0
    calibrator = Calibrator()
    for _ in range(3):
        calibrator.sample()
    setup_speed = calibrator.speed()

    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    result = run_pass(request["jobs"], request["codes"], cli.dispatch, tracer)
    result["setup_s"] = setup_s
    result["setup_speed"] = setup_speed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["missing"] = tracer.missing
        if request["spans"]:
            tracer.write(request["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
