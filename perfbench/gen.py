"""Seeded inputs for the four workloads.

Every input comes from the seed and the benchmark's own integer code
(arith.py); nothing here imports the program, so a given seed yields the
same jobs at every commit.  A job is a dict with the CLI argv, a kind that
selects its output check (checks.py) and the reference facts that check
needs.
"""

import random
from itertools import combinations
from math import gcd, isqrt

from arith import count_ambiguous, divisors, factorize, is_square, sqrt_cf_period

WORKLOADS = ("small-n-orbits", "large-n-orbits", "theorem-audit", "point-queries")

SMALL_N_RANGE = (1000, 2000)
SMALL_N_JOBS = 150

LARGE_N_RANGE = (10 ** 6, 3 * 10 ** 6)
LARGE_N_JOBS = 2
# The work of `orbits n` grows with the number of ambiguous triples and, per
# triple, with the length of the continued-fraction cycles, which the period
# of sqrt(n) tracks.  Between 10^6 and 3*10^6 both vary by a factor of five
# or more from one n to the next, so a pass of two unrestricted n would swing
# with the seed.  Each large n is therefore drawn from those with about 70k
# triples and a period near the median: with periods of 150-450, a pass's
# time still followed the sum of the two periods from seed to seed.
LARGE_N_TRIPLES = (68500, 72500)
LARGE_N_PERIOD = (260, 340)

THEOREM_N_RANGE = (10 ** 4, 2 * 10 ** 5)
# A theorem-audit pass checks two grids, each a prime p, an exponent k and
# two or more powers l of two for which n = 2^l p^k lies in range, as `sweep`
# takes them; each grid is swept once with JSON and once with CSV output, so
# the four sweeps, not two, sit in the middle of the pass's job times.  The
# cases are the smallest in range, which keeps a pass short enough for a run
# to hold several.  A seed draws one pair of grids among those alike in what
# sets the time of the pass and of its middle and slowest jobs: the triples
# of the pass, the sum of its n (`verify` and `sweep` enumerate each n
# several times, at a cost that grows with n as well as with the triples)
# and the triples of the second-largest case, whose `classify` (a depth-20
# audit at about 0.26 ms per triple) sets job_p90_ms.
THEOREM_CASE_TRIPLES = (2000, 5300)
THEOREM_GRID_TRIPLES = (6500, 7700)
THEOREM_PASS_TRIPLES = (13700, 14800)
THEOREM_PASS_N = (115000, 165000)
THEOREM_SECOND_LARGEST = (4500, 4600)

POINT_N_RANGE = (2 * 10 ** 5, 10 ** 6)
POINT_ROUNDS = 25
# For the same reason, point-query n have a sqrt(n) period between the 3rd
# and 7th deciles of its spread in this range, which sets the length of the
# CF cycles `cf` and `equivalent` walk.  `circuit` n also have a typical
# number of triples per sqrt(n) (4th to 7th decile), which sets the size of
# the lists it enumerates and so the pass's peak memory.
POINT_PERIOD = (80, 240)
POINT_TRIPLES_PER_ROOT = (38, 52)


def _rng(workload, seed, part=""):
    return random.Random(f"{workload}/{seed}/{part}")


def _stratified_n(rng, lo, hi, count, accept=lambda n: True):
    """One nonsquare n from each of `count` equal slices of [lo, hi]."""
    out = []
    width = (hi - lo) / count
    for i in range(count):
        a = lo + round(i * width)
        b = lo + round((i + 1) * width) - 1 if i + 1 < count else hi
        while True:
            n = rng.randint(a, b)
            if not is_square(n) and accept(n):
                out.append(n)
                break
    return out


def random_rep(rng, n):
    """A random ambiguous (a, c) of n: a^2 < n and c a signed divisor of
    a^2 - n with gcd(a, b, c) = 1."""
    s = isqrt(n)
    while True:
        a = rng.randint(-s, s)
        m = a * a - n
        c = rng.choice(divisors(-m)) * rng.choice((1, -1))
        b = m // c
        if gcd(gcd(a, b), c) == 1:
            return a, b, c


def random_word(rng):
    """A word of 2 to 8 alternating (yx)/(y^2x) blocks in the CLI's notation."""
    kinds = ("(yx)", "(y^2x)")
    first = rng.randrange(2)
    return "".join(
        f"{kinds[(first + i) % 2]}^{rng.randint(1, 12)}"
        for i in range(rng.randint(2, 8))
    )


# Generator action on triples, for equivalent-by-construction pairs.
def _x(t):
    a, b, c = t
    return (-a, c, b)


def _y(t):
    a, b, c = t
    return (b - a, b - 2 * a + c, b)


def _is_odd_prime(p):
    return p > 2 and factorize(p) == [(p, 1)]


def theorem_for(p, l):
    """The theorem whose hypotheses n = 2^l p^k meets (k odd, k >= 3)."""
    if l >= 3:
        return "2.9"
    return (("2.1", "2.3"), ("2.5", "2.6"), ("2.7", "2.8"))[l][p % 4 == 3]


def theorem_cases():
    """Every (theorem, p, k, l, n) with k odd >= 3 and n = 2^l p^k in range."""
    lo, hi = THEOREM_N_RANGE
    cases = []
    for p in range(3, isqrt(hi // 27) + 1):
        if not _is_odd_prime(p):
            continue
        for k in range(3, 64, 2):
            if p ** k > hi:
                break
            for l in range(0, 64):
                n = 2 ** l * p ** k
                if n > hi:
                    break
                if n >= lo:
                    cases.append((theorem_for(p, l), p, k, l, n))
    return cases


def theorem_grids():
    """Every set of two or more cases sharing p and k, each case and the set
    within the triple limits above, as lists of case dicts."""
    by_pk = {}
    for theorem, p, k, l, n in theorem_cases():
        by_pk.setdefault((p, k), []).append(
            {"theorem": theorem, "p": p, "k": k, "l": l, "n": n,
             "triples": count_ambiguous(n)})

    def alike(grid):
        triples = [case["triples"] for case in grid]
        lo, hi = THEOREM_CASE_TRIPLES
        return (all(lo <= t <= hi for t in triples)
                and THEOREM_GRID_TRIPLES[0] <= sum(triples) <= THEOREM_GRID_TRIPLES[1])

    return [list(grid)
            for cases in by_pk.values()
            for size in range(2, len(cases) + 1)
            for grid in combinations(cases, size)
            if alike(grid)]


def theorem_pairs():
    """Every pair of theorem_grids() whose cases together meet the pass
    limits above."""
    def alike(pair):
        cases = [case for grid in pair for case in grid]
        triples = sorted(case["triples"] for case in cases)
        n_sum = sum(case["n"] for case in cases)
        return (THEOREM_PASS_TRIPLES[0] <= sum(triples) <= THEOREM_PASS_TRIPLES[1]
                and THEOREM_PASS_N[0] <= n_sum <= THEOREM_PASS_N[1]
                and THEOREM_SECOND_LARGEST[0] <= triples[-2] <= THEOREM_SECOND_LARGEST[1])

    return [pair for pair in combinations(theorem_grids(), 2) if alike(pair)]


def _small_n_orbits(seed):
    rng = _rng("small-n-orbits", seed)
    ns = _stratified_n(rng, *SMALL_N_RANGE, SMALL_N_JOBS)
    rng.shuffle(ns)
    return [
        {"kind": "orbits-json", "argv": ["orbits", str(n), "--json"],
         "n": n, "triples": count_ambiguous(n)}
        for n in ns
    ]


def _large_n_orbits(seed):
    rng = _rng("large-n-orbits", seed)

    def accept(n):
        return (LARGE_N_PERIOD[0] <= sqrt_cf_period(n) <= LARGE_N_PERIOD[1]
                and LARGE_N_TRIPLES[0] <= count_ambiguous(n) <= LARGE_N_TRIPLES[1])

    ns = _stratified_n(rng, *LARGE_N_RANGE, LARGE_N_JOBS, accept)
    return [
        {"kind": "orbits-text", "argv": ["orbits", str(n)],
         "n": n, "triples": count_ambiguous(n)}
        for n in ns
    ]


def _theorem_audit(seed):
    jobs = []
    pair = list(_rng("theorem-audit", seed).choice(theorem_pairs()))
    _rng("theorem-audit", seed, "order").shuffle(pair)
    for grid in pair:
        for case in grid:
            p, k, l, n = (case[key] for key in ("p", "k", "l", "n"))
            jobs.append({"kind": "verify", "argv": [
                "verify", "--theorem", case["theorem"], "--p", str(p),
                "--k", str(k), "--l", str(l), "--json"], **case})
            mod = ["--mod8"] if l >= 3 else ["--mod-p", str(p)]
            jobs.append({"kind": "classify",
                         "argv": ["classify", str(n), *mod, "--json"], **case})
        ls = ",".join(str(case["l"]) for case in grid)
        for form in ("--json", "--csv"):
            jobs.append({"kind": "sweep", "cases": grid, "argv": [
                "sweep", "--p", str(grid[0]["p"]), "--k", str(grid[0]["k"]),
                "--l", ls, form]})
    return jobs


def _point_queries(seed):
    rng = _rng("point-queries", seed)
    kinds = ("circuit", "equivalent", "cf", "check-word")

    def typical(n, kind):
        if not POINT_PERIOD[0] <= sqrt_cf_period(n) <= POINT_PERIOD[1]:
            return False
        lo, hi = POINT_TRIPLES_PER_ROOT
        return kind != "circuit" or lo <= count_ambiguous(n) / isqrt(n) <= hi

    ns = {kind: _stratified_n(_rng("point-queries", seed, kind),
                              *POINT_N_RANGE, POINT_ROUNDS,
                              lambda n, kind=kind: typical(n, kind))
          for kind in kinds}
    jobs = []
    for i in range(POINT_ROUNDS):
        n = ns["circuit"][i]
        a, b, c = random_rep(rng, n)
        jobs.append({"kind": "circuit", "n": n, "rep": [a, b, c],
                     "argv": ["circuit", str(n), f"--rep={a},{c}"]})

        n = ns["equivalent"][i]
        a, b, c = random_rep(rng, n)
        t = (a, b, c)
        for _ in range(rng.randint(1, 8)):
            t = _y(_x(t)) if rng.randrange(2) else _x(t)
        jobs.append({"kind": "equivalent", "n": n,
                     "argv": ["equivalent", "--n", str(n), "--",
                              f"{a},{c}", f"{t[0]},{t[2]}"]})

        n = ns["cf"][i]
        a, b, c = random_rep(rng, n)
        jobs.append({"kind": "cf", "n": n, "argv": ["cf", "--", f"{a},{c}|{n}"]})

        n = ns["check-word"][i]
        a, b, c = random_rep(rng, n)
        jobs.append({"kind": "check-word", "n": n, "rep": [a, b, c],
                     "argv": ["check-word", str(n), random_word(rng),
                              f"--rep={a},{c}"]})
    return jobs


_GENERATORS = {
    "small-n-orbits": _small_n_orbits,
    "large-n-orbits": _large_n_orbits,
    "theorem-audit": _theorem_audit,
    "point-queries": _point_queries,
}

# Exit codes each workload accepts; exit 2 reports refuted paper claims.
EXPECTED_CODES = {
    "small-n-orbits": (0,),
    "large-n-orbits": (0,),
    "theorem-audit": (0, 2),
    "point-queries": (0,),
}


def make_jobs(workload, seed):
    """The jobs of one pass of `workload` for `seed`, in the order they run."""
    return _GENERATORS[workload](seed)
