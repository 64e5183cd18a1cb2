import random
from math import gcd, isqrt as _isqrt

import pytest

from ambigraph.core import Element, is_ambiguous, x_triple
from ambigraph.enumeration import ambiguous_triples, enumerate_ambiguous
from ambigraph.errors import LimitExceeded, SquareN

from generator_action import y_triple


def test_isqrt():
    # the enumeration's a runs over [-isqrt(n), isqrt(n)]
    for n, s in ((2, 1), (125, 11), (243, 15)):
        assert max(a for a, _, _ in ambiguous_triples(n)) == s
        assert min(a for a, _, _ in ambiguous_triples(n)) == -s


def divisors_signed(m):
    """All divisors of m != 0, positive and negative, sorted ascending, by
    trial division: the reference for the sieve's divisors."""
    m = abs(m)
    pos = [d for d in range(1, _isqrt(m) + 1) if m % d == 0]
    pos = sorted(set(pos + [m // d for d in pos]))
    return [-d for d in reversed(pos)] + pos


def test_divisors_signed():
    assert divisors_signed(4) == [-4, -2, -1, 1, 2, 4]
    assert divisors_signed(-7) == [-7, -1, 1, 7]
    assert divisors_signed(1) == [-1, 1]


def brute_ambiguous(n):
    """Independent oracle: raw double loop with gcd filter."""
    out = set()
    for a in range(-_isqrt(n), _isqrt(n) + 1):
        m = a * a - n
        for c in range(-abs(m), abs(m) + 1):
            if c != 0 and m % c == 0:
                b = m // c
                if gcd(gcd(a, b), c) == 1:
                    out.add((a, b, c))
    return out


@pytest.mark.parametrize("n,count", [(5, 20), (8, 20)])
def test_counts_against_oracle(n, count):
    oracle = brute_ambiguous(n)
    assert len(oracle) == count
    got = enumerate_ambiguous(n)
    assert {e.triple for e in got} == oracle
    assert len(got) == count


def test_membership():
    assert Element(1, -62, 2, 125) in enumerate_ambiguous(125)


def test_errors():
    with pytest.raises(SquareN):
        enumerate_ambiguous(49)
    with pytest.raises(LimitExceeded):
        enumerate_ambiguous(10 ** 9)


NONSQUARES_500 = [n for n in range(2, 501) if _isqrt(n) ** 2 != n]


@pytest.mark.parametrize("n", NONSQUARES_500[::13] + [5, 8, 125])
def test_closure_properties(n):
    amb = enumerate_ambiguous(n)
    triples = {e.triple for e in amb}
    for e in amb:
        assert is_ambiguous(e)
        assert x_triple(e.triple) in triples
        assert (-e.a, -e.b, -e.c) in triples  # the conjugate
        ye = Element.from_triple(y_triple(e.triple), n)
        if is_ambiguous(ye):
            assert ye.triple in triples
    # elements pair off under x
    assert len(amb) % 2 == 0


def test_ordering_and_determinism():
    a = [e.triple for e in enumerate_ambiguous(125)]
    b = [e.triple for e in enumerate_ambiguous(125)]
    assert a == b
    assert a == sorted(a, key=lambda t: (t[0], t[2]))


def test_triples_are_memoised_and_checked():
    from ambigraph.errors import NonPositiveN

    assert ambiguous_triples(125, max_n=125) is ambiguous_triples(125)
    assert isinstance(ambiguous_triples(125), tuple)
    assert tuple(e.triple for e in enumerate_ambiguous(125)) == ambiguous_triples(125)
    with pytest.raises(NonPositiveN):
        ambiguous_triples(0)
    with pytest.raises(SquareN):
        ambiguous_triples(49)
    ambiguous_triples(1009)  # the cap is checked before the memo is read
    with pytest.raises(LimitExceeded):
        ambiguous_triples(1009, max_n=1000)


def test_previous_set_is_released_before_the_next_is_built(monkeypatch):
    from ambigraph import enumeration

    build, seen = enumeration._sieve_triples, []

    def spy(n):
        seen.append((n, dict(enumeration._memo)))
        return build(n)

    monkeypatch.setattr(enumeration, "_memo", {})
    monkeypatch.setattr(enumeration, "_sieve_triples", spy)
    for n in (125, 216, 216, 125):
        assert ambiguous_triples(n) == trial_division_triples(n)
    assert seen == [(125, {}), (216, {}), (125, {})]
    assert list(enumeration._memo) == [125]


def test_rows_of_a_and_minus_a_share_their_ints():
    triples = ambiguous_triples(300007)  # rows up to a = 547, past cached ints
    rows = {}
    for t in triples:
        rows.setdefault(t[0], []).append(t)
    for a in range(300, _isqrt(300007) + 1):
        neg, pos = rows.get(-a, []), rows.get(a, [])
        assert len({id(t[0]) for t in neg}) <= 1
        assert [(id(t[1]), id(t[2])) for t in neg] == [
            (id(t[1]), id(t[2])) for t in pos]


def trial_division_triples(n):
    """Reference enumeration: the signed divisors of every a^2 - n by trial
    division, gcd-filtered and sorted by (a, c)."""
    out = []
    for a in range(-_isqrt(n), _isqrt(n) + 1):
        m = a * a - n
        for c in divisors_signed(m):
            if gcd(gcd(a, m // c), c) == 1:
                out.append((a, m // c, c))
    return tuple(sorted(out, key=lambda t: (t[0], t[2])))


def _sieve_cases():
    rng = random.Random(0)
    large = []
    while len(large) < 3:
        n = rng.randrange(10 ** 6, 10 ** 7)
        if _isqrt(n) ** 2 != n:
            large.append(n)
    return large + [69984, 139968]  # 2^5 * 3^7 and 2^6 * 3^7


def test_sieve_matches_trial_division_up_to_1500():
    for n in range(2, 1501):
        if _isqrt(n) ** 2 != n:
            assert ambiguous_triples(n) == trial_division_triples(n), n


@pytest.mark.parametrize("n", _sieve_cases())
def test_sieve_matches_trial_division_at_large_n(n):
    assert ambiguous_triples(n) == trial_division_triples(n)


def test_sqrt_mod_against_brute_force():
    from ambigraph.enumeration import _primes_upto, _sqrt_mod

    primes = _primes_upto(300)
    assert primes == [p for p in range(2, 301)
                      if all(p % d for d in range(2, _isqrt(p) + 1))]
    for p in primes:  # includes 17, 97, 193, 257: p - 1 has a high power of 2
        for n in range(3 * p):
            want = sorted({r for r in range(p) if (r * r - n) % p == 0})
            assert sorted(_sqrt_mod(n, p)) == want, (n, p)


def test_count_just_above_the_default_cap(run_cli):
    code, out = run_cli("--max-n", "200000000", "ambiguous", "100000007",
                        "--count-only")
    assert code == 0 and out == "393036\n"


def test_reduced_sieve_matches_the_table_up_to_3000():
    """reduced_triples(n) is the table's reduced filter, in its (a, c)
    order, and T(n) from the factorizations is the table's length."""
    from ambigraph.enumeration import reduced_triples

    for n in [n for n in range(2, 3001) if _isqrt(n) ** 2 != n] + [69984, 1000003]:
        s, triples = _isqrt(n), ambiguous_triples(n)
        want = tuple(t for t in triples if 0 <= s - t[0] < t[2] <= s + t[0])
        assert reduced_triples(n) == (want, len(triples)), n


def test_reduced_triples_lie_in_the_window_of_their_row():
    """The lemma behind the reduced sieve: every reduced triple of the table
    has c <= s + a and |b| <= s + a, so a sieve row whose m = n - a^2 has a
    prime above s + a holds no reduced triple."""
    from ambigraph.enumeration import _factor_rows

    for n in [n for n in range(2, 3001) if _isqrt(n) ** 2 != n] + [
            69984, 1194127, 2607543]:
        s, rows = _isqrt(n), _factor_rows(n)
        for a, b, c in ambiguous_triples(n):
            if 0 <= s - a < c <= s + a:
                assert c <= s + a and -b <= s + a, (n, a, b, c)
                assert all(p <= s + a for p, _ in rows[a]), (n, a, b, c)


@pytest.mark.parametrize("n", [
    1194127, 2607543, 10000001, pytest.param(100000007, marks=pytest.mark.slow)])
def test_reduced_sieve_matches_the_table_at_large_n(n):
    """As test_reduced_sieve_matches_the_table_up_to_3000, at the benchmark's
    seed-0 large n and the ladder's 10^7 and 10^8, where most rows are
    skipped or pruned."""
    from ambigraph.enumeration import reduced_triples

    s, triples = _isqrt(n), ambiguous_triples(n, max_n=n)
    want = tuple(t for t in triples if 0 <= s - t[0] < t[2] <= s + t[0])
    assert reduced_triples(n, max_n=n) == (want, len(triples))


def test_reduced_sieve_is_memoised_and_checked(monkeypatch):
    from ambigraph import enumeration
    from ambigraph.enumeration import reduced_triples
    from ambigraph.errors import NonPositiveN

    monkeypatch.setattr(enumeration, "_memo", {})
    monkeypatch.setattr(enumeration, "_reduced_memo", {})
    assert reduced_triples(125) is reduced_triples(125, max_n=125)
    reduced_triples(216)
    assert list(enumeration._reduced_memo) == [216]
    assert enumeration._memo == {}  # no table was built
    with pytest.raises(NonPositiveN):
        reduced_triples(0)
    with pytest.raises(SquareN):
        reduced_triples(49)
    with pytest.raises(LimitExceeded):
        reduced_triples(1009, max_n=1000)
