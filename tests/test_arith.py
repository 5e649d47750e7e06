import math
import random
from types import SimpleNamespace

import pytest

from constacyclic import cosets_of, nu2, orbits_on_cosets
from constacyclic.arith import _mult_order, divisors, euler_phi, factorize
from constacyclic.duadic import _compose_multiplier
from constacyclic.errors import NonUnit, NotClosed, NotInvariant

from conftest import sweep_settings


def naive_order(a, m):
    x = a % m
    k = 1
    while x != 1 % m:
        x = (x * a) % m
        k += 1
    return k


class TestMultOrder:
    def test_two_mod_five(self):
        assert _mult_order(2, 5) == 4

    def test_identity(self):
        for m in (2, 7, 24, 100):
            assert _mult_order(1, m) == 1

    def test_thirteen_mod_twentyfour(self):
        assert _mult_order(13, 24) == 2

    def test_rejects_nonunit(self):
        with pytest.raises(NonUnit):
            _mult_order(6, 24)

    def test_matches_naive_and_divides_phi(self):
        for m in range(1, 200):
            phi = euler_phi(m)
            for a in range(m if m > 1 else 1):
                if math.gcd(a, m) != 1:
                    continue
                k = _mult_order(a, m)
                assert k == naive_order(a, m)
                assert phi % k == 0

    def test_larger_moduli_sample(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randrange(200, 10_000)
            a = rng.randrange(1, m)
            if math.gcd(a, m) != 1:
                continue
            k = _mult_order(a, m)
            assert pow(a, k, m) == 1
            assert euler_phi(m) % k == 0


class TestNu2:
    def test_examples(self):
        assert nu2(12) == 2
        assert nu2(1) == 0
        assert nu2(13 - 1) == 2

    def test_definition(self):
        for t in range(1, 2000):
            v = nu2(t)
            assert t % (1 << v) == 0 and t % (1 << (v + 1)) != 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nu2(0)


def glue(nr, r, r_side, odd_parts):
    return _compose_multiplier(SimpleNamespace(nr=nr, r=r), r_side, odd_parts)


class TestCrt:
    """The integer CRT that glues a multiplier from its components."""

    def test_golden_63(self):
        assert glue(63, 3, 1, {7: 6}) == 55

    def test_zero(self):
        assert glue(360, 1, 0, {8: 0, 9: 0, 5: 0}) == 0

    def test_one_congruent_component(self):
        # gluing 1 on the 2-part leaves a residue that is 1 mod 2^(e+u)
        s = glue(56, 4, 1, {7: 6})
        assert s % 8 == 1 and s % 7 == 6

    def test_round_trips(self):
        """Over random moduli up to 10^4 and every sweep setting, the glued
        multiplier lies in [0, nr) and reduces to each component modulo
        each prime power."""
        rng = random.Random(5)
        cases = []
        for _ in range(2000):
            nr = rng.randrange(1, 10**4 + 1)
            cases.append((nr, rng.choice(divisors(nr))))
        cases += [(st.nr, st.r) for st in sweep_settings(16, 30)]
        for nr, r in cases:
            r_side = rng.randrange(-nr, 2 * nr)
            powers = [(p, p**e) for p, e in factorize(nr)]
            odd = {w: rng.randrange(3 * w) for p, w in powers if r % p}
            s = glue(nr, r, r_side, odd)
            assert 0 <= s < nr, (nr, r)
            for p, w in powers:
                assert s % w == (r_side if r % p == 0 else odd[w]) % w, (nr, r, w)


def _p_set(n, r, t=1):
    return tuple(range(t % r, n * r, r)) if r > 1 else tuple(range(n))


class TestCosets:
    def test_golden_56(self):
        part = cosets_of(_p_set(14, 4), 13, 56)
        assert (21, 49) in part.cosets
        assert (1, 13) in part.cosets
        assert len(part.cosets) == 7
        # sorted by canonical representative
        assert [c[0] for c in part.cosets] == sorted(c[0] for c in part.cosets)

    def test_golden_63(self):
        part = cosets_of(_p_set(21, 3), 4, 63)
        assert (7, 28, 49) in part.cosets
        assert (1, 4, 16) in part.cosets
        assert len(part.cosets) == 7

    def test_singleton(self):
        part = cosets_of((0,), 5, 7)
        assert part.cosets == ((0,),)

    def test_partition_invariants(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randrange(2, 200)
            units = [g for g in range(1, m) if math.gcd(g, m) == 1]
            g = rng.choice(units)
            part = cosets_of(range(m), g, m)
            everything = [x for c in part.cosets for x in c]
            assert sorted(everything) == list(range(m))
            for c in part.cosets:
                assert {(x * g) % m for x in c} == set(c)

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            cosets_of((1, 2), 3, 7)

    def test_random_subsets_match_orbit_reference(self):
        """Closed sets split into full orbits; others name the least escapee."""
        rng = random.Random(21)
        closed_seen = open_seen = 0
        for _ in range(300):
            m = rng.randrange(2, 150)
            units = [g for g in range(1, m) if math.gcd(g, m) == 1]
            g = rng.choice(units)
            orbit_of = {}
            for x in range(m):
                orb, y = {x}, (x * g) % m
                while y != x:
                    orb.add(y)
                    y = (y * g) % m
                orbit_of[x] = tuple(sorted(orb))
            starts = rng.sample(range(m), rng.randrange(1, min(m, 6) + 1))
            amb = {y for x in starts for y in orbit_of[x]}
            if rng.random() < 0.5:
                for x in rng.sample(sorted(amb), min(len(amb), 3)):
                    amb.discard(x)
            escapees = [x for x in sorted(amb) if (x * g) % m not in amb]
            if escapees:
                open_seen += 1
                with pytest.raises(NotClosed, match=rf"^{escapees[0]}\*{g} "):
                    cosets_of(amb, g, m)
                continue
            closed_seen += 1
            part = cosets_of(amb, g, m)
            assert part.cosets == tuple(sorted({orbit_of[x] for x in amb}))
        assert closed_seen > 50 and open_seen > 50

    def test_nonunit_generator(self):
        with pytest.raises(NonUnit):
            cosets_of(range(6), 2, 6)


class TestOrbits:
    def test_golden_example_orbits(self):
        part = cosets_of(_p_set(14, 4), 13, 56)
        orbs = orbits_on_cosets(part, 29)
        assert orbs == (
            ((1, 13), (29, 41)),
            ((5, 9), (33, 37)),
            ((17, 53), (25, 45)),
            ((21, 49),),
        )
        part = cosets_of(_p_set(21, 3), 4, 63)
        orbs = orbits_on_cosets(part, 55)
        assert orbs == (
            ((1, 4, 16), (31, 55, 61)),
            ((7, 28, 49),),
            ((10, 34, 40), (43, 46, 58)),
            ((13, 19, 52), (22, 25, 37)),
        )

    def test_golden_cycles_are_swapped_by_multiplier(self):
        part = cosets_of(tuple(x for x in _p_set(14, 4) if x % 7 != 0), 13, 56)
        cycles = orbits_on_cosets(part, 29)
        assert [c[0] for cycle in cycles for c in cycle[0::2]] == [1, 5, 17]
        # multiplying the even-position cosets by s gives the odd-position ones
        for cycle in cycles:
            for a, b in zip(cycle[0::2], cycle[1::2]):
                assert tuple(sorted((29 * x) % 56 for x in a)) == b

    def test_identity_multiplier(self):
        part = cosets_of(_p_set(14, 4), 13, 56)
        orbs = orbits_on_cosets(part, 1)
        assert orbs == tuple((c,) for c in part.cosets)

    def test_orbit_length_divides_multiplier_order(self):
        rng = random.Random(9)
        for _ in range(40):
            m = rng.randrange(3, 120)
            units = [g for g in range(1, m) if math.gcd(g, m) == 1]
            part = cosets_of(range(m), rng.choice(units), m)
            s = rng.choice(units)
            cycles = orbits_on_cosets(part, s)
            assert sorted(c for cycle in cycles for c in cycle) == sorted(
                part.cosets
            )
            for cycle in cycles:
                assert _mult_order(s, m) % len(cycle) == 0
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert {(s * x) % m for x in a} == set(b)

    def test_not_invariant(self):
        part = cosets_of((1, 5, 9, 13, 17, 21), 5, 24)
        with pytest.raises(
            NotInvariant, match=r"^7 does not fix the ambient set mod 24$"
        ):
            orbits_on_cosets(part, 7)
