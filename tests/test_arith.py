import math
import random
from types import SimpleNamespace

import pytest

from constacyclic import make_setting, nu2
from constacyclic.arith import _mult_order, divisors, euler_phi, factorize
from constacyclic.duadic import _compose_multiplier
from constacyclic.errors import NonUnit

import oracles
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


class TestFactorize:
    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="cannot factor 0"):
            factorize(0)


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


def _level_modulus(st, x):
    """M = nr/d for the level d = gcd(x, nr) of a member x of P."""
    return st.nr // math.gcd(x, st.nr)


def _order_mod_q(s, q, m):
    """Order of s in Z_m^*/<q>, by walking powers of s until one is a
    power of q."""
    q_powers, y = set(), 1 % m
    while y not in q_powers:
        q_powers.add(y)
        y = y * q % m
    k, y = 1, s % m
    while y not in q_powers:
        y = y * s % m
        k += 1
    return k


class TestCosets:
    """The q-cosets of P_{n,lambda} as the oracle walks them, and the gcd
    levels max_iso_orthogonal_dim counts them by."""

    def test_golden_56(self):
        cosets = oracles.cosets(make_setting(13, 14, 5))
        assert (21, 49) in cosets
        assert (1, 13) in cosets
        assert len(cosets) == 7
        # sorted by canonical representative
        assert [c[0] for c in cosets] == sorted(c[0] for c in cosets)

    def test_golden_63(self):
        cosets = oracles.cosets(make_setting(4, 21, 2))
        assert (7, 28, 49) in cosets
        assert (1, 4, 16) in cosets
        assert len(cosets) == 7

    def test_singleton(self):
        assert oracles.cosets(make_setting(5, 1, 1)) == [(0,)]

    def test_partition_invariants(self):
        """The cosets partition P, each is q-closed and lies on one level
        d | n_r', its size is the order of q mod nr/d, and level d has
        phi(nr/d)/phi(r) members."""
        for st in sweep_settings(16, 30)[::3]:
            nr, q, r = st.nr, st.q, st.r
            cosets = oracles.cosets(st)
            assert sorted(x for c in cosets for x in c) == list(st.p_set(1))
            level_sizes = {}
            for c in cosets:
                assert {(x * q) % nr for x in c} == set(c)
                m = _level_modulus(st, c[0])
                assert {_level_modulus(st, x) for x in c} == {m}
                assert len(c) == _mult_order(q, m)
                level_sizes[nr // m] = level_sizes.get(nr // m, 0) + len(c)
            assert level_sizes == {
                d: euler_phi(nr // d) // euler_phi(r)
                for d in divisors(st.n_r_prime)
            }, st


class TestOrbits:
    """Cycles of a multiplier on the q-cosets, as representative walks."""

    def test_golden_example_orbits(self):
        st = make_setting(13, 14, 5)
        index = oracles.coset_index(st, st.p_set(1))
        assert oracles.rep_cycles(st, 29, index) == [
            (1, 29), (5, 33), (17, 25), (21,),
        ]
        st = make_setting(4, 21, 2)
        index = oracles.coset_index(st, st.p_set(1))
        assert oracles.rep_cycles(st, 55, index) == [
            (1, 31), (7,), (10, 43), (13, 22),
        ]

    def test_golden_cycles_are_swapped_by_multiplier(self):
        st = make_setting(13, 14, 5)
        index = oracles.coset_index(st, [x for x in st.p_set(1) if x % 7 != 0])
        cycles = oracles.rep_cycles(st, 29, index)
        assert [rep for cycle in cycles for rep in cycle[0::2]] == [1, 5, 17]
        # multiplying the even-position cosets by s gives the odd-position ones
        for cycle in cycles:
            for a, b in zip(cycle[0::2], cycle[1::2]):
                assert tuple(sorted((29 * x) % 56 for x in index[a])) == index[b]

    def test_identity_multiplier(self):
        st = make_setting(13, 14, 5)
        index = oracles.coset_index(st, st.p_set(1))
        assert oracles.rep_cycles(st, 1, index) == [
            (c[0],) for c in oracles.cosets(st)
        ]

    def test_orbit_length_divides_multiplier_order(self):
        """Every s-cycle on level d has the length L_d(s), the order of s in
        Z_M^*/<q> with M = nr/d, which divides the order of s mod nr."""
        rng = random.Random(9)
        for st in rng.sample(sweep_settings(16, 30), 80):
            index = oracles.coset_index(st, st.p_set(1))
            group = oracles.multiplier_group_reference(st)
            for s in rng.sample(group, min(len(group), 4)):
                for cycle in oracles.rep_cycles(st, s, index):
                    m = _level_modulus(st, cycle[0])
                    assert len(cycle) == _order_mod_q(s, st.q, m), (st, s)
                    assert _mult_order(s, st.nr) % len(cycle) == 0
