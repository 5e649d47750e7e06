import math
import random

import pytest

from constacyclic import default_lambda, exists_type2, field_for_order, make_setting
from constacyclic.arith import divisors
from constacyclic.errors import TooLarge


def sweep_settings(max_q: int = 16, max_n: int = 30):
    """Every valid (q, n, canonical lambda of each order r) in the box."""
    out = []
    for q in range(2, max_q + 1):
        try:
            field = field_for_order(q)
        except ValueError:
            continue
        for r in divisors(q - 1):
            lam = default_lambda(field, r)
            for n in range(1, max_n + 1):
                if math.gcd(n, q) != 1:
                    continue
                out.append(make_setting(q, n, lam.label))
    return out


@pytest.fixture(scope="session")
def sweep():
    """Every valid setting with q <= 16, n <= 30, one lambda per order."""
    return sweep_settings(16, 30)


@pytest.fixture(scope="session")
def sweep_verdicts(sweep):
    """Type-II verdicts (with witnesses) for the whole sweep."""
    return [(st, exists_type2(st)) for st in sweep]


@pytest.fixture(scope="session")
def tower_friendly(sweep):
    """Sweep settings whose root-of-unity tower is small enough to enjoy."""
    out = []
    for st in sweep:
        try:
            if st.tower.ext.q <= 1 << 16:
                out.append(st)
        except TooLarge:
            pass
    return out


def random_invariant_set(rng: random.Random, setting, t: int = 1):
    """A random union of q-cosets inside P_{n,lambda^t}."""
    from constacyclic import IndexSet
    from oracles import cosets

    chosen = [c for c in cosets(setting, t) if rng.random() < 0.5]
    elems = tuple(x for coset in chosen for x in coset)
    return IndexSet(setting, t, elems)
