import random

import pytest

from constacyclic import exists_type2
from constacyclic.errors import TooLarge

from oracles import sweep_settings


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

    chosen = [c for c in setting.cosets(t).cosets if rng.random() < 0.5]
    elems = tuple(x for coset in chosen for x in coset)
    return IndexSet(setting, t, elems)
