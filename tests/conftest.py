import random

import pytest

from basicsets import PointSet, decide
from basicsets.core import fixtures


@pytest.fixture(scope="session")
def named_sets():
    return fixtures()


@pytest.fixture(scope="session")
def corpus_cube222():
    """All 256 subsets of the 2x2x2 vertex cube."""
    pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    out = []
    for mask in range(1 << len(pts)):
        subset = [p for i, p in enumerate(pts) if mask >> i & 1]
        out.append(PointSet.from_points(subset, dim=3))
    return out


@pytest.fixture(scope="session")
def corpus_random333():
    """10^4 random subsets of the 3x3x3 grid with at most 8 points."""
    rng = random.Random(333000)
    grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    out = []
    for _ in range(10_000):
        out.append(PointSet.from_points(rng.sample(grid, rng.randint(1, 8)), dim=3))
    return out


@pytest.fixture(scope="session")
def oracle():
    """Memoized rank-oracle verdicts, shared across the session."""
    cache = {}

    def verdict(ps):
        key = (ps.dim, ps.points)
        if key not in cache:
            cache[key] = decide.is_basic(ps)
        return cache[key]

    return verdict
