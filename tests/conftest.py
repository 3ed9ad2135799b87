import concurrent.futures

import pytest
from hypothesis import strategies as st

from pentaplanar.graphs import Graph


@pytest.fixture
def pool_rounds(monkeypatch):
    """Every process pool that `enumeration._fan_out` opens, as the list of
    its rounds, each round the sizes of the chunks it sent."""
    made = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append([])
            super().__init__(*args, **kwargs)

        def map(self, fn, chunks):
            made[-1].append([len(chunk) for chunk in chunks])
            return super().map(fn, chunks)

    # the name `_fan_out` imports when it opens a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return made


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 10):
    """Random simple graphs with mixed densities."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, [])
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])
