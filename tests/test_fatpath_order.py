"""The fat-tree fast path's event merge against the full-key lexsort.

``fatpath._merged_order`` sorts on time and re-sorts only the runs of
equal time by the ancestor times and the origin.  Its permutation must be
the six-key ``lexsort``'s whatever the ties: across streams, at equal
ancestor levels, and down to equal origins.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim import fatpath

DEPTH = fatpath._PROV_DEPTH


def lexsort_order(times, provs, origins):
    """The merge as one ``lexsort`` on ``(time, t⁻¹, …, t⁻⁴, origin)``."""
    time = np.concatenate(times)
    prov = np.concatenate(provs)
    origin = np.concatenate(origins)
    return np.lexsort((origin,) + tuple(
        prov[:, level] for level in range(DEPTH - 1, -1, -1)
    ) + (time,))


def streams(seed, sizes, n_times, n_levels, n_origins):
    """Time-sorted streams whose times, ancestor times and origins come
    from small pools, so rows tie across streams and at every level."""
    rng = np.random.default_rng(seed)
    time_pool = np.sort(rng.random(n_times))
    level_pool = np.append(rng.random(n_levels - 1), -np.inf)
    times, provs, origins = [], [], []
    for n in sizes:
        times.append(np.sort(rng.choice(time_pool, n)))
        provs.append(rng.choice(level_pool, (n, DEPTH)))
        origins.append(rng.integers(0, n_origins, n).astype(np.int64))
    return times, provs, origins


def assert_same_order(times, provs, origins):
    got = fatpath._merged_order(times, provs, origins)
    want = lexsort_order(times, provs, origins)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@given(seed=st.integers(0, 2**31),
       sizes=st.lists(st.integers(0, 40), min_size=1, max_size=5),
       n_times=st.integers(1, 30), n_levels=st.integers(1, 4),
       n_origins=st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_matches_the_full_key_lexsort(seed, sizes, n_times, n_levels, n_origins):
    assert_same_order(*streams(seed, sizes, n_times, n_levels, n_origins))


def test_no_ties():
    rng = np.random.default_rng(3)
    times = [np.sort(rng.random(50)) for _ in range(3)]
    provs = [np.full((50, DEPTH), -np.inf) for _ in range(3)]
    origins = [np.arange(50, dtype=np.int64) + 50 * i for i in range(3)]
    assert_same_order(times, provs, origins)


def test_every_time_equal():
    times, provs, origins = streams(4, [30, 30, 30], 1, 2, 5)
    assert len(np.unique(np.concatenate(times))) == 1
    assert_same_order(times, provs, origins)


def test_empty_streams():
    assert_same_order([np.zeros(0)], [np.zeros((0, DEPTH))],
                      [np.zeros(0, dtype=np.int64)])
