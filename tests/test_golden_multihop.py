"""Golden regression test: the multihop ablation is frozen.

``extensions multihop`` runs one chain per length with independent cross
traffic at every hop.  Each chain length's median flow-mean error and mean
true latency at the golden scale/seed must match the checked-in fixture
bit for bit, on the columnar path and on the per-object reference; see
``tests/make_golden.py`` for the regeneration policy.
"""

import json

import pytest

from make_golden import (
    GOLDEN_DIR,
    GOLDEN_MULTIHOP_HOPS,
    GOLDEN_SCALE,
    GOLDEN_SEED,
    compute_multihop,
)
from reference_path import reference_path

FIXTURE = GOLDEN_DIR / f"multihop_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_matches_golden_parameters(golden):
    assert golden["scale"] == GOLDEN_SCALE
    assert golden["seed"] == GOLDEN_SEED
    assert [row["n_hops"] for row in golden["rows"]] == list(GOLDEN_MULTIHOP_HOPS)


def test_reference_path_reproduces_the_golden_rows(golden):
    with reference_path() as forced:
        current = compute_multihop()
    assert forced["chain"] == len(GOLDEN_MULTIHOP_HOPS)
    assert current == golden


def test_default_path_reproduces_the_golden_rows(golden, counters):
    assert compute_multihop() == golden
    assert counters("batch.fastpath[chain.run_batch]") == len(GOLDEN_MULTIHOP_HOPS)
    assert counters("batch.fallback") == 0
