"""Golden regression test: the tail-drop vs RED study is frozen.

``extensions aqm`` runs one tail-drop and one RED condition; RED runs the
per-object path (its early-drop lottery has no columnar kernel), with
each queue's drop stream seeded from the queue's name.  Every count, the
utilizations and the per-flow errors at the golden scale/seed must match
the checked-in fixture bit for bit; see ``tests/make_golden.py`` for the
regeneration policy.
"""

import json

import pytest

from make_golden import GOLDEN_DIR, GOLDEN_SCALE, GOLDEN_SEED, compute_aqm
from reference_path import reference_path

FIXTURE = GOLDEN_DIR / f"aqm_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_matches_golden_parameters(golden):
    assert golden["scale"] == GOLDEN_SCALE
    assert golden["seed"] == GOLDEN_SEED
    assert [row["aqm"] for row in golden["rows"]] == [None, "red"]


def test_reference_path_reproduces_the_golden_rows(golden):
    with reference_path() as forced:
        current = compute_aqm()
    assert forced["pipeline"] == 2
    assert current == golden


def test_default_path_reproduces_the_golden_rows(golden, counters):
    assert compute_aqm() == golden
    # the tail-drop condition runs columnar, RED falls back
    assert counters("batch.fastpath[pipeline.run_batch]") == 1
    assert counters("batch.fallback[pipeline.run_batch:custom-queue]") == 1
