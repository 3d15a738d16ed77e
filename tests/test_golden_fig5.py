"""Golden regression test: Figure 5 numbers are frozen.

Every Figure-5 row (measured utilization, loss rates, reference counts) at
the golden scale/seed must match the checked-in fixture bit-for-bit; see
``tests/make_golden.py`` for the regeneration policy.
"""

import json

import pytest

from make_golden import (
    GOLDEN_DIR,
    GOLDEN_FIG5_SEEDS,
    GOLDEN_SCALE,
    GOLDEN_SEED,
    compute_fig5,
)
from reference_path import reference_path

FIXTURE = GOLDEN_DIR / f"fig5_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    """The rows on the per-object reference path the fixture was made on."""
    with reference_path() as forced:
        rows = compute_fig5()
    assert forced["pipeline"] > 0
    return rows


def test_fixture_matches_golden_parameters(golden):
    assert golden["scale"] == GOLDEN_SCALE
    assert golden["seed"] == GOLDEN_SEED
    assert golden["n_seeds"] == GOLDEN_FIG5_SEEDS


def test_row_count_frozen(golden, current):
    assert len(current["rows"]) == len(golden["rows"])


def test_rows_exactly_match(golden, current):
    for got, want in zip(current["rows"], golden["rows"]):
        # exact float equality is intentional: the simulator is
        # bit-deterministic, so any drift is a real behavior change
        assert got == want, (
            f"fig5 row at target_util={want['target_util']} shifted — if "
            f"intentional, regenerate tests/golden/ via tests/make_golden.py"
        )


def test_batch_fast_path_reproduces_the_golden_rows(golden):
    """The default (columnar) path must hit the per-object fixtures
    bit-for-bit (raw-float comparison, including the scheme=None baseline
    runs)."""
    batched = compute_fig5()
    assert len(batched["rows"]) == len(golden["rows"])
    for got, want in zip(batched["rows"], golden["rows"]):
        assert got == want, (
            f"fig5 batch row at target_util={want['target_util']} diverged "
            f"from the golden (object-path) numbers"
        )
