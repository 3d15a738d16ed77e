"""Golden regression test: Figure 4(a)/4(b) numbers are frozen.

The summary rows of the four Figure-4(a,b) curves at the golden scale/seed
are checked in as JSON and asserted for *exact* equality — the simulation
is bit-deterministic, so any drift means a code change altered the
reproduction's numbers.  If the change was intentional, regenerate with
``PYTHONPATH=src python tests/make_golden.py`` and commit the new fixture
with an explanation; if not, you just caught a silent accuracy shift.
"""

import json

import pytest

from make_golden import GOLDEN_DIR, GOLDEN_SCALE, GOLDEN_SEED, compute_fig4ab
from reference_path import reference_path

FIXTURE = GOLDEN_DIR / f"fig4ab_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    """The rows on the per-object reference path the fixture was made on."""
    with reference_path() as forced:
        rows = compute_fig4ab()
    assert forced["pipeline"] > 0
    return rows


def test_fixture_matches_golden_parameters(golden):
    assert golden["scale"] == GOLDEN_SCALE
    assert golden["seed"] == GOLDEN_SEED


def test_curve_labels_frozen(golden, current):
    assert [c["label"] for c in current["curves"]] == \
        [c["label"] for c in golden["curves"]]


def test_summary_rows_exactly_match(golden, current):
    for got, want in zip(current["curves"], golden["curves"]):
        assert got["row"] == want["row"], (
            f"{want['label']}: reproduction numbers shifted — if intentional, "
            f"regenerate tests/golden/ via tests/make_golden.py"
        )


def test_batch_fast_path_reproduces_the_golden_rows(golden):
    """The default (columnar) path must hit the per-object fixtures
    bit-for-bit."""
    batched = compute_fig4ab()
    assert [c["label"] for c in batched["curves"]] == \
        [c["label"] for c in golden["curves"]]
    for got, want in zip(batched["curves"], golden["curves"]):
        assert got["row"] == want["row"], (
            f"{want['label']}: batch pipeline diverged from the golden "
            f"(object-path) numbers — the fast path must be bitwise-identical"
        )
