"""The claim ledger: every claim evaluates, a failing claim names
itself, and EXPERIMENTS.md carries the benchmark results verbatim."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import claims

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: Table 2 cells the smallest sweep capture leaves empty (fewer than
#: five samples): they evaluate to NaN and grade as failures, as the
#: benchmark asserts did when a cell was missing.
EMPTY_AT_250X3 = {
    "Table2 Nigeria Operator-EU captive.apple.com",
    "Table2 Nigeria 114DNS Google/Apple",
}


def test_every_claim_evaluates_on_one_sweep_seed():
    """One seed at the sweep's smallest size: each claim yields a finite
    number or its declared boolean. No claim has to pass."""
    result = claims.sweep(claims.SWEEP_SEEDS[:1], customers=250, days=3)
    graded = [c for c in claims.CLAIMS if c.report != "fig12"]  # no video sessions
    assert list(result.values) == [c.name for c in graded]
    not_finite = set()
    for claim in graded:
        (value,) = result.values[claim.name]
        if isinstance(claim.bound, bool):
            assert isinstance(value, (bool, np.bool_)), claim.name
        elif not np.isfinite(value):
            not_finite.add(claim.name)
    assert not_finite == EMPTY_AT_250X3


def test_claim_names_are_unique_and_headline_rows_are_tolerances():
    names = [c.name for c in claims.CLAIMS]
    assert len(names) == len(set(names))
    assert all(c.test == "±" and c.paper is not None for c in claims.HEADLINE)
    assert len(claims.HEADLINE) == 25


@pytest.mark.parametrize(
    "test, bound, value, passes",
    [
        (">", 0.45, 0.45, False),
        (">=", 0.45, 0.45, True),
        ("<", 3, 3, False),
        ("<=", 0, 0.0, True),
        ("in", (16, 21), 21, True),
        ("in", (16, 21), 22, False),
        ("==", True, False, False),
    ],
)
def test_claim_tests_keep_their_strictness(test, bound, value, passes):
    claim = claims.Claim("fig4", "x", lambda r: r, test, bound)
    assert claim.passes(value) is passes


def test_check_names_the_failing_claim_and_its_value():
    class Fig4:
        def peak_hour_utc(self, country):
            return 3

        def morning_level(self, country):
            return 0.9

        def night_floor(self, country):
            return {"Congo": 0.4, "Spain": 0.2}[country]

    with pytest.raises(AssertionError) as excinfo:
        claims.check("fig4", Fig4())
    message = str(excinfo.value)
    assert "Fig4 Congo peak hour (UTC): measured 3, claim 9 ± 2h" in message
    assert "Fig4 UK 9:00 level: measured 0.9" in message
    assert "night floor" not in message


def test_experiments_md_results_in_sync():
    """Each EXPERIMENTS.md result block is its benchmarks/results file
    verbatim; rerun the benchmarks and paste between the markers if this
    fails. The streaming smoke's file is a timing, not a result."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    names = re.findall(r"<!-- result:(\S+):begin -->", text)
    expected = sorted(p.stem for p in RESULTS.glob("*.txt") if p.stem != "stream_smoke")
    assert sorted(names) == expected
    for name in names:
        block = text.split(f"<!-- result:{name}:begin -->", 1)[1]
        block = block.split(f"<!-- result:{name}:end -->", 1)[0]
        saved = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
        assert block == f"\n```text\n{saved}```\n", name
