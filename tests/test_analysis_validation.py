"""Tests for the theory-vs-measured validation report."""

import pytest

from tests.helpers import run_small_sim
from repro.adversary.strategies import GreedyJoinAdversary, LowerBoundAdversary
from repro.analysis.validation import Check, ValidationReport, validate_run
from repro.core.ergo import Ergo


def test_clean_run_passes_all_checks():
    result, _ = run_small_sim(Ergo(), horizon=100.0, n0=600)
    report = validate_run(result)
    assert report.passed, report.render()
    assert report.failures() == []


def test_attacked_run_passes_all_checks():
    result, _ = run_small_sim(
        Ergo(), adversary=GreedyJoinAdversary(rate=5_000.0),
        horizon=150.0, n0=600,
    )
    report = validate_run(result)
    assert report.passed, report.render()


def test_lower_bound_check_for_join_and_drop():
    result, _ = run_small_sim(
        Ergo(), adversary=LowerBoundAdversary(rate=10_000.0),
        horizon=150.0, n0=600,
    )
    report = validate_run(result, check_lower_bound=True)
    assert report.passed, report.render()
    names = {check.name for check in report.checks}
    assert "theorem3.lower_bound" in names


def test_render_mentions_every_check():
    result, _ = run_small_sim(Ergo(), horizon=50.0, n0=600)
    report = validate_run(result)
    text = report.render()
    assert "lemma9.bad_fraction" in text
    assert "theorem1.upper_bound" in text
    assert "accounting.closure" in text
    assert "PASS" in text


def test_violation_detected():
    """A fabricated result with a bad-majority must fail Lemma 9."""
    result, _ = run_small_sim(Ergo(), horizon=50.0, n0=600)
    object.__setattr__ if False else None
    result.max_bad_fraction = 0.5  # simulate a broken defense
    report = validate_run(result)
    assert not report.passed
    assert any(c.name == "lemma9.bad_fraction" for c in report.failures())


def test_out_of_regime_theorem1_is_skipped_not_passed():
    """√(2T)=100 is above the purge threshold of a ~200-ID system."""
    result, _ = run_small_sim(
        Ergo(), adversary=GreedyJoinAdversary(rate=5_000.0),
        horizon=100.0, n0=200,
    )
    report = validate_run(result)
    check = next(c for c in report.checks if c.name == "theorem1.upper_bound")
    assert check.skipped
    assert not check.passed
    assert check.detail.startswith("skipped:")
    assert "[SKIP] theorem1.upper_bound" in report.render()
    assert check not in report.failures()
    assert report.passed, report.render()


def test_skipped_checks_count_toward_neither_side():
    skipped = Check.skip("a", "out of regime")
    assert ValidationReport([skipped]).passed
    report = ValidationReport([skipped, Check("b", False, "broken")])
    assert not report.passed
    assert [c.name for c in report.failures()] == ["b"]
