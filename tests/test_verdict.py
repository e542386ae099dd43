"""The shared verdict type: which words pass, the JSON shape of labels, and
the product rule that combines a product tower's component verdicts."""

import pytest

from tiltlab import Verdict
from tiltlab.verdict import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    PASS_EXACT,
    PASS_SAMPLED,
    SAMPLED_PASS,
    TRIVIAL_CASE,
    UNDECIDED_AT_PRECISION,
    per_component,
)


@pytest.mark.parametrize(
    "word, ok",
    [
        (PASS, True),
        (PASS_EXACT, True),
        (SAMPLED_PASS, True),
        (PASS_SAMPLED, True),
        (TRIVIAL_CASE, True),
        (NOT_APPLICABLE, True),
        (FAIL, False),
        (UNDECIDED_AT_PRECISION, False),
    ],
)
def test_verdict_ok_per_word(word, ok):
    assert Verdict(word).ok() is ok


@pytest.mark.parametrize(
    "label, extra",
    [
        ({}, {}),
        ({"name": "sharp_reduction"}, {"name": "sharp_reduction"}),
        ({"property": "P_ROOT_CLOSED"}, {"property": "P_ROOT_CLOSED"}),
    ],
)
def test_verdict_json_shape_per_label(label, extra):
    assert Verdict(PASS, **label).to_json_dict() == {"verdict": PASS, **extra}
    full = Verdict(FAIL, witness="t", samples=3, details={"layer": 0}, **label)
    assert full.to_json_dict() == {
        "verdict": FAIL,
        "witness": "t",
        "samples": 3,
        "details": {"layer": 0},
        **extra,
    }


def test_per_component_sampled_beats_pass_and_sums_samples():
    parts = [Verdict(PASS, details={"layer": 0}), Verdict(SAMPLED_PASS, samples=30),
             Verdict(PASS, samples=5)]
    got = per_component(parts)
    assert (got.verdict, got.samples) == (SAMPLED_PASS, 35)
    assert got.details == {"component_0": {"layer": 0}}


@pytest.mark.parametrize("word", [PASS, PASS_EXACT, TRIVIAL_CASE, NOT_APPLICABLE])
def test_per_component_keeps_a_shared_word(word):
    got = per_component(Verdict(word, name="n") for _ in range(3))
    assert (got.verdict, got.name, got.samples, got.details) == (word, "n", None, {})


def test_per_component_mixed_passing_words_give_pass():
    parts = [Verdict(TRIVIAL_CASE, details={"a": 1}), Verdict(NOT_APPLICABLE),
             Verdict(PASS, details={"b": 2})]
    got = per_component(parts)
    assert got.verdict == PASS
    assert got.details == {"component_0": {"a": 1}, "component_2": {"b": 2}}


@pytest.mark.parametrize("word", [FAIL, UNDECIDED_AT_PRECISION])
def test_per_component_returns_the_first_part_that_does_not_pass(word):
    bad = Verdict(word, witness="T^{1/5}", samples=7, details={"layer": 1}, name="n")
    later = Verdict(FAIL, witness="later", name="n")
    got = per_component([Verdict(SAMPLED_PASS, samples=3, name="n"), bad, later])
    assert got == Verdict(word, witness="component 1: T^{1/5}", samples=7,
                          details={"layer": 1}, name="n")
