"""The shared verdict type: which words pass, and the JSON shape of labels."""

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
