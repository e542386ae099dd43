"""The one result type of every verifier, and its vocabulary.

Tower axioms, the checks on the monoidal map and the closure checks all
return a Verdict.  The words are part of the report bytes:

- PASS: exact pass (axioms and monoidal checks).
- PASS_EXACT: exact pass (closure checks).  Root closure on a monogenic
  layer's localization is decided by the valuation, with multiplicativity
  checked at every absolute index below the cap; on an extension pair it
  enumerates B.
- SAMPLED_PASS, PASS_SAMPLED: no counterexample among seeded samples
  (axioms, closure checks).
- TRIVIAL_CASE: the statement holds because both sides are trivial.
- NOT_APPLICABLE: the statement does not apply to the input.
- FAIL: a counterexample, reported as the witness.
- UNDECIDED_AT_PRECISION: a bounded search found nothing; not a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
PASS_EXACT = "PASS_EXACT"
SAMPLED_PASS = "SAMPLED_PASS"
PASS_SAMPLED = "PASS_SAMPLED"
TRIVIAL_CASE = "TRIVIAL_CASE"
NOT_APPLICABLE = "NOT_APPLICABLE"
FAIL = "FAIL"
UNDECIDED_AT_PRECISION = "UNDECIDED_AT_PRECISION"

PASSING = frozenset(
    {PASS, PASS_EXACT, SAMPLED_PASS, PASS_SAMPLED, TRIVIAL_CASE, NOT_APPLICABLE}
)


@dataclass
class Verdict:
    """A check's outcome; name labels monoidal checks, property closure checks."""

    verdict: str
    witness: str | None = None
    samples: int | None = None
    details: dict = field(default_factory=dict)
    name: str | None = None
    property: str | None = None

    def ok(self) -> bool:
        return self.verdict in PASSING

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict}
        for key in ("name", "property", "witness", "samples"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.details:
            out["details"] = self.details
        return out
