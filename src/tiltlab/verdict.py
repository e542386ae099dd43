"""The one result type of every verifier, and its vocabulary.

Tower axioms, the checks on the monoidal map and the closure checks all
return a Verdict.  The words are part of the report bytes:

- PASS: exact pass (axioms and monoidal checks); check_sharp_reduction is
  decided on the tilt presentation's monomial basis.  Not yet exact, and
  still PASS on seeded samples: the ring-map half of
  check_tilt_quotient_iso (its basis bijection is exact) and the two
  trials, multiplicativity_trial and lift_independence_trial.
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

Product towers have one rule, per_component: tilts, sharp and the
projections act componentwise, so a check on a ProductTower runs on each
component and combines the parts; a seeded check, the two trials
included, runs component i at seed + i.  The first part that does not
pass is the product's verdict, its witness prefixed "component i: ".
Otherwise the product is sampled if any part is, else it keeps the word
its parts share (PASS when they differ); samples are summed and each
part's details sit under "component_i".  idempotent_bijection alone is
decided on the product ring, because its statement counts the product's
idempotents.
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

SAMPLED = frozenset({SAMPLED_PASS, PASS_SAMPLED})
PASSING = frozenset({PASS, PASS_EXACT, TRIVIAL_CASE, NOT_APPLICABLE}) | SAMPLED


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


def per_component(parts) -> Verdict:
    """Combine the verdicts of a product tower's components, in order."""
    parts = list(parts)
    for i, v in enumerate(parts):
        if not v.ok():
            return Verdict(v.verdict, witness=f"component {i}: {v.witness}",
                           samples=v.samples, details=v.details, name=v.name)
    sampled = [v.verdict for v in parts if v.verdict in SAMPLED]
    words = {v.verdict for v in parts}
    if sampled:
        word = sampled[0]
    else:
        word = words.pop() if len(words) == 1 else PASS
    counts = [v.samples for v in parts if v.samples is not None]
    return Verdict(
        word,
        samples=sum(counts) if counts else None,
        details={f"component_{i}": v.details for i, v in enumerate(parts) if v.details},
        name=parts[0].name,
    )
