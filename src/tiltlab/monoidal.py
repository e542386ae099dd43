"""The multiplicative (monoidal) map from small tilts back to the tower.

sharp sends a depth-m tilt element x = (x_0, ..., x_m) to lift(x_m)^(p^m),
following the limit formula for the inverse of the tilting bijection.  At
finite depth the limit is replaced by its m-th stage, and the guaranteed
p-adic precision is measured rather than proved: the result is compared
against the (m-1)-st stage and the agreement valuation is reported as
effective_precision, measured on first access.  Lifts are canonical
(coefficients lifted to 0..p-1) unless a generator of randomness is
supplied, which exercises lift-independence.

Both stages raise their lift with LayerElem.p_power, on a precision
ladder: if a = b mod p^k with k >= 1, then a^p = b^p mod p^(k+1), so
a^(p^m) mod p^N depends only on a mod p^max(1, N-m) (Scholze, "Perfectoid
spaces", Lemma 3.4).  The m-th stage is m successive p-th powers, step i
modulo p^max(1, N-m+i), and equals lift(x_m) ** p**m exactly.

The verifiers in this module check, on the finite quotients: the
commutation of sharp with reduction mod the ideal, the induced ring
isomorphism between the tilt modulo its pillar and the layer quotient,
the valuation identity for pillar generators, the idempotent bijection,
and the torsion transfer (trivial for the towers in scope).  Their PASS
is exact except where it rests on seeded samples: the ring-map half of
check_tilt_quotient_iso (its basis bijection is exact) and the two
trials, multiplicativity_trial and lift_independence_trial, which have no
basis reduction because sharp is not additive.  check_sharp_reduction is
decided on the presentation's monomial basis.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .core import ABOVE_PRECISION, Fraction, NotInvertible, ProductElem
from .tilts import SmallTiltElem, ZeroDepth, f_flat_generator, small_tilt
from .towers import MethodDisagreement, ProductTower
from .verdict import FAIL, PASS, TRIVIAL_CASE, Verdict, per_component

# The sampled oracle behind check_sharp_reduction's basis decision.
_ORACLE_SAMPLES = 10
_ORACLE_SEED = 0


@dataclass
class SharpResult:
    """Value of the monoidal map together with its measured precision.

    effective_precision is measured on first access by calling measure,
    then cached; callers that only need the value never pay for the
    comparison stage.  reduced, the value mod the ideal, is cached too.
    """

    value: object
    layer_index: int
    depth: int
    measure: Callable[[], Fraction] = field(repr=False, compare=False)

    @cached_property
    def effective_precision(self) -> Fraction:
        return self.measure()

    @cached_property
    def reduced(self):
        return self.value.ring.reduce_mod_ideal(self.value)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value.to_text(),
            "effective_precision": str(self.effective_precision),
            "layer": self.layer_index,
            "depth": self.depth,
        }


def _lift(handle, n, q, rng=None):
    ring = handle.layer(n)
    lifted = ring.lift(q)
    if rng is not None:
        lifted = lifted + handle.f0(n) * ring.random_element(rng, max_terms=2)
    return lifted


def _image_scale_ok(q, scale: int) -> bool:
    if isinstance(q, ProductElem):
        return all(_image_scale_ok(part, scale) for part in q.parts)
    return all(
        k % scale == 0 and all(j % scale == 0 for j in vt)
        for (k, vt) in q.terms
    )


def sharp(handle, x: SmallTiltElem, rng=None) -> SharpResult:
    """Evaluate the monoidal map on a depth-m tilt element.

    Raises ZeroDepth for m = 0 (no stage to compare against).  The
    codomain membership (value mod ideal lies in the image of the layer-j
    quotient) is asserted; it is the finite-level form of the statement
    that sharp lands in R_j + I * (completion).
    """
    m = x.depth
    if m < 1:
        raise ZeroDepth("sharp needs tilt depth >= 1")
    j = x.layer
    deep = handle.layer(j + m)
    value = _lift(handle, j + m, x.deepest, rng).p_power(m)
    # Draw the (m-1)-st lift now so rng draws keep their order; its power
    # and the stage comparison wait until effective_precision is read.
    prev_lift = _lift(handle, j + m - 1, x.component(m - 1), rng)

    def measure():
        prev = prev_lift.p_power(m - 1)
        v = (value - handle.embed(j + m - 1, j + m, prev)).valuation()
        cap = deep.val_cap
        return cap if v is ABOVE_PRECISION else min(v, cap)

    result = SharpResult(value, j, m, measure)
    if not _image_scale_ok(result.reduced, handle.transition_scale() ** m):
        raise MethodDisagreement(
            "sharp value fails the mod-ideal membership invariant"
        )
    return result


def check_sharp_reduction(handle, j) -> Verdict:
    """reduce(sharp(x)) equals the 0-th projection of x, embedded upward,
    for the full-depth tilt at layer j (depth m = top - j), decided on the
    presentation's monomial basis.

    Both sides are additive in x.  Reduction mod the ideal is a ring map
    and reduce(lift(q)) = q, so reduce(sharp(x)) = x_m^(p^m) in
    quotient(j + m); that quotient has characteristic p (f0 divides p), so
    x -> x_m, x -> x_0, the p^m-th power and tbar are all additive.  Two
    additive maps agree everywhere iff they agree on a basis: this is the
    finite form of x^sharp = x^(0) mod p (Scholze, "Perfectoid spaces",
    Lemma 3.4).  The first basis monomial that differs is the FAIL
    witness; a PASS is exact and records basis_dim.  Monomials past the
    variable cap map to 0 on both sides (_past_cap) and are counted, not
    compared.  As an independent oracle, _ORACLE_SAMPLES multi-term inputs
    over the monomials the basis pass compared, drawn at _ORACLE_SEED, are
    compared too; a mismatch there after a basis pass is a
    MethodDisagreement.
    """
    if isinstance(handle, ProductTower):
        return per_component(check_sharp_reduction(c, j) for c in handle.components)
    m = handle.top - j
    pres = small_tilt(handle, j, m)
    dom = pres.ring
    scale = handle.p**m

    def agrees(pres_elem):
        x = pres.from_presentation(pres_elem)
        return sharp(handle, x).reduced == handle.tbar_multi(j, j + m, x.component(0))

    details = {"layer": j, "depth": m}
    basis = dom.basis_keys()
    in_window = [key for key in basis if not _past_cap(dom, key[1], scale)]
    for key in in_window:
        mono = dom.monomial(*key)
        if not agrees(mono):
            return Verdict(FAIL, witness=mono.to_text(), name="sharp_reduction",
                           details=details)
    rng = random.Random(_ORACLE_SEED)
    width = min(3, len(in_window))  # every key (k, 0) is in it: p >= 2 of them
    for _ in range(_ORACLE_SAMPLES):
        x = dom.zero()
        for key in rng.sample(in_window, width):
            x = x + dom.monomial(*key, rng.randrange(1, dom.p))
        if not agrees(x):
            raise MethodDisagreement(f"diagram fails off the basis at {x.to_text()}")
    details["basis_dim"] = len(basis)
    if len(in_window) < len(basis):
        details["window_restricted_monomials"] = len(basis) - len(in_window)
    return Verdict(PASS, name="sharp_reduction", details=details)


def _past_cap(dom, vt, scale) -> bool:
    """Whether a presentation monomial with variable exponents vt maps to 0
    under sharp and under the projections: both raise it to the scale-th
    (p^m-th) power, which puts its variable degree past the cap."""
    return sum(vt) * scale > dom.var_cap_index


def check_tilt_quotient_iso(handle, j, m, samples=100, seed=0) -> Verdict:
    """The map induced by sharp: tilt mod pillar -> layer quotient.

    Checked as a ring isomorphism: bijective on the monomial basis
    (exact), and multiplicative and additive on `samples` seeded pairs (so
    a PASS rests on samples for its ring-map half).  With variables
    the domain is restricted to the sub-window whose Frobenius images
    stay below the degree cap (recorded in the details).
    """
    if isinstance(handle, ProductTower):
        return per_component(
            check_tilt_quotient_iso(c, j, m, samples, seed + i)
            for i, c in enumerate(handle.components)
        )
    rng = random.Random(seed)
    pres = small_tilt(handle, j, m)
    quot = handle.quotient(j)
    dom = pres.ring
    c_j = handle.ideal_index(j)
    scale = handle.p**m

    def induced(pres_elem):
        red = sharp(handle, pres.from_presentation(pres_elem)).reduced
        return quot.rescale(red, div=scale)  # invert tbar_multi on its image

    hit = set()
    restricted = 0
    for k, vt in dom.basis_keys():
        if k >= c_j:
            continue
        if _past_cap(dom, vt, scale):
            restricted += 1
            continue
        img = induced(dom.monomial(k, vt))
        if len(img.terms) != 1:
            return Verdict(
                FAIL,
                name="tilt_quotient_iso",
                witness=dom.monomial(k, vt).to_text(),
                details={"layer": j, "reason": "monomial image not a monomial"},
            )
        key = next(iter(img.terms))
        if key in hit:
            raise MethodDisagreement(
                f"sharp sends two basis monomials to {quot.monomial(*key).to_text()}"
            )
        hit.add(key)
    missing = [key for key in quot.basis_keys() if key not in hit]
    if missing:
        return Verdict(
            FAIL,
            name="tilt_quotient_iso",
            witness=quot.monomial(*missing[0]).to_text(),
            details={"layer": j, "reason": "not surjective"},
        )
    checked = 0
    for _ in range(samples):
        a = dom.random_element(rng, max_terms=3)
        b = dom.random_element(rng, max_terms=3)
        # representatives below the pillar ideal (dom.ideal_num == c_j)
        a = dom.lift(dom.reduce_mod_ideal(a))
        b = dom.lift(dom.reduce_mod_ideal(b))
        prod = dom.lift(dom.reduce_mod_ideal(a * b))
        image_a, image_b = induced(a), induced(b)
        if induced(prod) != image_a * image_b:
            return Verdict(
                FAIL,
                name="tilt_quotient_iso",
                witness=f"{a.to_text()} * {b.to_text()}",
                details={"layer": j, "reason": "not multiplicative"},
            )
        if induced(a + b) != image_a + image_b:
            return Verdict(
                FAIL,
                name="tilt_quotient_iso",
                witness=f"{a.to_text()} + {b.to_text()}",
                details={"layer": j, "reason": "not additive"},
            )
        checked += 1
    details = {"layer": j, "depth": m, "basis_dim": len(hit)}
    if restricted:
        details["window_restricted_monomials"] = restricted
    return Verdict(PASS, name="tilt_quotient_iso", samples=checked, details=details)


def check_pillar_valuation(handle, j, seed=None) -> Verdict:
    """valuation(sharp(tilt pillar)) equals valuation(layer pillar), and
    their ratio is a unit at precision, for the full-depth tilt at layer j."""
    if isinstance(handle, ProductTower):
        return per_component(check_pillar_valuation(c, j, seed) for c in handle.components)
    m = handle.top - j
    rng = random.Random(seed) if seed is not None else None
    fj_flat = f_flat_generator(handle, j, m)
    result = sharp(handle, fj_flat, rng=rng)
    fj = handle.pillar_elem(j)
    want = fj.valuation()
    got = result.value.valuation()
    if got != want:
        return Verdict(
            FAIL,
            name="pillar_valuation",
            witness=result.value.to_text(),
            details={"layer": j, "expected": str(want), "got": str(got)},
        )
    fj_deep = handle.embed(j, j + m, fj)
    unit_ok, unit_text = _unit_ratio(handle.layer(j + m), result.value, fj_deep)
    if not unit_ok:
        return Verdict(
            FAIL,
            name="pillar_valuation",
            witness=result.value.to_text(),
            details={"layer": j, "reason": "ratio is not a unit at precision"},
        )
    return Verdict(
        PASS,
        name="pillar_valuation",
        details={"layer": j, "valuation": str(want), "unit": unit_text},
    )


def _unit_ratio(ring, value, monomial_elem):
    """value / monomial as a unit certificate.

    The divisor's coefficient may carry p-powers (t-index folds at the
    Eisenstein relation), so the division uses the absolute index and the
    coefficient's unit part, whose p-power is p^((absolute - t-index) / e).
    """
    (k, _), c = next(iter(monomial_elem.terms.items()))
    idx = monomial_elem.index_valuation()
    unit = c // ring.p ** ((idx - k) // ring.e)
    try:
        q = value.divide_by_monomial(idx)
        q = q * pow(unit, -1, ring.coeff_mod)
        ring.invert(q)
    except (ValueError, NotInvertible):
        return False, ""
    return True, q.to_text()


def idempotent_bijection(handle) -> Verdict:
    """sharp restricts to a bijection tilt idempotents -> layer idempotents,
    inverted by the constant-sequence map.

    Idempotent enumeration is complete: each local factor of these rings
    has exactly {0, 1} (unique Hensel lifts along the nilpotent maximal
    ideal), and products multiply componentwise.
    """
    j, m = handle.start, handle.depth
    pres = small_tilt(handle, j, m)
    deep_ring = handle.layer(j + m)
    deep_quot = handle.quotient(j + m)
    tilt_idems = pres.ring.idempotents()
    layer_idems = deep_ring.idempotents()
    for e in tilt_idems:  # enumeration sanity: these really are idempotent
        if e * e != e:
            raise MethodDisagreement(f"{e.to_text()} is not idempotent")
    if len(tilt_idems) != len(layer_idems):
        return Verdict(
            FAIL,
            name="idempotent_bijection",
            witness=f"{len(tilt_idems)} tilt vs {len(layer_idems)} layer idempotents",
        )
    matched = []
    layer_pool = list(layer_idems)
    for e_flat in tilt_idems:
        x = pres.from_presentation(e_flat)
        result = sharp(handle, x)
        value = result.value
        if value not in layer_pool:
            raise MethodDisagreement(
                f"sharp sends the idempotent {pres.text_of(x)} to "
                f"{value.to_text()}, not an unmatched layer idempotent"
            )
        layer_pool.remove(value)
        # Inverse direction: the constant sequence of the image returns x.
        back = SmallTiltElem(handle, j, m, result.reduced)
        if back != x:
            raise MethodDisagreement(
                f"the constant sequence of sharp({pres.text_of(x)}) does not return it"
            )
        matched.append((pres.text_of(x), value.to_text()))
    return Verdict(
        PASS,
        name="idempotent_bijection",
        details={"count": len(matched), "matched": matched},
    )


def torsion_bijection(handle, tilt_pillar_override=None) -> Verdict:
    """Compare pillar-torsion of each layer below the top with its tilt
    presentation at full depth (a depth-0 tilt carries no pillar).

    For the towers in scope both sides are torsion-free, so the verdict
    records the isomorphism in the trivial case; a mismatch (possible on
    tampered inputs) is a FAIL with the offending side reported.
    """
    if isinstance(handle, ProductTower):
        return per_component(
            torsion_bijection(c, tilt_pillar_override) for c in handle.components
        )
    levels = {}
    for j in range(handle.start, handle.top):
        pres = small_tilt(handle, j, handle.top - j)
        layer_rep = handle.layer(j).torsion_submodule(handle.pillar_elem(j))
        tilt_f = (
            tilt_pillar_override(pres)
            if tilt_pillar_override is not None
            else pres.ring.f0()
        )
        tilt_rep = pres.ring.torsion_submodule(tilt_f)
        levels[str(j)] = {
            "layer_genuine": len(layer_rep.genuine),
            "tilt_genuine": len(tilt_rep.genuine),
            "layer_flags": list(layer_rep.flags),
            "tilt_flags": list(tilt_rep.flags),
        }
        if len(layer_rep.genuine) != len(tilt_rep.genuine):
            return Verdict(
                FAIL,
                name="torsion_bijection",
                witness=f"layer {j}: {len(layer_rep.genuine)} vs "
                f"{len(tilt_rep.genuine)} genuine torsion generators",
                details=levels,
            )
    trivial = all(
        row["layer_genuine"] == 0 and row["tilt_genuine"] == 0
        for row in levels.values()
    )
    return Verdict(
        TRIVIAL_CASE if trivial else PASS,
        name="torsion_bijection",
        details=levels,
    )


def multiplicativity_trial(handle, j, m, pairs=500, seed=0) -> Verdict:
    """sharp(x*y) agrees with sharp(x)*sharp(y) to the measured precision."""
    rng = random.Random(seed)
    pres = small_tilt(handle, j, m)
    failures = 0
    worst = None
    for _ in range(pairs):
        x = pres.random_element(rng, max_terms=3)
        y = pres.random_element(rng, max_terms=3)
        sx = sharp(handle, x)
        sy = sharp(handle, y)
        sxy = sharp(handle, x * y)
        v = (sxy.value - sx.value * sy.value).valuation()
        # The bound is read only when it decides: a zero difference passes.
        if v is not ABOVE_PRECISION and v < min(
            sx.effective_precision, sy.effective_precision
        ):
            failures += 1
            worst = f"{pres.text_of(x)} * {pres.text_of(y)}"
    verdict = PASS if failures == 0 else FAIL
    return Verdict(
        verdict,
        name="sharp_multiplicativity",
        samples=pairs,
        witness=worst,
        details={"failures": failures, "layer": j, "depth": m},
    )


def lift_independence_trial(handle, j, m, trials=100, seed=0) -> Verdict:
    """Randomized lifts change sharp by at most its effective precision."""
    rng = random.Random(seed)
    pres = small_tilt(handle, j, m)
    failures = 0
    worst = None
    for _ in range(trials):
        x = pres.random_element(rng, max_terms=3)
        s0 = sharp(handle, x)
        s1 = sharp(handle, x, rng=rng)
        v = (s0.value - s1.value).valuation()
        if v is not ABOVE_PRECISION and v < min(
            s0.effective_precision, s1.effective_precision
        ):
            failures += 1
            worst = pres.text_of(x)
    verdict = PASS if failures == 0 else FAIL
    return Verdict(
        verdict,
        name="sharp_lift_independence",
        samples=trials,
        witness=worst,
        details={"failures": failures, "layer": j, "depth": m},
    )
