"""The multiplicative (monoidal) map from small tilts back to the tower.

sharp sends a depth-m tilt element x = (x_0, ..., x_m) to lift(x_m)^(p^m),
following the limit formula for the inverse of the tilting bijection.  At
finite depth the limit is replaced by its m-th stage, and the guaranteed
p-adic precision is measured rather than proved: the result is compared
against the (m-1)-st stage and the agreement valuation is reported as
effective_precision, measured on first access.  Lifts are canonical
(coefficients lifted to 0..p-1) unless a generator of randomness is
supplied, which exercises lift-independence.

The verifiers in this module check, exactly on the finite quotients: the
commutation of sharp with reduction mod the ideal, the induced ring
isomorphism between the tilt modulo its pillar and the layer quotient,
the valuation identity for pillar generators, the idempotent bijection,
and the torsion transfer (trivial for the towers in scope).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .core import (
    ABOVE_PRECISION,
    MIXED,
    Fraction,
    NotInvertible,
    ProductElem,
    _vp,
)
from .tilts import SmallTiltElem, ZeroDepth, f_flat_generator, small_tilt
from .towers import MethodDisagreement, ProductTower
from .verdict import FAIL, PASS, TRIVIAL_CASE, Verdict


@dataclass
class SharpResult:
    """Value of the monoidal map together with its measured precision.

    effective_precision is measured on first access by calling measure,
    then cached; callers that only need the value never pay for the
    comparison stage.
    """

    value: object
    layer_index: int
    depth: int
    measure: Callable[[], Fraction] = field(repr=False, compare=False)

    @cached_property
    def effective_precision(self) -> Fraction:
        return self.measure()

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


def _tbar_preimage(handle, j, n, q):
    """Invert the composite reduction map on its image (index division)."""
    scale = handle.transition_scale() ** (n - j)
    return handle.quotient(j)._from_items(
        [
            (k // scale, tuple(x // scale for x in vt), c)
            for (k, vt), c in q.terms.items()
        ],
        q.lossy,
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
    p = handle.p
    deep = handle.layer(j + m)
    value = _lift(handle, j + m, x.deepest, rng) ** (p**m)
    # Draw the (m-1)-st lift now so rng draws keep their order; its power
    # and the stage comparison wait until effective_precision is read.
    prev_lift = _lift(handle, j + m - 1, x.component(m - 1), rng)

    def measure():
        prev = prev_lift ** (p ** (m - 1))
        v = (value - handle.embed(j + m - 1, j + m, prev)).valuation()
        cap = deep.val_cap
        return cap if v is ABOVE_PRECISION else min(v, cap)

    red = deep.reduce_mod_ideal(value)
    if not _image_scale_ok(red, handle.transition_scale() ** m):
        raise MethodDisagreement(
            "sharp value fails the mod-ideal membership invariant"
        )
    return SharpResult(value, j, m, measure)


def check_sharp_reduction(handle, j, samples=100, seed=0, m=None) -> Verdict:
    """reduce(sharp(x)) equals the 0-th projection of x, embedded upward.

    This is the commuting triangle tying the monoidal map to the quotient
    projections; it holds exactly at truncation for every element.
    """
    import random

    rng = random.Random(seed)
    m = handle.top - j if m is None else m
    pres = small_tilt(handle, j, m)
    deep = handle.layer(j + m)
    checked = 0
    for x in _sample_tilts(pres, rng, samples):
        lhs = deep.reduce_mod_ideal(sharp(handle, x).value)
        rhs = handle.tbar_multi(j, j + m, x.component(0))
        if lhs != rhs:
            return Verdict(
                FAIL,
                name="sharp_reduction",
                witness=pres.text_of(x),
                details={"layer": j, "depth": m},
            )
        checked += 1
    return Verdict(
        PASS,
        name="sharp_reduction",
        samples=checked,
        details={"layer": j, "depth": m},
    )


def _sample_tilts(pres, rng, samples):
    yield pres.from_presentation(pres.ring.zero())
    yield pres.from_presentation(pres.ring.one())
    yield pres.generator()
    for _ in range(samples):
        yield pres.random_element(rng, max_terms=3)


def check_tilt_quotient_iso(handle, j, m, samples=100, seed=0) -> Verdict:
    """The map induced by sharp: tilt mod pillar -> layer quotient.

    Checked as a ring isomorphism on the nose: bijective on the monomial
    basis and multiplicative/additive on sampled pairs.  With variables
    the domain is restricted to the sub-window whose Frobenius images
    stay below the degree cap (recorded in the details).
    """
    import random

    if isinstance(handle, ProductTower):
        parts = [
            check_tilt_quotient_iso(c, j, m, samples=samples, seed=seed + i)
            for i, c in enumerate(handle.components)
        ]
        bad = next((p for p in parts if not p.ok()), None)
        if bad is not None:
            return bad
        return Verdict(
            PASS,
            name="tilt_quotient_iso",
            samples=sum(p.samples or 0 for p in parts),
            details={"components": [p.details for p in parts]},
        )
    rng = random.Random(seed)
    pres = small_tilt(handle, j, m)
    quot = handle.quotient(j)
    dom = pres.ring
    c_j = handle.ideal_index(j)
    scale = handle.p**m

    def induced(pres_elem):
        x = pres.from_presentation(pres_elem)
        value = sharp(handle, x).value
        red = handle.layer(j + m).reduce_mod_ideal(value)
        return _tbar_preimage(handle, j, j + m, red)

    hit = set()
    restricted = 0
    for k, vt in dom.basis_keys():
        if k >= c_j:
            continue
        if vt and Fraction(sum(vt) * scale, dom.var_den) > dom.var_cap:
            restricted += 1  # image would overflow the cap: out of window
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
            return Verdict(
                FAIL,
                name="tilt_quotient_iso",
                witness=dom.monomial(k, vt).to_text(),
                details={"layer": j, "reason": "not injective"},
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
    pillar_bar = dom.f0()
    checked = 0
    for _ in range(samples):
        a = dom.random_element(rng, max_terms=3)
        b = dom.random_element(rng, max_terms=3)
        a = a - _pillar_part(dom, a, c_j)
        b = b - _pillar_part(dom, b, c_j)
        prod = a * b
        prod = prod - _pillar_part(dom, prod, c_j)
        if induced(prod) != induced(a) * induced(b):
            return Verdict(
                FAIL,
                name="tilt_quotient_iso",
                witness=f"{a.to_text()} * {b.to_text()}",
                details={"layer": j, "reason": "not multiplicative"},
            )
        if induced(a + b) != induced(a) + induced(b):
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


def _pillar_part(ring, x, c_j):
    """Terms with t-index >= c_j (the pillar-ideal part of a presentation)."""
    return ring._from_items(
        [(k, vt, c) for (k, vt), c in x.terms.items() if k >= c_j]
    )


def check_pillar_valuation(handle, j, m=None, seed=None) -> Verdict:
    """valuation(sharp(tilt pillar)) equals valuation(layer pillar), and
    their ratio is a unit at precision."""
    import random

    m = handle.top - j if m is None else m
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
    unit_ok, unit_text = _unit_ratio(handle, j + m, result.value, fj_deep)
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


def _unit_ratio(handle, n, value, monomial_elem):
    """value / monomial as a unit certificate (componentwise on products).

    The divisor's coefficient may carry p-powers (t-index folds at the
    Eisenstein relation), so the division uses the absolute index and the
    coefficient's unit part.
    """
    if isinstance(handle, ProductTower):
        texts = []
        for comp, v_part, m_part in zip(
            handle.components, value.parts, monomial_elem.parts
        ):
            ok, text = _unit_ratio(comp, n, v_part, m_part)
            if not ok:
                return False, text
            texts.append(text)
        return True, "(" + " | ".join(texts) + ")"
    ring = handle.layer(n)
    (k, _), c = next(iter(monomial_elem.terms.items()))
    a = _vp(c, ring.p, ring.n_digits) if ring.mode == MIXED else 0
    unit = c // ring.p**a
    try:
        q = value.divide_by_monomial(k + a * ring.e)
        q = q * pow(unit, -1, ring.coeff_mod)
        ring.invert(q)
    except (ValueError, NotInvertible):
        return False, ""
    return True, q.to_text()


def idempotent_bijection(handle, m=None) -> Verdict:
    """sharp restricts to a bijection tilt idempotents -> layer idempotents,
    inverted by the constant-sequence map.

    Idempotent enumeration is complete: each local factor of these rings
    has exactly {0, 1} (unique Hensel lifts along the nilpotent maximal
    ideal), and products multiply componentwise.
    """
    j = handle.start
    m = handle.depth if m is None else m
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
        value = sharp(handle, x).value
        if value not in layer_pool:
            return Verdict(
                FAIL,
                name="idempotent_bijection",
                witness=pres.text_of(x),
                details={"reason": "sharp image is not a layer idempotent"},
            )
        layer_pool.remove(value)
        # Inverse direction: the constant sequence of the image returns x.
        back = SmallTiltElem(handle, j, m, deep_ring.reduce_mod_ideal(value))
        if back != x:
            return Verdict(
                FAIL,
                name="idempotent_bijection",
                witness=pres.text_of(x),
                details={"reason": "constant-sequence inverse fails"},
            )
        matched.append((pres.text_of(x), value.to_text()))
    return Verdict(
        PASS,
        name="idempotent_bijection",
        details={"count": len(matched), "matched": matched},
    )


def torsion_bijection(handle, m=None, tilt_pillar_override=None) -> Verdict:
    """Compare pillar-torsion of each layer with its tilt presentation.

    For the towers in scope both sides are torsion-free, so the verdict
    records the isomorphism in the trivial case; a mismatch (possible on
    tampered inputs) is a FAIL with the offending side reported.
    """
    levels = {}
    for j in range(handle.start, handle.top + 1):
        mj = m if m is not None else handle.top - j
        if mj < 1 or j + mj > handle.top:
            continue  # a depth-0 tilt carries no pillar to compare
        pres = small_tilt(handle, j, mj)
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
    import random

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
        bound = min(sx.effective_precision, sy.effective_precision)
        diff = sxy.value - sx.value * sy.value
        v = diff.valuation()
        if v is not ABOVE_PRECISION and v < bound:
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
    import random

    rng = random.Random(seed)
    pres = small_tilt(handle, j, m)
    failures = 0
    worst = None
    for _ in range(trials):
        x = pres.random_element(rng, max_terms=3)
        s0 = sharp(handle, x)
        s1 = sharp(handle, x, rng=rng)
        bound = min(s0.effective_precision, s1.effective_precision)
        v = (s0.value - s1.value).valuation()
        if v is not ABOVE_PRECISION and v < bound:
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
