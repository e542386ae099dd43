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
modulo p^max(1, N-m+i), and equals lift(x_m) ** p**m exactly.  The
ladder follows the valuation v of the lift, which is exact on the
monogenic layer (a truncated DVR): sharp sends T^k to p^k, so a lift of
index v with p^m * v >= e*N has power 0, and p_power returns it without
a product; a lift t^v * w with v > 0 raises only its unit part w, on a
ladder q digits shorter where t^(p^m * v) = p^q * t^s.  Most sampled
tilt elements of the battery's towers take the first path.

The verifiers in this module check, on the finite quotients: the
commutation of sharp with reduction mod the ideal, the induced ring
isomorphism between the tilt modulo its pillar and the layer quotient,
the valuation identity for pillar generators, the idempotent bijection,
and the torsion transfer (trivial for the towers in scope).  Their PASS
is exact except where it rests on seeded samples: the two trials,
multiplicativity_trial and lift_independence_trial, which have no basis
reduction because sharp is not additive.  Both trials run through one
seeded loop, _sharp_trial, and differ only in what they draw.

check_sharp_reduction and check_tilt_quotient_iso are decided on the
presentation's monomial basis, on keys.  A basis monomial's lift has one
term with coefficient 1, so its p^m-th power is one key:
TowerHandle.sharp_key, the key times p^m folded through t^e = p.
Reduced mod the ideal it is the key times p^m, or 0 where a fold leaves a
factor p or the index reaches the ideal.  The reduction diagram compares
that with m frob_key steps down and m tbar_key steps up; the iso divides
it by p^m, and decides that the linear extension of those images is a
ring map on every generator times basis monomial (core.ring_map_defect).
Neither check calls an element map of the tower.  Element sharp stays as
the oracle of both: check_sharp_reduction's seeded multi-term inputs and
the iso's seeded basis monomials go through it, and a mismatch with the
key path is a MethodDisagreement.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .core import ABOVE_PRECISION, Fraction, NotInvertible, ProductElem, ring_map_defect
from .tilts import SmallTiltElem, ZeroDepth, f_flat_generator, small_tilt
from .towers import MethodDisagreement, ProductTower
from .verdict import FAIL, PASS, TRIVIAL_CASE, Verdict, per_component

# The element oracles behind the basis decisions: check_sharp_reduction's
# multi-term inputs and check_tilt_quotient_iso's basis monomials.
_ORACLE_SAMPLES = 10
_ORACLE_KEYS = 3
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
    return _keys_scale_ok(q.terms, scale)


def _keys_scale_ok(keys, scale: int) -> bool:
    return all(k % scale == 0 and all(j % scale == 0 for j in vt) for (k, vt) in keys)


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
    # With an rng, the (m-1)-st lift is drawn now so draws keep their order;
    # otherwise that stage waits, with the comparison, for measure().
    prev_lift = None if rng is None else _lift(handle, j + m - 1, x.component(m - 1), rng)

    def measure():
        lift = _lift(handle, j + m - 1, x.component(m - 1)) if rng is None else prev_lift
        prev = lift.p_power(m - 1)
        v = (value - handle.embed(j + m - 1, j + m, prev)).valuation()
        cap = deep.val_cap
        return cap if v is ABOVE_PRECISION else min(v, cap)

    result = SharpResult(value, j, m, measure)
    if not _image_scale_ok(result.reduced, handle.transition_scale() ** m):
        raise MethodDisagreement(
            "sharp value fails the mod-ideal membership invariant"
        )
    return result


def _reduced_sharp_keys(handle, j, m):
    """reduce(sharp(x)) for x presented by one basis key of the depth-m
    presentation at layer j, as a function of the key: (terms, lossy) in
    quotient(j + m).

    The presentation copies the key into quotient(j + m), which may drop
    it; sharp_key raises its lift; reduction keeps a term whose coefficient
    is nonzero mod p and whose t-index lies below the deep layer's ideal
    index.  A term that folded through t^e = p carries a factor p, so what
    is left is the key times p^m with coefficient 1, or nothing.  Every
    index of what is left must be divisible by p^m, the membership
    invariant sharp asserts on elements.
    """
    quot, deep = handle.quotient(j + m), handle.layer(j + m)
    p, cut, scale = handle.p, deep.ideal_num, handle.p**m

    def image(key):
        deepest, lossy = quot.key_image(key)
        if not deepest:
            return deepest, lossy
        terms, lossy = handle.sharp_key(j, m, key, lossy)
        terms = {k: r for k, c in terms.items() if k[0] < cut and (r := c % p)}
        if not _keys_scale_ok(terms, scale):
            raise MethodDisagreement(
                f"sharp_key at layer {j}, depth {m} fails the mod-ideal "
                f"membership invariant on the key {key}"
            )
        return terms, lossy

    return image


def _reduction_chains(handle, j, m):
    """x -> tbar^m(x_0) for x presented by one basis key of the depth-m
    presentation at layer j, as a function of the key: (terms, lossy) in
    quotient(j + m), by m frob_key steps down from quotient(j + m) and m
    tbar_key steps up.

    A chain returns as soon as an image is empty.  A single key with
    coefficient 1, which is what the honest maps make of a basis key, goes
    to the next hook as it is; other terms go through _map_terms, the
    linear extension the element maps use.
    """
    quot = handle.quotient(j + m)
    steps = [(handle.frob_key, n, handle.quotient(n)) for n in range(j + m - 1, j - 1, -1)]
    steps += [(handle.tbar_key, n, handle.quotient(n + 1)) for n in range(j, j + m)]

    def chain(key):
        terms, lossy = quot.key_image(key)
        for hook, n, dst in steps:
            if not terms:
                break
            if len(terms) == 1 and (item := next(iter(terms.items())))[1] == 1:
                terms, lossy = hook(n, item[0], lossy)
            else:
                terms, lossy = handle._map_terms(hook, n, dst, terms, lossy)
        return terms, lossy

    return chain


def check_sharp_reduction(handle, j) -> Verdict:
    """reduce(sharp(x)) equals the 0-th projection of x, embedded upward,
    for the full-depth tilt at layer j (depth m = top - j), decided on the
    presentation's monomial basis.

    Both sides are additive in x.  Reduction mod the ideal is a ring map
    and reduce(lift(q)) = q, so reduce(sharp(x)) = x_m^(p^m) in
    quotient(j + m); that quotient has characteristic p (f0 divides p), so
    x -> x_m, x -> x_0, the p^m-th power and tbar are all additive.  Two
    additive maps agree everywhere iff they agree on a basis: this is the
    finite form of x^sharp = x^(0) mod p (Fontaine, Asterisque 223;
    Scholze, "Perfectoid spaces", Lemma 3.4).

    The basis pass runs on keys and builds no element.  On a basis key the
    left side is the reduced sharp_key image, the key times p^m where that
    stays below the ideal index (_reduced_sharp_keys); the right side is m
    frob_key steps down and m tbar_key steps up (_reduction_chains).  The
    first basis monomial whose sides differ is the FAIL witness; a PASS is
    exact and records basis_dim.  Monomials past the variable cap map to 0
    on both sides (_past_cap) and are counted, not compared.

    The element maps are the independent oracle: _ORACLE_SAMPLES multi-term
    inputs over the monomials the basis pass compared, drawn at
    _ORACLE_SEED, go through element sharp and through tbar_multi of their
    0-th projection, and both must equal the key path extended linearly.
    A mismatch there after a basis pass is a MethodDisagreement.
    """
    if isinstance(handle, ProductTower):
        return per_component(check_sharp_reduction(c, j) for c in handle.components)
    m = handle.top - j
    pres = small_tilt(handle, j, m)
    dom = pres.ring
    scale = handle.p**m
    sharp_side, chain_side = _reduced_sharp_keys(handle, j, m), _reduction_chains(handle, j, m)

    details = {"layer": j, "depth": m}
    basis = dom.basis_keys()
    in_window = [key for key in basis if not _past_cap(dom, key[1], scale)]
    for key in in_window:
        if sharp_side(key)[0] != chain_side(key)[0]:
            return Verdict(FAIL, witness=dom.monomial(*key).to_text(),
                           name="sharp_reduction", details=details)
    rng = random.Random(_ORACLE_SEED)
    width = min(3, len(in_window))  # every key (k, 0) is in it: p >= 2 of them
    quot = handle.quotient(j + m)
    for _ in range(_ORACLE_SAMPLES):
        x = dom.zero()
        for key in rng.sample(in_window, width):
            x = x + dom.monomial(*key, rng.randrange(1, dom.p))
        keyed, _ = handle._map_terms(lambda n, key, lossy: sharp_side(key), j, quot, x.terms, False)
        tilt = pres.from_presentation(x)
        if not (
            sharp(handle, tilt).reduced.terms
            == keyed
            == handle.tbar_multi(j, j + m, tilt.component(0)).terms
        ):
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


def check_tilt_quotient_iso(handle, j, m) -> Verdict:
    """The map induced by sharp: tilt mod pillar -> layer quotient.

    Decided as a ring isomorphism: bijective on the monomial basis, and a
    ring map by core.ring_map_defect on the linear extension of the basis
    images.  With variables the bijection is restricted to the sub-window
    whose Frobenius images stay below the degree cap (recorded in the
    details); the monomials past it map to 0.

    Both halves run on keys and call no element map.  A basis key's image
    is its reduced sharp_key image (_reduced_sharp_keys) with every index
    divided by p^m, which inverts tbar_multi on its image.  The first basis
    monomial whose image is not one key, or is a key already hit, is the
    FAIL witness, and so is the first quotient monomial not hit.  The
    induced map is additive, as x -> x_m^(p^m) is into a characteristic-p
    quotient (check_sharp_reduction), so it is a ring map iff it sends 1 to
    1, the quotient's characteristic is p, and it is multiplicative on
    every generator times basis monomial; a PASS records ring_map_checks,
    the products compared.  Element sharp is the oracle: after the
    bijection, _ORACLE_KEYS of the compared basis monomials, drawn at
    _ORACLE_SEED, go through it, and one whose element image differs from
    its key image is a MethodDisagreement.
    """
    if isinstance(handle, ProductTower):
        return per_component(check_tilt_quotient_iso(c, j, m) for c in handle.components)
    pres = small_tilt(handle, j, m)
    quot = handle.quotient(j)
    dom = pres.ring.quotient_ring()  # the pillar ideal is dom's: ideal_num == c_j
    scale = handle.p**m
    sharp_side = _reduced_sharp_keys(handle, j, m)

    def fail(witness, reason):
        return Verdict(FAIL, name="tilt_quotient_iso", witness=witness,
                       details={"layer": j, "reason": reason})

    images, hit = {}, set()
    for k, vt in dom.basis_keys():
        img = images[(k, vt)] = {}
        if _past_cap(dom, vt, scale):
            continue
        for (ki, vi), c in sharp_side((k, vt))[0].items():
            ki, vi = ki // scale, tuple([v // scale for v in vi])
            if quot.keeps_key(ki, vi):
                img[(ki, vi)] = c
        if len(img) != 1:
            return fail(dom.monomial(k, vt).to_text(), "monomial image not a monomial")
        if next(iter(img)) in hit:
            return fail(dom.monomial(k, vt).to_text(), "not injective")
        hit.update(img)
    missing = [key for key in quot.basis_keys() if key not in hit]
    if missing:
        return fail(quot.monomial(*missing[0]).to_text(), "not surjective")
    compared = [key for key, img in images.items() if img]
    for key in random.Random(_ORACLE_SEED).sample(compared, min(_ORACLE_KEYS, len(compared))):
        mono = pres.ring.monomial(*key)
        red = sharp(handle, pres.from_presentation(mono)).reduced
        if quot.rescale(red, div=scale).terms != images[key]:
            raise MethodDisagreement(
                f"sharp and sharp_key disagree on {mono.to_text()} mod the ideal"
            )

    def induced(x):  # the linear extension of the basis images
        return sum((quot.monomial(*key, c * d) for dom_key, c in x.terms.items()
                    for key, d in images[dom_key].items()), quot.zero())

    defect, checks = ring_map_defect(dom, induced)
    if defect:
        reason, witness = defect
        return fail(witness, reason)
    details = {"layer": j, "depth": m, "basis_dim": len(hit), "ring_map_checks": checks}
    if len(hit) < len(images):
        details["window_restricted_monomials"] = len(images) - len(hit)
    return Verdict(PASS, name="tilt_quotient_iso", details=details)


def check_pillar_valuation(handle, j, seed=None) -> Verdict:
    """valuation(sharp(tilt pillar)) equals valuation(layer pillar), and
    their ratio is a unit at precision, for the full-depth tilt at layer j."""
    if isinstance(handle, ProductTower):
        return per_component(
            check_pillar_valuation(c, j, None if seed is None else seed + i)
            for i, c in enumerate(handle.components)
        )
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
    """value / monomial as a unit certificate.  The monomial's coefficient
    may carry p-powers (t^e = p), so both are divided by t to its absolute
    index, which leaves the divisor a unit constant."""
    idx = monomial_elem.index_valuation()
    try:
        q = value.divide_by_monomial(idx) * ring.invert(monomial_elem.divide_by_monomial(idx))
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


def _sharp_trial(name, handle, j, m, draws, seed, draw) -> Verdict:
    """The loop of both trials: draw(handle, pres, rng) gives the two sides'
    difference, the SharpResults (a, b) whose precisions bound it, and the
    draw's text as a function, read for the witness only on a failure."""
    if isinstance(handle, ProductTower):
        return per_component(
            _sharp_trial(name, c, j, m, draws, seed + i, draw)
            for i, c in enumerate(handle.components)
        )
    rng = random.Random(seed)
    pres = small_tilt(handle, j, m)
    failures, worst = 0, None
    for _ in range(draws):
        difference, (a, b), witness = draw(handle, pres, rng)
        v = difference.valuation()
        # The bound is read only when it decides: a zero difference passes.
        if v is not ABOVE_PRECISION and v < min(a.effective_precision, b.effective_precision):
            failures += 1
            worst = witness()
    return Verdict(
        PASS if failures == 0 else FAIL,
        name=name,
        samples=draws,
        witness=worst,
        details={"failures": failures, "layer": j, "depth": m},
    )


def multiplicativity_trial(handle, j, m, pairs=500, seed=0) -> Verdict:
    """sharp(x*y) agrees with sharp(x)*sharp(y) to the measured precision."""

    def draw(handle, pres, rng):
        x = pres.random_element(rng, max_terms=3)
        y = pres.random_element(rng, max_terms=3)
        sx, sy, sxy = sharp(handle, x), sharp(handle, y), sharp(handle, x * y)
        return (sxy.value - sx.value * sy.value, (sx, sy),
                lambda: f"{pres.text_of(x)} * {pres.text_of(y)}")

    return _sharp_trial("sharp_multiplicativity", handle, j, m, pairs, seed, draw)


def lift_independence_trial(handle, j, m, trials=100, seed=0) -> Verdict:
    """Randomized lifts change sharp by at most its effective precision."""

    def draw(handle, pres, rng):
        x = pres.random_element(rng, max_terms=3)
        s0 = sharp(handle, x)
        s1 = sharp(handle, x, rng=rng)
        return s0.value - s1.value, (s0, s1), lambda: pres.text_of(x)

    return _sharp_trial("sharp_lift_independence", handle, j, m, trials, seed, draw)
