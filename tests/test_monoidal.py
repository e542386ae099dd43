"""The monoidal map: exact values, measured precision, diagrams, idempotent
and torsion transfer."""

import random
from fractions import Fraction

import pytest

from tiltlab.core import ABOVE_PRECISION
from tiltlab.monoidal import (
    check_pillar_valuation,
    check_sharp_reduction,
    check_tilt_quotient_iso,
    idempotent_bijection,
    lift_independence_trial,
    multiplicativity_trial,
    sharp,
    torsion_bijection,
)
from tiltlab.tilts import SmallTiltElem, ZeroDepth, p_flat, small_tilt
from tiltlab.towers import TowerSpec, build_tower

from test_towers import kummer52, pure5


def test_sharp_of_p_flat_is_exactly_p():
    h = pure5(depth=4)
    result = sharp(h, p_flat(h, 0, 4))
    assert result.value == h.layer(4).from_int(5)
    assert result.effective_precision == 6


def test_sharp_of_one_is_one():
    h = pure5()
    pres = small_tilt(h, 0, 3)
    result = sharp(h, pres.from_presentation(pres.ring.one()))
    assert result.value.is_one()
    assert result.effective_precision == 6


def test_sharp_rejects_zero_depth():
    h = pure5()
    pres = small_tilt(h, 2, 0)
    with pytest.raises(ZeroDepth):
        sharp(h, pres.from_presentation(pres.ring.one()))


def test_sharp_precision_is_self_validating():
    # oracle: recompute at depth m+1 and check agreement to the reported
    # precision of the depth-m value
    h = pure5(depth=5, n=6)
    pres4 = small_tilt(h, 0, 4)
    rng = random.Random(0)
    for _ in range(20):
        x4 = pres4.random_element(rng, 3)
        r4 = sharp(h, x4)
        # extend x4 to depth 5 by a Frobenius preimage: the projection
        # preserves indices, so reading the same terms one level deeper
        # produces a compatible extension
        deeper = h.quotient(5)
        lift5 = deeper._from_items(
            [(k, vt, c) for (k, vt), c in x4.deepest.terms.items()]
        )
        x5 = SmallTiltElem(h, 0, 5, lift5)
        assert x5.component(4) == x4.deepest
        r5 = sharp(h, x5)
        diff = r5.value - h.embed(4, 5, r4.value)
        v = diff.valuation()
        assert v is ABOVE_PRECISION or v >= r4.effective_precision


def test_sharp_precision_monotone_in_depth():
    # Deeper stages agree at least as well as shallower ones, for
    # restrictions that keep the full support; when the shallower window
    # deletes terms the two sides are sharps of different elements and
    # the deleted content honestly lowers the deep reading.
    h = pure5(depth=4)
    rng = random.Random(1)
    pres = small_tilt(h, 0, 4)
    compared = 0
    for _ in range(600):
        x = pres.random_element(rng, 3)
        shallow = SmallTiltElem(h, 0, 3, x.component(3))
        if len(shallow.deepest.terms) != len(x.deepest.terms):
            continue
        compared += 1
        assert (
            sharp(h, x).effective_precision
            >= sharp(h, shallow).effective_precision
        )
    assert compared >= 50


def _cauchy_rate(p, eps, depth):
    """A-priori valuation bound for s_depth - s_(depth-1), the difference
    of consecutive limit stages: the lift of stage depth, raised to p,
    differs from the previous lift by a multiple of p^eps, and the
    remaining p^(depth-1)-th power turns that into binomial terms of
    valuation at least (depth-1) - v_p(k) + k*eps."""
    stage = depth - 1
    best = None
    k = 1
    while k <= p**stage:
        v = 0
        kk = k
        while kk % p == 0:
            kk //= p
            v += 1
        cand = Fraction(stage - v) + k * eps
        best = cand if best is None else min(best, cand)
        k *= p
    return best


def test_sharp_precision_meets_cauchy_rate_on_kummer():
    # with ideal exponent < 1 the stagewise agreements fluctuate, so the
    # guaranteed fact is the increasing a-priori rate, not monotonicity of
    # the measurements themselves; a term past the shallower T-adic
    # window restricts to zero and is skipped
    hk = kummer52()
    eps = Fraction(3, 25)
    rng = random.Random(2)
    pres = small_tilt(hk, 2, 3)
    assert _cauchy_rate(5, eps, 3) > _cauchy_rate(5, eps, 2)
    compared = 0
    for _ in range(60):
        x = pres.random_element(rng, 3)
        shallow = SmallTiltElem(hk, 2, 2, x.component(2))
        if shallow.is_zero():
            continue
        compared += 1
        assert sharp(hk, x).effective_precision >= _cauchy_rate(5, eps, 3)
        assert sharp(hk, shallow).effective_precision >= _cauchy_rate(5, eps, 2)
    assert compared >= 20


def test_sharp_monomial_valuations_exact():
    h = pure5(depth=4)
    pres = small_tilt(h, 1, 3)
    for k in range(1, 12):
        if Fraction(k, 5) >= 6:
            break
        x = pres.from_presentation(pres.ring.monomial(k))
        assert sharp(h, x).value.valuation() == Fraction(k, 5)


def test_sharp_multiplicativity_and_lift_independence():
    h = pure5(depth=4)
    mult = multiplicativity_trial(h, 0, 4, pairs=150, seed=2)
    assert mult.verdict == "PASS" and mult.details["failures"] == 0
    lift = lift_independence_trial(h, 0, 4, trials=40, seed=3)
    assert lift.verdict == "PASS" and lift.details["failures"] == 0


def test_sharp_reduction_diagram():
    h = pure5(depth=4)
    for j in range(4):
        assert check_sharp_reduction(h, j, samples=40, seed=j).verdict == "PASS"
    hk = kummer52()
    for j in range(2, 5):
        assert (
            check_sharp_reduction(hk, j, samples=40, seed=j).verdict == "PASS"
        )


def test_sharp_reduction_diagram_500_samples_depth4():
    h = pure5(depth=4)
    res = check_sharp_reduction(h, 0, samples=500, seed=11)
    assert res.verdict == "PASS" and res.samples >= 500


def test_tilt_quotient_iso():
    h = pure5(depth=4)
    # worked instances: j=0 collapses to F_5, j=1 is F_5[T]/(T^5) -> F_5[t]/(t^5)
    assert check_tilt_quotient_iso(h, 0, 2, samples=40, seed=0).verdict == "PASS"
    r1 = check_tilt_quotient_iso(h, 1, 2, samples=40, seed=0)
    assert r1.verdict == "PASS" and r1.details["basis_dim"] == 5
    hk = kummer52()
    r2 = check_tilt_quotient_iso(hk, 2, 2, samples=40, seed=0)
    assert r2.verdict == "PASS" and r2.details["basis_dim"] == 6


def test_pillar_valuation_identity():
    h = pure5(depth=4)
    for j in range(4):
        res = check_pillar_valuation(h, j)
        assert res.verdict == "PASS"
    # randomized lifts exercise the unit certificate away from 1
    res = check_pillar_valuation(h, 1, seed=5)
    assert res.verdict == "PASS"
    hk = kummer52()
    for j in range(2, 5):
        res = check_pillar_valuation(hk, j)
        assert res.verdict == "PASS"
        assert res.details["valuation"] == str(Fraction(3, 25) / 5 ** (j - 2))


def test_idempotent_bijection_connected():
    res = idempotent_bijection(pure5())
    assert res.verdict == "PASS" and res.details["count"] == 2


def _product_tower(n_factors):
    sub = TowerSpec(prime=5, n_digits=6, depth=2)
    spec = sub
    for _ in range(n_factors - 1):
        spec = TowerSpec(
            prime=5, n_digits=6, depth=2, kind="product", components=(spec, sub)
        )
    return build_tower(spec)


def test_idempotent_bijection_products():
    res2 = idempotent_bijection(_product_tower(2))
    assert res2.verdict == "PASS" and res2.details["count"] == 4
    res3 = idempotent_bijection(_product_tower(3))
    assert res3.verdict == "PASS" and res3.details["count"] == 8


def test_idempotent_enumeration_matches_brute_force():
    # oracle: solve x^2 = x exhaustively in the tiny ring F_2[T]/(T^2) x F_2
    from tiltlab.core import LayerRing, ProductRing

    a = LayerRing(mode="char_p", p=2, e=1, window=2, ideal_num=1)
    b = LayerRing(mode="char_p", p=2, e=1, window=1, ideal_num=1)
    prod = ProductRing((a, b))
    brute = [x for x in prod.enumerate_elements() if x * x == x]
    assert len(brute) == len(prod.idempotents()) == 4
    got = {tuple(p.to_text() for p in x.parts) for x in prod.idempotents()}
    want = {tuple(p.to_text() for p in x.parts) for x in brute}
    assert got == want


def test_torsion_bijection_trivial_cases():
    assert torsion_bijection(pure5()).verdict == "TRIVIAL_CASE"
    assert torsion_bijection(kummer52()).verdict == "TRIVIAL_CASE"


def test_monoidal_checks_on_product_towers():
    h = _product_tower(2)
    assert check_sharp_reduction(h, 0, samples=20, seed=0).verdict == "PASS"
    iso = check_tilt_quotient_iso(h, 1, 1, samples=20, seed=0)
    assert iso.verdict == "PASS" and len(iso.details["components"]) == 2
    assert check_pillar_valuation(h, 0).verdict == "PASS"
    assert torsion_bijection(h).verdict == "TRIVIAL_CASE"


def test_nested_product_tilts_componentwise():
    # a product whose first factor is itself a product: the tilt generator
    # and p_flat need a monomial in every factor, nested ones included
    sub = TowerSpec(prime=5, n_digits=3, depth=2)
    inner = TowerSpec(prime=5, n_digits=3, depth=2, kind="product", components=(sub, sub))
    h = build_tower(
        TowerSpec(prime=5, n_digits=3, depth=2, kind="product", components=(inner, sub))
    )
    gens = small_tilt(h, 0, 2).to_json_dict()["generator_map"]
    assert gens[1] == "((T^{1/5} | T^{1/5}) | T^{1/5})"
    assert sharp(h, p_flat(h, 0, 2)).value.to_text() == "((5 | 5) | 5)"
    assert check_pillar_valuation(h, 0).verdict == "PASS"


def test_torsion_bijection_detects_tampering():
    # negative control: compare against a tilt-side pillar that is zero in
    # one factor, which fabricates genuine torsion on the tilt side only
    h = _product_tower(2)

    def tampered(pres):
        ring = pres.ring
        left, right = ring.factors
        return ring.wrap([left.f0(), right.zero()])

    res = torsion_bijection(h, tilt_pillar_override=tampered)
    assert res.verdict == "FAIL"
    assert res.witness


def _eager_sharp(h, x, rng=None):
    """sharp with its stage comparison done up front, as a reference: the
    value and the agreement valuation of the m-th and (m-1)-st stages."""
    j, m, p = x.layer, x.depth, h.p

    def lift(n, q):
        ring = h.layer(n)
        out = ring.lift(q)
        if rng is not None:
            out = out + h.f0(n) * ring.random_element(rng, max_terms=2)
        return out

    value = lift(j + m, x.deepest) ** (p**m)
    prev = lift(j + m - 1, x.component(m - 1)) ** (p ** (m - 1))
    v = (value - h.embed(j + m - 1, j + m, prev)).valuation()
    cap = h.layer(j + m).val_cap
    return value, (cap if v is ABOVE_PRECISION else min(v, cap))


@pytest.mark.parametrize(
    "make,m",
    [(lambda: pure5(depth=3), 3), (lambda: kummer52(depth=2), 2)],
    ids=["pure5", "kummer52"],
)
def test_lazy_precision_matches_eager_stages(make, m):
    h = make()
    pres = small_tilt(h, h.start, m)
    picker = random.Random(11)
    elems = [p_flat(h, h.start, m)] + [pres.random_element(picker, 3) for _ in range(4)]
    for seed, x in enumerate(elems):
        for use_rng in (False, True):
            rng = random.Random(seed) if use_rng else None
            ref_rng = random.Random(seed) if use_rng else None
            result = sharp(h, x, rng=rng)
            want_value, want_prec = _eager_sharp(h, x, ref_rng)
            if use_rng:  # both lifts were drawn during the call, in order
                assert rng.getstate() == ref_rng.getstate()
            assert "effective_precision" not in vars(result)  # not yet measured
            assert result.value == want_value
            assert result.effective_precision == want_prec
            if use_rng:  # measuring draws nothing
                assert rng.getstate() == ref_rng.getstate()
            result.measure = None  # cached: the comparison runs once
            assert result.effective_precision == want_prec
            assert result.to_json_dict()["effective_precision"] == str(want_prec)
