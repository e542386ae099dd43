"""The monoidal map: exact values, measured precision, diagrams, idempotent
and torsion transfer."""

import functools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import _backend, monoidal
from tiltlab.core import ABOVE_PRECISION
from tiltlab.monoidal import (
    SharpResult,
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
from tiltlab.towers import (
    MethodDisagreement,
    ProductTower,
    TowerHandle,
    TowerSpec,
    build_tower,
    check_axioms,
)

from test_towers import _clone, _CollidingTbar, _NonUnitSampler, kummer52, pure5


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
        assert check_sharp_reduction(h, j).verdict == "PASS"
    hk = kummer52()
    for j in range(2, 5):
        assert check_sharp_reduction(hk, j).verdict == "PASS"
    # a two-key basis: the oracle's inputs take both keys
    h2 = build_tower(TowerSpec(prime=2, n_digits=3, depth=1))
    assert check_sharp_reduction(h2, 0).details["basis_dim"] == 2


def test_sharp_reduction_diagram_exact_on_the_full_basis():
    # the verdict is decided on every monomial of the presentation, and a
    # basis decision draws no samples
    for h, layers, dim in ((pure5(depth=4), range(4), 625), (kummer52(), range(2, 5), 750)):
        for j in layers:
            res = check_sharp_reduction(h, j)
            assert res.verdict == "PASS" and res.samples is None
            assert res.details == {"layer": j, "depth": h.top - j, "basis_dim": dim}
            assert dim == small_tilt(h, j, h.top - j).ring.rank


def test_sharp_reduction_reduces_each_sharp_value_once(monkeypatch):
    # sharp's membership invariant and the diagram read one cached
    # reduction of the value; the basis pass runs on keys and calls no
    # sharp, so the only values are the oracle's
    from tiltlab.core import LayerRing

    calls = {"sharp": 0, "reduce_mod_ideal": 0}
    real_sharp, real_reduce = monoidal.sharp, LayerRing.reduce_mod_ideal

    def counted_sharp(*args, **kwargs):
        calls["sharp"] += 1
        return real_sharp(*args, **kwargs)

    def counted_reduce(*args, **kwargs):
        calls["reduce_mod_ideal"] += 1
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(monoidal, "sharp", counted_sharp)
    monkeypatch.setattr(LayerRing, "reduce_mod_ideal", counted_reduce)
    res = check_sharp_reduction(pure5(), 0)
    assert res.verdict == "PASS" and res.details["basis_dim"] == 125
    # one value per oracle sample, none per basis monomial
    assert monoidal._ORACLE_SAMPLES == 10
    assert calls["sharp"] == 10
    assert calls["reduce_mod_ideal"] == calls["sharp"]


_ELEMENT_MAPS = ("transition", "embed", "tbar", "tbar_multi", "frob", "frob_multi", "_map_terms")


@pytest.mark.parametrize(
    "make", [lambda: pure5(depth=4), kummer52, lambda: pure5(n=3, vars=1, cap=1)],
    ids=["pure5", "kummer52", "vars"],
)
def test_basis_passes_make_no_element_call(monkeypatch, make):
    # With the oracles emptied, both checks decide on keys alone: one
    # sharp_key call per compared basis key, and no sharp, no element map
    # and no linear extension.
    h = make()
    calls = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in (*_ELEMENT_MAPS, "sharp_key"):
        counted(TowerHandle, name)
    counted(monoidal, "sharp")
    monkeypatch.setattr(monoidal, "_ORACLE_SAMPLES", 0)
    monkeypatch.setattr(monoidal, "_ORACLE_KEYS", 0)
    for j in range(h.start, h.top):
        m = h.top - j
        dom, scale = small_tilt(h, j, m).ring, h.p**m
        in_window = [key for key in dom.basis_keys() if not monoidal._past_cap(dom, key[1], scale)]
        assert check_sharp_reduction(h, j).ok()
        assert calls == {"sharp_key": len(in_window)}
        calls.clear()
        iso = check_tilt_quotient_iso(h, j, m)
        assert iso.ok() and calls == {"sharp_key": iso.details["basis_dim"]}
        calls.clear()


def test_sharp_reduction_oracle_reaches_multi_term_inputs(monkeypatch):
    # a sharp that is honest on zero- and one-term inputs passes the basis;
    # the sampled oracle must see that it adds the tilt-side f0 = T^{c_j}
    # elsewhere, and call it an internal fault, not a verdict
    real_sharp = monoidal.sharp

    def dishonest_sharp(handle, x, rng=None):
        result = real_sharp(handle, x, rng)
        if len(x.deepest.terms) < 2:
            return result
        deep = handle.layer(x.layer + x.depth)
        value = result.value + deep.monomial(handle.ideal_index(x.layer))
        return SharpResult(value, result.layer_index, result.depth, result.measure)

    monkeypatch.setattr(monoidal, "sharp", dishonest_sharp)
    with pytest.raises(MethodDisagreement, match="off the basis"):
        check_sharp_reduction(pure5(), 1)


def test_sharp_reduction_on_products_is_decided_per_component():
    h = _product_tower(2)
    res = check_sharp_reduction(h, 0)
    part = check_sharp_reduction(h.components[0], 0)
    assert (res.verdict, res.name, res.samples) == ("PASS", "sharp_reduction", None)
    assert res.details == {"component_0": part.details, "component_1": part.details}
    assert part.details["basis_dim"] == 25
    # a product returns its first failing component's verdict, witness prefixed
    broken = _clone(pure5(), _CollidingTbar)
    alone = check_sharp_reduction(broken, 1)
    failed = check_sharp_reduction(ProductTower((pure5(), broken)), 1)
    _fails(failed, "component 1: " + alone.witness, **alone.details)
    assert failed.name == "sharp_reduction"


def test_sharp_reduction_counts_the_monomials_past_the_cap():
    # with a variable, sharp and the projections raise a basis monomial to
    # the p^m-th power; past the cap both sides are 0, so it is not compared
    h = build_tower(
        TowerSpec(prime=5, n_digits=3, depth=2, num_vars=1, var_degree_cap=Fraction(1))
    )
    res = check_sharp_reduction(h, 0)
    assert res.verdict == "PASS"
    assert (res.details["basis_dim"], res.details["window_restricted_monomials"]) == (650, 600)
    pres = small_tilt(h, 0, 2)
    both_zero = set()
    for key in pres.ring.basis_keys():  # oracle: map every basis monomial
        x = pres.from_presentation(pres.ring.monomial(*key))
        if sharp(h, x).reduced.is_zero() and h.tbar_multi(0, 2, x.component(0)).is_zero():
            both_zero.add(key)
    skipped = {key for key in pres.ring.basis_keys() if monoidal._past_cap(pres.ring, key[1], 25)}
    assert len(skipped) == 600 and skipped <= both_zero
    assert check_sharp_reduction(pure5(), 0).details.keys() == {"layer", "depth", "basis_dim"}


def test_sharp_reduction_oracle_draws_inside_the_cap_window(monkeypatch):
    # The oracle cross-checks the basis decision, so it draws its terms from
    # the monomials that decision compared.  Drawn from the whole basis of
    # this tower (product_golden's vars_x_pure variable component), 9 of the
    # 10 inputs at j = 0 had no term inside the window and compared 0 with 0.
    h = build_tower(
        TowerSpec(prime=5, n_digits=3, depth=3, num_vars=1, var_degree_cap=Fraction(1))
    )
    draws = []

    class Recording(random.Random):
        def sample(self, population, k):
            draws.append(super().sample(population, k))
            return draws[-1]

    monkeypatch.setattr(monoidal, "random", types.SimpleNamespace(Random=Recording))
    for j in range(h.start, h.top):
        draws.clear()
        assert check_sharp_reduction(h, j).verdict == "PASS"
        dom, scale = small_tilt(h, j, h.top - j).ring, 5 ** (h.top - j)
        assert len(draws) == 10
        assert all(not monoidal._past_cap(dom, vt, scale) for keys in draws for _, vt in keys)


def test_tilt_quotient_iso_calls_element_sharp_on_its_oracle_keys_only(monkeypatch):
    # the bijection and the ring-map decision run on keys, and element
    # sharp sees only the oracle's _ORACLE_KEYS basis monomials per row
    calls = []
    real_sharp = monoidal.sharp

    def counted_sharp(*args, **kwargs):
        calls.append(1)
        return real_sharp(*args, **kwargs)

    monkeypatch.setattr(monoidal, "sharp", counted_sharp)
    assert monoidal._ORACLE_KEYS == 3
    h4, hk = pure5(depth=4), kummer52()
    rows = [(h4, j, min(2, 4 - j)) for j in range(4)]
    rows += [(hk, j, hk.top - j) for j in range(hk.start, hk.top)]
    for row in rows:
        calls.clear()
        res = check_tilt_quotient_iso(*row)
        assert res.verdict == "PASS" and res.samples is None
        assert len(calls) == min(3, res.details["basis_dim"]), row[1:]


def test_tilt_quotient_iso():
    h = pure5(depth=4)
    # worked instances: j=0 collapses to F_5, j=1 is F_5[T]/(T^5) -> F_5[t]/(t^5)
    assert check_tilt_quotient_iso(h, 0, 2).verdict == "PASS"
    r1 = check_tilt_quotient_iso(h, 1, 2)
    assert r1.verdict == "PASS" and r1.details["basis_dim"] == 5
    assert r1.details["ring_map_checks"] == 5  # T times each T^k, k < 5
    hk = kummer52()
    r2 = check_tilt_quotient_iso(hk, 2, 2)
    assert r2.verdict == "PASS" and r2.details["basis_dim"] == 6
    assert r2.details["ring_map_checks"] == 6


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

    a = LayerRing(p=2, e=1, window=2, ideal_num=1)
    b = LayerRing(p=2, e=1, window=1, ideal_num=1)
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
    assert check_sharp_reduction(h, 0).verdict == "PASS"
    iso = check_tilt_quotient_iso(h, 1, 1)
    assert (iso.verdict, iso.samples) == ("PASS", None)
    assert [part["ring_map_checks"] for part in iso.details.values()] == [5, 5]
    assert sorted(iso.details) == ["component_0", "component_1"]
    val = check_pillar_valuation(h, 0)
    assert val.verdict == "PASS" and val.details["component_1"]["unit"] == "1"
    torsion = torsion_bijection(h)
    assert torsion.verdict == "TRIVIAL_CASE" and sorted(torsion.details) == [
        "component_0", "component_1"
    ]


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
    # negative control: the second component's tilt-side pillar is 0, which
    # fabricates genuine torsion on the tilt side of that component only
    h = _product_tower(2)
    killed = h.components[1]

    def tampered(pres):
        return pres.ring.zero() if pres.handle is killed else pres.ring.f0()

    res = torsion_bijection(h, tilt_pillar_override=tampered)
    assert (res.verdict, res.name) == ("FAIL", "torsion_bijection")
    assert res.witness.startswith("component 1: layer 0:")
    # oracle: a zero pillar kills every basis element of the tilt side
    rank = small_tilt(killed, 0, killed.top).ring.rank
    assert res.details["0"] == {
        "layer_genuine": 0, "tilt_genuine": rank,
        "layer_flags": ["PRECISION_ARTIFACT"], "tilt_flags": [],
    }
    assert torsion_bijection(h.components[0], tilt_pillar_override=tampered).ok()


# -- negative controls: broken handles each monoidal check must refuse ---------
#
# The basis passes of check_sharp_reduction and check_tilt_quotient_iso read
# the handle's key hooks (sharp_key, frob_key, tbar_key), so a broken hook
# gets a FAIL there.  Three mismatches no broken handle reaches, so they
# raise MethodDisagreement rather than return a FAIL: the quotient iso's
# element oracle and idempotent_bijection's two per-idempotent checks.
# Element sharp and sharp_key both send a basis monomial T^(k, vt) to its
# key times p^m, so the oracle sees two equal images.  sharp(0) = 0 and
# sharp(1) = 1 in every layer ring, and lift accepts only the deepest
# quotient's own elements, so the reduction of an idempotent's image is
# that idempotent.  A broken sharp reaches each of them.


class _NarrowIdeal(TowerHandle):
    """Above the base, the ideal index is one short of the layer's."""

    def ideal_index(self, n):
        return super().ideal_index(n) - (n > self.start)


class _WideIdeal(TowerHandle):
    """Above the base, the ideal index is one past the layer's."""

    def ideal_index(self, n):
        return super().ideal_index(n) + (n > self.start)


class _UnreducedBase(TowerHandle):
    """The base quotient is the base layer itself, coefficients mod p^N."""

    def quotient(self, n):
        return self.layer(n) if n == self.start else super().quotient(n)


class _TimesPTransition(TowerHandle):
    """The transition multiplies its honest image by p."""

    def transition(self, n, x):
        return super().transition(n, x) * self.p


class _FrobeniusTransition(TowerHandle):
    """The transition copies indices and raises to the p-th power, so the
    two stages of sharp agree past the precision they really share."""

    def transition(self, n, x):
        return self.layer(n + 1).rescale(x) ** self.p


class _SquaredPillar(TowerHandle):
    """The layer pillar is the square of the one the tilt pillar matches."""

    def pillar_elem(self, n):
        return super().pillar_elem(n) ** 2


class _DroppedFactor(ProductTower):
    """The top level keeps only the first factor's layer."""

    def layer(self, n):
        return self.components[0].layer(n) if n == self.top else super().layer(n)


class _MovedSharpKey(TowerHandle):
    """At layer 1, sharp_key sends the key of T^{1/5}, (1, ()), where it
    sends the key of 1."""

    def sharp_key(self, j, m, key, lossy=False):
        if j == 1 and key == (1, ()):
            key = (0, ())
        return super().sharp_key(j, m, key, lossy)


class _SwappedSharpKey(TowerHandle):
    """At layer 1, sharp_key swaps the keys of T^{1/5} and T^{2/5}."""

    def sharp_key(self, j, m, key, lossy=False):
        if j == 1:
            key = {(1, ()): (2, ()), (2, ()): (1, ())}.get(key, key)
        return super().sharp_key(j, m, key, lossy)


class _ShiftedSharpKey(TowerHandle):
    """sharp_key adds one to every t-index of its image, which leaves the
    image of the mod-ideal quotient's p^m-th powers."""

    def sharp_key(self, j, m, key, lossy=False):
        terms, lossy = super().sharp_key(j, m, key, lossy)
        return {(k + 1, vt): c for (k, vt), c in terms.items()}, lossy


def _fails(verdict, witness, **details):
    assert (verdict.verdict, verdict.witness) == ("FAIL", witness)
    for key, want in details.items():
        assert verdict.details[key] == want


def test_sharp_reduction_refuses_a_colliding_tbar():
    # tbar at level 1 sends T^{1/5} to the image of 1
    broken = _clone(pure5(), _CollidingTbar)
    _fails(check_sharp_reduction(broken, 1), "T^{1/5}", layer=1, depth=2)


def test_broken_sharp_key_fails_both_basis_passes():
    # the first basis monomial the broken hook moves is the witness
    moved = _clone(pure5(), _MovedSharpKey)
    _fails(check_sharp_reduction(moved, 1), "T^{1/5}", layer=1, depth=2)
    _fails(check_tilt_quotient_iso(moved, 1, 2), "T^{1/5}", reason="not injective")
    assert check_sharp_reduction(moved, 0).ok() and check_sharp_reduction(moved, 2).ok()
    # an image off the p^m lattice fails sharp's membership invariant
    shifted = _clone(pure5(), _ShiftedSharpKey)
    with pytest.raises(MethodDisagreement, match="membership invariant on the key"):
        check_sharp_reduction(shifted, 1)
    with pytest.raises(MethodDisagreement, match="membership invariant on the key"):
        check_tilt_quotient_iso(shifted, 1, 2)


def test_tilt_quotient_iso_negative_controls():
    iso = check_tilt_quotient_iso
    narrow = _clone(pure5(), _NarrowIdeal)
    _fails(iso(narrow, 1, 2), "T^{4/5}", reason="not surjective")
    # T^{6/50} is past the deepest window, so its image is 0
    wide = _clone(kummer52(), _WideIdeal)
    _fails(iso(wide, 3, 1), "T^{3/25}", reason="monomial image not a monomial")
    # a product returns its first failing component's verdict, witness prefixed
    alone = iso(narrow, 1, 2)
    failed = iso(ProductTower((pure5(), narrow)), 1, 2)
    _fails(failed, "component 1: " + alone.witness, **alone.details)
    assert failed.name == "tilt_quotient_iso"
    # the base quotient read mod p^N: the bijection holds, and p * 1 = p,
    # not 0, so the induced map out of the characteristic-p tilt quotient
    # is not additive
    unreduced = _clone(pure5(), _UnreducedBase)
    _fails(iso(unreduced, 0, 2), "5 * 1", reason="not additive")
    unreduced2 = _clone(_pure(2, n=2, depth=3), _UnreducedBase)
    _fails(iso(unreduced2, 0, 2), "2 * 1", reason="not additive")
    # a sharp_key that swaps two keys keeps the bijection and breaks
    # T * T = T^2 in the ring-map decision
    swapped = _clone(pure5(), _SwappedSharpKey)
    _fails(iso(swapped, 1, 2), "T^{1/5} * T^{1/5}", reason="not multiplicative")


def test_iso_ring_map_decision_agrees_with_all_pairs(monkeypatch):
    # every induced map the iso decides on a domain of rank <= 12, on honest
    # and broken handles, against the all-basis-pairs reference
    from test_closure import _ring_map_by_all_pairs

    seen = []
    real = monoidal.ring_map_defect

    def recording(src, phi):
        defect, checks = real(src, phi)
        seen.append((src, phi, defect is None))
        return defect, checks

    monkeypatch.setattr(monoidal, "ring_map_defect", recording)
    h2 = _pure(2, n=2, depth=3)
    handles = [h2, pure5(), _clone(h2, _UnreducedBase), _clone(pure5(), _UnreducedBase),
               _clone(pure5(), _SwappedSharpKey)]
    for h in handles:
        for j in range(h.start, h.top):
            check_tilt_quotient_iso(h, j, h.top - j)
    small = [(src, phi, decided) for src, phi, decided in seen if src.rank <= 12]
    assert [decided for *_, decided in small] == [_ring_map_by_all_pairs(src, phi) for src, phi, _ in small]
    assert (len(small), sum(decided for *_, decided in small)) == (12, 9)


def test_pillar_valuation_negative_controls():
    squared = _clone(pure5(), _SquaredPillar)
    _fails(check_pillar_valuation(squared, 1), "t^{1/5}", expected="2/5", got="1/5")
    # the embedded pillar carries a factor p^2 that sharp's value lacks
    times_p = _clone(pure5(), _TimesPTransition)
    _fails(check_pillar_valuation(times_p, 1), "t^{1/5}",
           reason="ratio is not a unit at precision")


def test_idempotent_bijection_counts_both_sides():
    broken = _DroppedFactor((pure5(depth=2), pure5(depth=2)))
    _fails(idempotent_bijection(broken), "4 tilt vs 2 layer idempotents")


def test_unreachable_mismatches_raise_with_a_broken_sharp(monkeypatch):
    real = monoidal.sharp

    def broken(value_of):
        def fake(handle, x, rng=None):
            value = value_of(handle.layer(x.layer + x.depth), real(handle, x).value)
            return SharpResult(value, x.layer, x.depth, lambda: Fraction(0))

        return fake

    # every basis monomial goes to 1: the key path decides a bijection, and
    # the element oracle's first basis monomial T^{3/5} disagrees with it
    monkeypatch.setattr(monoidal, "sharp", broken(lambda ring, v: ring.one()))
    with pytest.raises(MethodDisagreement, match=r"sharp and sharp_key disagree on T\^\{3/5\}"):
        check_tilt_quotient_iso(pure5(), 1, 2)
    # 0 goes to p, which is not idempotent
    monkeypatch.setattr(monoidal, "sharp", broken(lambda ring, v: v + ring.f0()))
    with pytest.raises(MethodDisagreement, match="not an unmatched layer idempotent"):
        idempotent_bijection(pure5())
    # 0 and 1 swap: both images are idempotents, neither reduces back
    monkeypatch.setattr(monoidal, "sharp", broken(lambda ring, v: ring.one() - v))
    with pytest.raises(MethodDisagreement, match="does not return it"):
        idempotent_bijection(pure5())


def test_trials_count_failures_past_the_measured_precision():
    # f0 = -1 perturbs the randomized lifts by units
    lift = lift_independence_trial(_clone(pure5(), _NonUnitSampler), 0, 1,
                                   trials=20, seed=0)
    _fails(lift, "4*T^2 + 3*T^4", failures=2)
    # the stage comparison over-claims, so products miss the bound
    mult = multiplicativity_trial(_clone(pure5(), _FrobeniusTransition), 1, 1,
                                  pairs=80, seed=0)
    _fails(mult, "4*T^{3/5} * 4*T^{3/5}", failures=2)


def test_seeded_checks_run_per_component_at_seed_plus_i():
    # A product's trials and seeded pillar check run component i at
    # seed + i, like every other check on a product tower.
    h = _product_tower(2)
    part = {"failures": 0, "layer": 0, "depth": 2}
    for trial, count in [(multiplicativity_trial, 30), (lift_independence_trial, 20)]:
        res = trial(h, 0, 2, count, 3)
        assert (res.verdict, res.samples) == ("PASS", 2 * count)
        assert res.details == {"component_0": part, "component_1": part}
    val = check_pillar_valuation(h, 0, seed=5)
    assert val.details["component_1"] == check_pillar_valuation(h.components[1], 0, seed=6).details
    assert val.details["component_1"] != val.details["component_0"]
    # the failing component's verdict, at its own seed, is the product's;
    # at the product's seed the broken component fails otherwise, or passes
    for trial, cls, j, count, seed, witness in [
        (multiplicativity_trial, _FrobeniusTransition, 1, 80, 1, "4*T^{3/5} * 2*T^{1/5}"),
        (lift_independence_trial, _NonUnitSampler, 0, 20, 0, "T^4"),
    ]:
        broken = _clone(pure5(), cls)
        alone = trial(broken, j, 1, count, seed + 1)
        assert alone.witness == witness != trial(broken, j, 1, count, seed).witness
        res = trial(ProductTower((pure5(), broken)), j, 1, count, seed)
        _fails(res, "component 1: " + witness, **alone.details)
        assert res.samples == count


def _sharp_recording_measures(monkeypatch, perturb=None):
    """Patch monoidal.sharp to log each stage comparison it runs, and to
    add perturb(result, rng), when given, to the value."""
    measured = []
    real = monoidal.sharp

    def patched(handle, x, rng=None):
        result = real(handle, x, rng)
        if perturb is not None:
            result.value = result.value + perturb(result, x, rng)
        measure = result.measure

        def recorded():
            measured.append(x)
            return measure()

        result.measure = recorded
        return result

    monkeypatch.setattr(monoidal, "sharp", patched)
    return measured


def test_trials_read_the_bound_only_when_it_decides(monkeypatch):
    # The battery's trials on pure p=5, N=6, depth 4 at its seed 7: every
    # difference is exactly zero, so no (m-1)-st stage is ever computed
    h4 = pure5(depth=4)
    measured = _sharp_recording_measures(monkeypatch)
    mult = multiplicativity_trial(h4, 0, 4, pairs=500, seed=7)
    lift = lift_independence_trial(h4, 0, 4, trials=100, seed=8)
    assert (mult.verdict, mult.samples, lift.verdict, lift.samples) == ("PASS", 500, "PASS", 100)
    assert measured == []


def test_trials_measure_a_difference_past_a_high_t_power(monkeypatch):
    # sharp plus t^(eN - 1), on multi-term inputs and randomized lifts:
    # the differences are nonzero, so the bound is read and decides
    def top_monomial(result, x, rng):
        ring = result.value.ring
        if rng is not None or len(x.deepest.terms) > 1:
            return ring.monomial(ring.index_cap - 1)
        return ring.zero()

    measured = _sharp_recording_measures(monkeypatch, top_monomial)
    h = pure5(depth=3)
    mult = multiplicativity_trial(h, 0, 2, pairs=30, seed=0)
    _fails(mult, "T^10 + T^23 * 4*T^7 + 2*T^8 + 3*T^11", failures=4)
    lift = lift_independence_trial(h, 0, 2, trials=20, seed=0)
    _fails(lift, "T^10", failures=5)
    assert measured


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


@pytest.mark.parametrize(
    "make,m",
    [(lambda: pure5(depth=3), 3), (lambda: kummer52(depth=2), 2)],
    ids=["pure5", "kummer52"],
)
def test_sharp_without_rng_projects_only_when_measured(monkeypatch, make, m):
    # The (m-1)-st stage is x.component(m - 1), one Frobenius projection
    # down from the deepest component.  Without an rng it waits for the
    # precision to be read; with one it is drawn during the call, so the
    # rng's draws keep their order.
    h = make()
    pres = small_tilt(h, h.start, m)
    picker = random.Random(11)
    elems = [p_flat(h, h.start, m)] + [pres.random_element(picker, 3) for _ in range(4)]
    calls = []
    real_frob = TowerHandle.frob

    def counted_frob(self, n, q):
        calls.append(n)
        return real_frob(self, n, q)

    monkeypatch.setattr(TowerHandle, "frob", counted_frob)
    for seed, x in enumerate(elems):
        result = sharp(h, x)
        assert calls == []
        result.effective_precision
        assert calls == [h.start + m - 1]
        calls.clear()
        sharp(h, x, rng=random.Random(seed))
        assert calls == [h.start + m - 1]
        calls.clear()


def _pure(p, n, depth):
    return build_tower(TowerSpec(prime=p, n_digits=n, depth=depth))


# The battery's towers at every layer the suite checks (4 * 625 + 3 * 750 =
# 4,750 keys), then a tower with one variable (product_golden's vars_x_pure
# component: 125 t-indices times 126 variable monomials at each layer), and
# p = 2 and p = 3 towers deeper than N, whose keys fold through t^e = p to 0.
# The presentation window c_j * p^m is p^top at every layer of a pure tower.
_KEY_TOWERS = {
    "pure5": (lambda: pure5(depth=4), range(0, 4), 4 * 625),
    "kummer52": (kummer52, range(2, 5), 3 * 750),
    "vars": (lambda: pure5(n=3, vars=1, cap=1), range(0, 3), 3 * 125 * 126),
    "pure2": (lambda: _pure(2, n=2, depth=4), range(0, 4), 4 * 16),
    "pure3": (lambda: _pure(3, n=2, depth=3), range(0, 3), 3 * 27),
}


@pytest.mark.parametrize("name", sorted(_KEY_TOWERS))
def test_sharp_key_matches_element_sharp_on_every_basis_key(name):
    # sharp_key against sharp(T^k).value, the reduced key image against its
    # reduction, and the key chain against tbar_multi(x_0), lossy marks
    # included, on every basis key of the full-depth presentations
    make, layers, total = _KEY_TOWERS[name]
    h = make()
    seen = 0
    for j in layers:
        m = h.top - j
        pres = small_tilt(h, j, m)
        sharp_side = monoidal._reduced_sharp_keys(h, j, m)
        chain_side = monoidal._reduction_chains(h, j, m)
        for key in pres.ring.basis_keys():
            x = pres.from_presentation(pres.ring.monomial(*key))
            result = sharp(h, x)
            assert h.sharp_key(j, m, key) == (result.value.terms, result.value.lossy)
            assert sharp_side(key) == (result.reduced.terms, result.reduced.lossy)
            chain = h.tbar_multi(j, j + m, x.component(0))
            assert chain_side(key) == (chain.terms, chain.lossy)
            seen += 1
    assert seen == total


# Towers for the differential test below: pure at every prime, with depths
# past N at p = 2 and 3 so the chain takes steps mod p; the Kummer
# 5/2 tower; and a product tower, whose values are ProductElems.
_SHARP_TOWERS = {
    "pure2": lambda: _pure(2, n=2, depth=4),
    "pure3": lambda: _pure(3, n=2, depth=3),
    "pure5": lambda: pure5(depth=3, n=3),
    "pure7": lambda: _pure(7, n=3, depth=2),
    "kummer52": lambda: kummer52(depth=2),
    "product": lambda: _product_tower(2),
}


@functools.cache
def _sharp_tower(name):
    return _SHARP_TOWERS[name]()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_sharp_matches_the_pow_formula(data):
    # sharp raises lifts with p_power; the reference raises them with **
    h = _sharp_tower(data.draw(st.sampled_from(sorted(_SHARP_TOWERS))))
    j = h.start
    m = data.draw(st.integers(min_value=1, max_value=h.top - j))
    pres = small_tilt(h, j, m)
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    shape = data.draw(st.sampled_from(["zero", "one", "p_flat", "random"]))
    if shape == "p_flat":
        x = p_flat(h, j, m)
    elif shape == "random":
        x = pres.random_element(random.Random(seed), max_terms=8)
    else:
        x = pres.from_presentation(getattr(pres.ring, shape)())
    use_rng = data.draw(st.booleans())
    rng = random.Random(seed) if use_rng else None
    ref_rng = random.Random(seed) if use_rng else None
    result = sharp(h, x, rng=rng)
    want_value, want_prec = _eager_sharp(h, x, ref_rng)
    assert result.value == want_value
    assert result.value.lossy == want_value.lossy
    assert result.effective_precision == want_prec


def test_dense_sharp_climbs_the_precision_ladder(monkeypatch):
    # The kernel is looked up on tiltlab._backend at each call, where the
    # benchmark's tracer patches it too.  On the Kummer 5/2 top layer
    # (e = 6250, N = 6, m = 3) the chain's steps run mod 5^4, 5^5, 5^6.
    h = kummer52(depth=3)
    j, top = h.start, h.top
    pres = small_tilt(h, j, top - j)
    ring = pres.ring
    y = ring.one()
    for k in random.Random(3).sample(range(1, ring.window), 7):
        y = y + ring.monomial(k)  # a unit keeps every power dense
    x = pres.from_presentation(y)
    moduli = []
    kernel = _backend.eisenstein_mul

    def recorder(a, b, e, p, pmod):
        moduli.append(pmod)
        return kernel(a, b, e, p, pmod)

    monkeypatch.setattr(_backend, "eisenstein_mul", recorder)
    result = sharp(h, x)
    deep = h.layer(top)
    assert deep.reduce_mod_ideal(result.value) == h.tbar_multi(j, top, x.component(0))
    assert moduli == sorted(moduli)
    assert min(moduli) < deep.coeff_mod
    assert moduli[-1] == deep.coeff_mod


# Pure towers at p = 7 and 11, one-variable towers at depth 2, and p = 7
# with a variable at depth 3.  Each spec took 0.01-0.08 s on a 2-core VM,
# but p = 7, depth 3 with a variable, which took 0.3-0.5 s there (0.1 s of
# it check_axioms, whose pair walk compares keys with closed forms).
LARGE_PRIME_SPECS = [
    (p, n, depth, 0) for p in (7, 11) for n in (2, 3) for depth in (2, 3)
] + [(7, 2, 2, 1), (11, 2, 2, 1), (7, 2, 3, 1)]


@pytest.mark.parametrize("p, n, depth, vars", LARGE_PRIME_SPECS)
def test_monoidal_checks_pass_at_primes_past_5(p, n, depth, vars):
    h = build_tower(
        TowerSpec(prime=p, n_digits=n, depth=depth, num_vars=vars,
                  var_degree_cap=Fraction(vars))
    )
    assert check_axioms(h, samples=50, seed=0).all_pass
    for j in range(h.start, h.top):
        m = h.top - j
        assert check_sharp_reduction(h, j).verdict == "PASS", j
        assert check_tilt_quotient_iso(h, j, m).verdict == "PASS", j
        if not vars:
            assert check_pillar_valuation(h, j).verdict == "PASS", j
    assert multiplicativity_trial(h, h.start, depth, pairs=20, seed=0).verdict == "PASS"
    assert lift_independence_trial(h, h.start, depth, trials=10, seed=0).verdict == "PASS"
