"""Tower construction, transition/Frobenius bookkeeping, the axiom suite,
and one crafted broken tower per axiom checker.

The full reports of the broken towers are pinned in
data/negative_controls_golden.json; print a fresh copy with

    PYTHONPATH=src python tests/test_towers.py
"""

import functools
import itertools
import json
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import towers
from tiltlab.core import LayerElem, ProductElem, ProductRing, RingMismatch
from tiltlab.towers import (
    _DENSE_CROSSCHECK_DIM,
    FAIL,
    PASS,
    SAMPLED_PASS,
    ComponentwiseMaps,
    LevelOutOfRange,
    MethodDisagreement,
    ProductTower,
    SpecError,
    TowerHandle,
    TowerSpec,
    build_tower,
    check_axioms,
    frob_projection,
)
from tiltlab.tilts import small_tilt


def pure5(depth=3, vars=0, cap=0, n=6):
    return build_tower(
        TowerSpec(
            prime=5,
            n_digits=n,
            depth=depth,
            num_vars=vars,
            var_degree_cap=Fraction(cap),
        )
    )


def kummer52(depth=3):
    return build_tower(
        TowerSpec(
            prime=5,
            n_digits=6,
            depth=depth,
            kind="kummer",
            m=2,
            ideal_exp=Fraction(3, 25),
            start_level=2,
        )
    )


# -- construction ----------------------------------------------------------------


def test_pure_tower_layers():
    h = pure5()
    assert [h.layer(n).e for n in h.levels] == [1, 5, 25, 125]
    assert h.layer(3).coeff_mod == 5**6
    with pytest.raises(LevelOutOfRange):
        h.layer(4)


def test_pure_tower_with_variable():
    h = pure5(depth=2, vars=1, cap=2)
    r1, r2 = h.layer(1), h.layer(2)
    assert r1.var_den == 5 and r2.var_den == 25
    # x^(1/5) at level 1 maps to the same absolute exponent at level 2
    x = r1.var_gen(0)
    img = h.transition(1, x)
    ((k, vt),) = list(img.terms)
    assert Fraction(vt[0], r2.var_den) == 1


def test_kummer_tower_needs_admissible_start():
    with pytest.raises(SpecError):
        build_tower(
            TowerSpec(
                prime=5,
                n_digits=6,
                depth=2,
                kind="kummer",
                m=2,
                ideal_exp=Fraction(3, 25),
                start_level=1,
            )
        )
    h = kummer52()
    assert [h.layer(n).e for n in h.levels] == [50, 250, 1250, 6250]
    assert h.ideal_index(2) == 6


def test_spec_validation():
    with pytest.raises(SpecError):
        TowerSpec(prime=5, n_digits=6, depth=0)
    with pytest.raises(SpecError):
        TowerSpec(prime=5, n_digits=6, depth=2, kind="kummer", m=10, ideal_exp=1)
    with pytest.raises(SpecError):
        TowerSpec(prime=5, n_digits=6, depth=2, kind="nope")
    with pytest.raises(SpecError):
        TowerSpec(prime=5, n_digits=6, depth=2, ideal_exp=Fraction(1, 2))


def test_spec_json_integer_fields_refuse_non_integers():
    base = {"prime": 5, "n_digits": 4, "depth": 2, "kind": "kummer", "m": 2,
            "ideal_exp": "1/2", "num_vars": 0, "start_level": 0}
    assert TowerSpec.from_json_dict(base).m == 2
    for field in ("prime", "n_digits", "depth", "m", "num_vars", "start_level"):
        for bad in (2.0, 2.7, True, False, "2", None):
            if field == "m" and bad is None:
                continue  # a null m is an absent m
            with pytest.raises(SpecError, match=f"'{field}'"):
                TowerSpec.from_json_dict({**base, field: bad})


def test_spec_json_roundtrip():
    spec = TowerSpec(
        prime=5,
        n_digits=6,
        depth=3,
        kind="kummer",
        m=2,
        ideal_exp=Fraction(3, 25),
        start_level=2,
    )
    again = TowerSpec.from_json(json.dumps(spec.to_json_dict()))
    assert again == spec
    prod = TowerSpec(
        prime=5,
        n_digits=6,
        depth=2,
        kind="product",
        components=(
            TowerSpec(prime=5, n_digits=6, depth=2),
            TowerSpec(prime=5, n_digits=6, depth=2),
        ),
    )
    assert TowerSpec.from_json(json.dumps(prod.to_json_dict())) == prod


@pytest.mark.parametrize("field, value", [
    ("m", 7), ("ideal_exp", Fraction(1)), ("num_vars", 2), ("var_degree_cap", Fraction(2)),
])
def test_product_spec_refuses_the_fields_it_ignores(field, value):
    # a product's factors carry these; its own copies would be dropped
    sub = TowerSpec(prime=5, n_digits=3, depth=2)
    with pytest.raises(SpecError, match=f"takes no {field};"):
        TowerSpec(prime=5, n_digits=3, depth=2, kind="product", components=(sub, sub),
                  **{field: value})
    # the defaults to_json_dict writes out still load
    prod = TowerSpec(prime=5, n_digits=3, depth=2, kind="product", components=(sub, sub))
    assert prod.to_json_dict()["num_vars"] == 0
    assert prod.to_json_dict()["var_degree_cap"] == "0"
    assert TowerSpec.from_json_dict(prod.to_json_dict()) == prod


def test_spec_refuses_malformed_variable_shapes():
    with pytest.raises(SpecError, match="num_vars"):
        TowerSpec(prime=5, n_digits=6, depth=2, num_vars=-1)
    with pytest.raises(SpecError, match="var_degree_cap"):
        TowerSpec(prime=5, n_digits=6, depth=2, num_vars=1, var_degree_cap=-1)
    base = {"prime": 5, "n_digits": 6, "depth": 2, "num_vars": 1}
    with pytest.raises(SpecError, match="'var_degree_cap'"):
        TowerSpec.from_json_dict({**base, "var_degree_cap": "1/x"})


def _shape_of(spec, *, depth=None, char_p=False, label=None):
    """The describe() a handle realized from spec should give."""
    return {
        "label": spec.kind if label is None else label,
        "prime": spec.prime,
        "e0": spec.e0,
        "ideal_exp": str(spec.ideal_exp),
        "start_level": spec.start_level,
        "depth": spec.depth if depth is None else depth,
        "char_p": char_p,
    }


def test_handles_read_their_shape_from_their_rings():
    from tiltlab.tilts import tilt_tower

    pure = TowerSpec(prime=5, n_digits=6, depth=3)
    kummer = TowerSpec(prime=5, n_digits=6, depth=3, kind="kummer", m=2,
                       ideal_exp=Fraction(3, 25), start_level=2)
    with_vars = TowerSpec(prime=3, n_digits=3, depth=3, num_vars=2,
                          var_degree_cap=Fraction(1, 3))
    for spec in (pure, kummer, with_vars):
        h = build_tower(spec)
        assert h.describe() == _shape_of(spec)
        assert h.top == spec.start_level + spec.depth
        tilted = tilt_tower(h, 1)
        assert tilted.describe() == _shape_of(
            spec, depth=spec.depth - 1, char_p=True,
            label=f"tilt({spec.kind}, depth=1)",
        )
    product = TowerSpec(prime=5, n_digits=6, depth=3, kind="product",
                        components=(pure, pure))
    h = build_tower(product)
    assert h.describe() == {
        "label": "product(pure, pure)",
        "components": [_shape_of(pure), _shape_of(pure)],
    }
    shape = (h.p, h.e0, h.ideal_exp, h.start, h.depth, h.char_p)
    assert shape == (5, 1, 1, 0, 3, False)
    tilted = tilt_tower(h, 1)
    shape = (tilted.e0, tilted.ideal_exp, tilted.depth, tilted.char_p)
    assert shape == (1, 1, 2, True)


# -- transitions and projections -----------------------------------------------------


def test_transition_preserves_absolute_exponents():
    h = pure5()
    t1 = h.layer(1).t_gen()
    img = h.embed(1, 3, t1)
    assert img == h.layer(3).monomial(25)
    assert img.valuation() == Fraction(1, 5)


def test_transition_is_a_ring_hom():
    from tiltlab.tilts import tilt_tower

    rng = random.Random(0)
    towers = [pure5(), kummer52(), tilt_tower(pure5(depth=4), 1)]
    for h in towers:
        for n in range(h.start, h.top):
            for _ in range(20):
                a = h.layer(n).random_element(rng)
                b = h.layer(n).random_element(rng)
                assert h.transition(n, a * b) == h.transition(n, a) * h.transition(n, b)
                assert h.transition(n, a + b) == h.transition(n, a) + h.transition(n, b)
                assert h.transition(n, h.layer(n).one()).is_one()


def test_frob_projection_examples():
    h = pure5()
    q1 = h.quotient(1).parse("1 + 2*T^{1/5} + T^{7/5}")
    assert frob_projection(h, 0, q1).is_one()
    s = h.quotient(2).t_gen()
    assert frob_projection(h, 1, s) == h.quotient(1).t_gen()
    assert frob_projection(h, 1, h.quotient(2).zero()).is_zero()
    with pytest.raises(LevelOutOfRange):
        frob_projection(h, 3, s)


def test_frob_projection_factors_frobenius():
    # oracle: tbar(F(x)) must equal x^p, checked on random quotient elements
    h = pure5()
    rng = random.Random(1)
    for n in (0, 1, 2):
        for _ in range(30):
            x = h.quotient(n + 1).random_element(rng)
            assert h.tbar(n, h.frob(n, x)) == x**5


def test_frob_kernel_matches_dense_linear_algebra():
    # replay the combinatorial kernel with an honest F_p kernel computation
    from tiltlab import linalg

    h = pure5(depth=2)
    for n in (0, 1):
        up, down = h.quotient(n + 1), h.quotient(n)
        cols = [
            down.to_vec(h.frob(n, up.monomial(*key))) for key in up.basis_keys()
        ]
        gens = linalg.kernel_generators(cols, 5, 1)
        killed = {
            i
            for i, key in enumerate(up.basis_keys())
            if h.frob(n, up.monomial(*key)).is_zero()
        }
        assert len(gens) == len(killed)
        for gen in gens:
            support = {i for i, c in enumerate(gen) if c}
            assert support <= killed


# -- the element maps against the lattice map they replaced ---------------------------
#
# transition, tbar and frob are derived from the key hooks.  The oracle is
# what they were before: LayerRing.rescale by transition_scale() (transition,
# tbar) or by 1 (frob), as that method stood then.


def rescale_oracle(target, x, mul):
    terms = x.terms
    if not terms:
        return LayerElem(target, {}, x.lossy)
    if len(terms) == 1:
        ((k, vt), c), = terms.items()
        if mul != 1:
            k = k * mul
            vt = tuple(j * mul for j in vt)
        return target._term(k, vt, c, x.lossy)
    items = [(k * mul, tuple(j * mul for j in vt), c) for (k, vt), c in terms.items()]
    return target._from_items(items, x.lossy)


@functools.lru_cache(maxsize=None)
def _map_towers():
    return (
        pure5(depth=3),
        kummer52(depth=3),
        pure5(depth=2, vars=1, cap=2),
        build_tower(TowerSpec(prime=3, n_digits=4, depth=2, num_vars=2,
                              var_degree_cap=Fraction(1))),
    )


@st.composite
def element_map_case(draw):
    """(handle, map name, n, x): x a random element, multi-term and lossy
    or not, of the map's source at some level of one of _map_towers."""
    h = draw(st.sampled_from(_map_towers()))
    name = draw(st.sampled_from(["transition", "tbar", "frob"]))
    n = draw(st.integers(min_value=h.start, max_value=h.top - 1))
    src = {"transition": h.layer(n), "tbar": h.quotient(n), "frob": h.quotient(n + 1)}[name]
    keys = src.basis_keys()
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        key = keys[draw(st.integers(min_value=0, max_value=len(keys) - 1))]
        unit = draw(st.just(1) | st.integers(min_value=1, max_value=src.coeff_mod - 1))
        shift = draw(st.integers(min_value=0, max_value=src.n_digits - 1))
        items.append((*key, unit * src.p**shift))
    return h, name, n, src._from_items(items, draw(st.booleans()))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(element_map_case())
def test_element_maps_match_the_rescale_they_replaced(case):
    h, name, n, x = case
    target, mul = {
        "transition": (h.layer(n + 1), h.transition_scale()),
        "tbar": (h.quotient(n + 1), h.transition_scale()),
        "frob": (h.quotient(n), 1),
    }[name]
    got, want = getattr(h, name)(n, x), rescale_oracle(target, x, mul)
    assert got.ring is want.ring
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.lossy == want.lossy


# -- the axiom suite ------------------------------------------------------------------


def test_axioms_pass_on_pure_tower():
    report = check_axioms(pure5(), samples=50, seed=7)
    assert report.all_pass
    assert report.axioms["e"].verdict == SAMPLED_PASS
    assert report.axioms["e"].samples == 200
    for key in "abcdfg":
        assert report.axioms[key].verdict == PASS


def test_axioms_pass_with_variable_and_report_tail():
    report = check_axioms(pure5(depth=2, vars=1, cap=2), samples=20, seed=7)
    assert report.all_pass
    assert report.axioms["f"].details.get("truncation_tail_dim")


def test_axioms_build_no_layer_basis():
    # (e) samples layer elements by basis position and (g) reads the rank:
    # neither materialises the layer rings' bases
    h = pure5(depth=2, vars=1)
    assert check_axioms(h, samples=10, seed=7).all_pass
    assert [h.layer(n)._basis for n in h.levels] == [None] * len(h.levels)


def test_axioms_pass_on_kummer_tower():
    report = check_axioms(kummer52(), samples=20, seed=7)
    assert report.all_pass


@pytest.mark.parametrize("p", [2, 3, 7])
def test_axioms_pass_across_primes(p):
    h = build_tower(TowerSpec(prime=p, n_digits=3, depth=2))
    assert check_axioms(h, samples=20, seed=p).all_pass


def test_axioms_pass_on_product_tower():
    sub = TowerSpec(prime=5, n_digits=6, depth=2)
    h = build_tower(
        TowerSpec(prime=5, n_digits=6, depth=2, kind="product", components=(sub, sub))
    )
    report = check_axioms(h, samples=10, seed=7)
    assert report.all_pass


def test_product_tower_is_a_tower_handle():
    assert issubclass(ProductTower, TowerHandle)
    # rebound in the product class only so that the tracer can patch them
    for name in ("embed", "tbar_multi", "frob_multi"):
        assert ProductTower.__dict__[name] is TowerHandle.__dict__[name]


@pytest.mark.parametrize("hook", ["transition_key", "tbar_key", "frob_key", "sharp_key"])
def test_product_key_hooks_refuse_by_name(hook):
    # A product ring has no basis keys of its own: the hooks name the rule
    # (maps go componentwise) instead of failing inside a ProductRing, and
    # each component still serves the same key.  sharp_key takes a layer
    # and a depth before the key.
    h = _product_53("pure")
    args = (0, 2, (0, ())) if hook == "sharp_key" else (0, (0, ()))
    with pytest.raises(ComponentwiseMaps, match=f"no {hook}: product maps go componentwise"):
        getattr(h, hook)(*args)
    for comp in h.components:
        assert getattr(comp, hook)(*args) == ({(0, ()): 1}, False)


@functools.cache
def _product_53(first):
    """pure x pure or vars x pure, p = 5, N = 3, depth 3; the variable's
    cap 2/5 drops terms at every level, so products come out lossy."""
    pure = TowerSpec(prime=5, n_digits=3, depth=3)
    vars_ = TowerSpec(prime=5, n_digits=3, depth=3, num_vars=1,
                      var_degree_cap=Fraction(2, 5))
    comps = (pure if first == "pure" else vars_, pure)
    return build_tower(
        TowerSpec(prime=5, n_digits=3, depth=3, kind="product", components=comps)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["pure", "vars"]), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2**32 - 1))
def test_product_towers_match_their_components(first, n, m, seed):
    h = _product_53(first)
    comps = h.components
    rng = random.Random(seed)
    x, y = (h.layer(n).random_element(rng, max_terms=4) for _ in range(2))
    xy = x * y
    q = h.quotient(n).random_element(rng, max_terms=4)
    q_up = h.quotient(n + 1).random_element(rng, max_terms=4)

    cases = [
        (h.transition(n, xy), [c.transition(n, a) for c, a in zip(comps, xy.parts)]),
        (h.embed(n, h.top, xy),
         [c.embed(n, h.top, a) for c, a in zip(comps, xy.parts)]),
        (h.tbar(n, q), [c.tbar(n, a) for c, a in zip(comps, q.parts)]),
        (h.frob(n, q_up), [c.frob(n, a) for c, a in zip(comps, q_up.parts)]),
        (xy, [a * b for a, b in zip(x.parts, y.parts)]),
        (x + xy, [a + b for a, b in zip(x.parts, xy.parts)]),
        (x.p_power(m), [a.p_power(m) for a in x.parts]),
        (h.layer(n).reduce_mod_ideal(xy),
         [c.layer(n).reduce_mod_ideal(a) for c, a in zip(comps, xy.parts)]),
        (h.layer(n).lift(q), [c.layer(n).lift(a) for c, a in zip(comps, q.parts)]),
    ]
    for got, want in cases:
        assert [(part, part.lossy) for part in got.parts] == [
            (w, w.lossy) for w in want
        ]
        assert got.lossy == any(w.lossy for w in want)


def test_product_refuses_components_with_different_pillars():
    # pure (e0 = 1) x Kummer (e0 = 2, ideal 1): p_flat and the tilt pillar
    # are one monomial index in every factor, so the factors must agree
    pure = TowerSpec(prime=5, n_digits=3, depth=3)
    kummer = TowerSpec(
        prime=5, n_digits=3, depth=3, kind="kummer", m=2, ideal_exp=Fraction(1)
    )
    with pytest.raises(SpecError):
        build_tower(
            TowerSpec(prime=5, n_digits=3, depth=3, kind="product",
                      components=(pure, kummer))
        )


def test_a_pillar_index_below_one_is_refused():
    # index 0 is the pillar 1, and a negative index is no element at all
    spec = TowerSpec(prime=5, n_digits=6, depth=2)
    rings = build_tower(spec)._rings
    product = TowerSpec(prime=5, n_digits=6, depth=2, kind="product",
                        components=(spec, spec))
    for bad in (0, -1):
        with pytest.raises(SpecError, match="pillar index"):
            build_tower(spec, pillar_index=bad)
        with pytest.raises(SpecError, match="pillar index"):
            build_tower(product, pillar_index=bad)
        with pytest.raises(SpecError, match="pillar index"):
            TowerHandle(rings=rings, label="bad", pillar_index=bad)


def test_spec_refuses_a_precision_at_which_f0_vanishes():
    # f0 = t^(ideal_exp * e) and t^e = p, so ideal exponent 1 needs N >= 2
    with pytest.raises(SpecError, match="n_digits = 1"):
        TowerSpec(prime=5, n_digits=1, depth=2)
    sub = {"prime": 5, "n_digits": 1, "depth": 2}
    with pytest.raises(SpecError, match="n_digits = 1"):
        TowerSpec.from_json_dict({**sub, "kind": "product", "components": [sub, sub]})
    kummer = {"prime": 5, "depth": 2, "kind": "kummer", "m": 2, "start_level": 2}
    with pytest.raises(SpecError, match="n_digits = 1"):
        TowerSpec(n_digits=1, ideal_exp=Fraction(1), **kummer)
    # f0 = t^6 at e = 50 is not 0 mod 5
    assert TowerSpec(n_digits=1, ideal_exp=Fraction(3, 25), **kummer).n_digits == 1


def test_pillar_index_is_a_constructor_parameter():
    spec = TowerSpec(prime=5, n_digits=6, depth=2)
    assert build_tower(spec).pillar_index() == 1
    h = build_tower(spec, pillar_index=3)
    assert "pillar_index" not in vars(h)  # a parameter, not a patched method
    assert h.pillar_index() == 3
    assert h.pillar_elem(1) == h.layer(1).monomial(3)
    prod = build_tower(
        TowerSpec(prime=5, n_digits=6, depth=2, kind="product", components=(spec, spec)),
        pillar_index=3,
    )
    assert prod.pillar_index() == 3
    assert [c.pillar_index() for c in prod.components] == [3, 3]


def test_axioms_reject_shallow_tower():
    with pytest.raises(SpecError):
        check_axioms(build_tower(TowerSpec(prime=5, n_digits=6, depth=1)))


def test_report_serialization_is_stable():
    report = check_axioms(pure5(depth=2), samples=10, seed=7)
    d = report.to_json_dict()
    assert set(d) == {"all_pass", "axioms", "tower"}
    assert list(d["axioms"]) == sorted(d["axioms"])


# -- negative controls: one broken tower per axiom checker ----------------------------


class _BrokenTransition(TowerHandle):
    """Transition sends the generator to its (p+1)-st power."""

    def transition_scale(self):
        return self.p + 1


class _CollapsedTransition(TowerHandle):
    """Index scale p^2 pushes monomials past the next window: kills (b)."""

    def transition_scale(self):
        return self.p * self.p


class _WrongPillar(TowerHandle):
    def pillar_index(self):
        return 2 * super().pillar_index()


class _KilledFactorF0(TowerHandle):
    """f0 = 0 on purpose: genuine torsion everywhere, (g) must fail."""

    def f0(self, n):
        return self.layer(n).zero()


class _NonUnitSampler(TowerHandle):
    """Pretends 1 + f0*z is sampled but hands the checker -1 + 1 = 0."""

    def f0(self, n):
        return -self.layer(n).one()


class _LossyRoundTrip(TowerHandle):
    """t-bar flags its images lossy and the projection zeroes flagged input.

    tbar(F(x)) == x^p ignores the flag, so (c)'s up half and (b), (d), (f)
    pass; only (c)'s down half, F(tbar(y)) == y^p, sees the defect.
    """

    def tbar_key(self, n, key, lossy=False):
        return super().tbar_key(n, key, lossy)[0], True

    def frob_key(self, n, key, lossy=False):
        return ({}, False) if lossy else super().frob_key(n, key, lossy)


def _clone(handle, cls):
    return cls(rings=handle._rings, label="broken")


def test_negative_control_axiom_c():
    broken = _clone(pure5(), _BrokenTransition)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["c"].verdict == FAIL
    assert report.axioms["c"].witness


def test_negative_control_axiom_b():
    broken = _clone(pure5(), _CollapsedTransition)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["b"].verdict == FAIL


class _ExtraDrop(TowerHandle):
    """Frobenius projection drops the upper half of each target window."""

    def frob_key(self, n, key, lossy=False):
        terms, lossy = super().frob_key(n, key, lossy)
        keep = {
            key: c
            for key, c in terms.items()
            if key[0] < max(1, self.ideal_index(n) // 2)
        }
        return keep, lossy


def test_negative_control_axiom_d():
    broken = _clone(pure5(), _ExtraDrop)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["d"].verdict == FAIL


def test_negative_control_axiom_e():
    broken = _clone(pure5(depth=2), _NonUnitSampler)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["e"].verdict == FAIL


def test_axiom_e_lets_internal_faults_propagate(monkeypatch):
    # Only NotInvertible is an axiom-(e) verdict; any other exception from
    # invert is a fault in the library and must not read as a FAIL.
    from tiltlab.core import LayerRing

    def broken_invert(self, x):
        raise RuntimeError("fault inside invert")

    monkeypatch.setattr(LayerRing, "invert", broken_invert)
    with pytest.raises(RuntimeError, match="fault inside invert"):
        check_axioms(pure5(depth=2), samples=5, seed=0)


def test_negative_control_axiom_f():
    broken = _clone(pure5(), _WrongPillar)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["f"].verdict == FAIL
    assert "(f-1)" in report.axioms["f"].witness


def test_negative_control_axiom_g():
    broken = _clone(pure5(depth=2), _KilledFactorF0)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["g"].verdict == FAIL


def _shifted(h):
    """h with every ring moved down one level: the base layer no longer has
    the shape the declared tower promises."""
    return TowerHandle(
        rings={n: h.layer(n + 1) for n in range(h.start, h.top)},
        label="broken",
    )


def test_negative_control_axiom_a():
    broken = _shifted(pure5(depth=3))
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["a"].verdict == FAIL


class _TamperedTbar(TowerHandle):
    """t-bar at level 1 sends its first two basis keys x, y to the terms
    chosen by ``images(ix, iy)``, where ix, iy are their honest image terms;
    every other key keeps the honest map."""

    def tbar_key(self, n, key, lossy=False):
        first = self.quotient(n).basis_keys()[:2]
        if n != 1 or key not in first:
            return super().tbar_key(n, key, lossy)
        ix, iy = (super(_TamperedTbar, self).tbar_key(n, k, lossy)[0] for k in first)
        new_x, new_y = self.images(ix, iy)
        return (new_x if key == first[0] else new_y), lossy


class _CollidingTbar(_TamperedTbar):
    def images(self, ix, iy):
        return ix, ix


class _DependentTbar(_TamperedTbar):
    """Both images become ix + iy, its terms listed in opposite orders, so
    the first keys differ and only the dense F_p rank sees the defect."""

    def images(self, ix, iy):
        (kx, cx), (ky, cy) = *ix.items(), *iy.items()
        return {kx: cx, ky: cy}, {ky: cy, kx: cx}


def test_negative_control_axiom_b_collision_witness():
    broken = _clone(pure5(depth=2), _CollidingTbar)
    report = check_axioms(broken, samples=5, seed=0)
    verdict = report.axioms["b"]
    assert verdict.verdict == FAIL
    assert verdict.witness == "t-bar collides on 4 + T^{1/5} at level 1"


def test_axiom_b_rank_oracle_catches_dependent_images():
    broken = _clone(pure5(depth=2), _DependentTbar)
    with pytest.raises(MethodDisagreement, match="dense rank 4 contradicts .* level 1"):
        check_axioms(broken, samples=5, seed=0)


class _UnkeptFrob(TowerHandle):
    """The projection copies every key, past the target's window and cap."""

    def frob_key(self, n, key, lossy=False):
        return {key: 1}, lossy


class _UnkeptTbar(TowerHandle):
    """t-bar scales indices by p^2 and keeps every key it makes, past the
    target's window and cap."""

    def tbar_key(self, n, key, lossy=False):
        s = self.p**2
        k, vt = key
        return {(k * s, tuple(j * s for j in vt)): 1}, lossy


@pytest.mark.parametrize(
    "cls, make, where",
    [
        (_UnkeptFrob, lambda: pure5(depth=2), "frob_key at level 0 returns the key (1, ())"),
        (_UnkeptFrob, lambda: _vars5(), "frob_key at level 0 returns the key (0, (3,))"),
        (_UnkeptTbar, lambda: pure5(depth=2), "tbar_key at level 1 returns the key (25, ())"),
        (_UnkeptTbar, lambda: _vars5(), "tbar_key at level 0 returns the key (0, (25,))"),
    ],
    ids=["frob-window", "frob-cap", "tbar-window", "tbar-cap"],
)
def test_a_hook_key_the_target_does_not_keep_is_a_fault(monkeypatch, cls, make, where):
    # The maps' target ring comes from the handle, so a wrong-ring image
    # cannot be written; what a broken hook can still do is return a key
    # past the target quotient's window or variable cap.  The walk refuses
    # it, with the small-pair replay on and off: it never reads as a verdict.
    for dim in (_DENSE_CROSSCHECK_DIM, 0):
        monkeypatch.setattr(towers, "_DENSE_CROSSCHECK_DIM", dim)
        with pytest.raises(MethodDisagreement) as caught:
            check_axioms(_clone(make(), cls), samples=5, seed=0)
        assert str(caught.value).startswith(where + " outside LayerRing(")


class _CountingMaps(TowerHandle):
    """The honest tower, counting its t-bar and Frobenius hook calls."""

    def tbar_key(self, n, key, lossy=False):
        self.calls["tbar"] += 1
        return super().tbar_key(n, key, lossy)

    def frob_key(self, n, key, lossy=False):
        self.calls["frob"] += 1
        return super().frob_key(n, key, lossy)


def test_pair_walk_maps_each_basis_monomial_once():
    # Counters carry no noise.  Per pair n the up pass calls frob_key once
    # per quotient(n+1) key and lifts each nonzero image back with one
    # tbar_key; the down pass calls tbar_key once per quotient(n) key and
    # projects each image back with one frob_key.  A zero image has no key
    # to map.  On an honest tower the projection sends the keys outside
    # its kernel one to one onto quotient(n)'s basis, so tbar_key runs
    # 2 rank(n) times per pair.  The dense rank oracle of (b) and (d) reads
    # the images the passes hold and maps nothing again.
    for make, frob_total, tbar_total in [
        (pure5, 186, 62),
        (lambda: pure5(depth=2, vars=1, cap=2), 1388, 116),
    ]:
        counted = _clone(make(), _CountingMaps)
        counted.calls = {"tbar": 0, "frob": 0}
        assert check_axioms(counted, samples=5, seed=0).all_pass
        ranks = [
            (counted.quotient(n + 1).rank, counted.quotient(n).rank)
            for n in range(counted.start, counted.top)
        ]
        assert sum(up + down for up, down in ranks) == frob_total
        assert sum(2 * down for _, down in ranks) == tbar_total
        assert counted.calls == {"tbar": tbar_total, "frob": frob_total}


def _counting(calls, name, real):
    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return counted


@pytest.mark.parametrize(
    "make",
    [pure5, lambda: pure5(depth=2, vars=1, cap=2), lambda: kummer52(depth=2)],
    ids=["pure5", "pure5-vars", "kummer52"],
)
def test_pair_walk_maps_back_only_nonzero_images(monkeypatch, make):
    # Counters carry no noise.  The walk maps back each nonzero projection
    # (rank(n) of them on an honest tower) and each t-bar (rank(n)), so it
    # extends a hook 2 rank(n) times per pair; an empty projection has
    # nothing to map back.  The transitions are the pillar's embeds up to
    # level n + 1, one step per level above start + 1.
    h = make()
    hooks = []
    real = TowerHandle._map_terms

    def counted(self, hook, n, dst, terms, lossy):
        hooks.append(hook.__name__)
        return real(self, hook, n, dst, terms, lossy)

    monkeypatch.setattr(TowerHandle, "_map_terms", counted)
    assert all(v.ok() for v in towers._check_pairs(h).values())
    levels = range(h.start, h.top)
    walk = sum(2 * h.quotient(n).rank for n in levels)
    assert hooks.count("tbar_key") + hooks.count("frob_key") == walk
    assert hooks.count("transition_key") == sum(n - h.start for n in levels)
    assert len(hooks) == walk + sum(n - h.start for n in levels)


def _empty(ring, lossy):
    """ring's zero; on a product the first factor's part carries the mark."""
    if isinstance(ring, ProductRing):
        return ring.wrap(_empty(f, lossy and i == 0) for i, f in enumerate(ring.factors))
    return LayerElem(ring, {}, lossy)


def _marks(x):
    return [part.lossy for part in x.parts] if isinstance(x, ProductElem) else [x.lossy]


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("make", [pure5, lambda: _product_53("vars")], ids=["pure5", "product"])
def test_element_chains_stop_at_zero(make, lossy):
    # Once the element is empty, the rest of a chain maps 0 to 0: embed,
    # tbar_multi and frob_multi return the target ring's zero with the
    # lossy marks that mapping level by level keeps.
    h = make()
    lo, hi = h.start, h.top
    chains = {
        "embed": (h.layer, h.transition, range(lo, hi)),
        "tbar_multi": (h.quotient, h.tbar, range(lo, hi)),
        "frob_multi": (h.quotient, h.frob, range(hi - 1, lo - 1, -1)),
    }
    want = {}
    for name, (ring, step, levels) in chains.items():
        x = _empty(ring(levels[0] + (name == "frob_multi")), lossy)
        for n in levels:
            x = step(n, x)
        want[name] = x
    got = {
        "embed": h.embed(lo, hi, _empty(h.layer(lo), lossy)),
        "tbar_multi": h.tbar_multi(lo, hi, _empty(h.quotient(lo), lossy)),
        "frob_multi": h.frob_multi(lo, hi, _empty(h.quotient(hi), lossy)),
    }
    for name, x in got.items():
        assert x.ring is want[name].ring and x.is_zero()
        assert _marks(x) == _marks(want[name]) == [lossy] + [False] * (len(_marks(x)) - 1)
    # A projection past the next window empties the element after one step.
    if not isinstance(h, ProductTower):
        x = h.quotient(hi).monomial(h.quotient(hi - 1).window)
        assert h.frob_multi(lo, hi, x) == h.quotient(lo).zero()


@pytest.mark.parametrize("make", [pure5, lambda: _product_53("vars")], ids=["pure5", "product"])
def test_element_chains_check_their_input(make):
    # As the one-step maps do, the chains coerce their input into the
    # source ring, an empty range included, and refuse a backward range.
    h = make()
    three = h.layer(1).from_int(3)
    assert h.embed(1, 1, 3) == three
    assert h.embed(1, 2, 3) == h.transition(1, three)
    assert h.tbar_multi(1, 1, 3) == h.quotient(1).from_int(3)
    assert h.frob_multi(1, 1, 3) == h.quotient(1).from_int(3)
    q = h.quotient(2).one()
    for chain, args in [(h.embed, (2, 1, h.layer(2).one())), (h.tbar_multi, (2, 1, q)),
                        (h.frob_multi, (3, 2, q))]:
        with pytest.raises(LevelOutOfRange):
            chain(*args)
    for chain, args in [(h.embed, (1, 1, h.layer(2).one())), (h.tbar_multi, (1, 1, q)),
                        (h.frob_multi, (1, 1, q)), (h.frob_multi, (1, 3, q))]:
        with pytest.raises(RingMismatch):
            chain(*args)


def test_pair_walk_resolves_each_quotient_once(monkeypatch):
    # The handle resolves each level's quotient once and keeps it.  The
    # walk maps keys, and the maps sum their images without _from_items;
    # what is left is one reduction of f1 per pair, whatever the basis size,
    # and the reduction keeps its terms as they are, again without it.
    counts, ranks = {}, {}
    for cap in (1, 2):
        h = pure5(depth=2, vars=1, cap=cap)
        calls = counts[cap] = {"quotient_ring": 0, "_from_items": 0, "reduce_mod_ideal": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                real = getattr(towers.LayerRing, name)
                patch.setattr(towers.LayerRing, name, _counting(calls, name, real))
            assert all(v.ok() for v in towers._check_pairs(h).values())
        ranks[cap] = h.quotient(h.top).rank
    assert ranks[1] < ranks[2]
    assert counts[1] == counts[2] == {"quotient_ring": 3, "_from_items": 0, "reduce_mod_ideal": 2}


@pytest.mark.parametrize("vars", [0, 1], ids=["pure", "vars"])
def test_pair_walk_reads_each_basis_once_per_pair(monkeypatch, vars):
    # per pair n the up pass reads quotient(n+1)'s basis and the down pass
    # quotient(n)'s, once each and in that order; the dense rank oracle,
    # which runs on both pairs here, reads neither again
    h = pure5(depth=2, vars=vars, cap=2)
    reads = []
    real_keys = towers.LayerRing.basis_keys

    def counted_keys(ring):
        reads.append(ring)
        return real_keys(ring)

    monkeypatch.setattr(towers.LayerRing, "basis_keys", counted_keys)
    assert all(v.ok() for v in towers._check_pairs(h).values())
    level = {id(h.quotient(n)): n for n in h.levels}
    assert [level[id(q)] for q in reads] == [1, 0, 2, 1]


def test_pair_walk_builds_no_elements_past_the_replay(monkeypatch):
    # Past _DENSE_CROSSCHECK_DIM the walk maps keys through the hooks and
    # compares keys.  The elements it builds are (f-1)'s pillar f1, f1^p and
    # f0, then per pair f1's embedding (one per transition) and f1_bar:
    # 3 + (1 + 2) on a depth-2 tower, whatever the basis size.
    counts, ranks = {}, {}
    for cap in (1, 2):
        h = pure5(depth=2, vars=1, cap=cap)
        calls = counts[cap] = {"__init__": 0}
        with monkeypatch.context() as patch:
            patch.setattr(towers, "_DENSE_CROSSCHECK_DIM", 0)
            real = towers.LayerElem.__init__
            patch.setattr(towers.LayerElem, "__init__", _counting(calls, "__init__", real))
            assert all(v.ok() for v in towers._check_pairs(h).values())
        ranks[cap] = h.quotient(h.top).rank
    assert ranks == {1: 650, 2: 1275}
    assert counts[1] == counts[2] == {"__init__": 6}


def test_pair_walk_builds_no_reference_elements(monkeypatch):
    # (c)'s p-th powers and (f-2)'s ideal are closed forms on keys: with
    # the small-pair replay off, _check_pairs multiplies nothing and takes
    # only the (f-1) power.  The replay, on pairs within
    # _DENSE_CROSSCHECK_DIM, adds one power per key of both quotients and
    # one f1_bar product per key of the upper one.
    h = pure5(depth=2, vars=1, cap=2)
    ranks = [(h.quotient(n + 1).rank, h.quotient(n).rank) for n in range(h.start, h.top)]
    assert ranks == [(55, 3), (1275, 55)]
    small = [(up, down) for up, down in ranks if max(up, down) <= _DENSE_CROSSCHECK_DIM]
    for dim, want in [
        (0, {"_mul": 0, "__pow__": 1}),
        (
            _DENSE_CROSSCHECK_DIM,
            {"_mul": sum(up for up, _ in small), "__pow__": 1 + sum(map(sum, small))},
        ),
    ]:
        calls = {"_mul": 0, "__pow__": 0}
        with monkeypatch.context() as patch:
            patch.setattr(towers, "_DENSE_CROSSCHECK_DIM", dim)
            for cls, name in ((towers.LayerRing, "_mul"), (towers.LayerElem, "__pow__")):
                patch.setattr(cls, name, _counting(calls, name, getattr(cls, name)))
            assert all(v.ok() for v in towers._check_pairs(h).values())
        assert calls == want


def _tower_quotients(h):
    """Every quotient of h, each with the f1_bar that _check_pairs reduces
    there (None at the start level, which has none)."""
    level1 = h.start + 1
    f1 = h.pillar_elem(level1)
    for n in h.levels:
        f1_bar = None
        if n >= level1:
            f1_bar = h.layer(n).reduce_mod_ideal(h.embed(level1, n, f1))
        yield h.quotient(n), f1_bar


KEYING_CASES = {
    "pure5_cap1": lambda: _tower_quotients(pure5(depth=2, vars=1, cap=1)),
    "pure5_cap2": lambda: _tower_quotients(pure5(depth=2, vars=1, cap=2)),
    "pure3_two_vars": lambda: _tower_quotients(build_tower(TowerSpec(
        prime=3, n_digits=6, depth=2, num_vars=2, var_degree_cap=Fraction(1)
    ))),
    "kummer52": lambda: _tower_quotients(kummer52(depth=2)),
    "small_tilt": lambda: [
        (small_tilt(pure5(depth=2, vars=1, cap=1), 0, 2).ring, None)
    ],
}


@pytest.mark.parametrize("case", sorted(KEYING_CASES))
def test_key_side_matches_ring_arithmetic(case):
    # On every basis key the walk's closed forms equal what ring arithmetic
    # gives.  (c): the key's p-th power is kept iff k < its row's bound, and
    # then it is the one term (k p, vt p) with coefficient 1.  (f-2): the
    # key lies in an orthant iff it is a key of f * monomial for some basis
    # monomial, for the tower's own f1_bar, a hand-built f with two terms
    # and the zero element.  Cycling the rows beside the basis pairs each
    # key with its own variable monomial.
    for ring, f1_bar in KEYING_CASES[case]():
        p, keys = ring.p, ring.basis_keys()
        factors = [ring.zero()]
        if f1_bar is not None:
            factors.append(f1_bar)
        if len(keys) > 1:
            two = ring.monomial(*keys[-2]) + ring.monomial(*keys[-1], coeff=p - 1)
            assert len(two.terms) == 2
            factors.append(two)
        for (k, vt), (vtp, power) in zip(keys, itertools.cycle(ring.scaled_key_bounds(p))):
            assert vtp == tuple(j * p for j in vt)
            want = (ring.monomial(k, vt) ** p).terms
            assert (k < power) == bool(want)
            if want:
                assert want == {(k * p, vtp): 1}
        for f in factors:
            support = {s for key in keys for s in (f * ring.monomial(*key)).terms}
            starts = towers._orthant_starts(ring, f.terms)
            assert len(starts) == len(ring.var_monomials())
            for key, start in zip(keys, itertools.cycle(starts)):
                assert (key in support) == (key[0] >= start)


def _bounds_past_by_one(real):
    def corrupted(ring, mul):
        return [(vtp, bound + 1) for vtp, bound in real(ring, mul)]

    return corrupted


def _starts_short_by_one(real):
    def corrupted(ring, shifts):
        return [max(start - 1, 0) for start in real(ring, shifts)]

    return corrupted


@pytest.mark.parametrize(
    "owner, name, corrupt, axiom",
    [
        (towers.LayerRing, "scaled_key_bounds", _bounds_past_by_one, "c"),
        (towers, "_orthant_starts", _starts_short_by_one, "f"),
    ],
    ids=["scaled_key_bounds", "_orthant_starts"],
)
def test_replay_catches_a_corrupted_key_side(monkeypatch, owner, name, corrupt, axiom):
    # A wrong closed form on a small pair is an internal fault, not a
    # verdict: a bound one past the power's, or an orthant that starts one
    # index early.  With the replay off, the same corruption reads as a
    # FAIL of (c), resp. (f), so the replay is what stands between them.
    h = pure5(depth=2)
    assert h.quotient(h.top).rank <= _DENSE_CROSSCHECK_DIM
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, corrupt(getattr(owner, name)))
        with pytest.raises(MethodDisagreement, match="disagrees with its key"):
            towers._check_pairs(h)
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, corrupt(getattr(owner, name)))
        patch.setattr(towers, "_DENSE_CROSSCHECK_DIM", 0)
        verdicts = towers._check_pairs(h)
        assert verdicts[axiom].verdict == FAIL
        assert [k for k, v in verdicts.items() if v.verdict == FAIL] == [axiom]


@pytest.mark.parametrize(
    "make",
    [
        pure5,
        lambda: pure5(depth=2, vars=1, cap=2),
        lambda: build_tower(TowerSpec(
            prime=3, n_digits=6, depth=2, num_vars=2, var_degree_cap=Fraction(1)
        )),
    ],
    ids=["pure5", "pure5-vars", "pure3-two-vars"],
)
def test_the_walk_keys_only_through_the_hooks_and_keyed(monkeypatch, make):
    # Counters carry no noise.  With the replay off, every keeps_key call
    # of the pair walk is one of key_image's (the hooks') or one per image
    # item that _keyed checks: the checker's side is closed form and asks
    # keeps_key nothing.  The elements the walk builds first, (f-1)'s and
    # each pair's f1_bar, key their own terms; they are built again here
    # and their calls taken off.
    h = make()
    calls = {"keeps_key": 0, "key_image": 0, "keyed_items": 0}
    real_keyed = towers._keyed

    def keyed(ring, terms, hook, n):
        calls["keyed_items"] += len(terms)
        return real_keyed(ring, terms, hook, n)

    monkeypatch.setattr(towers, "_DENSE_CROSSCHECK_DIM", 0)
    monkeypatch.setattr(towers, "_keyed", keyed)
    for name in ("keeps_key", "key_image"):
        real = getattr(towers.LayerRing, name)
        monkeypatch.setattr(towers.LayerRing, name, _counting(calls, name, real))
    level1 = h.start + 1
    f1 = h.pillar_elem(level1)
    assert f1**h.p == h.f0(level1)
    for n in range(h.start, h.top):
        h.layer(n + 1).reduce_mod_ideal(h.embed(level1, n + 1, f1))
    built = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    assert all(v.ok() for v in towers._check_pairs(h).values())
    walk = {name: calls[name] - built[name] for name in calls}
    assert walk["keeps_key"] == walk["key_image"] + walk["keyed_items"]
    # one frob_key per key of both quotients and one tbar_key per key of
    # quotient(n), twice (test_pair_walk_maps_each_basis_monomial_once)
    ranks = [(h.quotient(n + 1).rank, h.quotient(n).rank) for n in range(h.start, h.top)]
    assert walk["key_image"] == sum(up + 3 * down for up, down in ranks)


def _set_algebra_pairs(handle):
    """The pair walk as it decided (c) and (f-2) by set algebra: per key the
    power's terms and the keys of f1_bar * monomial, from index arithmetic
    through keeps_key, then the kernel and tail lists against the ideal
    set.  The oracle for the closed forms past the replay."""
    p = handle.p
    tbar, frob, extend = handle.tbar_key, handle.frob_key, handle._map_terms
    failed = {}

    def power_terms(ring, key):
        k, vt = key[0] * p, tuple(j * p for j in key[1])
        return {(k, vt): 1} if ring.keeps_key(k, vt) else {}

    def ideal_keys(ring, key, shifts):
        k, vt = key
        out = []
        for a, va in shifts:
            s, st = k + a, tuple(map(operator.add, vt, va))
            if ring.keeps_key(s, st):
                out.append((s, st))
        return out

    level1 = handle.start + 1
    f1 = handle.pillar_elem(level1)
    f_details = {"f1": f1.to_text(), "f1_level": level1}
    if f1**p != handle.f0(level1):
        failed["f"] = towers._fail("(f-1)", **f_details)
    tail_dims = {}
    for n in range(handle.start, handle.top):
        up, down = handle.quotient(n + 1), handle.quotient(n)
        f1_bar = handle.layer(n + 1).reduce_mod_ideal(handle.embed(level1, n + 1, f1))
        shifts = list(f1_bar.terms)
        hit, ideal, kernel, tail = set(), set(), [], []
        for key in up.basis_keys():
            img, lossy = frob(n, key)
            out = {}
            if img:
                hit.add(next(iter(img)))
                if "c" not in failed:
                    out = extend(tbar, n, up, img, lossy)[0]
            else:
                kernel.append(key)
            if "c" not in failed and out != power_terms(up, key):
                text = up.monomial(*key).to_text()
                failed["c"] = towers._fail(f"tbar(F({text})) != {text}^p at level {n}", level=n)
            if "f" not in failed:
                ideal.update(ideal_keys(up, key, shifts))
            if sum(key[1]) * p > up.var_cap_index:
                tail.append(key)
        seen, missing = {}, []
        for key in down.basis_keys():
            img, lossy = tbar(n, key)
            if "b" not in failed:
                if not img:
                    text = down.monomial(*key).to_text()
                    failed["b"] = towers._fail(f"t-bar kills {text} at level {n}", level=n)
                elif (img_key := next(iter(img))) in seen:
                    witness = (down.monomial(*key) - down.monomial(*seen[img_key])).to_text()
                    failed["b"] = towers._fail(
                        f"t-bar collides on {witness} at level {n}", level=n
                    )
                else:
                    seen[img_key] = key
            if "c" not in failed:
                out = extend(frob, n, down, img, lossy)[0]
                if out != power_terms(down, key):
                    text = down.monomial(*key).to_text()
                    failed["c"] = towers._fail(
                        f"F(tbar({text})) != {text}^p at level {n}", level=n
                    )
            if key not in hit:
                missing.append(key)
        if "d" not in failed and missing:
            failed["d"] = towers._fail(
                f"Frobenius projection misses "
                f"{down.monomial(*missing[0]).to_text()} at level {n}",
                level=n,
                missing=len(missing),
            )
        if "f" not in failed:
            expected, n_ideal = set(ideal), len(ideal)
            expected.update(tail)
            if len(kernel) != len(expected) or not expected.issuperset(kernel):
                key = min(expected.symmetric_difference(kernel))
                failed["f"] = towers._fail(
                    f"(f-2) kernel mismatch at level {n}: {up.monomial(*key).to_text()}",
                    level=n,
                    **f_details,
                )
            else:
                tail_dims[str(n)] = len(expected) - n_ideal
    if any(tail_dims.values()):
        f_details["truncation_tail_dim"] = tail_dims
    passed = {k: towers.Verdict(PASS) for k in "bcd"}
    return {**passed, "f": towers.Verdict(PASS, details=f_details), **failed}


class _TamperedTopPair(TowerHandle):
    """The honest tower but at the top pair, where one hook answers
    ``wrong(key, honest)`` on the key ``victim``."""

    def frob_key(self, n, key, lossy=False):
        honest = super().frob_key(n, key, lossy)
        if self.hook == "frob_key" and n == self.top - 1 and key == self.victim:
            return self.wrong(key, honest[0]), lossy
        return honest

    def tbar_key(self, n, key, lossy=False):
        honest = super().tbar_key(n, key, lossy)
        if self.hook == "tbar_key" and n == self.top - 1 and key == self.victim:
            return self.wrong(key, honest[0]), lossy
        return honest


def _top_pair_tampering(kind):
    h = pure5(depth=2, vars=1, cap=2)
    n = h.top - 1
    up, down = h.quotient(n + 1), h.quotient(n)
    kept = [key for key in up.basis_keys() if h.frob_key(n, key)[0]]
    killed = [key for key in up.basis_keys() if not h.frob_key(n, key)[0]]
    if kind == "honest":
        return h
    broken = _clone(h, _TamperedTopPair)
    if kind == "frob_kills_outside":
        # outside the ideal and the tail: the honest projection keeps it
        broken.hook, broken.victim = "frob_key", kept[7]
        broken.wrong = lambda key, honest: {}
    elif kind == "frob_keeps_inside":
        # in the ideal, k >= f1_bar's index, under the cap
        broken.hook = "frob_key"
        broken.victim = next(key for key in killed if sum(key[1]) * h.p <= up.var_cap_index)
        broken.wrong = lambda key, honest: {down.basis_keys()[3]: 1}
    else:
        # t-bar doubles one key's image: (c) fails, (b) and (d) hold
        broken.hook, broken.victim = "tbar_key", down.basis_keys()[4]
        broken.wrong = lambda key, honest: {k: 2 * c for k, c in honest.items()}
    return broken


@pytest.mark.parametrize(
    "kind", ["honest", "frob_kills_outside", "frob_keeps_inside", "tbar_breaks_c"]
)
def test_closed_forms_match_the_set_algebra_past_the_replay(kind):
    # The top pair of this tower has 1,275 keys up and 55 down, past
    # _DENSE_CROSSCHECK_DIM, so nothing replays the closed forms there.  A
    # tampered hook at that pair gets the verdicts, witnesses and
    # truncation_tail_dim that the set algebra gives.
    h = _top_pair_tampering(kind)
    ranks = (h.quotient(h.top).rank, h.quotient(h.top - 1).rank)
    assert ranks == (1275, 55) and ranks[0] > _DENSE_CROSSCHECK_DIM
    got = {k: v.to_json_dict() for k, v in towers._check_pairs(h).items()}
    want = {k: v.to_json_dict() for k, v in _set_algebra_pairs(h).items()}
    assert list(got) == list(want) == list("bcdf")
    assert got == want
    fails = sorted(k for k, v in got.items() if v["verdict"] == FAIL)
    assert fails == {
        "honest": [],
        "frob_kills_outside": ["c", "d", "f"],
        "frob_keeps_inside": ["c", "f"],
        "tbar_breaks_c": ["c"],
    }[kind]
    if kind == "honest":
        assert got["f"]["details"]["truncation_tail_dim"] == {"0": 8, "1": 200}


def test_rank_crosscheck_past_its_size_cap(monkeypatch):
    # the top pair of pure p=3, N=3, depth 5 has quotient ranks 81 and 243,
    # past the cap of 200: lift the cap and walk every pair with the rank
    # oracle on, (b)'s t-bars before (d)'s projections in each
    h = build_tower(TowerSpec(prime=3, n_digits=3, depth=5))
    n = h.top - 1
    assert (h.quotient(n).rank, h.quotient(n + 1).rank) == (81, 243)
    assert max(81, 243) > _DENSE_CROSSCHECK_DIM
    ranks = []
    real_rank = towers.linalg.matrix_rank_fp

    def counted_rank(rows, p):
        ranks.append(real_rank(rows, p))
        return ranks[-1]

    monkeypatch.setattr(towers, "_DENSE_CROSSCHECK_DIM", 10**6)
    monkeypatch.setattr(towers.linalg, "matrix_rank_fp", counted_rank)
    assert all(v.ok() for v in towers._check_pairs(h).values())
    assert len(ranks) == 2 * h.depth
    assert ranks[-2:] == [81, 81]


# -- golden reports of the broken towers ------------------------------------------

NEGATIVE_GOLDEN = Path(__file__).with_name("data") / "negative_controls_golden.json"


def _vars5():
    return pure5(depth=2, vars=1, cap=2)


# Each case fails at least one axiom; several fail two or more of (b), (c),
# (d) and (f) at once, so every axiom's own first witness is pinned.
NEGATIVE_CASES = {
    "a_shifted_rings": lambda: _shifted(pure5(depth=3)),
    "b_collapsed_transition": lambda: _clone(pure5(), _CollapsedTransition),
    "b_colliding_tbar": lambda: _clone(pure5(depth=2), _CollidingTbar),
    "c_broken_transition": lambda: _clone(pure5(), _BrokenTransition),
    "c_kummer_broken_transition": lambda: _clone(kummer52(depth=2), _BrokenTransition),
    "c_down_half_only": lambda: _clone(pure5(depth=2), _LossyRoundTrip),
    "d_extra_drop": lambda: _clone(pure5(), _ExtraDrop),
    "d_vars_extra_drop": lambda: _clone(_vars5(), _ExtraDrop),
    "e_non_unit_sampler": lambda: _clone(pure5(depth=2), _NonUnitSampler),
    "f_wrong_pillar": lambda: _clone(pure5(), _WrongPillar),
    "f_pillar_override": lambda: build_tower(
        TowerSpec(prime=5, n_digits=6, depth=2), pillar_index=3
    ),
    "g_killed_f0": lambda: _clone(pure5(depth=2), _KilledFactorF0),
    "vars_collapsed_transition": lambda: _clone(_vars5(), _CollapsedTransition),
    "product_honest_x_collapsed": lambda: ProductTower(
        (pure5(depth=2), _clone(pure5(depth=2), _CollapsedTransition))
    ),
}


def _negative_report(case) -> dict:
    return check_axioms(NEGATIVE_CASES[case](), samples=5, seed=0).to_json_dict()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("case", sorted(NEGATIVE_CASES))
def test_negative_control_golden_reports(case):
    want = json.loads(NEGATIVE_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(NEGATIVE_CASES)
    report = _negative_report(case)
    assert not report["all_pass"]
    assert _canonical(report) == _canonical(want[case])


if __name__ == "__main__":
    record = {case: _negative_report(case) for case in sorted(NEGATIVE_CASES)}
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=1) + "\n")
