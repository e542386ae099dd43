"""Tower construction, transition/Frobenius bookkeeping, the axiom suite,
and one crafted broken tower per axiom checker.

The full reports of the broken towers are pinned in
data/negative_controls_golden.json; print a fresh copy with

    PYTHONPATH=src python tests/test_towers.py
"""

import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import towers
from tiltlab.core import LayerElem
from tiltlab.towers import (
    _DENSE_CROSSCHECK_DIM,
    FAIL,
    PASS,
    SAMPLED_PASS,
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


def test_pair_walk_resolves_each_quotient_once(monkeypatch):
    # The handle resolves each level's quotient once and keeps it.  The
    # walk maps keys, and the maps sum their images without _from_items;
    # what is left is one reduction of f1 per pair, whatever the basis size.
    counts, ranks = {}, {}
    for cap in (1, 2):
        h = pure5(depth=2, vars=1, cap=cap)
        calls = counts[cap] = {"quotient_ring": 0, "_from_items": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                real = getattr(towers.LayerRing, name)
                patch.setattr(towers.LayerRing, name, _counting(calls, name, real))
            assert all(v.ok() for v in towers._check_pairs(h).values())
        ranks[cap] = h.quotient(h.top).rank
    assert ranks[1] < ranks[2]
    assert counts[1] == counts[2] == {"quotient_ring": 3, "_from_items": 2}


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
    # (c)'s p-th powers and (f-2)'s ideal products are index arithmetic on
    # keys: with the small-pair replay off, _check_pairs multiplies nothing
    # and takes only the (f-1) power.  The replay, on pairs within
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
    # On every basis key the walk's reference side equals what ring
    # arithmetic gives: the p-th power's terms, and the keys of f1_bar
    # times the monomial for the tower's own f1_bar, a hand-built one with
    # two terms and the zero element.  Ideal keys are the basis's tuples.
    for ring, f1_bar in KEYING_CASES[case]():
        keys = ring.basis_keys()
        basis = {key: key for key in keys}
        factors = [ring.zero()]
        if f1_bar is not None:
            factors.append(f1_bar)
        if len(keys) > 1:
            two = ring.monomial(*keys[-2]) + ring.monomial(*keys[-1], coeff=ring.p - 1)
            assert len(two.terms) == 2
            factors.append(two)
        for key in keys:
            mono = ring.monomial(*key)
            assert towers._power_terms(ring, key) == (mono**ring.p).terms
            for f in factors:
                got = towers._ideal_keys(ring, key, list(f.terms))
                assert sorted(got) == sorted((f * mono).terms)
                assert all(k is basis[k] for k in got)


def _corrupt_first_key(real):
    """real, except that its answer for the first basis key it is asked
    about loses one entry or gains a bogus one."""
    first = []

    def corrupted(ring, key, *rest):
        out = real(ring, key, *rest)
        first[:] = first or [key]
        if key != first[0]:
            return out
        if isinstance(out, dict):
            return {} if out else {key: 1}
        return out[1:] if out else [key]

    return corrupted


@pytest.mark.parametrize("name", ["_power_terms", "_ideal_keys"])
def test_replay_catches_a_corrupted_key_side(monkeypatch, name):
    # A wrong key-side reference on a small pair is an internal fault, not
    # a verdict.  With the replay off, the same corruption reads as a FAIL
    # of (c) or (f), so the replay is what stands between them.
    h = pure5(depth=2)
    assert h.quotient(h.top).rank <= _DENSE_CROSSCHECK_DIM
    axiom = {"_power_terms": "c", "_ideal_keys": "f"}[name]
    with monkeypatch.context() as patch:
        patch.setattr(towers, name, _corrupt_first_key(getattr(towers, name)))
        with pytest.raises(MethodDisagreement, match="disagrees with its key"):
            towers._check_pairs(h)
    with monkeypatch.context() as patch:
        patch.setattr(towers, name, _corrupt_first_key(getattr(towers, name)))
        patch.setattr(towers, "_DENSE_CROSSCHECK_DIM", 0)
        assert towers._check_pairs(h)[axiom].verdict == FAIL


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
