"""Small tilts: presentation shape, Frobenius compatibility, distinguished
elements, and perfectoidness of the tilted tower."""

import random
from fractions import Fraction

import pytest

from tiltlab.tilts import (
    InsufficientDepth,
    f_flat_generator,
    p_flat,
    small_tilt,
    tilt_tower,
)
from tiltlab.towers import (
    LevelOutOfRange,
    ProductTower,
    TowerSpec,
    build_tower,
    check_axioms,
)

from test_towers import kummer52, pure5


def test_presentation_shape_pure():
    h = pure5()
    pres = small_tilt(h, 0, 3)
    assert pres.quotient_exponent == 125
    assert pres.ring.p == 5 and pres.ring.e == 1
    # the generator corresponds to the compatible system of p-power roots
    gen = pres.generator()
    comps = [c.to_text() for c in gen.components()]
    assert comps == ["0", "T^{1/5}", "T^{1/25}", "T^{1/125}"]


def test_presentation_depth_zero_is_bare_quotient():
    h = pure5()
    pres = small_tilt(h, 2, 0)
    assert pres.quotient_exponent == h.ideal_index(2) == 25
    assert pres.ring.window == h.quotient(2).window


def test_presentation_range_checks():
    h = pure5()
    with pytest.raises(LevelOutOfRange):
        small_tilt(h, 1, 3)
    with pytest.raises(LevelOutOfRange):
        small_tilt(h, 4, 0)


def test_frobenius_compatibility_of_components():
    h = pure5(depth=4)
    pres = small_tilt(h, 0, 4)
    rng = random.Random(0)
    for _ in range(50):
        x = pres.random_element(rng, 3)
        comps = x.components()
        for i in range(4):
            assert h.frob(i, comps[i + 1]) == comps[i]


def test_equality_is_deepest_equality():
    h = pure5()
    pres = small_tilt(h, 0, 3)
    a = pres.parse("pflat + 1")
    b = pres.parse("1 + pflat")
    assert a == b
    assert a != pres.parse("pflat")


def test_presentation_map_is_a_ring_iso():
    # bijective on the basis, additive and multiplicative on random pairs
    h = pure5()
    pres = small_tilt(h, 1, 2)
    seen = set()
    for mono in (pres.ring.monomial(*key) for key in pres.ring.basis_keys()):
        elem = pres.from_presentation(mono)
        key = tuple(sorted(elem.deepest.terms))
        assert key not in seen
        seen.add(key)
        assert pres.to_presentation(elem) == mono
    rng = random.Random(1)
    for _ in range(200):
        x = pres.ring.random_element(rng, 3)
        y = pres.ring.random_element(rng, 3)
        fx, fy = pres.from_presentation(x), pres.from_presentation(y)
        assert pres.from_presentation(x * y) == fx * fy
        assert pres.from_presentation(x + y) == fx + fy


def test_extended_ideal_equals_projection_kernel():
    # The tilt-side ideal has two descriptions: the span of the monomial
    # generator extended from the base, and the kernel of the 0-th
    # projection down to the layer quotient.  They must agree exactly at
    # truncation; at the base layer the generator is the pillar itself.
    for h, j, m in ((pure5(), 0, 3), (pure5(), 1, 2), (kummer52(), 2, 2)):
        pres = small_tilt(h, j, m)
        gen = pres.ring.f0()  # image of the base generator at layer j
        ideal_keys = set()
        for key in pres.ring.basis_keys():
            prod = gen * pres.ring.monomial(*key)
            if not prod.is_zero():
                ideal_keys.update(prod.terms)
        kernel_keys = {
            key
            for key in pres.ring.basis_keys()
            if pres.from_presentation(pres.ring.monomial(*key))
            .component(0)
            .is_zero()
        }
        assert ideal_keys == kernel_keys
        if j == h.start:
            assert gen == pres.to_presentation(f_flat_generator(h, j, m))


def test_tilt_multiplication_is_componentwise():
    # products of compatible sequences multiply entry by entry
    h = pure5(depth=4)
    pres = small_tilt(h, 0, 4)
    rng = random.Random(7)
    for _ in range(50):
        x = pres.random_element(rng, 3)
        y = pres.random_element(rng, 3)
        prod = x * y
        total = x + y
        for i in range(5):
            assert prod.component(i) == x.component(i) * y.component(i)
            assert total.component(i) == x.component(i) + y.component(i)


def test_p_flat_examples():
    h = pure5(depth=4)
    assert small_tilt(h, 0, 4).text_of(p_flat(h, 0, 4)) == "T"
    # at layer 1 the system starts at p^(1/5): valuation 1/5
    pf1 = p_flat(h, 1, 2)
    assert small_tilt(h, 1, 2).text_of(pf1) == "T^{1/5}"
    img = pf1.embed_up()
    assert small_tilt(h, 2, 1).text_of(img) == "T^{1/5}"

    hk = kummer52()
    pk = p_flat(hk, 2, 2)
    assert pk.deepest == hk.quotient(4).monomial(2)  # T^2 since e0 = 2
    assert small_tilt(hk, 2, 2).text_of(pk) == "T^{1/25}"


def test_f_flat_examples():
    h = pure5(depth=4)
    assert f_flat_generator(h, 0, 3).deepest == h.quotient(3).t_gen()
    f1 = f_flat_generator(h, 1, 2)
    pres = small_tilt(h, 1, 2)
    assert pres.to_presentation(f1).valuation() == Fraction(1, 5)

    hk = kummer52()
    fk = f_flat_generator(hk, 2, 2)
    assert fk.deepest == hk.quotient(4).monomial(6)  # valuation 3/25


def test_embed_up_consumes_depth():
    h = pure5()
    x = p_flat(h, 0, 3)
    y = x.embed_up()
    assert (y.layer, y.depth) == (1, 2)
    assert y.deepest == x.deepest**5
    with pytest.raises(InsufficientDepth):
        p_flat(h, 0, 0).embed_up()


def test_tilt_tower_is_perfectoid_with_same_profile():
    h = pure5(depth=4)
    source = check_axioms(h, samples=20, seed=3)
    tilted = tilt_tower(h, 1)
    assert tilted.char_p
    report = check_axioms(tilted, samples=20, seed=3)
    assert report.all_pass
    assert {k: v.verdict for k, v in report.axioms.items()} == {
        k: v.verdict for k, v in source.axioms.items()
    }


def test_tilt_tower_of_kummer():
    report = check_axioms(tilt_tower(kummer52(), 1), samples=20, seed=3)
    assert report.all_pass


def test_tilt_of_tilt_presents_identically():
    # characteristic-p towers are fixed points of tilting at truncation
    h = pure5(depth=4)
    t1 = tilt_tower(h, 1)
    t2 = tilt_tower(t1, 1)
    for n in t2.levels:
        a, b = t2.layer(n), tilt_tower(t1, 1).layer(n)
        assert a.window == b.window and a.e == b.e
    assert check_axioms(t2, samples=10, seed=4).all_pass


def test_tilt_tower_insufficient_depth():
    with pytest.raises(InsufficientDepth):
        tilt_tower(pure5(depth=2), 1)


def test_product_tilt_is_componentwise():
    sub = TowerSpec(prime=5, n_digits=6, depth=2)
    h = build_tower(
        TowerSpec(prime=5, n_digits=6, depth=2, kind="product", components=(sub, sub))
    )
    pres = small_tilt(h, 0, 2)
    assert pres.quotient_exponent == 25
    gen = pres.generator()
    left, right = gen.deepest.parts
    assert left == right
    tilted = tilt_tower(h, 0)
    assert isinstance(tilted, ProductTower)
