"""Layer-ring arithmetic: worked examples with independent oracles, ring
axioms as properties, parser roundtrips, torsion classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.core import (
    ABOVE_PRECISION,
    CHAR_P,
    MIXED,
    BadIdealExponent,
    BadVarCap,
    LayerRing,
    NonPrime,
    NotInvertible,
    ParseError,
    PrecisionBudget,
    Prime,
    ProductRing,
    RingMismatch,
    layer_make,
)

from test_kernels import eisenstein_oracle


def O(p=5, N=6, e=5, **kw):
    return layer_make(p, PrecisionBudget(N), e, **kw)


# -- construction ------------------------------------------------------------


def test_layer_make_base_layer():
    ring = O(e=1)
    assert ring.e == 1 and ring.coeff_mod == 5**6
    assert ring.f0() == ring.from_int(5)


def test_layer_make_first_layer():
    ring = O(e=5)
    assert ring.f0() == ring.t_gen() ** 5
    assert ring.f0() == ring.from_int(5)


def test_layer_make_kummer_layer():
    # eps * e must be integral: fails at e=10, works at e=50 with f0 = t^6.
    with pytest.raises(BadIdealExponent):
        O(e=10, ideal_exp=Fraction(3, 25))
    ring = O(e=50, ideal_exp=Fraction(3, 25), e0=2, level=2)
    f0 = ring.f0()
    assert f0 == ring.monomial(6)
    assert f0.valuation() == Fraction(3, 25)  # oracle: 6/50


def test_layer_make_rejects_bad_input():
    with pytest.raises(NonPrime):
        layer_make(6, PrecisionBudget(2), 2)
    with pytest.raises(BadIdealExponent):
        O(ideal_exp=Fraction(3, 2))
    with pytest.raises(NonPrime):
        Prime(1)


@pytest.mark.parametrize(
    "cap, valid",
    [("0", True), ("2", True), ("6/5", True), ("3/25", True),
     ("1/3", False), ("2/15", False), ("1/2", False)],
)
def test_layer_make_checks_the_var_cap_denominator(cap, valid):
    budget = PrecisionBudget(3, var_degree_cap=Fraction(cap))
    if valid:
        assert layer_make(5, budget, 5, num_vars=1).var_cap == Fraction(cap)
    else:
        with pytest.raises(BadVarCap):
            layer_make(5, budget, 5, num_vars=1)


# -- multiplication against the integer oracle --------------------------------


def test_mul_eisenstein_relation():
    ring = O()
    t = ring.t_gen()
    assert t * t**4 == ring.from_int(5)
    assert (1 + t) * (ring.one() - t) == ring.one() - t**2


def test_mul_with_carry_tracked_mod_25():
    ring = O(N=2)
    t = ring.t_gen()
    got = t**3 * t**3
    want = eisenstein_oracle([0, 0, 0, 1, 0], [0, 0, 0, 1, 0], 5, 5, 25)
    assert [got.terms.get((k, ()), 0) for k in range(5)] == want
    assert got == ring.monomial(1, coeff=5)


def test_mul_random_matches_oracle():
    ring = O(N=3, e=7 and 5)
    rng = random.Random(1)
    for _ in range(50):
        a = ring.random_element(rng, 4)
        b = ring.random_element(rng, 4)
        fa = [a.terms.get((k, ()), 0) for k in range(ring.e)]
        fb = [b.terms.get((k, ()), 0) for k in range(ring.e)]
        want = eisenstein_oracle(fa, fb, ring.e, ring.p, ring.coeff_mod)
        got = a * b
        assert [got.terms.get((k, ()), 0) for k in range(ring.e)] == want


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatch):
        O().t_gen() * O(N=2).t_gen()


# -- valuation -----------------------------------------------------------------


def test_valuation_examples():
    ring = O()
    assert ring.from_int(5).valuation() == 1
    assert ring.t_gen().valuation() == Fraction(1, 5)
    assert ring.zero().valuation() is ABOVE_PRECISION


def test_valuation_multiplicative_on_monogenic_layers():
    ring = O(N=4)
    rng = random.Random(2)
    for _ in range(200):
        a = ring.random_element(rng, 3)
        b = ring.random_element(rng, 3)
        va, vb, vab = a.valuation(), b.valuation(), (a * b).valuation()
        if va is ABOVE_PRECISION or vb is ABOVE_PRECISION:
            continue
        if va + vb < ring.val_cap:
            assert vab == va + vb


# -- ring axioms (hypothesis) -----------------------------------------------------


@st.composite
def ring_and_elems(draw, count):
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.sampled_from([1, 2, 4, 5]))
    nd = draw(st.integers(min_value=1, max_value=4))
    ring = layer_make(p, PrecisionBudget(nd), e)
    elems = []
    for _ in range(count):
        n_terms = draw(st.integers(min_value=0, max_value=3))
        items = [
            (
                draw(st.integers(min_value=0, max_value=2 * e)),
                (),
                draw(st.integers(min_value=1, max_value=ring.coeff_mod)),
            )
            for _ in range(n_terms)
        ]
        elems.append(ring._from_items(items))
    return ring, elems


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ring_and_elems(3))
def test_ring_axioms(data):
    ring, (x, y, z) = data
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z
    assert x + (-x) == ring.zero()
    assert x * ring.one() == x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ring_and_elems(2))
def test_reduce_mod_ideal_is_a_ring_hom(data):
    ring, (x, y) = data
    red = ring.reduce_mod_ideal
    assert red(x * y) == red(x) * red(y)
    assert red(x + y) == red(x) + red(y)
    assert red(ring.one()).is_one()


# -- reduction examples -----------------------------------------------------------


def test_reduce_examples():
    base = O(e=1)
    assert base.reduce_mod_ideal(base.from_int(5)).is_zero()

    ring = O()
    x = ring.parse("1 + t^{1/5} + t^{7/5}")  # t^7 = 5 t^2 vanishes mod 5
    q = ring.reduce_mod_ideal(x)
    assert q == q.ring.parse("1 + T^{1/5}")

    kummer = O(e=50, ideal_exp=Fraction(3, 25), e0=2, level=2)
    q2 = kummer.reduce_mod_ideal(kummer.parse("2 + 3*t^{3/50}"))
    # oracle: valuation 3/50 < 6/50, so the term survives
    assert q2 == q2.ring.parse("2 + 3*T^{3/50}")
    assert q2.ring.window == 6


def test_lift_section_of_reduce():
    ring = O()
    rng = random.Random(3)
    for _ in range(50):
        q = ring.quotient_ring().random_element(rng, 3)
        assert ring.reduce_mod_ideal(ring.lift(q)) == q


# -- torsion ---------------------------------------------------------------------


def test_torsion_eisenstein_layer_is_free():
    ring = O()
    rep = ring.torsion_submodule(ring.t_gen())
    assert rep.genuine == [] and rep.is_torsion_free


def test_torsion_base_layer_is_all_artifact():
    base = O(e=1)
    rep = base.torsion_submodule(base.from_int(5))
    assert rep.genuine == []
    assert rep.artifact_dim == base.rank
    assert "PRECISION_ARTIFACT" in rep.flags


def test_torsion_product_with_killed_factor():
    base = O(e=1)
    prod = ProductRing((base, base))
    f = prod.wrap([base.from_int(5), base.zero()])
    rep = prod.torsion_submodule(f)
    # oracle: (0, x) is genuinely killed by (5, 0) in the product
    assert len(rep.genuine) == base.rank
    assert all(part.is_zero() for g in rep.genuine for part in (g.parts[0],))


def test_torsion_unit_is_empty():
    ring = O()
    rep = ring.torsion_submodule(ring.one() + ring.t_gen())
    assert rep.genuine == [] and rep.artifact_dim == 0


# -- variables ----------------------------------------------------------------------


def test_variable_degree_cap_marks_lossy():
    ring = layer_make(5, PrecisionBudget(3, var_degree_cap=Fraction(2)), 5, num_vars=1)
    x = ring.var_gen(0)
    assert (x * x * x).is_zero()
    assert (x * x * x).lossy
    assert not (x * x).lossy


def test_variable_lattice_parse_and_render():
    ring = layer_make(
        5, PrecisionBudget(3, var_degree_cap=Fraction(2)), 25, num_vars=1, level=2
    )
    x = ring.parse("3*x1^{2/25} * t^{1/25}")
    assert x.to_text() == "3*t^{1/25}*x1^{2/25}"
    assert ring.parse(x.to_text()) == x


# -- parser / renderer ---------------------------------------------------------------


def test_parse_examples():
    ring = O()
    x = ring.parse("1 + 2*t^{1/5}")
    assert x == ring.one() + ring.t_gen() * 2
    assert ring.parse("p") == ring.from_int(5)
    assert ring.parse("t^2") == ring.t_gen() ** 2
    assert ring.parse("1 - t^2 + t^2") == ring.one()


def test_parse_rejects_garbage():
    ring = O()
    for bad in ("", "t^{1/3}", "q + 1", "1 +", "t^^2", "x1"):
        with pytest.raises(ParseError):
            ring.parse(bad)


def test_render_roundtrip_random():
    rng = random.Random(4)
    for ring in (O(), O(e=1), O(e=50, ideal_exp=Fraction(3, 25), e0=2, level=2)):
        for _ in range(100):
            x = ring.random_element(rng, 4)
            assert ring.parse(x.to_text()) == x


def test_render_roundtrip_charp():
    ring = O().quotient_ring()
    rng = random.Random(5)
    for _ in range(100):
        x = ring.random_element(rng, 4)
        assert ring.parse(x.to_text()) == x


# -- units ----------------------------------------------------------------------------


def test_invert_one_plus_ideal():
    ring = O()
    rng = random.Random(6)
    for _ in range(50):
        z = ring.f0() * ring.random_element(rng, 3)
        u = ring.one() + z
        assert u * ring.invert(u) == ring.one()


def test_invert_rejects_non_units():
    ring = O()
    with pytest.raises(NotInvertible):
        ring.invert(ring.t_gen())
    with pytest.raises(NotInvertible):
        ring.invert(ring.from_int(5))


def test_divide_by_monomial_roundtrip():
    ring = O(N=4)
    x = ring.parse("5*t^{2/5} + t^{4/5}")
    q = x.divide_by_monomial(2)
    assert q * ring.monomial(2) == x
    with pytest.raises(ValueError):
        ring.one().divide_by_monomial(1)


def test_divide_with_p_borrow():
    ring = O(N=4)
    # 5 = t^5, so 5*t is divisible by t^3 with quotient t^3.
    x = ring.monomial(1, coeff=5)
    assert x.divide_by_monomial(3) == ring.monomial(3)


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        O().t_gen() ** -1


# -- monogenic fast paths against the generic item path ---------------------------
#
# On rings without variables, products and sums accumulate into a dict keyed
# by t-index.  The reference below is the generic path every ring had before:
# build (t-index, variables, coeff) items and canonicalize with _from_items.


def reference_mul(a, b):
    items = [
        (ka + kb, tuple(x + y for x, y in zip(va, vb)), ca * cb)
        for (ka, va), ca in a.terms.items()
        for (kb, vb), cb in b.terms.items()
    ]
    return a.ring._from_items(items, a.lossy or b.lossy)


def reference_add(a, b):
    items = [(k, vt, c) for (k, vt), c in a.terms.items()]
    items += [(k, vt, c) for (k, vt), c in b.terms.items()]
    return a.ring._from_items(items, a.lossy or b.lossy)


def _dense(ring, a, b):
    return len(a.terms) * len(b.terms) > max(64, ring.e)


@st.composite
def monogenic_ring(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.sampled_from([1, 3, 5, 9, 16, 40]))
    if draw(st.booleans()):
        nd = draw(st.integers(min_value=1, max_value=4))
        return LayerRing(mode=MIXED, p=p, e=e, n_digits=nd, ideal_num=e)
    window = draw(st.integers(min_value=1, max_value=2 * e + 8))
    return LayerRing(mode=CHAR_P, p=p, e=e, window=window, ideal_num=min(e, window))


@st.composite
def monogenic_elem(draw, ring):
    """Up to t_range terms; coefficients carry p-powers so products cancel."""
    n_terms = draw(st.integers(min_value=0, max_value=ring.t_range()))
    items = []
    for _ in range(n_terms):
        k = draw(st.integers(min_value=0, max_value=ring.t_range() - 1))
        unit = draw(st.integers(min_value=1, max_value=ring.coeff_mod))
        shift = draw(st.integers(min_value=0, max_value=ring.n_digits))
        items.append((k, (), unit * ring.p**shift))
    return ring._from_items(items, draw(st.booleans()))


@st.composite
def monogenic_pair(draw):
    ring = draw(monogenic_ring())
    a = draw(monogenic_elem(ring))
    b = a if draw(st.booleans()) else draw(monogenic_elem(ring))
    return ring, a, b


def _same(got, want, *, order):
    assert got.ring is want.ring
    assert got.terms == want.terms
    assert got.lossy == want.lossy
    if order:
        assert list(got.terms) == list(want.terms)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(monogenic_pair())
def test_monogenic_mul_matches_item_path(data):
    ring, a, b = data
    # squares (a is b) take their own loop; sparse products keep the key order
    _same(a * b, reference_mul(a, b), order=not _dense(ring, a, b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monogenic_pair())
def test_monogenic_add_matches_item_path(data):
    ring, a, b = data
    _same(a + b, reference_add(a, b), order=True)


def test_monogenic_paths_cover_both_sides_of_the_dense_threshold():
    ring = LayerRing(mode=MIXED, p=5, e=16, n_digits=3, ideal_num=16)
    full = ring._from_items([(k, (), k + 1) for k in range(16)])
    small = ring._from_items([(k, (), 5 * k + 2) for k in range(0, 16, 4)])
    assert _dense(ring, full, full) and not _dense(ring, small, small)
    for a, b in ((full, full), (full, small), (small, small), (small, full)):
        _same(a * b, reference_mul(a, b), order=not _dense(ring, a, b))
        _same(a + b, reference_add(a, b), order=True)


def test_monogenic_mul_folds_and_cancels():
    ring = LayerRing(mode=MIXED, p=5, e=5, n_digits=2, ideal_num=5)
    t4 = ring.monomial(4, coeff=5)
    # t^8 = 5 t^3, times the coefficients 5 * 5: everything cancels mod 25
    assert (t4 * t4).is_zero()
    x = ring._from_items([(4, (), 1), (3, (), 2)], lossy=True)
    prod = x * x  # t^8 + 4 t^7 + 4 t^6 = 5 t^3 + 20 t^2 + 20 t
    _same(prod, reference_mul(x, x), order=True)
    assert prod.lossy and prod == ring.parse("5*t^3 + 20*t^2 + 20*t")
    assert (x + (-x)).is_zero() and (x + (-x)).lossy
    char_p = LayerRing(mode=CHAR_P, p=5, e=5, window=4, ideal_num=4)
    y = char_p.monomial(2) + char_p.monomial(3)
    _same(y * y, reference_mul(y, y), order=True)
    assert y * y == char_p.zero()  # every product index is past the window


def test_zero_product_keeps_the_lossy_flag():
    ring = LayerRing(mode=CHAR_P, p=2, e=1, window=1, ideal_num=1)
    zero = ring._from_items([], lossy=True)
    prod = zero * zero
    _same(prod, reference_mul(zero, zero), order=True)
    assert prod.is_zero() and prod.lossy
    assert (zero * ring.one()).lossy and (ring.one() * zero).lossy
    assert not (ring.zero() * ring.one()).lossy


# -- the variable-degree cap -------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    var_den=st.integers(min_value=1, max_value=30),
    cap=st.fractions(min_value=0, max_value=12, max_denominator=10),
    vts=st.lists(
        st.lists(st.integers(min_value=0, max_value=120), min_size=2, max_size=2),
        min_size=1,
        max_size=20,
    ),
)
def test_cap_index_matches_fraction_rule(var_den, cap, vts):
    ring = LayerRing(
        mode=MIXED, p=5, e=5, n_digits=2, ideal_num=5,
        num_vars=2, var_den=var_den, var_cap=cap,
    )
    for vt in vts:
        assert ring._cap_index(tuple(vt)) == (Fraction(sum(vt), var_den) > cap)


def test_cap_index_at_fractional_caps():
    ring = LayerRing(
        mode=MIXED, p=5, e=5, n_digits=2, ideal_num=5,
        num_vars=2, var_den=5, var_cap=Fraction(7, 3),
    )
    # 7/3 * 5 = 35/3: index sums up to 11 fit, 12 overflows
    assert not ring._cap_index((6, 5))
    assert ring._cap_index((6, 6))
    x = ring.monomial(0, (6, 0))
    assert (x * x).lossy and not x.lossy
