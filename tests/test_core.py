"""Layer-ring arithmetic: worked examples with independent oracles, ring
axioms as properties, parser roundtrips, torsion classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltlab import _backend
from tiltlab.core import (
    ABOVE_PRECISION,
    MIXED,
    LayerElem,
    LayerRing,
    NonPrime,
    NotInvertible,
    ParseError,
    ProductRing,
    RingMismatch,
    is_prime,
)
from tiltlab.towers import SpecError, TowerHandle, TowerSpec, build_tower

from test_kernels import eisenstein_oracle, kronecker_reference


def O(p=5, N=6, e=5, ideal_exp=1, *, e0=1, num_vars=0, var_cap=0):
    """The mixed layer ring build_tower would make at index e, built
    directly: the tests also need N = 1 and indices no tower spec has."""
    ideal_num = Fraction(ideal_exp) * e
    assert ideal_num.denominator == 1
    return LayerRing(
        p=p, e=e, n_digits=N, ideal_num=int(ideal_num), e0=e0, num_vars=num_vars,
        var_den=e // e0 if num_vars else 1, var_cap=Fraction(var_cap),
    )


def _tower_layer(level, **spec):
    """The level-n layer of a one-step tower starting there."""
    return build_tower(TowerSpec(depth=1, start_level=level, **spec)).layer(level)


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_past_the_base_primes():
    # every n > 37 not divisible by a base prime reaches the Miller-Rabin loop
    assert [n for n in range(5000) if is_prime(n) != _trial_division_prime(n)] == []


def test_is_prime_rejects_carmichael_numbers_and_accepts_a_mersenne_prime():
    # 252601 = 41*61*101 is a Carmichael number with no base-prime factor,
    # and 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 1105, 1729, 41041, 252601, 3215031751):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))


# -- construction ------------------------------------------------------------


def test_layer_make_base_layer():
    ring = _tower_layer(0, prime=5, n_digits=6)
    assert ring == O(e=1)
    assert ring.e == 1 and ring.coeff_mod == 5**6
    assert ring.f0() == ring.from_int(5)


def test_layer_make_first_layer():
    ring = _tower_layer(1, prime=5, n_digits=6)
    assert ring == O(e=5)
    assert ring.f0() == ring.t_gen() ** 5
    assert ring.f0() == ring.from_int(5)


def test_layer_make_kummer_layer():
    # eps * e must be integral: fails at e=10, works at e=50 with f0 = t^6.
    kummer = dict(prime=5, n_digits=6, kind="kummer", m=2, ideal_exp=Fraction(3, 25))
    with pytest.raises(SpecError, match="does not land in the level-1 lattice"):
        _tower_layer(1, **kummer)
    ring = _tower_layer(2, **kummer)
    assert ring == O(e=50, ideal_exp=Fraction(3, 25), e0=2)
    f0 = ring.f0()
    assert f0 == ring.monomial(6)
    assert f0.valuation() == Fraction(3, 25)  # oracle: 6/50


def test_mode_and_level_are_read_from_the_shape():
    kummer = O(e=50, ideal_exp=Fraction(3, 25), e0=2)
    assert (kummer.mode, kummer.level) == (MIXED, 2)
    assert repr(kummer) == "LayerRing((Z/5^6)[t]/(t^50 - 5), level=2)"
    quot = kummer.quotient_ring()
    assert (quot.mode, quot.level, quot.window) == ("char_p", 2, 6)
    assert O(e=1).level == 0 and O(e=125).level == 3
    shape = dict(p=5, e=5, ideal_num=5)
    for extra in ({}, {"n_digits": 2, "window": 4}):
        with pytest.raises(ValueError, match="exactly one of n_digits and window"):
            LayerRing(**shape, **extra)


def test_monomial_refuses_a_negative_t_index():
    with pytest.raises(ValueError, match="negative t-index"):
        O().monomial(-1)
    with pytest.raises(ValueError, match="negative t-index"):
        O().quotient_ring().monomial(-1)


def test_monomial_refuses_a_negative_variable_index():
    # (-1,) on a one-variable ring would be x1^{-1/5}, outside the ring,
    # with no position in the basis
    ring = O(num_vars=1, var_cap=1)
    for vt in ((-1,), [-1]):
        with pytest.raises(ValueError, match="variable indices >= 0"):
            ring.monomial(0, vt)
    with pytest.raises(ValueError, match="variable indices >= 0"):
        O(num_vars=2, var_cap=1).quotient_ring().monomial(1, (2, -1))
    with pytest.raises(ValueError, match="variable indices >= 0"):
        ring.monomial(0, (0, 0))
    assert ring.to_vec(ring.monomial(0, (5,))) == ring.to_vec(ring.var_gen(0))


def test_layer_make_rejects_bad_input():
    with pytest.raises(NonPrime):
        TowerSpec(prime=6, n_digits=2, depth=1)
    with pytest.raises(SpecError):
        TowerSpec(prime=5, n_digits=6, depth=1, kind="kummer", m=2,
                  ideal_exp=Fraction(3, 2))
    with pytest.raises(NonPrime):
        TowerSpec(prime=1, n_digits=2, depth=1)


@pytest.mark.parametrize(
    "cap, valid",
    [("0", True), ("2", True), ("6/5", True), ("3/25", True),
     ("1/3", False), ("2/15", False), ("1/2", False)],
)
def test_layer_make_checks_the_var_cap_denominator(cap, valid):
    spec = dict(prime=5, n_digits=3, num_vars=1, var_degree_cap=Fraction(cap))
    if valid:
        assert _tower_layer(1, **spec).var_cap == Fraction(cap)
    else:
        with pytest.raises(SpecError, match="needs a 5-power denominator"):
            _tower_layer(1, **spec)


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
    ring = O(p, nd, e)
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

    kummer = O(e=50, ideal_exp=Fraction(3, 25), e0=2)
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
    # products are decided per component (torsion_bijection), so the factor
    # a product pillar such as (5, 0) kills is a ring whose pillar is 0:
    # there every basis element is genuinely killed, and none is an artifact
    base = O(e=1)
    rep = base.torsion_submodule(base.zero())
    assert len(rep.genuine) == base.rank and rep.artifact_dim == 0
    assert rep.genuine == [base.monomial(k, vt) for k, vt in base.basis_keys()]


def test_torsion_flags_follow_the_artifact_dim():
    base, ring = O(e=1), O()
    assert base.torsion_submodule(base.from_int(5)).flags == ("PRECISION_ARTIFACT",)
    assert ring.torsion_submodule(ring.one()).flags == ()
    assert ring.torsion_submodule(ring.zero()).flags == ()


def test_torsion_unit_is_empty():
    ring = O()
    rep = ring.torsion_submodule(ring.one() + ring.t_gen())
    assert rep.genuine == [] and rep.artifact_dim == 0


# -- variables ----------------------------------------------------------------------


def test_variable_degree_cap_marks_lossy():
    ring = O(5, 3, 5, num_vars=1, var_cap=2)
    x = ring.var_gen(0)
    assert (x * x * x).is_zero()
    assert (x * x * x).lossy
    assert not (x * x).lossy


def test_variable_lattice_parse_and_render():
    ring = O(5, 3, 25, num_vars=1, var_cap=2)
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
    for ring in (O(), O(e=1), O(e=50, ideal_exp=Fraction(3, 25), e0=2)):
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


def reference_invert(ring, x):
    """The geometric series summed one ring addition at a time: the oracle
    for invert's single-dict sum."""
    x = ring.coerce(x)
    c0 = x.terms.get((0, ring._zero_vt), 0)
    if c0 % ring.p == 0:
        raise NotInvertible("non-unit constant term")
    c0_inv = pow(c0, -1, ring.coeff_mod)
    z = ring.one() - x * c0_inv
    if not z.is_zero() and z.valuation() == 0:
        raise NotInvertible("not 1 + (positive valuation) up to a unit")
    acc = ring.one()
    power = ring.one()
    while True:
        power = power * z
        if power.is_zero():
            break
        acc = acc + power
    if not z.is_zero():
        acc = acc + power  # the zero power adds only its lossy flag
    return acc * c0_inv


@st.composite
def invert_case(draw):
    """A pure (e = p^a), Kummer (e = e0 p^a) or variable layer, or its
    char-p quotient, and an element that is usually a unit: a unit constant
    plus terms of positive valuation, sometimes a stray unit term, and a
    lossy flag.  Variable layers with a low cap make the powers lossy."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["pure", "kummer", "vars"]))
    e0 = draw(st.sampled_from([k for k in (2, 3) if k % p])) if kind == "kummer" else 1
    level = draw(st.integers(min_value=1 if kind == "vars" else 0, max_value=2))
    n = draw(st.integers(min_value=1, max_value=3))
    num_vars = draw(st.integers(min_value=1, max_value=2)) if kind == "vars" else 0
    cap = Fraction(draw(st.integers(min_value=0, max_value=2)), p) if num_vars else 0
    ring = O(p, n, e0 * p**level, e0=e0, num_vars=num_vars, var_cap=cap)
    if draw(st.booleans()):
        ring = ring.quotient_ring()

    def stray():  # one time in ten, a term that makes x a non-unit
        return draw(st.integers(min_value=0, max_value=9)) == 0

    vts = ring.var_monomials()
    c0 = draw(st.integers(min_value=1, max_value=ring.coeff_mod - 1))
    items = [(0, (0,) * num_vars, c0 * p if stray() else c0)]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        k = draw(st.integers(min_value=0, max_value=ring.t_range() - 1))
        c = draw(st.integers(min_value=1, max_value=ring.coeff_mod - 1))
        if k == 0 and not stray():
            c *= p  # keeps the constant's residue
        items.append((k, draw(st.sampled_from(vts)), c))
    return ring, ring._from_items(items, draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invert_case())
def test_invert_matches_the_series_summed_by_ring_additions(case):
    ring, x = case
    try:
        want = reference_invert(ring, x)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            ring.invert(x)
        return
    got = ring.invert(x)
    assert got.terms == want.terms
    assert got.lossy == want.lossy


def invert_by_product(ring, x):
    """invert as it formed z = 1 - x/c0 before: one product, a negation and
    a sum, then the same series.  The oracle for z formed by scaling x's
    non-constant terms."""
    x = ring.coerce(x)
    c0 = x.terms.get((0, ring._zero_vt), 0)
    if c0 % ring.p == 0:
        raise NotInvertible("non-unit constant term")
    c0_inv = pow(c0, -1, ring.coeff_mod)
    z = ring.one() - x * c0_inv
    if not z.is_zero() and z.valuation() == 0:
        raise NotInvertible("not 1 + (positive valuation) up to a unit")
    if z.is_zero():
        return ring.from_int(c0_inv)
    acc = {(0, ring._zero_vt): 1}
    power = z
    while not power.is_zero():
        for key, c in power.terms.items():
            acc[key] = acc.get(key, 0) + c
        power = power * z
    mod = ring.coeff_mod
    terms = {key: r for key, c in acc.items() if (r := c * c0_inv % mod)}
    return LayerElem(ring, terms, power.lossy)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invert_case())
def test_invert_scales_z_as_the_product_formed_it(case):
    # The same terms in the same dict order, and the same lossy mark, as
    # when z was formed by a product, on mixed, characteristic-p and
    # variable layers with lossy inputs among them.  x has at most six
    # terms, so that product was sparse and listed its keys in x's order;
    # x also runs with its terms reversed, the constant last.
    ring, x = case
    for x in (x, LayerElem(ring, dict(reversed(x.terms.items())), x.lossy)):
        try:
            want = invert_by_product(ring, x)
        except NotInvertible:
            with pytest.raises(NotInvertible):
                ring.invert(x)
            continue
        got = ring.invert(x)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.lossy == want.lossy


def test_invert_of_a_lossy_unit_constant_is_exact():
    # z = 1 - x/c0 is a lossy zero: no power of z is summed, so the inverse
    # is exact, as it was when the series was summed by ring additions
    ring = O()
    x = ring._from_items([(0, (), 3)], lossy=True)
    assert reference_invert(ring, x).lossy is False
    inv = ring.invert(x)
    assert inv == ring.from_int(pow(3, -1, 5**6)) and inv.lossy is False


def test_invert_reads_the_lossy_flag_of_the_power_the_cap_zeroes():
    # z = -t^{1/5}*x1^{1/5}; z^2 has variable degree 2/5 past the cap 1/5,
    # so the cap zeroes it and drops a term of the true inverse
    ring = O(5, 6, 5, num_vars=1, var_cap=Fraction(1, 5))
    x = ring.parse("1 + t^{1/5}*x1^{1/5}")
    inv = ring.invert(x)
    assert inv == ring.parse("1 - t^{1/5}*x1^{1/5}")
    assert (x * inv).is_one() and (x * inv).lossy
    assert inv.lossy is True and reference_invert(ring, x).lossy is True


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
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    e = draw(st.sampled_from([1, 3, 5, 9, 16, 40]))
    if draw(st.booleans()):
        nd = draw(st.integers(min_value=1, max_value=4))
        return LayerRing(p=p, e=e, n_digits=nd, ideal_num=e)
    window = draw(st.integers(min_value=1, max_value=2 * e + 8))
    return LayerRing(p=p, e=e, window=window, ideal_num=min(e, window))


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


def reference_neg(a):
    items = [(k, vt, -c) for (k, vt), c in a.terms.items()]
    return a.ring._from_items(items, a.lossy)


@st.composite
def sum_case(draw):
    """A MIXED or CHAR_P ring, with or without variables, and two canonical
    elements whose keys often coincide, so sums cancel and wrap."""
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.sampled_from([1, 3, 5, 9]))
    num_vars = draw(st.integers(min_value=0, max_value=2))
    cap = draw(st.fractions(min_value=0, max_value=2, max_denominator=3))
    shape = dict(p=p, e=e, ideal_num=e, num_vars=num_vars,
                 var_den=3 if num_vars else 1, var_cap=cap)
    if draw(st.booleans()):
        ring = LayerRing(n_digits=draw(st.integers(min_value=1, max_value=3)), **shape)
    else:
        ring = LayerRing(window=draw(st.integers(min_value=1, max_value=2 * e)), **shape)
    keys = ring.basis_keys()

    def elem():
        items = []
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            k, vt = keys[draw(st.integers(min_value=0, max_value=len(keys) - 1))]
            items.append((k, vt, draw(st.integers(min_value=1, max_value=ring.coeff_mod))))
        return ring._from_items(items, draw(st.booleans()))

    a = elem()
    return ring, a, (a if draw(st.booleans()) else elem())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sum_case())
def test_add_neg_sub_match_item_path(data):
    # __add__ and __neg__ merge canonical term dicts; the references take
    # every term through _from_items, which also folds keys and drops
    # terms at the cap
    ring, a, b = data
    _same(a + b, reference_add(a, b), order=True)
    _same(-a, reference_neg(a), order=True)
    _same(a - b, reference_add(a, reference_neg(b)), order=True)


def _product_at_every_modulus(ring, a, b):
    """LayerRing._chain_mul at mod = p^k for 1 <= k <= N, on terms dicts and
    on coefficient lists, against reference_mul reduced mod p^k.  Its inputs
    lie in [0, mod), and _mul hands it no empty side."""
    for k in range(1, ring.n_digits + 1):
        mod = ring.p**k
        ra, rb = (
            ring._from_items([(t, vt, c % mod) for (t, vt), c in x.terms.items()])
            for x in (a, b)
        )
        rb = ra if b is a else rb
        if not ra.terms or not rb.terms:
            continue
        want = {key: r for key, c in reference_mul(ra, rb).terms.items() if (r := c % mod)}
        la = ring._coeff_list(ra.terms)
        lb = la if rb is ra else ring._coeff_list(rb.terms)
        forms = [(ra.terms, rb.terms), (la, lb)]
        if rb is not ra:
            forms += [(la, rb.terms), (ra.terms, lb)]
        for fa, fb in forms:
            got = ring._chain_mul(fa, fb, mod)
            sparse = isinstance(fa, dict) and isinstance(fb, dict) and not _dense(ring, ra, rb)
            assert isinstance(got, dict) == sparse
            assert ring._terms_of(got) == want
            if sparse:
                assert list(got) == list(want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monogenic_pair())
def test_the_product_matches_the_item_path_at_every_modulus(data):
    _product_at_every_modulus(*data)


@pytest.mark.parametrize("mode", ["mixed", "char_p"])
def test_the_product_at_every_modulus_on_both_sides_of_the_dense_threshold(mode):
    shape = dict(p=7, e=16, ideal_num=16)
    ring = LayerRing(n_digits=3, **shape) if mode == "mixed" else LayerRing(window=30, **shape)
    full = ring._from_items([(k, (), 7 * k + 1) for k in range(ring.t_range())])
    small = ring._from_items([(k, (), 7 * k + 2) for k in range(0, 16, 4)])
    assert _dense(ring, full, full) and not _dense(ring, small, small)
    for a, b in ((full, full), (full, small), (small, small), (small, full)):
        _product_at_every_modulus(ring, a, b)


def test_monogenic_paths_cover_both_sides_of_the_dense_threshold():
    ring = LayerRing(p=5, e=16, n_digits=3, ideal_num=16)
    full = ring._from_items([(k, (), k + 1) for k in range(16)])
    small = ring._from_items([(k, (), 5 * k + 2) for k in range(0, 16, 4)])
    assert _dense(ring, full, full) and not _dense(ring, small, small)
    for a, b in ((full, full), (full, small), (small, small), (small, full)):
        _same(a * b, reference_mul(a, b), order=not _dense(ring, a, b))
        _same(a + b, reference_add(a, b), order=True)


def test_monogenic_mul_folds_and_cancels():
    ring = LayerRing(p=5, e=5, n_digits=2, ideal_num=5)
    t4 = ring.monomial(4, coeff=5)
    # t^8 = 5 t^3, times the coefficients 5 * 5: everything cancels mod 25
    assert (t4 * t4).is_zero()
    x = ring._from_items([(4, (), 1), (3, (), 2)], lossy=True)
    prod = x * x  # t^8 + 4 t^7 + 4 t^6 = 5 t^3 + 20 t^2 + 20 t
    _same(prod, reference_mul(x, x), order=True)
    assert prod.lossy and prod == ring.parse("5*t^3 + 20*t^2 + 20*t")
    assert (x + (-x)).is_zero() and (x + (-x)).lossy
    char_p = LayerRing(p=5, e=5, window=4, ideal_num=4)
    y = char_p.monomial(2) + char_p.monomial(3)
    _same(y * y, reference_mul(y, y), order=True)
    assert y * y == char_p.zero()  # every product index is past the window


# A sparse monogenic product folds each pair as it forms: on a MIXED ring
# a pair summing to k >= e becomes p t^(k-e), on a CHAR_P ring a pair past
# the window is dropped.  These cases put pair sums on either side of those
# boundaries; reference_mul folds only after the full double loop.
_FOLD_MIXED = LayerRing(p=5, e=8, n_digits=3, ideal_num=8)
_FOLD_CANCEL = LayerRing(p=5, e=4, n_digits=2, ideal_num=4)
_FOLD_NARROW = LayerRing(p=3, e=6, window=6, ideal_num=6)
_FOLD_WIDE = LayerRing(p=3, e=4, window=9, ideal_num=4)

# name -> (ring, a's coefficients by t-index, b's, or None for the square a * a)
FOLD_CASES = {
    "sums-at-e-1": (_FOLD_MIXED, {3: 1, 1: 2}, {4: 3, 2: 1}),
    "sums-at-e": (_FOLD_MIXED, {5: 2, 2: 1}, {3: 1, 6: 4}),
    "sums-at-2e-2": (_FOLD_MIXED, {7: 3, 0: 1}, {7: 2, 1: 1}),
    "fold-reaches-a-later-key": (_FOLD_MIXED, {6: 1, 1: 2}, {4: 1, 2: 3, 1: 1}),
    "fold-reaches-an-earlier-key": (_FOLD_MIXED, {1: 1, 6: 2}, {1: 3, 4: 1}),
    "square-diagonal-at-e": (_FOLD_MIXED, {4: 2, 1: 3}, None),
    "square-diagonals-past-e": (_FOLD_MIXED, {7: 1, 5: 2, 2: 3, 0: 1}, None),
    "square-folds-off-diagonal-only": (_FOLD_MIXED, {3: 1, 6: 2}, None),
    "folded-sums-cancel": (_FOLD_CANCEL, {3: 1, 1: 1}, {3: 1, 1: 20}),
    "square-cancels-mod-p^N": (_FOLD_CANCEL, {3: 5, 2: 5}, None),
    "char-p-at-and-past-the-window": (_FOLD_NARROW, {2: 1, 3: 2}, {3: 1, 4: 2, 1: 1}),
    "char-p-square-at-and-past-the-window": (_FOLD_NARROW, {3: 1, 2: 2, 5: 1}, None),
    "char-p-window-above-e": (_FOLD_WIDE, {8: 1, 4: 2, 1: 1}, {1: 2, 0: 1, 5: 1}),
    "char-p-square-window-above-e": (_FOLD_WIDE, {4: 1, 8: 2, 2: 1}, None),
}


def _fold_case(name, lossy_a, lossy_b):
    ring, ca, cb = FOLD_CASES[name]
    a = ring._from_items([(k, (), c) for k, c in ca.items()], lossy_a)
    b = a if cb is None else ring._from_items([(k, (), c) for k, c in cb.items()], lossy_b)
    return ring, a, b


@pytest.mark.parametrize("lossy", [(False, False), (True, False), (False, True)])
@pytest.mark.parametrize("name", list(FOLD_CASES))
def test_sparse_mul_at_the_fold_boundaries(name, lossy):
    ring, a, b = _fold_case(name, *lossy)
    assert not _dense(ring, a, b)
    _same(a * b, reference_mul(a, b), order=True)


def test_fold_cases_reach_the_boundaries():
    # pair sums minus e (MIXED), resp. the window (CHAR_P), per ring; the
    # diagonal pairs of squares apart
    sums, diagonals = {}, {}
    for name in FOLD_CASES:
        ring, a, b = _fold_case(name, False, False)
        top = ring.e if ring.mode == MIXED else ring.window
        for ka, _ in a.terms:
            for kb, _ in b.terms:
                into = diagonals if a is b and ka == kb else sums
                into.setdefault(ring, set()).add(ka + kb - top)
    assert {-1, 0, _FOLD_MIXED.e - 2} <= sums[_FOLD_MIXED]  # e - 1, e and 2e - 2
    assert {-1, 0, 1} <= sums[_FOLD_NARROW] and {-1, 0, 1} <= sums[_FOLD_WIDE]
    assert {0, 2, 6} <= diagonals[_FOLD_MIXED] and {0, 4} <= diagonals[_FOLD_NARROW]
    assert max(diagonals[_FOLD_WIDE]) > 0
    # t^1 * 20 t^1 = 20 t^2 cancels with t^3 * t^3 = 5 t^2 mod 25
    _, a, b = _fold_case("folded-sums-cancel", False, False)
    assert (a * b).terms == {(0, ()): 5}
    _, x, _ = _fold_case("square-cancels-mod-p^N", True, False)
    assert (x * x).is_zero() and (x * x).lossy


def test_zero_product_keeps_the_lossy_flag():
    ring = LayerRing(p=2, e=1, window=1, ideal_num=1)
    zero = ring._from_items([], lossy=True)
    prod = zero * zero
    _same(prod, reference_mul(zero, zero), order=True)
    assert prod.is_zero() and prod.lossy
    assert (zero * ring.one()).lossy and (ring.one() * zero).lossy
    assert not (ring.zero() * ring.one()).lossy


# -- the p-th power chain -----------------------------------------------------------
#
# p_power(m) raises to p**m by m successive p-th powers at rising precision;
# the reference is binary powering at full precision, x ** p**m.


def valuation_items(ring, v, keys, pick):
    """Items of an element of index valuation exactly v on the given keys,
    with pick(lo, hi) an integer draw: v's own key carries p^(v // e) times
    a unit, and every other key k at least p^ceil((v - k) / e), so the keys
    below v carry p-divisible coefficients."""
    p, e, n = ring.p, ring.e, ring.n_digits
    a, k0 = divmod(v, e)
    items = [(k0, (), p**a * (pick(0, p**n) * p + pick(1, p - 1)))]
    for k in keys:
        if k != k0:
            least = max(0, -(-(v - k) // e))
            unit = pick(0, p**n) * p + pick(1, p - 1)
            items.append((k, (), unit * p ** (least + pick(0, 1))))
    return items


@st.composite
def chain_case(draw):
    """A mixed layer of pure (e = p^a) or Kummer (e = e0 p^a) shape, an
    element that is zero, a monomial, sparse, dense or of a chosen
    valuation, and 0 <= m <= N + 2.

    Coefficients carry p-powers, so the first reduction, mod p^max(1, N-m),
    drops terms; m >= N adds steps mod p.  The valuation shape draws
    v >= 1 with p^m * v just below, at or just above index_cap, where
    the p^m-th power turns 0.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e0 = draw(st.sampled_from([k for k in (1, 2, 3) if k % p]))
    level = draw(st.integers(min_value=0, max_value=3 if p < 5 else 2))
    n = draw(st.integers(min_value=1, max_value=4))
    ring = O(p, n, e0 * p**level, e0=e0)
    shape = draw(st.sampled_from(["zero", "monomial", "sparse", "dense", "valuation"]))
    if shape == "valuation":
        m = draw(st.integers(min_value=1, max_value=n + 2))
        cap = ring.index_cap
        side = draw(st.sampled_from(["below", "at", "above"]))
        v = {"below": -(-cap // p**m) - 1, "at": cap // p**m, "above": cap // p**m + 1}[side]
        v = min(max(v, 1), cap - 1)
        keys = draw(st.lists(st.integers(min_value=0, max_value=ring.e - 1),
                             min_size=1, max_size=min(8, ring.e), unique=True))

        def pick(lo, hi):
            return draw(st.integers(min_value=lo, max_value=hi))

        x = ring._from_items(valuation_items(ring, v, keys, pick), draw(st.booleans()))
        assert x.index_valuation() == v
        return x, m
    if shape == "dense":
        keys = range(ring.e)
    else:
        low, high = {"zero": (0, 0), "monomial": (1, 1), "sparse": (2, 8)}[shape]
        keys = draw(
            st.lists(
                st.integers(min_value=0, max_value=ring.e - 1),
                min_size=min(low, ring.e),
                max_size=min(high, ring.e),
                unique=True,
            )
        )
    items = []
    for k in keys:
        unit = draw(st.integers(min_value=1, max_value=ring.coeff_mod - 1))
        shift = draw(st.integers(min_value=0, max_value=n))
        items.append((k, (), unit * p**shift))
    x = ring._from_items(items, draw(st.booleans()))
    return x, draw(st.integers(min_value=0, max_value=n + 2))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(chain_case())
def test_p_power_matches_binary_powering(case):
    x, m = case
    _same(x.p_power(m), x ** x.ring.p**m, order=False)


def test_p_power_refuses_negative_exponents():
    # as ** does, for a single term and for the ladder's many terms alike
    ring = O(p=5, N=3, e=2)
    for x in (ring.t_gen(), ring.parse("1 + t")):
        with pytest.raises(ValueError, match="negative"):
            x.p_power(-1)


def test_p_power_reduces_sparse_steps_before_the_kernel():
    # (1 + t)^(3^i) stays sparse for a few steps, with binomial coefficients
    # far above the step's modulus; the kernel's lanes hold only reduced
    # coefficients (unreduced: a silent carry at m = 8, an overflow at 9)
    ring = LayerRing(p=3, e=243, n_digits=10, ideal_num=243)
    x = ring.parse("1 + t")
    for m in (8, 9):
        _same(x.p_power(m), x ** 3**m, order=False)


@pytest.mark.parametrize("p, N, e, m, v", [
    (5, 6, 625, 4, 6),  # 5^4 * 6 = index_cap: 0
    (5, 6, 625, 4, 5),  # just below: q = 5, the ladder is one digit long
    (5, 6, 625, 4, 7),  # above
    (5, 3, 25, 1, 14),  # just below with a fold: 70 = 2 * 25 + 20
    (7, 2, 7, 1, 2),  # at
    (7, 2, 7, 1, 1),  # q = 1, s = 0
    (3, 1, 27, 2, 3),  # N = 1, at
    (3, 1, 27, 2, 2),  # N = 1, below: the ladder runs mod p
    (2, 4, 1, 2, 1),  # e = 1, at: every element is one term
    (2, 4, 1, 1, 1),  # e = 1, below
])
def test_p_power_at_the_valuation_edges(p, N, e, m, v):
    ring = O(p, N, e)
    keys = range(min(e, v % e + 4))  # the keys below v and three above
    x = ring._from_items(valuation_items(ring, v, keys, random.Random(v).randint))
    assert x.index_valuation() == v and len(x.terms) >= min(e, 2)
    got = x.p_power(m)
    _same(got, x ** p**m, order=False)
    assert got.is_zero() == (p**m * v >= ring.index_cap)


def _record_products(monkeypatch):
    """The modulus of every chain product and every kernel call, in order."""
    seen = {"chain": [], "kernel": []}
    chain_mul, kernel = LayerRing._chain_mul, _backend.eisenstein_mul

    def counted_chain(ring, a, b, mod):
        seen["chain"].append(mod)
        return chain_mul(ring, a, b, mod)

    def counted_kernel(fa, fb, e, p, pmod):
        seen["kernel"].append(pmod)
        return kernel(fa, fb, e, p, pmod)

    monkeypatch.setattr(LayerRing, "_chain_mul", counted_chain)
    monkeypatch.setattr(_backend, "eisenstein_mul", counted_kernel)
    return seen


def _dense_unit(ring, seed):
    rng = random.Random(seed)
    items = [(k, (), rng.randrange(ring.coeff_mod)) for k in range(ring.e)]
    return ring._from_items(items + [(0, (), 1 - items[0][2] % ring.p)])


def test_a_zero_p_power_makes_no_product(monkeypatch):
    # sharp's shape on h4 (p = 5, N = 6, e = 625, m = 4): t^6 times a unit
    # and p times a unit have index 5^4 * v >= 3750, so their powers are 0
    ring = O(p=5, N=6, e=625)
    unit = _dense_unit(ring, 1)
    inputs = [ring.monomial(6) * unit, ring.from_int(5) * unit, ring.parse("t^6 + 2*t^600")]
    seen = _record_products(monkeypatch)
    for x in inputs:
        for lossy in (False, True):
            got = LayerElem(ring, x.terms, lossy).p_power(4)
            assert got.is_zero() and got.lossy == lossy
    assert seen == {"chain": [], "kernel": []}


@pytest.mark.parametrize("v, q", [(1, 1), (2, 2), (3, 3)])
def test_a_non_unit_climbs_a_shorter_ladder(monkeypatch, v, q):
    # t^v * w with m = 2 on p = 5, N = 4, e = 25: t^(25 v) = p^q, so the
    # ladder raises w mod p^(4 - q), and every kernel call and ladder
    # product runs at p^(4 - q) or below.  The one product at p^4 is the
    # shift back by t^(25 v), last, sparse, with a one-term factor; where
    # the ladder ends in one term, * takes its one-by-one path instead.
    ring = O(p=5, N=4, e=25)
    x = ring.monomial(v) * _dense_unit(ring, v)
    want = x ** 25
    seen = _record_products(monkeypatch)
    counted, calls = LayerRing._chain_mul, []

    def sized(ring, a, b, mod):
        out = counted(ring, a, b, mod)
        calls.append((mod, len(b), len(ring._terms_of(out))))
        return out

    monkeypatch.setattr(LayerRing, "_chain_mul", sized)
    got = x.p_power(2)
    _same(got, want, order=False)
    low = 5 ** (4 - q)
    assert seen["kernel"] and max(seen["kernel"]) <= low
    ladder = [call for call in calls if call[0] <= low]
    assert calls[: len(ladder)] == ladder and ladder[-1][2] >= 1
    shift = [(5**4, 1, len(got.terms))] if ladder[-1][2] > 1 else []
    assert calls[len(ladder) :] == shift


def reference_non_unit_p_power(x, m):
    """p_power of a non-unit x = t^v * w with the division and the shift by
    hand: w = x / t^v, where a key below v borrows ceil((v - k)/e) factors
    p; w^(p^m) on the ladder mod p^(N - q) for t^(p^m v) = p^q t^s; then
    each term times p^q t^s, reduced only where t^(k + s) folds once more."""
    ring = x.ring
    p, n, e, vt = ring.p, ring.n_digits, ring.e, ring._zero_vt
    v = x.index_valuation()
    assert v and len(x.terms) > 1 and ring.mode == MIXED and not ring.num_vars
    shift = p**m * v
    if shift >= ring.index_cap:
        return LayerElem(ring, {}, x.lossy)
    q, s = divmod(shift, e)
    n -= q
    terms = {}
    for (k, _), c in x.terms.items():
        borrow, k = divmod(k - v, e)
        terms[(k, vt)] = c // p**-borrow
    mod = p ** max(1, n - m)
    y = {key: r for key, c in terms.items() if (r := c % mod)}
    for k in range(n - m + 1, n + 1):
        y = ring._chain_pow_p(y, p ** max(1, k))
    low, high, full = p**q, p ** (q + 1), ring.coeff_mod
    out = {}
    for (k, _), c in ring._terms_of(y).items():
        k += s
        if k < e:
            out[(k, vt)] = c * low
        elif c := c * high % full:
            out[(k - e, vt)] = c
    return LayerElem(ring, out, x.lossy)


@st.composite
def non_unit_case(draw):
    """A mixed layer without variables, m and a non-unit x = t^v * w of at
    least two terms: w a unit constant plus up to e further terms, some
    coefficients divisible by p, and v below e*N, so x's low keys may carry
    p's and p^m v may reach the cap (the power is 0).  One x in two is
    marked lossy."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=4))
    e = draw(st.sampled_from([2, p, 3 * p, p * p]))
    ring = O(p, n, e)
    m = draw(st.integers(min_value=1, max_value=3))
    # one v in four may reach the cap; the others keep p^m v below it
    top = e * n - 1 if draw(st.integers(0, 3)) == 0 else max(1, (e * n - 1) // p**m)
    v = draw(st.integers(min_value=1, max_value=top))
    unit = st.integers(min_value=1, max_value=ring.coeff_mod - 1).filter(lambda c: c % p)
    items = [(0, (), draw(unit))]
    for _ in range(draw(st.integers(min_value=1, max_value=e))):
        k = draw(st.integers(min_value=0, max_value=e - 1))
        c = draw(unit) * p ** draw(st.integers(min_value=0, max_value=n))
        items.append((k, (), c))
    x = ring._from_items([(k + v, vt, c) for k, vt, c in items], draw(st.booleans()))
    assume(len(x.terms) > 1)
    return x, m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(non_unit_case())
def test_non_unit_p_power_matches_the_hand_division_and_shift(case):
    x, m = case
    got = x.p_power(m)
    _same(got, reference_non_unit_p_power(x, m), order=True)
    _same(got, x ** x.ring.p**m, order=False)


@pytest.mark.parametrize("text", [None, "1 + t", "3 + t^2 + 4*t^624"])
def test_a_unit_climbs_the_whole_ladder(monkeypatch, text):
    # the parent's ladder, product for product: steps k = N-m+1 .. N, each
    # a p-th power mod p^max(1, k) in three products (p = 5 = 0b101)
    ring = O(p=5, N=6, e=625)
    x = _dense_unit(ring, 2) if text is None else ring.parse(text)
    seen = _record_products(monkeypatch)
    x.p_power(4)
    assert seen["chain"] == [5 ** max(1, k) for k in range(3, 7) for _ in range(3)]
    assert seen["kernel"] == seen["chain"][len(seen["chain"]) - len(seen["kernel"]):]
    if text is None:
        assert seen["kernel"] == seen["chain"]


def test_p_power_at_a_real_size_matches_the_one_product_kernel(monkeypatch):
    # a dense unit at e = 3125 climbs the whole ladder, five steps mod 5^2
    # ... 5^6, each a product or square of 3125 lanes; the one-product
    # reference kernel must give the same terms and flag
    ring = O(p=5, N=6, e=3125)
    x = _dense_unit(ring, 5)
    for lossy in (False, True):
        x = LayerElem(ring, x.terms, lossy)
        got = x.p_power(5)
        seen = []

        def reference(a, b, e, p, pmod):
            seen.append(pmod)
            return kronecker_reference(a, b, e, p, pmod)

        with monkeypatch.context() as patched:
            patched.setattr(_backend, "eisenstein_mul", reference)
            want = x.p_power(5)
        assert sorted(set(seen)) == [5**k for k in range(2, 7)]
        _same(got, want, order=True)


def test_p_power_maps_over_product_parts():
    pure = O(p=5, N=3, e=25)
    kummer = O(p=5, N=3, e=50, e0=2)
    prod = ProductRing((pure, kummer))
    rng = random.Random(4)
    dense = pure._from_items([(k, (), rng.randrange(1, 125)) for k in range(25)])
    for x in (
        prod.random_element(rng, max_terms=8),
        prod.wrap((dense, kummer._from_items([], lossy=True))),
        prod.wrap((pure.monomial(3, coeff=10), kummer.random_element(rng, 8))),
    ):
        for m in range(6):
            for part, ref in zip(x.p_power(m).parts, (x ** 5**m).parts):
                _same(part, ref, order=False)


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
    scale=st.sampled_from([1, 2, 3, 5, 25]),
)
def test_cap_index_matches_fraction_rule(var_den, cap, vts, scale):
    ring = LayerRing(
        p=5, e=5, n_digits=2, ideal_num=5,
        num_vars=2, var_den=var_den, var_cap=cap,
    )
    for vt in vts:
        assert ring._cap_index(tuple(vt)) == (Fraction(sum(vt), var_den) > cap)
        # the scaled rule: would the indices times scale overflow the cap?
        scaled = sum(vt) * scale > ring.var_cap_index
        assert scaled == (Fraction(sum(vt) * scale, var_den) > cap)


def test_cap_index_at_fractional_caps():
    ring = LayerRing(
        p=5, e=5, n_digits=2, ideal_num=5,
        num_vars=2, var_den=5, var_cap=Fraction(7, 3),
    )
    # 7/3 * 5 = 35/3: index sums up to 11 fit, 12 overflows
    assert not ring._cap_index((6, 5))
    assert ring._cap_index((6, 6))
    x = ring.monomial(0, (6, 0))
    assert (x * x).lossy and not x.lossy


# -- the lattice map and the absolute index -----------------------------------------
#
# LayerRing.rescale and the tower maps' key_image replaced five item copies,
# LayerElem.index_valuation replaced a Fraction formula, and reduce_mod_ideal
# replaced a filter followed by _from_items; the references below are those
# copies, that formula and that filter, on MIXED and CHAR_P rings with and
# without variables.  rescale copies or divides indices; a transition
# multiplies them key by key (lattice_image).


def _vp_reference(c, p):
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def reference_valuation(x):
    ring = x.ring
    if not x.terms:
        return ABOVE_PRECISION
    return min(
        Fraction(k, ring.e) + (_vp_reference(c, ring.p) if ring.mode == MIXED else 0)
        for (k, _), c in x.terms.items()
    )


def reference_rescale(target, x, mul, div):
    terms = x.terms.items()
    if div > 1:  # the inverse of the composite reduction in check_tilt_quotient_iso
        items = [(k // div, tuple(j // div for j in vt), c) for (k, vt), c in terms]
    elif mul > 1:  # transition and tbar
        items = [(k * mul, tuple(j * mul for j in vt), c) for (k, vt), c in terms]
    else:  # frob, lift and tilts._reindex
        items = [(k, vt, c) for (k, vt), c in terms]
    return target._from_items(items, x.lossy)


def reference_reduce(x):
    """The reduction mod the ideal in two passes: keep the terms nonzero mod
    p below the ideal index, then key them again in the quotient."""
    ring = x.ring
    items = [(k, vt, c % ring.p) for (k, vt), c in x.terms.items()
             if c % ring.p and k < ring.ideal_num]
    return ring.quotient_ring()._from_items(items, x.lossy)


def _check_rescale_and_reduce(dst, div, x, image):
    """rescale at div (a copy when div is 1, whatever lattice_image did) and
    the reduction of x and of its image against their references."""
    _same(dst.rescale(x, div), reference_rescale(dst, x, 1, div), order=True)
    for y in (x, image):
        _same(y.ring.reduce_mod_ideal(y), reference_reduce(y), order=True)


def lattice_image(dst, x, mul, div):
    """x in dst with its indices times mul over div: rescale for a copy or
    a division, the transition of a two-level tower (key_image on each key,
    extended linearly) for mul > 1."""
    if mul == 1:
        return dst.rescale(x, div)
    return TowerHandle(rings={0: x.ring, 1: dst}, label="up").transition(0, x)


@st.composite
def lattice_map(draw, min_terms=1, max_terms=4):
    """(source, target, mul, div, x): a transition ("up"), a Frobenius
    projection ("copy") or the inverse of k transitions ("down")."""
    p = draw(st.sampled_from([2, 3, 5]))
    mixed = draw(st.booleans())
    num_vars = draw(st.integers(min_value=0, max_value=2))
    cap = draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
    nd = draw(st.integers(min_value=1, max_value=3))
    width = draw(st.integers(min_value=1, max_value=3))

    def ring(level):
        e = p**level
        shape = dict(p=p, e=e, ideal_num=e, num_vars=num_vars,
                     var_den=e if num_vars else 1, var_cap=cap)
        if mixed:
            return LayerRing(n_digits=nd, **shape)
        return LayerRing(window=width * e, **shape)

    kind = draw(st.sampled_from(["up", "copy", "down"]))
    n = draw(st.integers(min_value=0, max_value=2))
    if kind == "up":
        src, dst, mul, div = ring(n), ring(n + 1), p, 1
    elif kind == "copy":
        src, dst, mul, div = ring(n + 1), ring(n), 1, 1
    else:
        k = draw(st.integers(min_value=1, max_value=2))
        src, dst, mul, div = ring(n + k), ring(n), 1, p**k
    items = []
    for _ in range(draw(st.integers(min_value=min_terms, max_value=max_terms))):
        t = div * draw(st.integers(min_value=0, max_value=(src.t_range() - 1) // div))
        vt = tuple(
            div * draw(st.integers(min_value=0, max_value=src.var_cap_index // div))
            for _ in range(num_vars)
        )
        unit = draw(st.integers(min_value=1, max_value=src.coeff_mod - 1))
        shift = draw(st.integers(min_value=0, max_value=src.n_digits - 1))
        items.append((t, vt, unit * p**shift))
    return src, dst, mul, div, src._from_items(items, draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lattice_map())
def test_index_valuation_matches_the_fraction_formula(data):
    _, dst, mul, div, x = data
    for y in (x, lattice_image(dst, x, mul, div)):
        want = reference_valuation(y)
        assert y.valuation() == want
        idx = y.index_valuation()
        assert (idx is None) if want is ABOVE_PRECISION else (idx == want * y.ring.e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lattice_map())
def test_rescale_matches_the_item_copies(data):
    _, dst, mul, div, x = data
    got = lattice_image(dst, x, mul, div)
    _same(got, reference_rescale(dst, x, mul, div), order=True)
    _check_rescale_and_reduce(dst, div, x, got)
    # A drop is lossy when the cap drops a term that is nonzero once folded
    # through t^e = p, summed with the terms that fold onto its key and
    # reduced; a term that vanishes mod coeff_mod loses nothing.
    capped = {}
    for (k, vt), c in x.terms.items():
        k, vt = k * mul // div, tuple(j * mul // div for j in vt)
        if Fraction(sum(vt), dst.var_den) > dst.var_cap:
            if dst.mode == MIXED:
                c *= dst.p ** (k // dst.e)
                k %= dst.e
            capped[k, vt] = capped.get((k, vt), 0) + c
    dropped = any(c % dst.coeff_mod for c in capped.values())
    assert got.lossy == (x.lossy or dropped)
    if mul != div:  # a transition and its inverse keep absolute exponents
        assert got.valuation() == x.valuation()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lattice_map(), st.booleans())
def test_key_image_is_the_rescale_of_one_key(data, lossy):
    # The tower maps' key hooks are key_image: a key with coefficient 1
    # maps to what the item copy makes of it, terms and flag, past the target's
    # window, past its cap and folded through t^e = p ("copy" and "down"
    # draws copy keys of a finer lattice into a coarser one).
    src, dst, mul, div, x = data
    if div != 1:
        mul = 1
    for key in x.terms:
        want = reference_rescale(dst, LayerElem(src, {key: 1}, lossy), mul, 1)
        assert dst.key_image(key, mul, lossy) == (want.terms, want.lossy)


# -- the one-term path against the general loop -------------------------------------
#
# LayerRing._term is _from_items on one item.  monomial, from_int, one-term
# powers and one-by-one products take it; each is compared with the item it
# used to hand _from_items, lossy flag included.  Zero- and one-term
# rescales and reductions are compared with their references too.


def raw_item(ring):
    """(k, vt, c, lossy) as a caller hands it over: c may be 0 or vanish mod
    coeff_mod, k may fold through t^e = p or fall off the window, and vt may
    overflow the variable cap."""
    mod = ring.coeff_mod
    return st.tuples(
        st.integers(min_value=0, max_value=3 * ring.t_range()),
        st.tuples(*[st.integers(min_value=0, max_value=ring.var_cap_index + 2)]
                  * ring.num_vars),
        st.sampled_from([0, mod, -mod, ring.p])
        | st.integers(min_value=-2 * mod, max_value=2 * mod),
        st.booleans(),
    )


def _check_one_term_paths(ring, item, other, n):
    k, vt, c, lossy = item
    x = ring._from_items([(k, vt, c)], lossy)
    _same(ring._term(k, vt, c, lossy), x, order=True)
    _same(ring.monomial(k, vt, c), ring._from_items([(k, vt, c)]), order=True)
    _same(ring.from_int(c), ring._from_items([(0, ring._zero_vt, c)]), order=True)
    if len(x.terms) == 1:
        ((kx, vx), cx), = x.terms.items()
        power = [(kx * n, tuple(j * n for j in vx), pow(cx, n, ring.coeff_mod))]
        _same(x**n, ring._from_items(power, x.lossy), order=True)
    ko, vo, co, lossy_o = other
    y = ring._from_items([(ko, vo, co)], lossy_o)
    _same(x * y, reference_mul(x, y), order=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lattice_map(min_terms=0, max_terms=1), st.data())
def test_one_term_paths_match_from_items(case, data):
    src, dst, mul, div, x = case
    got = lattice_image(dst, x, mul, div)
    _same(got, reference_rescale(dst, x, mul, div), order=True)
    _check_rescale_and_reduce(dst, div, x, got)
    for ring in (src, dst):
        item, other = data.draw(raw_item(ring)), data.draw(raw_item(ring))
        _check_one_term_paths(ring, item, other, data.draw(st.integers(1, 2 * ring.p)))


def _char_p(window, **shape):
    return LayerRing(p=5, e=5, window=window, ideal_num=5, **shape)


@pytest.mark.parametrize("ring, item, terms, lossy", [
    (O(), (3, (), 0, True), {}, True),
    (O(), (3, (), 0, False), {}, False),
    (O(N=2), (3, (), 50, False), {}, False),
    (O(N=3), (7, (), 2, False), {(2, ()): 10}, False),
    (O(N=1), (7, (), 2, True), {}, True),
    (_char_p(4), (4, (), 1, False), {}, False),
    (_char_p(4), (3, (), 6, True), {(3, ()): 1}, True),
    (O(num_vars=1, var_cap=1), (0, (6,), 1, False), {}, True),
    (_char_p(4, num_vars=2, var_den=5, var_cap=Fraction(1, 5)), (9, (1, 0), 1, False),
     {}, False),
    # 5*x1^{3/5}: its square 25*x1^{6/5} is past the cap but vanishes mod
    # 25, so x*x and x**2 are both a zero that is not lossy
    (O(N=2, num_vars=1, var_cap=1), (0, (3,), 5, False), {(0, (3,)): 5}, False),
], ids=["zero-lossy", "zero", "zero-mod", "fold", "fold-to-zero", "window",
        "lossy", "cap", "window-under-cap", "product-past-cap"])
def test_one_term_paths_at_their_edges(ring, item, terms, lossy):
    k, vt, c, flag = item
    got = ring._term(k, vt, c, flag)
    assert (got.terms, got.lossy) == (terms, lossy)
    _check_one_term_paths(ring, item, item, 2)


@pytest.mark.parametrize("ring", [
    _char_p(4),
    _char_p(4, num_vars=2, var_den=25, var_cap=Fraction(1, 5)),
], ids=["monogenic", "two-vars"])
def test_keeps_key_is_the_drop_rule_of_term(ring):
    # keeps_key is the rule _term drops by: on either side of the window
    # (index 3 | 4) and of the variable cap (index sum 5 | 6), a key is kept
    # exactly when its one-term element is non-zero, and a drop is lossy
    # exactly when the cap made it.
    assert ring.window == 4 and ring.var_cap_index == (5 if ring.num_vars else 0)
    vts = [(0, 0), (5, 0), (2, 3), (6, 0), (3, 3)] if ring.num_vars else [()]
    for k in (0, 3, 4, 5):
        for vt in vts:
            got = ring._term(k, vt, 1)
            assert ring.keeps_key(k, vt) == bool(got.terms) == (k < 4 and sum(vt) <= 5)
            assert got.lossy == ring._cap_index(vt)


def test_square_past_the_cap_that_vanishes_is_not_lossy():
    ring = O(N=2, num_vars=1, var_cap=1)
    x = ring.parse("5*x1^{3/5}")
    for square in (x**2, x * x):
        assert square.is_zero() and not square.lossy
    # one nonzero term past the cap still marks its drop
    y = ring.parse("x1^{3/5}")
    for square in (y**2, y * y):
        assert square.is_zero() and square.lossy


@st.composite
def one_term_on_a_variable_ring(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    level = draw(st.integers(min_value=0, max_value=2))
    ring = O(
        p=p, N=draw(st.integers(min_value=1, max_value=3)), e=p**level,
        num_vars=draw(st.integers(min_value=1, max_value=2)),
        var_cap=draw(st.fractions(min_value=0, max_value=2, max_denominator=4)),
    )
    k = draw(st.integers(min_value=0, max_value=ring.e - 1))
    vt = tuple(
        draw(st.integers(min_value=0, max_value=ring.var_cap_index))
        for _ in range(ring.num_vars)
    )
    shift = draw(st.integers(min_value=0, max_value=ring.n_digits - 1))
    unit = draw(st.integers(min_value=1, max_value=ring.coeff_mod - 1))
    return ring._term(k, vt, unit * p**shift, draw(st.booleans()))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(one_term_on_a_variable_ring())
def test_square_and_self_product_agree(x):
    square, product = x**2, x * x
    assert (square.terms, square.lossy) == (product.terms, product.lossy)


def test_from_items_cancelling_at_a_capped_key_is_not_lossy():
    ring = O(N=2, num_vars=1, var_cap=1)
    zero = ring._from_items([(0, (6,), 7), (0, (6,), 18)])
    assert zero.is_zero() and not zero.lossy
    # the same items with a nonzero sum drop a term, and say so
    assert ring._from_items([(0, (6,), 7), (0, (6,), 17)]).lossy


@pytest.mark.parametrize("ring", [
    O(), O(num_vars=1, var_cap=1), O(N=2, num_vars=2, var_cap=Fraction(2, 5)),
    _char_p(4), _char_p(3, num_vars=1, var_den=5, var_cap=1),
    _char_p(4, num_vars=2, var_den=25, var_cap=Fraction(1, 5)),
], ids=["mixed", "mixed-1var", "mixed-2vars", "char_p", "char_p-1var", "char_p-2vars"])
def test_to_vec_places_each_basis_monomial_at_its_basis_position(ring):
    # to_vec places by the basis's own layout: the monomial of the i-th
    # basis key is the i-th unit vector
    keys = ring.basis_keys()
    assert len(ring.var_monomials()) > 1 or not ring.num_vars
    for i, key in enumerate(keys):
        unit = [0] * len(keys)
        unit[i] = 1
        assert ring.to_vec(ring.monomial(*key)) == unit


# -- variable-layer products ----------------------------------------------------------


@st.composite
def variable_pair(draw):
    """A ring with perfectoid variables and two elements on its kept keys,
    each lossy or not."""
    p = draw(st.sampled_from([2, 3, 5]))
    e = p ** draw(st.integers(min_value=0, max_value=2))
    shape = dict(p=p, e=e, ideal_num=e, num_vars=draw(st.integers(1, 2)), var_den=e,
                 var_cap=draw(st.fractions(min_value=0, max_value=2, max_denominator=4)))
    if draw(st.booleans()):
        ring = LayerRing(n_digits=draw(st.integers(1, 3)), **shape)
    else:
        ring = LayerRing(window=draw(st.integers(1, 3)) * e, **shape)
    keys = st.tuples(st.integers(0, ring.t_range() - 1), st.sampled_from(ring.var_monomials()))

    def elem():
        terms = draw(st.dictionaries(keys, st.integers(1, ring.coeff_mod - 1),
                                     min_size=1, max_size=6))
        return ring._from_items([(k, vt, c) for (k, vt), c in terms.items()], draw(st.booleans()))

    return ring, elem(), elem()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(variable_pair())
def test_variable_mul_matches_item_path(data):
    # a lossy product skips the pairs past the cap; terms, order and flag
    # are those of every pair through _from_items
    _, a, b = data
    _same(a * b, reference_mul(a, b), order=True)
    _same(a * a, reference_mul(a, a), order=True)


def test_lossy_variable_mul_hands_over_no_pair_past_the_cap(monkeypatch):
    ring = O(N=2, num_vars=1, var_cap=1)
    seen = []
    real = ring._from_items

    def counted(items, lossy=False):
        seen.append(len(items))
        return real(items, lossy)

    x = ring.parse("1 + x1^{3/5}")
    monkeypatch.setattr(ring, "_from_items", counted)
    # x1^{6/5} lies past the cap: summed and dropped while the inputs are
    # exact, skipped once an input's flag has set the product's
    square = x * x
    assert square.lossy and seen == [4]
    lossy = LayerElem(ring, x.terms, True)
    assert (lossy * lossy).terms == square.terms and seen == [4, 3]


# -- rank and random elements without a basis -----------------------------------------


def reference_random_element(ring, rng, max_terms=3):
    """random_element as a draw of basis_keys() positions."""
    basis = ring.basis_keys()
    items = []
    for _ in range(rng.randint(1, max_terms)):
        k, vt = basis[rng.randrange(len(basis))]
        items.append((k, vt, rng.randrange(1, ring.coeff_mod)))
    return ring._from_items(items)


@pytest.mark.parametrize("ring", [
    O(), O(num_vars=1, var_cap=1), O(N=2, num_vars=2, var_cap=Fraction(2, 5)),
    _char_p(4), _char_p(3, num_vars=1, var_den=5, var_cap=1),
    _char_p(4, num_vars=2, var_den=25, var_cap=Fraction(1, 5)),
], ids=["mixed", "mixed-1var", "mixed-2vars", "char_p", "char_p-1var", "char_p-2vars"])
def test_random_element_draws_basis_positions_without_the_basis(ring):
    assert ring.rank == len(ring.basis_keys())
    ring._basis = None
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        got = ring.random_element(rng, 4)
        assert ring._basis is None
        _same(got, reference_random_element(ring, ref, 4), order=True)
        assert rng.getstate() == ref.getstate()
        ring._basis = None
