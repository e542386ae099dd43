"""Closure checks against brute-force oracles, the crafted negative
controls, and the cross-checks tying the modes together."""

import itertools
import random
import signal
from fractions import Fraction

import pytest

from tiltlab import closure, linalg
from tiltlab.closure import (
    FAIL,
    PASS_EXACT,
    UNDECIDED_AT_PRECISION,
    RingPair,
    TorsionPresent,
    _cartesian_dense,
    _cartesian_monomial,
    almost_integral_witness,
    check_root_closed,
    is_cartesian_mod_f,
    tower_pairs,
    transfer_suite,
)
from tiltlab.battery import closure_pair_collection, crafted_negative_pairs
from tiltlab.core import EnumerationTooLarge, LayerRing, ring_map_defect
from tiltlab.towers import SpecError, TowerSpec, build_tower

from test_towers import kummer52, pure5


def small_pure2():
    return build_tower(TowerSpec(prime=2, n_digits=2, depth=2))


# -- root closedness -----------------------------------------------------------


def test_root_closed_localization_exact_matches_brute_force():
    # oracle: enumerate all of A and test membership by hand on the
    # canonical localization candidates a / f^c
    ring = LayerRing(p=2, e=2, n_digits=2, ideal_num=2)
    pair = RingPair.localization(ring, ring.f0(), c_cap=2, label="O1(p=2)")
    verdict = check_root_closed(pair, 2, mode="exact")
    assert verdict.verdict == PASS_EXACT
    # brute force: no a gives a counterexample
    f_idx = 2  # f0 = t^2 = p, absolute index 2
    for a in ring.enumerate_elements():
        idx = min(
            (k + ring.e * (c % 2 == 0) * 0) + ring.e * _vp2(c)
            for (k, _), c in a.terms.items()
        ) if a.terms else None
        if idx is None:
            continue
        member_b = idx >= 2 * f_idx
        member_b2 = 2 * idx >= 4 * f_idx
        assert not (member_b2 and not member_b)


def _vp2(c):
    v = 0
    while c % 2 == 0:
        c //= 2
        v += 1
    return v


def test_root_closed_extension_detects_crafted_defect_both_modes():
    defect = crafted_negative_pairs()[0]
    exact = check_root_closed(defect, 2, mode="exact")
    sampled = check_root_closed(defect, 2, mode="sampled", samples=300, seed=0)
    assert exact.verdict == FAIL and sampled.verdict == FAIL
    assert exact.witness  # a concrete y with y^2 in A but y outside


def test_root_closed_charp_defect():
    defect = crafted_negative_pairs()[2]
    exact = check_root_closed(defect, 2, mode="exact")
    assert exact.verdict == FAIL
    assert exact.witness == "T"


def test_root_closed_exact_caps_enumeration():
    # exact mode on an extension pair still enumerates the B side
    (pair,) = tower_pairs(pure5(depth=1))
    with pytest.raises(EnumerationTooLarge):
        check_root_closed(pair, 5, mode="exact")


@pytest.mark.parametrize("n_digits,depth,level", [(8, 1, 1), (2, 3, 3)])
def test_exact_localization_agrees_with_element_sweep(n_digits, depth, level):
    # oracle: sweep all 2^16 elements, check idx(a^2) = 2 idx(a) below the
    # cap, and decide every b = a/f^c (c <= c_cap) by linear algebra on the
    # ideals f^k A, without the valuation
    tower = build_tower(TowerSpec(prime=2, n_digits=n_digits, depth=depth))
    ring = tower.layer(level)
    c_cap = 3
    pair = RingPair.localization(ring, ring.f0(), c_cap=c_cap)
    verdict = check_root_closed(pair, 2, mode="exact")
    assert verdict.verdict == PASS_EXACT
    assert verdict.samples == ring.index_cap
    basis = [ring.monomial(*key) for key in ring.basis_keys()]
    ideals = [
        linalg.RowSpan(
            [ring.to_vec(pair.f**k * x) for x in basis], ring.p, ring.n_digits
        )
        for k in range(2 * c_cap + 1)
    ]

    def depth_in_f(x):  # the largest k <= 2 c_cap with x in f^k A
        vec, k = ring.to_vec(x), 0
        while k < 2 * c_cap and ideals[k + 1].contains(vec):
            k += 1
        return k

    cap = ring.index_cap
    assert ring.element_count() == 1 << 16
    for a in ring.enumerate_elements():
        a2 = a * a
        idx = a.index_valuation()
        if idx is not None and 2 * idx < cap:
            assert a2.index_valuation() == 2 * idx
        # some c <= c_cap has b^2 in A (a^2 in f^2c A) but b not in A:
        # only where a^2 vanishes at precision, which proves nothing
        d2 = depth_in_f(a2)
        if d2 >= 2 and min(c_cap, d2 // 2) > depth_in_f(a):
            assert a2.is_zero(), a.to_text()


def test_root_closed_exact_localization_at_size():
    ring = LayerRing(p=5, e=3125, n_digits=6, ideal_num=3125)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    verdict = check_root_closed(pair, 5, mode="exact")
    assert verdict.verdict == PASS_EXACT
    assert verdict.samples == ring.index_cap == 18750


def test_root_closed_rejects_n_below_one():
    ring = LayerRing(p=2, e=2, n_digits=2, ideal_num=2)
    for pair in (RingPair.localization(ring, ring.f0()), crafted_negative_pairs()[0]):
        with pytest.raises(ValueError):
            check_root_closed(pair, 0)


def test_closure_refuses_an_unknown_mode():
    # a misspelt mode used to sample and report PASS_SAMPLED
    ring = LayerRing(p=2, e=2, n_digits=2, ideal_num=2)
    for pair in (RingPair.localization(ring, ring.f0()), crafted_negative_pairs()[0]):
        for mode in ("exakt", "Exact", ""):
            with pytest.raises(ValueError, match="'exact' or 'sampled'"):
                check_root_closed(pair, 2, mode=mode)
    # also on a tower with variables, whose root-closure rows never sample
    for h in (small_pure2(), build_tower(TowerSpec(prime=2, n_digits=2, depth=2, num_vars=1))):
        with pytest.raises(ValueError, match="'exact' or 'sampled'"):
            transfer_suite(h, mode="Exact", samples=2)


def test_transfer_suite_refuses_product_towers(monkeypatch):
    # refused before any pair is built
    part = TowerSpec(prime=2, n_digits=2, depth=2)
    h = build_tower(TowerSpec(prime=2, n_digits=2, depth=2, kind="product",
                              components=(part, part)))
    monkeypatch.setattr(closure, "tower_pairs", None)
    with pytest.raises(SpecError, match="closure does not take product towers"):
        transfer_suite(h, mode="exact", samples=2)


def test_explicit_negative_power_raises():
    # n >>= 1 never reaches 0 for a negative n, so a loop on it never ends;
    # the timer turns such a hang into a failure.
    one = crafted_negative_pairs()[0].A.one()

    def hang(signum, frame):
        raise AssertionError("ExplicitElem ** -1 did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(ValueError):
            one ** -1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert one ** 0 == one


def test_sampling_never_contradicts_exact():
    for i, pair in enumerate(closure_pair_collection(seed=0)):
        exact = check_root_closed(pair, pair.A.p, mode="exact")
        sampled = check_root_closed(
            pair, pair.A.p, mode="sampled", samples=300, seed=i
        )
        assert exact.ok() == sampled.ok(), pair.label


def test_oracle_block_skips_root_closure_on_the_cartesian_negative(monkeypatch):
    # the cartesian-defect row reads only is_cartesian_mod_f, so its two
    # root-closure verdicts would be computed and thrown away
    from tiltlab import battery

    seen = []
    real = battery.check_root_closed

    def counting(pair, *args, **kwargs):
        seen.append(pair.label)
        return real(pair, *args, **kwargs)

    monkeypatch.setattr(battery, "check_root_closed", counting)
    block = battery.closure_oracle_block(seed=10)
    assert block["ok"]
    assert "cartesian-defect" not in seen
    # one exact and one sampled call on every other pair
    assert len(seen) == 2 * (block["pair_count"] - 1)
    assert {"pair": "cartesian-defect", "cartesian": FAIL} in block["pairs"]


# -- cartesian criterion ----------------------------------------------------------


def test_cartesian_on_tower_pairs():
    h = small_pure2()
    for n in (0, 1):
        pair = RingPair.extension(
            h.layer(n),
            h.layer(n + 1),
            lambda x, n=n: h.transition(n, x),
            h.f0(n),
            label=f"pure2:{n}",
        )
        assert is_cartesian_mod_f(pair).verdict == PASS_EXACT


def _battery_handles():
    """The towers whose consecutive layers the battery pairs: the closure
    oracles' pure p = 2 tower and tilt, and the transfer suite's pure p = 5
    and Kummer 5/2 towers with their depth-1 tilts."""
    from tiltlab.battery import kummer_tower_5_2, pure_tower
    from tiltlab.tilts import tilt_tower

    h3, kummer = pure_tower(5, 6, 3), kummer_tower_5_2(7)[3]
    return [
        small_pure2(),
        tilt_tower(build_tower(TowerSpec(prime=2, n_digits=2, depth=3)), 1),
        h3,
        tilt_tower(h3, 1),
        kummer,
        tilt_tower(kummer, 1),
    ]


def _tampered_transition(h, n):
    """h's transition n -> n+1 with t sent to t^p * (1 + t) in place of t^p,
    extended additively.  t^e = p then fails on a mixed layer with e > 1;
    on level 0 (e = 1) and on a characteristic-p layer, whose window the
    transition scales by p, the substitution is a ring map."""
    A, B = h.layer(n), h.layer(n + 1)
    u = B.t_gen() ** h.transition_scale() * (1 + B.t_gen())

    def phi(x):
        acc = B.zero()
        for (k, vt), c in x.terms.items():
            acc = acc + u**k * h.transition(n, A.monomial(0, vt)) * c
        return acc

    return phi


def _binding(ring):
    """Whether t^e = p binds t: a mixed layer with e > 1."""
    return ring.mode == "mixed" and ring.e > 1


def test_map_decision_checks_each_generator_times_basis(monkeypatch):
    # RingPair.extension decides its map on A's presentation: one product
    # per generator (t, and each variable's smallest monomial) and basis
    # monomial of A, never a drawn pair
    seen = []
    real = closure.ring_map_defect

    def counted(src, phi):
        defect, checks = real(src, phi)
        seen.append(checks)
        return defect, checks

    monkeypatch.setattr(closure, "ring_map_defect", counted)
    handles = _battery_handles() + [
        build_tower(TowerSpec(prime=3, n_digits=2, depth=2, num_vars=1,
                              var_degree_cap=Fraction(1)))
    ]
    pairs = [pair for h in handles for pair in tower_pairs(h)]
    assert len(pairs) == 16 and pairs[-1].A.num_vars == 1
    assert seen == [(1 + pair.A.num_vars) * pair.A.rank for pair in pairs]
    # the tampered substitution is refused exactly where t^e = p binds; the
    # Kummer 4 -> 5 pair is left out, because its refusal powers t^p * (1 + t)
    # to every index below e = 1250 in a dense rank-6250 layer (about 20 s)
    tampered = [(h, n) for h in handles for n in range(h.start, h.top)
                if h.layer(n).rank <= 250]
    refused = 0
    for h, n in tampered:
        try:
            RingPair.extension(h.layer(n), h.layer(n + 1), _tampered_transition(h, n), h.f0(n))
        except ValueError as exc:
            assert _binding(h.layer(n)) and "map is not multiplicative at t" in str(exc)
            refused += 1
        else:
            assert not _binding(h.layer(n)), (h.label, n)
    assert (len(tampered), refused) == (15, 6)


def test_map_decisions_draw_no_random_element(monkeypatch):
    # neither the closure pairs' map check nor the quotient iso samples:
    # with random_element refusing on every ring, the battery's tower pairs
    # still build and the battery's seven iso rows still pass
    from tiltlab.battery import pure_tower
    from tiltlab.closure import ExplicitRing
    from tiltlab.monoidal import check_tilt_quotient_iso

    handles, h4 = _battery_handles(), pure_tower(5, 6, 4)
    kummer = handles[4]
    rows = [(h4, j, min(2, 4 - j)) for j in range(4)]
    rows += [(kummer, j, kummer.top - j) for j in range(kummer.start, kummer.top)]

    def refuse(*args, **kwargs):
        raise AssertionError("a decision drew a random element")

    for cls in (LayerRing, ExplicitRing):
        monkeypatch.setattr(cls, "random_element", refuse)
    assert len([pair for h in handles for pair in tower_pairs(h)]) == 14
    assert [check_tilt_quotient_iso(*row).verdict for row in rows] == ["PASS"] * 7


def test_cartesian_identity_pair():
    ring = LayerRing(p=2, e=2, n_digits=2, ideal_num=2)
    pair = RingPair.extension(ring, ring, lambda x: x, ring.f0(), label="id")
    assert is_cartesian_mod_f(pair).verdict == PASS_EXACT


def test_cartesian_on_a_non_monomial_f_falls_back_to_linear_algebra():
    # the index walk needs f to be a t-monomial; t + t^2 is not one
    ring = LayerRing(p=2, e=4, n_digits=2, ideal_num=4)
    pair = RingPair.extension(ring, ring, lambda x: x, ring.parse("t + t^2"))
    verdict = is_cartesian_mod_f(pair)
    assert verdict.verdict == PASS_EXACT
    assert verdict == _cartesian_dense(pair)


def test_cartesian_walk_matches_linear_algebra_past_the_crosscheck_cap(monkeypatch):
    # the 5 -> 6 pair of pure p=2, N=2 has ranks 32 and 64, past the cap of
    # 48: lift the cap and count the walk's own dense replays
    h = build_tower(TowerSpec(prime=2, n_digits=2, depth=6))
    pair = RingPair.extension(
        h.layer(5), h.layer(6), lambda x: h.transition(5, x), h.f0(5), label="pure2:5"
    )
    assert (pair.A.rank, pair.B.rank) == (32, 64)
    assert 64 > closure._CARTESIAN_CROSSCHECK_DIM
    replays = []
    real_dense = closure._cartesian_dense

    def counted_dense(p):
        replays.append(real_dense(p))
        return replays[-1]

    monkeypatch.setattr(closure, "_cartesian_dense", counted_dense)
    assert is_cartesian_mod_f(pair).verdict == PASS_EXACT
    assert replays == []
    monkeypatch.setattr(closure, "_CARTESIAN_CROSSCHECK_DIM", 10**6)
    verdict = is_cartesian_mod_f(pair)
    assert verdict.verdict == PASS_EXACT
    assert replays == [verdict]


def _substitution(ring, images):
    """The ring map fixing t and sending x_i to images[i]; the images are
    homogeneous of degree 1 in the variables, so the degree cap commutes
    with it."""

    def phi(x):
        acc = ring.zero()
        for (k, vt), c in x.terms.items():
            term = ring.monomial(k, coeff=c)
            for img, j in zip(images, vt):
                term = term * img**j
            acc = acc + term
        return acc

    return phi


_SHAPES = [{"n_digits": 2}, {"window": 3}]


def _substitution_ring(shape):
    return LayerRing(p=2, e=2, ideal_num=2, num_vars=2, var_cap=1, **shape)


def _substitution_cases(ring):
    """Three substitutions of x1, by the cartesian walk's outcome (a FAIL
    reason, or None), with their images and expected witnesses."""
    t, x1, x2 = ring.t_gen(), ring.var_gen(0), ring.var_gen(1)
    return {
        "monomial maps into fB": ((t * x1, x2), x1),
        "collision mod fB": ((x2, x2), x1 - x2),
        None: ((x1 + x2, x2), None),
    }


def _unit_multiple(ring, a, b):
    return any(a * u == b for u in range(1, ring.coeff_mod) if u % ring.p)


@pytest.mark.parametrize("shape", _SHAPES)
def test_cartesian_index_walk_branches_agree_with_linear_algebra(shape):
    # A = B = (Z/4)[t]/(t^2 - 2) or F_2[T]/(T^3), with variables x1, x2 of
    # total degree <= 1, and f = t.
    # x1 -> t*x1 sends the monomial x1 into fB; x1 -> x2 makes x1 and x2
    # collide mod fB; x1 -> x1 + x2 sends x1 to two terms, where the walk
    # hands over to linear algebra.
    ring = _substitution_ring(shape)
    for reason, (images, witness) in _substitution_cases(ring).items():
        pair = RingPair.extension(ring, ring, _substitution(ring, images), ring.t_gen())
        walk = _cartesian_monomial(pair)
        dense = _cartesian_dense(pair)
        if reason is None:
            assert walk is None
            assert is_cartesian_mod_f(pair) == dense
            assert dense.verdict == PASS_EXACT
            continue
        assert is_cartesian_mod_f(pair) == walk
        assert (walk.verdict, walk.details["reason"]) == (FAIL, reason)
        assert dense.verdict == FAIL
        # the walk names x1 - x2 where linear algebra may name x2 - x1:
        # both span the same line of the kernel
        assert ring.parse(walk.witness) == witness
        assert _unit_multiple(ring, witness, ring.parse(dense.witness))


def _ring_map_by_all_pairs(src, phi):
    """Ground truth for a map extended linearly over src's coordinates,
    without the generators: phi is additive iff phi(-b) = -phi(b) for every
    basis element b, and then a ring map iff it sends 1 to 1 and is
    multiplicative on every pair of basis elements."""
    basis = src.basis_elems()
    images = [phi(b) for b in basis]
    return phi(src.one()).is_one() and all(
        phi(-x) == -fx
        and all(phi(x * y) == fx * fy and phi(x + y) == fx + fy for y, fy in zip(basis, images))
        for x, fx in zip(basis, images)
    )


def _linear_map(src, images):
    """The map sending src's basis_elems() to images, extended linearly
    over the coordinates."""

    def phi(x):
        acc = images[0] * 0
        for c, image in zip(src.to_vec(x), images):
            if c:
                acc = acc + image * c
        return acc

    return phi


def _every_unital_linear_map(src, dst):
    one = dst.one()
    for rest in itertools.product(list(dst.enumerate_elements()), repeat=src.rank - 1):
        yield _linear_map(src, [one, *rest])


def test_map_decision_agrees_with_all_pairs_on_small_rings():
    # every map the closure and iso decisions meet on a ring of rank <= 12,
    # plus every unital linear map between three tiny rings and two maps
    # into a codomain of the wrong characteristic
    from tiltlab.closure import ExplicitRing

    maps = []
    for h in _battery_handles()[:2]:  # the p = 2 tower and its tilt
        for n in range(h.start, h.top):
            maps.append((h.layer(n), lambda x, h=h, n=n: h.transition(n, x)))
            maps.append((h.layer(n), _tampered_transition(h, n)))
    maps += [(pair.A, pair.map_fn) for pair in crafted_negative_pairs()]
    for shape in _SHAPES:
        ring = _substitution_ring(shape)
        maps += [(ring, _substitution(ring, images)) for images, _ in _substitution_cases(ring).values()]
    wide = LayerRing(p=2, e=1, ideal_num=1, n_digits=2)
    narrow = ExplicitRing(p=2, n_digits=1, basis_names=("1",), table={(0, 0): (1,)})
    maps.append((LayerRing(p=2, e=1, ideal_num=1, window=1), wide.lift))
    maps.append((narrow, lambda x: wide.from_int(x.vec[0])))
    cells = [
        LayerRing(p=2, e=4, ideal_num=4, window=3),
        LayerRing(p=2, e=2, ideal_num=2, n_digits=2),
        crafted_negative_pairs()[2].A,  # F_2-span{1, T^2, T^3} in F_2[T]/(T^4)
    ]
    for ring in cells:
        maps += [(ring, phi) for phi in _every_unital_linear_map(ring, ring)]
    decided = [ring_map_defect(src, phi)[0] is None for src, phi in maps]
    assert decided == [_ring_map_by_all_pairs(src, phi) for src, phi in maps]
    assert all(src.rank <= 12 for src, _ in maps)
    assert (len(maps), sum(decided)) == (163, 40)


def test_cartesian_detects_collapse():
    defect = crafted_negative_pairs()[1]
    verdict = is_cartesian_mod_f(defect)
    assert verdict.verdict == FAIL
    assert verdict.witness


def test_cartesian_requires_torsion_free():
    from tiltlab.closure import ExplicitRing

    # f = 0 makes everything genuinely torsion
    ring = ExplicitRing(
        p=2, n_digits=2, basis_names=("1",), table={(0, 0): (1,)}
    )
    pair = RingPair.extension(
        ring, ring, lambda x: x, ring.zero(), label="torsion"
    )
    with pytest.raises(TorsionPresent):
        is_cartesian_mod_f(pair)


def test_pullback_stability_crosscheck():
    # When the square is cartesian and B is p-root closed on a sample, the
    # A-side check must accept the same sample (the pullback direction).
    h = small_pure2()
    rng = random.Random(3)
    for n in (0, 1):
        A, B = h.layer(n), h.layer(n + 1)
        pair = RingPair.extension(
            A, B, lambda x, n=n: h.transition(n, x),
            h.f0(n), label="pb",
        )
        assert is_cartesian_mod_f(pair).verdict == PASS_EXACT
        loc_a = RingPair.localization(A, A.f0(), c_cap=2)
        loc_b = RingPair.localization(B, B.f0(), c_cap=2)
        va = check_root_closed(loc_a, 2, mode="exact")
        vb = check_root_closed(loc_b, 2, mode="exact")
        assert vb.ok() and va.ok()  # B closed and the square cartesian => A closed


# -- almost integrality ------------------------------------------------------------


def test_almost_integral_unit_has_witness_zero():
    ring = LayerRing(p=5, e=5, n_digits=6, ideal_num=5)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    v = almost_integral_witness(pair, (ring.one(), 0), c_cap=3, n_cap=10)
    assert v.verdict == PASS_EXACT and v.witness == "c = 0"


def test_almost_integral_simplifiable_fraction():
    ring = LayerRing(p=5, e=5, n_digits=6, ideal_num=5)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    a = ring.f0() * ring.t_gen()  # a in fA, so a/f needs no denominator
    v = almost_integral_witness(pair, (a, 1), c_cap=3, n_cap=10)
    assert v.verdict == PASS_EXACT and v.details["c"] == 0


def test_almost_integral_frontier_for_negative_valuation():
    # b = t/p has valuation 1/5 - 1 < 0: no witness, frontier reported
    ring = LayerRing(p=5, e=5, n_digits=6, ideal_num=5)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    v = almost_integral_witness(pair, (ring.t_gen(), 1), c_cap=3, n_cap=10)
    assert v.verdict == UNDECIDED_AT_PRECISION
    # oracle: valuation arithmetic says c fails first at n = floor(5c/4) + 1
    for c, n_fail in v.details["frontier"]:
        assert n_fail == (5 * c) // 4 + 1
    assert len(v.details["frontier"]) == 4


def test_almost_integral_requires_positive_caps():
    ring = LayerRing(p=5, e=5, n_digits=6, ideal_num=5)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    with pytest.raises(ValueError):
        almost_integral_witness(pair, (ring.one(), 0), c_cap=0, n_cap=5)


# -- transfer suite -----------------------------------------------------------------


def test_transfer_suite_exact_small():
    h = build_tower(TowerSpec(prime=2, n_digits=2, depth=3))
    report = transfer_suite(h, mode="exact", samples=50, seed=0)
    assert report["all_ok"]
    assert all(r["verdict"] == PASS_EXACT for r in report["cartesian"])
    # depth too shallow for tilting: section skipped, rest still reported
    shallow = transfer_suite(small_pure2(), mode="exact", samples=50, seed=0)
    assert shallow["all_ok"] and "tilt_skipped" in shallow


def test_transfer_suite_sampled_pure5_and_kummer():
    rep = transfer_suite(pure5(), mode="sampled", samples=100, seed=1)
    assert rep["all_ok"]
    rep_k = transfer_suite(kummer52(), mode="sampled", samples=100, seed=2)
    assert rep_k["all_ok"]
    assert len(rep_k["root_closed"]) == 4
    assert len(rep_k["tilt_root_closed"]) == 3
