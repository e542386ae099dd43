"""Closure checks against brute-force oracles, the crafted negative
controls, and the cross-checks tying the modes together."""

import random
import signal
from fractions import Fraction

import pytest

from tiltlab import linalg
from tiltlab.closure import (
    FAIL,
    PASS_EXACT,
    UNDECIDED_AT_PRECISION,
    RingPair,
    TorsionPresent,
    almost_integral_witness,
    check_root_closed,
    is_cartesian_mod_f,
    tower_pairs,
    transfer_suite,
)
from tiltlab.battery import closure_pair_collection, crafted_negative_pairs
from tiltlab.core import EnumerationTooLarge, PrecisionBudget, layer_make
from tiltlab.towers import TowerSpec, build_tower

from test_towers import kummer52, pure5


def small_pure2():
    return build_tower(TowerSpec(prime=2, n_digits=2, depth=2))


# -- root closedness -----------------------------------------------------------


def test_root_closed_localization_exact_matches_brute_force():
    # oracle: enumerate all of A and test membership by hand on the
    # canonical localization candidates a / f^c
    ring = layer_make(2, PrecisionBudget(2), 2)
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
    ring = layer_make(5, PrecisionBudget(6), 3125)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    verdict = check_root_closed(pair, 5, mode="exact")
    assert verdict.verdict == PASS_EXACT
    assert verdict.samples == ring.index_cap == 18750


def test_root_closed_rejects_n_below_one():
    ring = layer_make(2, PrecisionBudget(2), 2)
    for pair in (RingPair.localization(ring, ring.f0()), crafted_negative_pairs()[0]):
        with pytest.raises(ValueError):
            check_root_closed(pair, 0)


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
            monomial_map=True,
        )
        assert is_cartesian_mod_f(pair).verdict == PASS_EXACT


def test_cartesian_identity_pair():
    ring = layer_make(2, PrecisionBudget(2), 2)
    pair = RingPair.extension(
        ring, ring, lambda x: x, ring.f0(), label="id", monomial_map=True
    )
    assert is_cartesian_mod_f(pair).verdict == PASS_EXACT


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
            h.f0(n), label="pb", monomial_map=True,
        )
        assert is_cartesian_mod_f(pair).verdict == PASS_EXACT
        loc_a = RingPair.localization(A, A.f0(), c_cap=2)
        loc_b = RingPair.localization(B, B.f0(), c_cap=2)
        va = check_root_closed(loc_a, 2, mode="exact")
        vb = check_root_closed(loc_b, 2, mode="exact")
        assert vb.ok() and va.ok()  # B closed and the square cartesian => A closed


# -- almost integrality ------------------------------------------------------------


def test_almost_integral_unit_has_witness_zero():
    ring = layer_make(5, PrecisionBudget(6), 5)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    v = almost_integral_witness(pair, (ring.one(), 0), c_cap=3, n_cap=10)
    assert v.verdict == PASS_EXACT and v.witness == "c = 0"


def test_almost_integral_simplifiable_fraction():
    ring = layer_make(5, PrecisionBudget(6), 5)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    a = ring.f0() * ring.t_gen()  # a in fA, so a/f needs no denominator
    v = almost_integral_witness(pair, (a, 1), c_cap=3, n_cap=10)
    assert v.verdict == PASS_EXACT and v.details["c"] == 0


def test_almost_integral_frontier_for_negative_valuation():
    # b = t/p has valuation 1/5 - 1 < 0: no witness, frontier reported
    ring = layer_make(5, PrecisionBudget(6), 5)
    pair = RingPair.localization(ring, ring.f0(), c_cap=3)
    v = almost_integral_witness(pair, (ring.t_gen(), 1), c_cap=3, n_cap=10)
    assert v.verdict == UNDECIDED_AT_PRECISION
    # oracle: valuation arithmetic says c fails first at n = floor(5c/4) + 1
    for c, n_fail in v.details["frontier"]:
        assert n_fail == (5 * c) // 4 + 1
    assert len(v.details["frontier"]) == 4


def test_almost_integral_requires_positive_caps():
    ring = layer_make(5, PrecisionBudget(6), 5)
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
