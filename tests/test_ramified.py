"""Kummer-cover ramification: conductors against brute enumeration, the
delta table, the epsilon witness and its certificate, tower assembly."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tiltlab.ramified import (
    AxiomFailure,
    _certify_level,
    _split_p_power,
    NoWitnessInRange,
    assemble_perfectoid,
    build_cover_layers,
    colimit_shadow,
    delta_table,
    find_epsilon,
    semigroup_conductor,
    smalltilt_normality_report,
    tilted_delta_table,
    verify_epsilon_certificate,
)
from tiltlab.towers import SpecError, TowerSpec


def cover(prime, m, n_digits, levels):
    """The Kummer cover S_0 .. S_levels of Z_p[p^(1/p^n)] by p^(1/m)."""
    return TowerSpec(
        prime=prime, n_digits=n_digits, depth=levels, kind="kummer", m=m, ideal_exp=1
    )


def spec52(levels=5, n=6):
    return cover(5, 2, n, levels)


def brute_conductor(m, p, bound=2000):
    """Mark reachable exponents a*m + b*p and find the first point where a
    long run of consecutive values starts (the oracle from first
    principles, independent of the closed form)."""
    reach = [False] * bound
    reach[0] = True
    for x in range(bound):
        if reach[x]:
            if x + m < bound:
                reach[x + m] = True
            if x + p < bound:
                reach[x + p] = True
    run = 0
    for x in range(bound):
        run = run + 1 if reach[x] else 0
        if run >= m * p:
            return x - run + 1
    raise AssertionError("no run found")


@pytest.mark.parametrize("m,p", [(2, 5), (3, 2), (2, 3), (4, 5), (3, 7), (9, 2)])
def test_conductor_closed_form_vs_brute_force(m, p):
    assert math.gcd(m, p) == 1
    assert semigroup_conductor(m, p) == brute_conductor(m, p)


def test_cover_layers_shape():
    layers = build_cover_layers(spec52())
    assert [r.e for r in layers] == [2, 10, 50, 250, 1250, 6250]
    # generators: p^(1/p^n) = t^m and p^(1/m) = t^(p^n)
    assert layers[1].monomial(2).valuation() == Fraction(1, 5)
    assert layers[1].monomial(5).valuation() == Fraction(1, 2)


def test_cover_layers_small_instance_root_closed_exact():
    # correctness certificate at enumerable size: S_1 for p=2, m=3
    from tiltlab.closure import RingPair, check_root_closed

    small = cover(2, 3, 2, 1)
    ring = build_cover_layers(small)[1]
    pair = RingPair.localization(ring, ring.f0(), c_cap=2)
    assert check_root_closed(pair, 2, mode="exact").verdict == "PASS_EXACT"


def test_cover_functions_refuse_a_tower_that_is_not_a_cover():
    # a cover is kind kummer with ideal (p) from level 0
    for spec in (
        replace(spec52(), ideal_exp=Fraction(3, 25)),
        replace(spec52(), start_level=1),
        TowerSpec(prime=5, n_digits=6, depth=5),
    ):
        for fn in (build_cover_layers, delta_table):
            with pytest.raises(SpecError, match="Kummer cover"):
                fn(spec)


def test_delta_table_values():
    table = delta_table(spec52())
    assert [r.delta for r in table.rows] == [
        Fraction(2, 5),
        Fraction(2, 25),
        Fraction(2, 125),
        Fraction(2, 625),
        Fraction(2, 3125),
    ]
    assert all(r.p_n_delta == Fraction(2, 5) for r in table.rows)
    assert all(r.annihilator_lattice_exponent == 4 for r in table.rows)
    assert table.bound_c == Fraction(2, 5)
    # the least annihilator lives in the m-refined lattice, not the
    # coarse one the unramified case would suggest
    assert all(not r.p_n_delta_integral for r in table.rows)
    assert all((r.delta * 2 * 5 ** (r.n + 1)).denominator == 1 for r in table.rows)


def test_delta_table_monotone():
    table = delta_table(spec52())
    deltas = [r.delta for r in table.rows]
    assert deltas == sorted(deltas, reverse=True)


def test_delta_via_module_elimination_agrees():
    # delta_table raises MethodDisagreement internally if the elimination
    # and the conductor differ; run a second parameter set as well
    delta_table(cover(2, 3, 4, 4))
    delta_table(cover(3, 2, 3, 3))


def test_find_epsilon_values():
    table = delta_table(spec52())
    w = find_epsilon(spec52(), table)
    assert w.epsilon == Fraction(3, 25)
    assert w.start_level == 2
    # delta_1 p^2 = 2 >= 1 rules level 1 out; delta_2 p^2 = 2/5 < 1 works
    assert table.rows[1].delta * 25 >= 1
    assert table.rows[2].delta * 25 < 1
    # epsilon lands in the refined lattice at the start level
    assert (w.epsilon * 25 * 2).denominator == 1
    assert w.certificate["eps_times_p_start_in_refined_lattice"] == "3"


def test_find_epsilon_requires_enough_levels():
    shallow = spec52(levels=2)
    with pytest.raises(NoWitnessInRange):
        find_epsilon(shallow, delta_table(shallow))


def test_epsilon_certificate_reverifies():
    w = find_epsilon(spec52(), delta_table(spec52()))
    assert verify_epsilon_certificate(spec52(), w, rng=random.Random(0), samples=40)


@pytest.mark.parametrize(
    "spec",
    # the suite's Kummer 5/2 spec, which is also ramify --p 5 --m 2 at its
    # default --levels 5 --prec 6; and a cover whose powers carry past N
    [spec52(), cover(7, 3, 4, 4)],
    ids=["kummer52", "kummer73"],
)
def test_certificate_rows_equal_the_monomial_power_rows(spec):
    # _certify_level reads each p-th power off the key; the reference
    # raises the monomial, at every level of the cover
    p = spec.prime
    eps = find_epsilon(spec, delta_table(spec)).epsilon
    layers = build_cover_layers(spec)
    for n in range(spec.depth):
        upper = layers[n + 1]
        s_idx = int(eps * upper.e)
        want = [[k, *_split_p_power(upper.monomial(k) ** p, p, s_idx)] for k in range(upper.e)]
        assert _certify_level(layers, n, eps, p) == want


def test_epsilon_certificate_detects_tampering():
    w = find_epsilon(spec52(), delta_table(spec52()))
    rows = w.certificate["monomial_rows"]
    level = sorted(rows)[0]
    k, a_part, b_part = rows[level][1]
    if a_part is not None:
        rows[level][1] = [k, [a_part[0] + 1, a_part[1]], b_part]
    else:
        rows[level][1] = [k, a_part, [b_part[0] + 1, b_part[1]]]
    assert not verify_epsilon_certificate(spec52(), w)


def test_assemble_perfectoid():
    w = find_epsilon(spec52(), delta_table(spec52()))
    handle, report, n_prime, a_priori_bound = assemble_perfectoid(
        spec52(), w, depth=3, samples=50, seed=1
    )
    assert report.all_pass
    assert n_prime == 2  # the checks already pass at the witness level
    assert a_priori_bound == 3  # (n+1) * eps >= c(S) = 2/5 forces n >= 3
    assert handle.ideal_exp == Fraction(3, 25)
    assert list(handle.levels) == [2, 3, 4, 5]


def test_assemble_negative_control_wrong_pillar():
    w = find_epsilon(spec52(), delta_table(spec52()))
    with pytest.raises(AxiomFailure) as err:
        assemble_perfectoid(
            spec52(),
            w,
            depth=2,
            samples=10,
            seed=1,
            pillar_valuation_override=Fraction(1, 2),
        )
    report = err.value.report
    assert report is not None
    assert report.axioms["f"].verdict == "FAIL"
    assert "(f-1)" in report.axioms["f"].witness


def test_assemble_p2_m3():
    spec = cover(2, 3, 6, 6)
    w = find_epsilon(spec, delta_table(spec))
    assert w.epsilon == Fraction(1, 6)
    handle, report, n_prime, bound = assemble_perfectoid(
        spec, w, depth=2, samples=20, seed=2
    )
    assert report.all_pass and n_prime >= w.start_level


# (p, m) -> (start level, a priori bound), as measured; no formula for
# epsilon or the start level is assumed.  p = 2 is the wild corner that
# starts one level lower.
FAMILY_START_AND_BOUND = {
    (3, 2): (2, 2),
    (7, 3): (2, 9),
    (2, 3): (1, 1),
    (3, 4): (2, 2),
    (5, 3): (2, 5),
    (7, 2): (2, 5),
}


@pytest.mark.parametrize(
    "p,m,n_digits,levels,eps",
    [
        (3, 2, 5, 5, Fraction(2, 9)),
        (7, 3, 4, 4, Fraction(3, 49)),  # powers carry past N: zero rows
        (2, 3, 4, 5, Fraction(1, 6)),
        (3, 4, 4, 5, Fraction(1, 6)),
        (5, 3, 4, 5, Fraction(7, 75)),
        (7, 2, 3, 4, Fraction(4, 49)),
    ],
)
def test_assemble_other_families(p, m, n_digits, levels, eps):
    spec = cover(p, m, n_digits, levels)
    table = delta_table(spec)
    assert [r.delta for r in table.rows] == [
        Fraction((m - 1) * (p - 1), m * p ** (n + 1)) for n in range(levels)
    ]
    w = find_epsilon(spec, table)
    assert w.epsilon == eps
    assert verify_epsilon_certificate(spec, w, rng=random.Random(p), samples=10)
    handle, report, n_prime, bound = assemble_perfectoid(
        spec, w, depth=2, samples=20, seed=p
    )
    assert report.all_pass
    assert (w.start_level, bound) == FAMILY_START_AND_BOUND[(p, m)]
    assert n_prime == w.start_level
    assert smalltilt_normality_report(handle, samples=100, seed=p)["all_ok"]


@pytest.mark.parametrize("p,m,n_digits,levels", [(3, 2, 5, 5), (2, 3, 4, 5), (3, 4, 4, 5)])
def test_assemble_negative_control_pillar_one_step_up(p, m, n_digits, levels):
    # the families whose a priori bound is their start level try one start
    # level; a pillar one lattice step above epsilon lies in that lattice,
    # so the refusal is axiom (f)'s, not the override's
    spec = cover(p, m, n_digits, levels)
    w = find_epsilon(spec, delta_table(spec))
    assert FAMILY_START_AND_BOUND[(p, m)] == (w.start_level, w.start_level)
    override = w.epsilon + Fraction(1, m * p**w.start_level)
    with pytest.raises(AxiomFailure) as err:
        assemble_perfectoid(spec, w, depth=2, samples=20, seed=p,
                            pillar_valuation_override=override)
    f = err.value.report.axioms["f"]
    assert f.verdict == "FAIL"
    assert "(f-1)" in f.witness


def test_normality_report():
    w = find_epsilon(spec52(), delta_table(spec52()))
    handle, _, _, _ = assemble_perfectoid(spec52(), w, depth=3, samples=20, seed=3)
    report = smalltilt_normality_report(handle, samples=300, seed=4)
    assert report["all_ok"]
    assert [row["level"] for row in report["levels"]] == [2, 3, 4]
    assert all(row["presentation_monogenic"] for row in report["levels"])


def test_normality_negative_control():
    # a hand-built non-monogenic presentation must fail the shape check
    from tiltlab.towers import TowerSpec, build_tower

    sub = TowerSpec(prime=5, n_digits=6, depth=2)
    prod = build_tower(
        TowerSpec(prime=5, n_digits=6, depth=2, kind="product", components=(sub, sub))
    )
    report = smalltilt_normality_report(prod, samples=20, seed=5)
    assert not report["all_ok"]
    assert not report["levels"][0]["presentation_monogenic"]


def test_tilted_delta_table_mirrors_mixed():
    rows = tilted_delta_table(spec52())
    assert len(rows) == 4
    assert all(r["agrees_with_mixed"] for r in rows)
    assert all(r["annihilator_lattice_exponent"] == 4 for r in rows)


def test_colimit_shadow_aggregates_exactly():
    table = delta_table(spec52())
    rows = colimit_shadow(spec52(), table)
    assert rows
    assert all(r["aggregation_exact"] for r in rows)
    assert all(r["le_limit_bound"] for r in rows)


def test_spec_validation():
    with pytest.raises(ValueError):
        cover(5, 5, 6, 3)
    with pytest.raises(ValueError):
        cover(5, 1, 6, 3)


def test_spec_errors_are_named():
    # m < 2, p | m, levels < 1: spec errors, not bare ValueErrors
    for m, levels in ((1, 3), (5, 3), (10, 3), (2, 0)):
        with pytest.raises(SpecError):
            cover(5, m, 6, levels)


def test_spec_refuses_a_precision_at_which_p_vanishes():
    # the cover layers carry the ideal (p), which is 0 mod p
    with pytest.raises(SpecError, match="n_digits = 1"):
        spec52(n=1)
    assert spec52(n=2).n_digits == 2


def test_assemble_refuses_a_non_positive_pillar_before_building(monkeypatch):
    w = find_epsilon(spec52(), delta_table(spec52()))

    def no_tower(*args, **kwargs):
        raise AssertionError("a tower was built")

    monkeypatch.setattr("tiltlab.ramified.build_tower", no_tower)
    for bad in (Fraction(0), Fraction(-1), Fraction(-1, 5)):
        with pytest.raises(SpecError, match="must be positive"):
            assemble_perfectoid(spec52(), w, depth=2, samples=2,
                                pillar_valuation_override=bad)


def test_tilted_delta_table_without_an_annihilator_is_a_disagreement(monkeypatch):
    # no shift of the window lies in the semigroup: the tilted side finds
    # no annihilator, and does not claim agreement with the mixed table
    from tiltlab import ramified
    from tiltlab.towers import MethodDisagreement

    monkeypatch.setattr(ramified, "_reachable_table", lambda m, p, bound: [False] * bound)
    with pytest.raises(MethodDisagreement, match="tilted annihilator None"):
        tilted_delta_table(spec52())
