"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are exact rational equality and zero sampled failures at the
stated sample counts; runtime bounds are asserted with a monotonic clock.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import pytest

from tiltlab.battery import closure_oracle_block
from tiltlab.cli import run as cli_run
from tiltlab.monoidal import (
    check_pillar_valuation,
    check_sharp_reduction,
    check_tilt_quotient_iso,
    idempotent_bijection,
    lift_independence_trial,
    multiplicativity_trial,
    sharp,
)
from tiltlab.ramified import (
    assemble_perfectoid,
    delta_table,
    find_epsilon,
    smalltilt_normality_report,
    verify_epsilon_certificate,
)
from tiltlab.tilts import p_flat, small_tilt
from tiltlab.towers import TowerSpec, build_tower, check_axioms

SEED = 7


def _verdict(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _pure(depth, vars=0, cap=0):
    return build_tower(
        TowerSpec(
            prime=5,
            n_digits=6,
            depth=depth,
            num_vars=vars,
            var_degree_cap=Fraction(cap),
        )
    )


@pytest.fixture(scope="module")
def kummer():
    spec = TowerSpec(prime=5, n_digits=6, depth=5, kind="kummer", m=2, ideal_exp=1)
    table = delta_table(spec)
    witness = find_epsilon(spec, table)
    handle, report, n_prime, bound = assemble_perfectoid(
        spec, witness, depth=3, samples=200, seed=SEED
    )
    return spec, table, witness, handle, report, n_prime, bound


def test_criterion_01_pure_tower_axioms():
    t0 = time.monotonic()
    ok = True
    detail = []
    for vars_, cap in ((0, 0), (1, 2)):
        report = check_axioms(_pure(3, vars_, cap), samples=200, seed=SEED)
        exact = all(
            report.axioms[k].verdict == "PASS" for k in ("a", "b", "c", "d", "f", "g")
        )
        sampled = (
            report.axioms["e"].verdict == "SAMPLED_PASS"
            and report.axioms["e"].samples >= 200
        )
        ok = ok and exact and sampled
        detail.append(f"v={vars_}: all axioms")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _verdict(1, ok, f"{'; '.join(detail)}; runtime {elapsed:.2f}s < 10s")


def test_criterion_02_tilt_shape():
    pres = small_tilt(_pure(3), 0, 3)
    pf = pres.text_of(p_flat(_pure(3), 0, 3))
    ok = (
        pres.quotient_exponent == 125
        and pres.ring.p == 5
        and pres.ring.num_vars == 0
        and pf == "T"
    )
    _verdict(2, ok, f"F_5[T]/(T^{pres.quotient_exponent}), p_flat -> {pf}")


def test_criterion_03_monoidal_exactness():
    h = _pure(4)
    sp = sharp(h, p_flat(h, 0, 4))
    exact_p = sp.value == h.layer(4).from_int(5) and sp.effective_precision == 6
    pres = small_tilt(h, 0, 4)
    exact_1 = sharp(h, pres.from_presentation(pres.ring.one())).value.is_one()
    mult = multiplicativity_trial(h, 0, 4, pairs=500, seed=SEED)
    lift = lift_independence_trial(h, 0, 4, trials=100, seed=SEED + 1)
    ok = (
        exact_p
        and exact_1
        and mult.details["failures"] == 0
        and mult.samples >= 500
        and lift.details["failures"] == 0
        and lift.samples >= 100
    )
    _verdict(
        3,
        ok,
        f"sharp(pflat)={sp.value.to_text()} @ prec {sp.effective_precision}; "
        f"{mult.samples} pairs, {lift.samples} lift trials, 0 failures",
    )


def test_criterion_04_diagram_and_iso(kummer):
    _, _, _, handle, _, _, _ = kummer
    h = _pure(4)
    ok = True
    for j in range(0, 4):
        ok = ok and check_sharp_reduction(h, j).verdict == "PASS"
        ok = ok and check_tilt_quotient_iso(h, j, min(2, 4 - j)).verdict == "PASS"
    for j in range(handle.start, handle.top):
        m_j = handle.top - j
        ok = ok and check_sharp_reduction(handle, j).verdict == "PASS"
        ok = ok and check_tilt_quotient_iso(handle, j, m_j).verdict == "PASS"
    _verdict(4, ok, "reduction diagram and quotient iso exact on both towers")


def test_criterion_05_pillar_valuation(kummer):
    _, _, _, handle, _, _, _ = kummer
    h = _pure(4)
    ok = all(check_pillar_valuation(h, j).verdict == "PASS" for j in range(4))
    ok = ok and all(
        check_pillar_valuation(handle, j).verdict == "PASS"
        for j in range(handle.start, handle.top)
    )
    _verdict(5, ok, "valuation(sharp(pillar)) = valuation(pillar), unit ratio")


def test_criterion_06_idempotent_bijection():
    t0 = time.monotonic()
    sub = TowerSpec(prime=5, n_digits=6, depth=2)
    two = build_tower(
        TowerSpec(prime=5, n_digits=6, depth=2, kind="product", components=(sub, sub))
    )
    three = build_tower(
        TowerSpec(
            prime=5,
            n_digits=6,
            depth=2,
            kind="product",
            components=(
                TowerSpec(
                    prime=5, n_digits=6, depth=2, kind="product", components=(sub, sub)
                ),
                sub,
            ),
        )
    )
    r2 = idempotent_bijection(two)
    r3 = idempotent_bijection(three)
    elapsed = time.monotonic() - t0
    ok = (
        r2.verdict == "PASS"
        and r2.details["count"] == 4
        and r3.verdict == "PASS"
        and r3.details["count"] == 8
        and elapsed < 5.0
    )
    _verdict(6, ok, f"4 and 8 matched idempotents in {elapsed:.2f}s < 5s")


def test_criterion_07_kummer_constants():
    t0 = time.monotonic()
    spec = TowerSpec(prime=5, n_digits=6, depth=5, kind="kummer", m=2, ideal_exp=1)
    table = delta_table(spec)  # raises MethodDisagreement unless both agree
    rows_ok = all(
        row.delta == Fraction(4, 2 * 5 ** (row.n + 1))
        and row.annihilator_lattice_exponent == 4
        and row.p_n_delta == Fraction(2, 5)
        for row in table.rows
    )
    witness = find_epsilon(spec, table)
    eps_ok = witness.epsilon == Fraction(3, 25) and witness.start_level == 2
    import random

    cert_ok = verify_epsilon_certificate(
        spec, witness, rng=random.Random(SEED), samples=50
    )
    elapsed = time.monotonic() - t0
    ok = rows_ok and eps_ok and cert_ok and elapsed < 30.0
    _verdict(
        7,
        ok,
        f"delta_n=(m-1)(p-1)/(m p^(n+1)), eps=3/25, N=2, certificate ok, "
        f"{elapsed:.2f}s < 30s",
    )


def test_criterion_08_assembled_tower(kummer):
    _, _, witness, handle, report, n_prime, bound = kummer
    surj = report.axioms["d"].verdict == "PASS"
    ok = report.all_pass and surj and n_prime >= witness.start_level
    _verdict(
        8,
        ok,
        f"axioms pass from N'={n_prime} (a priori bound {bound}); "
        f"(d) exact surjectivity",
    )


def test_criterion_09_normality_proxy(kummer):
    _, _, _, handle, _, _, _ = kummer
    report = smalltilt_normality_report(handle, samples=1000, seed=SEED + 2)
    counts = [
        row["p_root_closed"].get("samples", 0) for row in report["levels"]
    ]
    ok = (
        report["all_ok"]
        and all(row["presentation_monogenic"] for row in report["levels"])
        and all(c >= 1000 for c in counts)
    )
    _verdict(
        9,
        ok,
        f"{len(report['levels'])} levels monogenic, "
        f">=1000 root-closure samples each, zero counterexamples",
    )


def test_criterion_10_closure_oracles():
    block = closure_oracle_block(seed=SEED + 3)
    ok = (
        block["ok"]
        and block["pair_count"] >= 20
        and block["exact_sampled_agree"]
        and block["negatives_detected"]
    )
    _verdict(
        10,
        ok,
        f"{block['pair_count']} pairs, exact/sampled agree, "
        f"3 negative controls detected",
    )


def test_criterion_11_determinism():
    def capture():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_run(["suite", "--seed", "7"])
        return code, buf.getvalue()

    code1, out1 = capture()
    code2, out2 = capture()
    ok = code1 == code2 == 0 and out1 == out2 and json.loads(out1)["ok"]
    _verdict(11, ok, f"suite --seed 7 byte-identical ({len(out1)} bytes)")
