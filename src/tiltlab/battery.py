"""The full verification battery behind `tiltlab suite`.

Each block builds its canonical instances from the caller's seed and
returns a structured result; the battery is deterministic byte for byte
at a fixed seed (all randomness flows through seeded generators and no
timing or environment data enters the report).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .closure import (
    ExplicitRing,
    RingPair,
    check_root_closed,
    is_cartesian_mod_f,
    tower_pairs,
    transfer_suite,
)
from .monoidal import (
    check_pillar_valuation,
    check_sharp_reduction,
    check_tilt_quotient_iso,
    idempotent_bijection,
    lift_independence_trial,
    multiplicativity_trial,
    sharp,
    torsion_bijection,
)
from .ramified import (
    assemble_perfectoid,
    colimit_shadow,
    delta_table,
    find_epsilon,
    smalltilt_normality_report,
    tilted_delta_table,
    verify_epsilon_certificate,
)
from .tilts import p_flat, small_tilt, tilt_tower
from .towers import TowerSpec, build_tower, check_axioms
from .verdict import FAIL


def _spec_pure(p=5, n=6, depth=3, vars=0, cap=0):
    return TowerSpec(
        prime=p,
        n_digits=n,
        depth=depth,
        num_vars=vars,
        var_degree_cap=Fraction(cap),
    )


def pure_tower(p=5, n=6, depth=3, vars=0, cap=0):
    return build_tower(_spec_pure(p, n, depth, vars, cap))


def kummer_tower_5_2(seed=0):
    spec = TowerSpec(prime=5, n_digits=6, depth=5, kind="kummer", m=2, ideal_exp=1)
    table = delta_table(spec)
    witness = find_epsilon(spec, table)
    handle, report, n_prime, bound = assemble_perfectoid(
        spec, witness, depth=3, samples=200, seed=seed
    )
    return spec, table, witness, handle, report, n_prime, bound


def crafted_negative_pairs():
    """Three defective ring pairs that every checker must catch."""
    p, n_digits = 2, 2
    pp = p * p
    B = ExplicitRing(
        p=p,
        n_digits=n_digits,
        basis_names=("1", "y"),
        table={(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (pp, 0)},
        basis_val=(0, 1),
    )
    A = ExplicitRing(
        p=p,
        n_digits=n_digits,
        basis_names=("1", "u"),
        table={(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (p**4, 0)},
        basis_val=(0, 2),
    )
    root_defect = RingPair.extension(
        A,
        B,
        lambda x: B.wrap((x.vec[0], p * x.vec[1])),  # u -> p*y
        A.from_int(p),
        label="root-defect",
    )

    B2 = ExplicitRing(p=p, n_digits=n_digits, basis_names=("1",), table={(0, 0): (1,)})
    cartesian_defect = RingPair.extension(
        B,  # here B plays the source: y is a square root of p^2
        B2,
        lambda x: B2.wrap((x.vec[0] + p * x.vec[1],)),  # y -> p collapses mod p
        B.from_int(p),
        label="cartesian-defect",
    )

    # F_p-span{1, T^2, T^3} inside F_p[T]/(T^4): T^2 has no root in the span.
    C = ExplicitRing(
        p=p,
        n_digits=1,
        basis_names=("1", "s", "c"),
        table={
            (0, 0): (1, 0, 0),
            (0, 1): (0, 1, 0),
            (1, 0): (0, 1, 0),
            (0, 2): (0, 0, 1),
            (2, 0): (0, 0, 1),
            (1, 1): (0, 0, 0),
            (1, 2): (0, 0, 0),
            (2, 1): (0, 0, 0),
            (2, 2): (0, 0, 0),
        },
        basis_val=(0, 1, 1),
    )
    D = ExplicitRing(
        p=p,
        n_digits=1,
        basis_names=("1", "T", "T2", "T3"),
        table={
            (i, j): tuple(1 if k == i + j else 0 for k in range(4))
            for i in range(4)
            for j in range(4)
        },
        basis_val=(0, 1, 1, 1),
    )
    charp_defect = RingPair.extension(
        C,
        D,
        lambda x: D.wrap((x.vec[0], 0, x.vec[1], x.vec[2])),
        C.wrap((0, 1, 0)),  # f = T^2 image
        label="charp-root-defect",
    )
    return [root_defect, cartesian_defect, charp_defect]


def closure_pair_collection(seed=0):
    """Twenty-plus pairs at p=2, N=2, all enumerable for exact mode.

    Extension pairs keep the B side at or below 2^16 elements so the
    exact checker can sweep every candidate.
    """
    pure2 = build_tower(TowerSpec(prime=2, n_digits=2, depth=2))
    pairs = tower_pairs(pure2)
    for n in pure2.levels:
        ring = pure2.layer(n)
        pairs.append(
            RingPair.localization(ring, ring.f0(), c_cap=2, label=f"pure2 loc {n}")
        )
    tl = tilt_tower(build_tower(TowerSpec(prime=2, n_digits=2, depth=3)), 1)
    pairs += tower_pairs(tl)
    for n in tl.levels:
        ring = tl.layer(n)
        pairs.append(
            RingPair.localization(ring, ring.f0(), c_cap=2, label=f"tilt2 loc {n}")
        )
    kum = build_tower(
        TowerSpec(
            prime=2,
            n_digits=2,
            depth=2,
            kind="kummer",
            m=3,
            ideal_exp=Fraction(1, 6),
            start_level=1,
        )
    )
    pairs.append(
        RingPair.localization(
            kum.layer(1), kum.layer(1).f0(), c_cap=2, label="kummer2 loc 1"
        )
    )
    rng = random.Random(seed)
    small = [pure2.layer(0), pure2.layer(1), pure2.layer(2)] + [
        tl.layer(n) for n in tl.levels
    ]
    for i in range(6):  # identity pairs on assorted small rings
        ring = small[rng.randrange(len(small))]
        pairs.append(
            RingPair.extension(
                ring,
                ring,
                lambda x: x,
                ring.f0(),
                label=f"identity-{i}",
            )
        )
    return pairs


def closure_oracle_block(seed=0) -> dict:
    """Exact and sampled checkers over the p=2 collection plus negatives."""
    pairs = closure_pair_collection(seed)
    negatives = crafted_negative_pairs()
    rows = []
    agree = True
    for i, pair in enumerate(pairs):
        exact = check_root_closed(pair, pair.A.p, mode="exact")
        sampled = check_root_closed(
            pair, pair.A.p, mode="sampled", samples=400, seed=seed + i
        )
        same = exact.ok() == sampled.ok()
        agree = agree and same
        rows.append(
            {
                "pair": pair.label,
                "exact": exact.verdict,
                "sampled": sampled.verdict,
                "agree": same,
            }
        )
    detected = []
    for i, pair in enumerate(negatives):
        if pair.label == "cartesian-defect":
            # its row reads only the cartesian check; each sampled root
            # closure seeds its own rng, so skipping these changes no bytes
            cart = is_cartesian_mod_f(pair)
            caught = cart.verdict == FAIL
            rows.append({"pair": pair.label, "cartesian": cart.verdict})
        else:
            exact = check_root_closed(pair, pair.A.p, mode="exact")
            sampled = check_root_closed(
                pair, pair.A.p, mode="sampled", samples=400, seed=seed + 100 + i
            )
            caught = exact.verdict == FAIL and sampled.verdict == FAIL
            rows.append(
                {
                    "pair": pair.label,
                    "exact": exact.verdict,
                    "sampled": sampled.verdict,
                }
            )
        detected.append(caught)
    return {
        "pairs": rows,
        "pair_count": len(pairs) + len(negatives),
        "exact_sampled_agree": agree,
        "negatives_detected": all(detected),
        "ok": agree and all(detected) and len(pairs) + len(negatives) >= 20,
    }


def run_battery(seed: int = 7) -> dict:
    """Run every block and collect one verdict per check id."""
    checks = []

    def add(check_id, name, ok, **extra):
        row = {"id": check_id, "name": name, "ok": bool(ok)}
        row.update(extra)
        checks.append(row)

    # 1: pure-tower axioms, with and without a variable
    for vars_, cap in ((0, 0), (1, 2)):
        handle = pure_tower(5, 6, 3, vars_, cap)
        report = check_axioms(handle, samples=200, seed=seed)
        add(
            f"pure_axioms_v{vars_}",
            f"pure tower axioms (vars={vars_})",
            report.all_pass,
            axioms={k: v.verdict for k, v in report.axioms.items()},
        )

    # 2: tilt shape
    h3 = pure_tower(5, 6, 3)
    pres = small_tilt(h3, 0, 3)
    pf_text = pres.text_of(p_flat(h3, 0, 3))
    add(
        "tilt_shape",
        "small tilt of the pure tower presents as F_5[T]/(T^125)",
        pres.quotient_exponent == 125 and pf_text == "T",
        quotient_exponent=pres.quotient_exponent,
        p_flat=pf_text,
    )

    # 3: monoidal exactness
    h4 = pure_tower(5, 6, 4)
    sp = sharp(h4, p_flat(h4, 0, 4))
    one = small_tilt(h4, 0, 4)
    s1 = sharp(h4, one.from_presentation(one.ring.one()))
    mult = multiplicativity_trial(h4, 0, 4, pairs=500, seed=seed)
    lift = lift_independence_trial(h4, 0, 4, trials=100, seed=seed + 1)
    add(
        "monoidal_exactness",
        "sharp: exact values, multiplicativity, lift independence",
        sp.value == h4.layer(4).from_int(5)
        and sp.effective_precision == 6
        and s1.value.is_one()
        and mult.ok()
        and lift.ok(),
        sharp_p_flat=sp.to_json_dict(),
        multiplicativity=mult.to_json_dict(),
        lift_independence=lift.to_json_dict(),
    )

    # 4/5: diagrams, quotient isos, pillar valuations on both towers
    spec52, table, witness, kummer, k_report, n_prime, bound = kummer_tower_5_2(seed)
    diag_rows, diag_ok = [], True
    for j in range(0, 4):
        red = check_sharp_reduction(h4, j)
        iso = check_tilt_quotient_iso(h4, j, min(2, 4 - j), samples=100, seed=seed + j)
        val = check_pillar_valuation(h4, j)
        diag_ok = diag_ok and red.ok() and iso.ok() and val.ok()
        diag_rows.append(
            {"tower": "pure", "layer": j, "reduction": red.verdict,
             "iso": iso.verdict, "pillar": val.verdict}
        )
    for j in range(kummer.start, kummer.top):
        red = check_sharp_reduction(kummer, j)
        iso = check_tilt_quotient_iso(kummer, j, kummer.top - j, samples=100, seed=seed + j)
        val = check_pillar_valuation(kummer, j)
        diag_ok = diag_ok and red.ok() and iso.ok() and val.ok()
        diag_rows.append(
            {"tower": "kummer", "layer": j, "reduction": red.verdict,
             "iso": iso.verdict, "pillar": val.verdict}
        )
    add("sharp_diagrams", "sharp reduction diagram, quotient iso, pillar valuation",
        diag_ok, rows=diag_rows)

    # 6: idempotent bijection on products
    pure2spec = _spec_pure(5, 6, 2)
    prod2 = build_tower(
        TowerSpec(prime=5, n_digits=6, depth=2, kind="product",
                  components=(pure2spec, pure2spec))
    )
    prod3 = build_tower(
        TowerSpec(
            prime=5, n_digits=6, depth=2, kind="product",
            components=(
                TowerSpec(prime=5, n_digits=6, depth=2, kind="product",
                          components=(pure2spec, pure2spec)),
                pure2spec,
            ),
        )
    )
    ib2 = idempotent_bijection(prod2)
    ib3 = idempotent_bijection(prod3)
    add(
        "idempotent_bijection",
        "idempotents match on products of pure towers",
        ib2.ok() and ib3.ok()
        and ib2.details["count"] == 4 and ib3.details["count"] == 8,
        pair_count=ib2.details["count"],
        triple_count=ib3.details["count"],
    )

    # torsion transfer (trivial case) on both towers
    tb_pure = torsion_bijection(h4)
    tb_kummer = torsion_bijection(kummer)
    add(
        "torsion_transfer",
        "pillar torsion matches between layers and tilts (trivial case)",
        tb_pure.ok() and tb_kummer.ok(),
        pure=tb_pure.verdict,
        kummer=tb_kummer.verdict,
    )

    # 7: Kummer constants, from the cover that block 4/5 assembled
    cert_ok = verify_epsilon_certificate(
        spec52, witness, rng=random.Random(seed), samples=50
    )
    tilt_rows = tilted_delta_table(spec52)
    shadow = colimit_shadow(spec52, table)
    add(
        "kummer_constants",
        "delta table, epsilon witness, tilted mirror, colimit shadow",
        witness.epsilon == Fraction(3, 25)
        and witness.start_level == 2
        and cert_ok
        and all(r.p_n_delta == Fraction(2, 5) for r in table.rows)
        and all(r["agrees_with_mixed"] for r in tilt_rows)
        and all(r["aggregation_exact"] and r["le_limit_bound"] for r in shadow),
        table=table.to_json_dict(),
        epsilon=str(witness.epsilon),
        start_level=witness.start_level,
        certificate_verified=cert_ok,
    )

    # 8: assembled tower passes the suite from its reported start
    add(
        "kummer_perfectoid",
        "assembled Kummer tower passes the axiom suite",
        k_report.all_pass,
        n_prime=n_prime,
        a_priori_bound=bound,
        axioms={k: v.verdict for k, v in k_report.axioms.items()},
    )

    # 9: normality proxy for the small tilts of the Kummer tower
    norm = smalltilt_normality_report(kummer, samples=1000, seed=seed + 2)
    add(
        "smalltilt_normality",
        "small tilts are monogenic and p-root closed (sampled)",
        norm["all_ok"],
        levels=norm["levels"],
    )

    # 10: closure oracles at p=2
    oracle = closure_oracle_block(seed=seed + 3)
    add(
        "closure_oracles",
        "exact and sampled closure checkers agree; negatives detected",
        oracle["ok"],
        pair_count=oracle["pair_count"],
        negatives_detected=oracle["negatives_detected"],
    )

    # closure transfer along both towers (sampled)
    t_pure = transfer_suite(h3, mode="sampled", samples=200, seed=seed + 4)
    t_kummer = transfer_suite(kummer, mode="sampled", samples=200, seed=seed + 5)
    add(
        "closure_transfer",
        "cartesian squares and root closedness along towers and tilts",
        t_pure["all_ok"] and t_kummer["all_ok"],
        pure_ok=t_pure["all_ok"],
        kummer_ok=t_kummer["all_ok"],
    )

    return {
        "schema": 1,
        "seed": seed,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }
