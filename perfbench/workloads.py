"""The benchmark's workloads: fixed request lists made from a seed.

Each workload's ``setup(seed)`` imports what it needs from tiltlab, builds
its towers and presentations, and returns one pass: a list of requests.
A request is a call whose result ``check`` compares with a known answer
that the benchmark derives without asking the code under test.  Only the
calls are timed; setup and checks are not.  Calls look tiltlab functions
up through their modules when they run, so a traced run sees them.
"""

import contextlib
import hashlib
import io
import json
import random
from collections import namedtuple
from fractions import Fraction

Request = namedtuple("Request", "label call check")

# Requests per pass, sized so one pass takes a few seconds on one core.
SHARP_REQUESTS = 20
SHARP_TERMS = 8


# sha256 of the stdout of `tiltlab suite --seed 7`, taken at the commit
# that added this benchmark; ROADMAP holds these bytes fixed.
SUITE_SEED = 7
SUITE_SHA256 = "898cb1648d32df72a437326dbaea0abceeb038bda2439b833a836946ee8949f6"


def suite(seed):
    """One `tiltlab suite --seed 7` through the CLI, output captured.

    The battery's sampled checks make its work depend on its own seed by
    about +-10%, more than a run-to-run bound can absorb, so every run
    uses seed 7: the seed of the acceptance test and of ROADMAP item 2's
    target.  The benchmark seed does not change this workload.

    Known answer: exit 0, an ok report for seed 7, and the report bytes
    recorded in SUITE_SHA256 every time.
    """
    from tiltlab import cli

    argv = ["suite", f"--seed={SUITE_SEED}"]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        body = json.loads(text)
        return (
            code == 0
            and body["ok"] is True
            and body["report"]["seed"] == SUITE_SEED
            and hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256
        )

    return [Request(f"suite --seed={SUITE_SEED}", call, check)]


def _unit_element(ring, rng, terms):
    """A unit constant plus terms-1 distinct higher monomials.

    sharp raises the lift to the p^m-th power; a unit keeps that power
    nonzero at full precision, so every request fills the deep layer and
    takes the dense kernel rather than vanishing after a few squarings.
    """
    x = ring.from_int(rng.randrange(1, ring.p))
    for k in rng.sample(range(1, ring.window), terms - 1):
        x = x + ring.monomial(k, coeff=rng.randrange(1, ring.p))
    return x


def sharp_dense(seed):
    """sharp at full depth on the Kummer 5/2 tower (top e = 6250) and on the
    pure p=5 depth-5 tower (top e = 3125), four Kummer requests to one
    pure.  A request takes about 280 ms on the first and 170 ms on the
    second; the uneven mix keeps the median latency well inside the Kummer
    cluster instead of near the gap between the two.

    Known answer: sharp(x) reduced mod the ideal equals the 0-th component
    of x carried up by the reduced transitions.
    """
    from tiltlab import monoidal
    from tiltlab.tilts import small_tilt
    from tiltlab.towers import TowerSpec, build_tower

    kummer = build_tower(
        TowerSpec(prime=5, n_digits=6, depth=3, kind="kummer", m=2,
                  ideal_exp=Fraction(3, 25), start_level=2)
    )
    pure = build_tower(TowerSpec(prime=5, n_digits=6, depth=5))
    stages = []
    for handle in (kummer, kummer, pure, kummer, kummer):
        j, top = handle.start, handle.top
        stages.append((handle, j, top, small_tilt(handle, j, top - j)))
    rng = random.Random(seed)
    requests = []
    for i in range(SHARP_REQUESTS):
        handle, j, top, pres = stages[i % len(stages)]
        x = pres.from_presentation(_unit_element(pres.ring, rng, SHARP_TERMS))
        expected = handle.tbar_multi(j, top, x.component(0))
        deep = handle.layer(top)

        def check(result, deep=deep, expected=expected):
            return deep.reduce_mod_ideal(result.value) == expected

        requests.append(
            Request(f"sharp {handle.label} e={deep.e} #{i}",
                    lambda handle=handle, x=x: monoidal.sharp(handle, x), check)
        )
    return requests


def axioms_sparse(seed):
    """check_axioms on towers with perfectoid variables, where every ring
    product takes the sparse path: p=5 with one variable (cap 2) twice,
    p=3 with two variables (cap 1) once.  They take about 2.2 s and 0.9 s;
    the 2:1 mix keeps the median latency inside the p=5 cluster.  Known
    answer: every axiom passes.
    """
    from tiltlab import towers
    from tiltlab.towers import TowerSpec, build_tower

    p5 = build_tower(TowerSpec(prime=5, n_digits=6, depth=3, num_vars=1,
                               var_degree_cap=Fraction(2)))
    p3 = build_tower(TowerSpec(prime=3, n_digits=6, depth=3, num_vars=2,
                               var_degree_cap=Fraction(1)))
    rng = random.Random(seed)
    requests = []
    for handle in (p5, p3, p5):
        s = rng.randrange(1 << 30)
        requests.append(
            Request(
                f"axioms p={handle.p} seed={s}",
                lambda handle=handle, s=s: towers.check_axioms(handle, samples=200, seed=s),
                lambda report: report.all_pass and sorted(report.axioms) == list("abcdefg"),
            )
        )
    return requests


def closure_exact(seed):
    """Exact closure sweeps at p=2, three per pass: root-closedness over the
    battery's pair collection with its three crafted negatives (about
    0.3 s), transfer_suite(mode="exact") on the pure N=8 depth-1 tower,
    whose top layer of 2^16 two-term elements is swept whole (about
    1.4 s), and on the pure N=2 depth-3 tower with its depth-1 tilt (about
    4.5 s).  The middle sweep is the median request; it is long enough to
    time steadily.

    Known answers: a transition pair n -> n+1 adjoins a p-th root of the
    layer-n generator, so it is not p-root closed (FAIL); localizations
    and identity pairs are (PASS_EXACT); the crafted negatives FAIL; every
    transfer_suite row is PASS_EXACT.
    """
    from tiltlab import closure
    from tiltlab.battery import closure_pair_collection, crafted_negative_pairs
    from tiltlab.towers import TowerSpec, build_tower

    rng = random.Random(seed)
    pairs = closure_pair_collection(seed)
    negatives = crafted_negative_pairs()

    def root_closed(pair):
        return closure.check_root_closed(pair, pair.A.p, mode="exact").verdict

    def sweep_pairs():
        return [root_closed(pair) for pair in pairs] + [
            closure.is_cartesian_mod_f(pair).verdict
            if pair.label == "cartesian-defect" else root_closed(pair)
            for pair in negatives
        ]

    expected = ["FAIL" if "->" in pair.label else "PASS_EXACT" for pair in pairs]
    expected += ["FAIL"] * len(negatives)
    requests = [
        Request(f"pair collection ({len(pairs)} pairs, {len(negatives)} negatives)",
                sweep_pairs, lambda verdicts: verdicts == expected),
    ]

    def check(report):
        rows = [row for key in ("cartesian", "root_closed", "tilt_root_closed")
                for row in report[key]]
        return report["all_ok"] and bool(rows) and all(
            row["verdict"] == "PASS_EXACT" for row in rows
        )

    for n_digits, depth in ((8, 1), (2, 3)):
        handle = build_tower(TowerSpec(prime=2, n_digits=n_digits, depth=depth))
        s = rng.randrange(1 << 30)
        requests.append(
            Request(
                f"transfer_suite p=2 N={n_digits} depth={depth}",
                lambda handle=handle, s=s: closure.transfer_suite(handle, mode="exact", seed=s),
                check,
            )
        )
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "suite": suite,
    "sharp-dense": sharp_dense,
    "axioms-sparse": axioms_sparse,
    "closure-exact": closure_exact,
}
