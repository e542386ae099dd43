"""Tower construction, transition/Frobenius bookkeeping, the axiom suite,
and one crafted broken tower per axiom checker."""

import json
import random
from fractions import Fraction

import pytest

from tiltlab.towers import (
    FAIL,
    PASS,
    SAMPLED_PASS,
    LevelOutOfRange,
    SpecError,
    TowerHandle,
    TowerSpec,
    build_tower,
    check_axioms,
    frob_projection,
)


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
                a = h.random_layer(n, rng)
                b = h.random_layer(n, rng)
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
            x = h.random_quot(n + 1, rng)
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


def _clone(handle, cls):
    return cls(
        spec=handle.spec,
        p=handle.p,
        e0=handle.e0,
        ideal_exp=handle.ideal_exp,
        start=handle.start,
        depth=handle.depth,
        rings=handle._rings,
        char_p=handle.char_p,
        label="broken",
    )


def test_negative_control_axiom_c():
    broken = _clone(pure5(), _BrokenTransition)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["c"].verdict == FAIL
    assert report.axioms["c"].witness


def test_negative_control_axiom_b():
    broken = _clone(pure5(), _CollapsedTransition)
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["b"].verdict == FAIL


def test_negative_control_axiom_d():
    class ExtraDrop(TowerHandle):
        def frob(self, n, q):
            out = super().frob(n, q)
            keep = {
                key: c
                for key, c in out.terms.items()
                if key[0] < max(1, self.ideal_index(n) // 2)
            }
            return type(out)(out.ring, keep, out.lossy)

    broken = _clone(pure5(), ExtraDrop)
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


def test_negative_control_axiom_a():
    h = pure5(depth=3)
    # Shift every ring down one level: the base layer no longer has the
    # shape the declared tower promises.
    shifted = {n: h.layer(n + 1) for n in range(h.start, h.top)}
    broken = TowerHandle(
        spec=h.spec,
        p=h.p,
        e0=h.e0,
        ideal_exp=h.ideal_exp,
        start=h.start,
        depth=h.depth - 1,
        rings=shifted,
        label="broken",
    )
    report = check_axioms(broken, samples=5, seed=0)
    assert report.axioms["a"].verdict == FAIL
