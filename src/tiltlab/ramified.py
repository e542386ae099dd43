"""Tame Kummer covers S = R[p^(1/m)], gcd(m, p) = 1, at desk scale.

The normalized level-n layer is the truncated valuation ring with
exponent lattice (1/(m p^n))Z: the integral closure of R_n adjoin p^(1/m)
fills in the numerical-semigroup gaps of <m, p>, and that same semigroup
controls the cokernel of R_{n+1} (x) S_n -> S_{n+1}.  The least exponent
delta_n annihilating that cokernel is computed two independent ways:

* semigroup method: the conductor of <m, p>, which is (m-1)(p-1) for a
  coprime pair, read in the level-(n+1) lattice;
* elimination method: column reduction of the inclusion's monomial
  module at precision (per-coordinate minimal p-power), followed by a
  scan for the least shift landing every basis monomial in the image.

Both must agree (MethodDisagreement otherwise).  From the table the
epsilon threshold (1 - delta_N p^2)/p picks the start level of the
perfectoid tower; the inclusion of p-th powers into S_n + p^eps S_{n+1}
is then certified generator by generator and re-verifiable by plain ring
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import CHAR_P, LayerElem, LayerRing
from .towers import (
    AxiomReport,
    MethodDisagreement,
    SpecError,
    TowerSpec,
    build_tower,
    check_axioms,
)
from .verdict import NOT_APPLICABLE, PASS_SAMPLED


class NoWitnessInRange(ValueError):
    pass


class AxiomFailure(RuntimeError):
    def __init__(self, message, report: AxiomReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass
class DeltaRow:
    n: int
    delta: Fraction
    p_n_delta: Fraction
    annihilator_lattice_exponent: int
    p_n_delta_integral: bool  # whether delta * p^n is an integer

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": str(self.delta),
            "p_n_delta": str(self.p_n_delta),
            "annihilator_lattice_exponent": self.annihilator_lattice_exponent,
            "p_n_delta_integral": self.p_n_delta_integral,
        }


@dataclass
class DeltaTable:
    spec: TowerSpec
    rows: list[DeltaRow]
    bound_c: Fraction  # sup of p^n * delta_n (constant for this family)

    def to_json_dict(self) -> dict:
        return {
            "prime": self.spec.prime,
            "m": self.spec.m,
            "rows": [r.to_json_dict() for r in self.rows],
            "bound_c": str(self.bound_c),
        }

    def to_markdown(self) -> str:
        lines = [
            "| n | delta_n | p^n * delta_n | annihilator (lattice units) |",
            "|---|---------|---------------|------------------------------|",
        ]
        for r in self.rows:
            lines.append(
                f"| {r.n} | {r.delta} | {r.p_n_delta} | "
                f"{r.annihilator_lattice_exponent} |"
            )
        return "\n".join(lines)


@dataclass
class EpsilonWitness:
    epsilon: Fraction
    start_level: int
    bound_c: Fraction  # the table's c(S), for assemble_perfectoid; not emitted
    certificate: dict = field(default_factory=dict)


# -- layers ---------------------------------------------------------------------


def _require_cover(spec: TowerSpec) -> None:
    """A Kummer cover S_0 .. S_depth: kind kummer, ideal (p), start level 0."""
    if spec.kind != "kummer" or spec.ideal_exp != 1 or spec.start_level != 0:
        raise SpecError(
            "a Kummer cover is a kummer tower with ideal exponent 1 from level 0"
        )


def build_cover_layers(spec: TowerSpec) -> list[LayerRing]:
    """S_0 .. S_depth as truncated valuation rings with lattice 1/(m p^n)."""
    _require_cover(spec)
    handle = build_tower(spec)
    return [handle.layer(n) for n in handle.levels]


# -- the delta table --------------------------------------------------------------


def semigroup_conductor(m: int, p: int) -> int:
    """Least integer c with [c, infinity) inside <m, p>; (m-1)(p-1) for
    coprime generators (verified in the tests by brute enumeration)."""
    if math.gcd(m, p) != 1:
        raise ValueError("conductor formula needs coprime generators")
    return (m - 1) * (p - 1)


def _reachable_table(m: int, p: int, bound: int):
    reach = bytearray(bound)
    reach[0] = 1
    for x in range(bound):
        if reach[x]:
            if x + m < bound:
                reach[x + m] = 1
            if x + p < bound:
                reach[x + p] = 1
    return reach


def _least_annihilator_elimination(m: int, p: int, e: int, n_digits: int) -> int:
    """Column-reduce the monomial image module over Z/p^n_digits and scan
    for the least shift s with t^s * (every basis monomial) in the image.

    The image is spanned by monomials t^(am + bp) (lattice units); its
    reduced form is the per-residue minimal p-power min_q[r].  A shifted
    monomial p^q t^r is a member iff q >= min_q[r] or q >= n_digits.
    """
    bound = e * n_digits
    reach = _reachable_table(m, p, bound)
    min_q = [n_digits] * e
    for x in range(bound):
        if reach[x]:
            q, r = divmod(x, e)
            if q < min_q[r]:
                min_q[r] = q
    for s in range(e):
        ok = True
        for k in range(e):
            q, r = divmod(k + s, e)
            if q < min_q[r] and q < n_digits:
                ok = False
                break
        if ok:
            return s
    raise MethodDisagreement("no annihilator exponent below e; impossible")


def delta_table(spec: TowerSpec) -> DeltaTable:
    """delta_n = least rational with p^delta_n * S_{n+1} inside the image
    of R_{n+1} (x) S_n, for n = 0 .. depth-1, by both methods."""
    _require_cover(spec)
    p, m = spec.prime, spec.m
    cond = semigroup_conductor(m, p)

    def one_row(n: int) -> DeltaRow:
        e_next = m * p ** (n + 1)
        if e_next <= cond:
            raise MethodDisagreement(
                "lattice too coarse for the conductor; raise the level"
            )
        s_elim = _least_annihilator_elimination(m, p, e_next, spec.n_digits)
        if s_elim != cond:
            raise MethodDisagreement(
                f"elimination gives {s_elim}, conductor gives {cond} at n={n}"
            )
        delta = Fraction(cond, m * p ** (n + 1))
        pnd = delta * p**n
        return DeltaRow(
            n=n,
            delta=delta,
            p_n_delta=pnd,
            annihilator_lattice_exponent=cond,
            p_n_delta_integral=(pnd.denominator == 1),
        )

    rows = [one_row(n) for n in range(spec.depth)]
    bound = max(r.p_n_delta for r in rows)
    for r in rows:  # this family has p^n delta_n exactly constant
        if r.p_n_delta != bound:
            raise MethodDisagreement("p^n * delta_n is not constant")
    return DeltaTable(spec=spec, rows=rows, bound_c=bound)


def tilted_delta_table(spec: TowerSpec) -> list[dict]:
    """The same least-annihilator computation on the depth-1 tilted layers.

    The tilt-side cokernel is controlled by the same semigroup read in
    the characteristic-p windows; each row reports the t-adic annihilator
    index and its agreement with the mixed-side table.
    """
    p, m = spec.prime, spec.m
    cond = semigroup_conductor(m, p)
    rows = []
    for n in range(spec.depth - 1):
        e_next = m * p ** (n + 1)
        # Cover layers carry the ideal (p), so the depth-1 tilt window at
        # level n+1 is e_{n+1} * p.
        window = e_next * p
        reach = _reachable_table(m, p, window)
        least = None
        for s in range(min(window, cond + 1)):
            if all(reach[k + s] for k in range(window - s)):
                least = s
                break
        agrees = least == cond
        if not agrees:
            raise MethodDisagreement(
                f"tilted annihilator {least} != conductor {cond} at n={n}"
            )
        rows.append(
            {
                "n": n,
                "annihilator_lattice_exponent": least,
                "delta_flat": str(Fraction(least, e_next)),
                "agrees_with_mixed": agrees,
            }
        )
    return rows


def colimit_shadow(spec: TowerSpec, table: DeltaTable) -> list[dict]:
    """Per-level bounds for the multi-step cokernels C_{n,m}, m = 1, 2, 3.

    The m-step annihilator equals the geometric aggregation of one-step
    constants, and stays below c(S) * p / (p - 1) scaled to the level.
    """
    p, mm = spec.prime, spec.m
    c_s = table.bound_c
    rows = []
    for n in range(spec.depth):
        for steps in (1, 2, 3):
            if n + steps > spec.depth:
                continue
            cond = (mm - 1) * (p**steps - 1)
            direct = Fraction(cond, mm * p ** (n + steps))
            geometric = sum(
                (c_s / p ** (n + i) for i in range(steps)), Fraction(0)
            )
            bound = c_s * p / ((p - 1) * p**n)
            rows.append(
                {
                    "n": n,
                    "steps": steps,
                    "annihilator": str(direct),
                    "geometric_sum": str(geometric),
                    "aggregation_exact": direct == geometric,
                    "le_limit_bound": direct <= bound,
                }
            )
            if direct != geometric or direct > bound:
                raise MethodDisagreement(
                    f"colimit aggregation failed at n={n}, steps={steps}"
                )
    return rows


# -- epsilon and the assembled tower ----------------------------------------------


def find_epsilon(spec: TowerSpec, table: DeltaTable) -> EpsilonWitness:
    """Least N with (1 - delta_N p^2)/p in (0,1), plus a per-generator
    certificate of (S_{n+1})^p inside S_N-part + p^eps S_{n+1}."""
    p = spec.prime
    chosen = None
    for row in table.rows:
        eps = (1 - row.delta * p**2) / p
        if 0 < eps < 1:
            chosen = (row.n, eps)
            break
    if chosen is None:
        raise NoWitnessInRange(
            f"no level among 0..{spec.depth - 1} admits epsilon in (0,1)"
        )
    n_start, eps = chosen
    lattice_idx = eps * p**n_start * spec.m
    if lattice_idx.denominator != 1:
        raise MethodDisagreement(
            f"epsilon {eps} is not in the level-{n_start} lattice"
        )
    layers = build_cover_layers(spec)
    cert_rows: dict[str, list] = {}
    for n in range(n_start, spec.depth):
        cert_rows[str(n)] = _certify_level(layers, n, eps, p)
    witness = EpsilonWitness(
        epsilon=eps,
        start_level=n_start,
        bound_c=table.bound_c,
        certificate={
            "monomial_rows": cert_rows,
            "eps_times_p_start_in_refined_lattice": str(eps * p**n_start),
        },
    )
    return witness


def _certify_level(layers, n, eps, p):
    """Decompose (t^k)^p = a + p^eps * b for every basis monomial of S_{n+1}.

    Row format [k, a_part, b_part]; each part is [index, coeff] or None.
    The a part lies in the coarser S_n lattice (index divisible by p), the
    b part in S_{n+1}.  A monomial's p-th power is its key's image at scale
    p (key_image folds it through t^e = p), so no product is made;
    verify_epsilon_certificate replays the rows with ring arithmetic.
    """
    upper = layers[n + 1]
    s_idx = int(eps * upper.e)
    vt = upper._zero_vt
    rows = []
    for k in range(upper.e):
        x = LayerElem(upper, *upper.key_image((k, vt), p))
        rows.append([k, *_split_p_power(x, p, s_idx)])
    return rows


def _split_p_power(x, p, s_idx):
    if x.is_zero():
        return None, None  # the power carried past the precision budget
    if len(x.terms) != 1:
        raise MethodDisagreement("monomial power is not a monomial")
    (k, _), c = next(iter(x.terms.items()))
    if k % p == 0 and c == 1:
        return [k, c], None
    b = x.divide_by_monomial(s_idx)
    (kb, _), cb = next(iter(b.terms.items()))
    return None, [kb, cb]


def verify_epsilon_certificate(spec: TowerSpec, witness: EpsilonWitness, rng=None, samples: int = 50) -> bool:
    """Independent re-verification of the inclusion certificate.

    Every stored row is replayed with plain ring arithmetic: the a-part
    must lie in the coarser lattice, the b-part in the finer ring, and
    a + p^eps * b must reproduce the p-th power exactly.  When an rng is
    supplied, random (non-monomial) elements are decomposed and checked
    the same way.
    """
    p = spec.prime
    eps = witness.epsilon
    layers = build_cover_layers(spec)
    for level_str, rows in witness.certificate["monomial_rows"].items():
        n = int(level_str)
        upper = layers[n + 1]
        s_idx = int(eps * upper.e)
        f_eps = upper.monomial(s_idx)
        for k, a_part, b_part in rows:
            want = upper.monomial(k) ** p
            a = upper.zero() if a_part is None else upper.monomial(a_part[0], coeff=a_part[1])
            b = upper.zero() if b_part is None else upper.monomial(b_part[0], coeff=b_part[1])
            if a_part is not None and a_part[0] % p != 0:
                return False
            if a + f_eps * b != want:
                return False
        if rng is not None:
            for _ in range(samples):
                x = upper.random_element(rng, max_terms=3)
                xp = x**p
                a_items, rest_items = [], []
                for (k, vt), c in xp.terms.items():
                    (a_items if k % p == 0 else rest_items).append((k, vt, c))
                a = upper._from_items(a_items)
                rest = upper._from_items(rest_items)
                try:
                    b = rest.divide_by_monomial(s_idx)
                except ValueError:
                    return False
                if a + f_eps * b != xp:
                    return False
    return True


def assemble_perfectoid(
    spec: TowerSpec,
    witness: EpsilonWitness,
    depth: int = 3,
    samples: int = 200,
    seed: int = 0,
    pillar_valuation_override: Fraction | None = None,
):
    """Build the tower {S_n} from the least admissible start level and run
    the full axiom suite; returns (handle, report, n_prime, a_priori_bound).

    a_priori_bound is the start level that the ramification argument
    guarantees ((n+1) * eps >= c(S)); the operational n_prime may be
    smaller when the checks already pass there, and the report records
    both.
    """
    if pillar_valuation_override is not None and pillar_valuation_override <= 0:
        raise SpecError(
            f"the pillar override {pillar_valuation_override} must be positive"
        )
    eps = witness.epsilon
    a_priori_bound = witness.start_level
    while (a_priori_bound + 1) * eps < witness.bound_c:
        a_priori_bound += 1
    last_report = None
    for cand in range(witness.start_level, a_priori_bound + 1):
        e_cand = spec.m * spec.prime**cand
        if (eps * e_cand).denominator != 1:
            continue
        tower_spec = replace(spec, depth=depth, ideal_exp=eps, start_level=cand)
        pillar_index = None
        if pillar_valuation_override is not None:
            idx = pillar_valuation_override * spec.m * spec.prime**cand
            if idx.denominator != 1:
                raise AxiomFailure(
                    f"override valuation {pillar_valuation_override} is not "
                    f"in the level-{cand} lattice"
                )
            pillar_index = int(idx)
        handle = build_tower(tower_spec, pillar_index=pillar_index)
        report = check_axioms(handle, samples=samples, seed=seed)
        last_report = report
        if report.all_pass:
            return handle, report, cand, a_priori_bound
    raise AxiomFailure(
        f"no start level in {witness.start_level}..{a_priori_bound} passes "
        f"the axiom suite",
        report=last_report,
    )


# -- normality proxy -----------------------------------------------------------------


def smalltilt_normality_report(handle, samples: int = 1000, seed: int = 0) -> dict:
    """Per-level normality evidence for the small tilts of an assembled
    tower: exact monogenic-presentation check plus sampled p-root
    closedness of the presentation ring."""
    from .closure import RingPair, _monogenic, check_root_closed
    from .tilts import small_tilt

    rows = []
    for i, j in enumerate(range(handle.start, handle.top)):
        m_j = handle.top - j
        pres = small_tilt(handle, j, m_j)
        ring = pres.ring
        monogenic = _monogenic(ring) and ring.mode == CHAR_P
        if monogenic:
            pair = RingPair.localization(
                ring, ring.f0(), c_cap=2, label=f"tilt level {j}"
            )
            closed = check_root_closed(
                pair, handle.p, mode="sampled", samples=samples, seed=seed + i
            ).to_json_dict()
        else:
            closed = {"verdict": NOT_APPLICABLE}
        rows.append(
            {
                "level": j,
                "tilt_depth": m_j,
                "presentation_monogenic": monogenic,
                "quotient_exponent": pres.quotient_exponent,
                "p_root_closed": closed,
            }
        )
    all_ok = all(
        r["presentation_monogenic"] and r["p_root_closed"]["verdict"] == PASS_SAMPLED
        for r in rows
    )
    return {"levels": rows, "all_ok": all_ok}
