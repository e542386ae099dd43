"""Finite-level closure checks: root-closedness, cartesian squares,
almost-integrality witnesses.

Complete integral closedness quantifies over all powers of an element, so
it is replaced here by two decidable shadows: p-root closedness and
bounded almost-integrality witnesses (a search up to explicit caps, whose
absence is reported as undecided, never as a refutation).

Localizations A[1/f] are never materialized: a candidate a/f^c is a pair
(a, c) with c bounded by a cap.  On the monogenic layers the absolute
t-index (t-exponent plus e times the coefficient's p-valuation) is an
exact multiplicative valuation; it turns membership into an integer
comparison and decides root closure of A in A[1/f].  There PASS_EXACT
means that argument with multiplicativity checked at every absolute
index below the precision cap, not an enumeration, so exact mode is
exact at every size.  On extension pairs exact mode enumerates B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .core import (
    _ENUM_LIMIT,
    EnumerationTooLarge,
    LayerElem,
    LayerRing,
    TorsionReport,
    _vp,
)
from .towers import MethodDisagreement
from .verdict import (
    FAIL,
    NOT_APPLICABLE,
    PASS_EXACT,
    PASS_SAMPLED,
    PASSING,
    UNDECIDED_AT_PRECISION,
    Verdict,
)


class TorsionPresent(ValueError):
    pass


# is_cartesian_mod_f replays its verdict by dense linear algebra on pairs
# whose rings both have at most this rank.
_CARTESIAN_CROSSCHECK_DIM = 48


# -- explicit structure-constant rings (for crafted instances) ---------------


class ExplicitRing:
    """Free Z/p^N-module with a declared multiplication table.

    Basis vector 0 is the unit.  basis_val gives per-basis-vector lower
    bounds on the valuation, used only to classify torsion found at
    precision; 0 is always safe.
    """

    def __init__(self, *, p, n_digits, basis_names, table, basis_val=None):
        self.p = p
        self.n_digits = n_digits
        self.coeff_mod = p**n_digits
        self.basis_names = tuple(basis_names)
        self.table = table
        self.basis_val = tuple(basis_val or (0,) * len(self.basis_names))

    @property
    def rank(self):
        return len(self.basis_names)

    def __repr__(self):
        return f"ExplicitRing({'+'.join(self.basis_names)} over Z/{self.p}^{self.n_digits})"

    def wrap(self, vec):
        return ExplicitElem(self, tuple(c % self.coeff_mod for c in vec))

    def zero(self):
        return self.wrap((0,) * self.rank)

    def one(self):
        vec = [0] * self.rank
        vec[0] = 1
        return self.wrap(vec)

    def from_int(self, n):
        return self.one() * n

    def coerce(self, x):
        if isinstance(x, ExplicitElem) and x.ring is self:
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {x!r}")

    def basis_elems(self):
        out = []
        for i in range(self.rank):
            vec = [0] * self.rank
            vec[i] = 1
            out.append(self.wrap(vec))
        return out

    def to_vec(self, x):
        return list(self.coerce(x).vec)

    def element_count(self):
        return self.coeff_mod**self.rank

    def enumerate_elements(self):
        if self.element_count() > _ENUM_LIMIT:
            raise EnumerationTooLarge("explicit ring too large to enumerate")
        for vec in itertools.product(range(self.coeff_mod), repeat=self.rank):
            yield self.wrap(vec)

    def random_element(self, rng, max_terms=3):
        vec = [0] * self.rank
        for _ in range(rng.randint(1, max_terms)):
            vec[rng.randrange(self.rank)] = rng.randrange(self.coeff_mod)
        return self.wrap(vec)

    def val_lower_bound(self, x):
        x = self.coerce(x)
        best = None
        for i, c in enumerate(x.vec):
            if c:
                v = _vp(c, self.p, self.n_digits) + self.basis_val[i]
                best = v if best is None else min(best, v)
        return best  # None for zero

    def torsion_submodule(self, f):
        f = self.coerce(f)
        cols = [self.to_vec(f * b) for b in self.basis_elems()]
        power = cols
        for _ in range(self.n_digits - 1):
            power = [_mat_apply(cols, v, self.coeff_mod) for v in power]
        gens = linalg.kernel_generators(
            [list(v) for v in zip(*power)] if power else [],
            self.p,
            self.n_digits,
        )
        genuine, artifact = [], 0
        fval = self.val_lower_bound(f)
        for g in gens:
            elem = self.wrap(g)
            if elem.is_zero():
                continue
            xval = self.val_lower_bound(elem)
            if fval is not None and xval + self.n_digits * fval >= self.n_digits:
                artifact += 1
            else:
                genuine.append(elem)
        return TorsionReport(genuine=genuine, artifact_dim=artifact)


def _mat_apply(cols, vec, mod):
    out = [0] * len(cols[0])
    for c, col in zip(vec, cols):
        if c:
            for i, entry in enumerate(col):
                out[i] = (out[i] + c * entry) % mod
    return out


class ExplicitElem:
    __slots__ = ("ring", "vec")

    def __init__(self, ring, vec):
        self.ring = ring
        self.vec = tuple(vec)

    def is_zero(self):
        return not any(self.vec)

    def is_one(self):
        return self == self.ring.one()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return (
            isinstance(other, ExplicitElem)
            and other.ring is self.ring
            and other.vec == self.vec
        )

    def __hash__(self):
        return hash((id(self.ring), self.vec))

    def __add__(self, other):
        other = self.ring.coerce(other)
        return self.ring.wrap(a + b for a, b in zip(self.vec, other.vec))

    __radd__ = __add__

    def __neg__(self):
        return self.ring.wrap(-a for a in self.vec)

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring.wrap(c * other for c in self.vec)
        other = self.ring.coerce(other)
        mod = self.ring.coeff_mod
        out = [0] * self.ring.rank
        for i, a in enumerate(self.vec):
            if not a:
                continue
            for j, b in enumerate(other.vec):
                if not b:
                    continue
                for k, entry in enumerate(self.ring.table[(i, j)]):
                    out[k] = (out[k] + a * b * entry) % mod
        return self.ring.wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def to_text(self):
        if self.is_zero():
            return "0"
        names = self.ring.basis_names
        parts = []
        for name, c in zip(names, self.vec):
            if not c:
                continue
            if name == "1":
                parts.append(str(c))
            else:
                parts.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.to_text()}>"


# -- ring pairs ---------------------------------------------------------------


@dataclass
class RingPair:
    """An extension A -> B with a distinguished non-zero-divisor f of A,
    or the truncated localization of a single ring (B = A[1/f])."""

    A: object
    f: object
    B: object = None
    map_fn: object = None
    c_cap: int = 3
    label: str = ""

    @property
    def kind(self) -> str:
        return "localization" if self.B is None else "extension"

    @classmethod
    def extension(cls, A, B, map_fn, f, label=""):
        pair = cls(A=A, B=B, f=f, map_fn=map_fn, label=label)
        pair._verify_map()
        return pair

    @classmethod
    def localization(cls, A, f, c_cap=3, label=""):
        return cls(A=A, f=f, c_cap=c_cap, label=label)

    def _verify_map(self):
        """Spot-check that map_fn is a unital ring homomorphism, on the
        triples (x, y, x * y) of _spot_pairs."""
        if not self.map_fn(self.A.one()).is_one():
            raise ValueError(f"pair {self.label}: map does not send 1 to 1")
        for x, y, xy in self._spot_pairs():
            mx, my = self.map_fn(x), self.map_fn(y)
            if self.map_fn(xy) != mx * my:
                raise ValueError(
                    f"pair {self.label}: map is not multiplicative at "
                    f"({x.to_text()}, {y.to_text()})"
                )
            if self.map_fn(x + y) != mx + my:
                raise ValueError(f"pair {self.label}: map is not additive")

    def _spot_pairs(self):
        """(x, y, x * y) for every pair of basis elements of a small
        explicit ring; otherwise for 20 pairs drawn from Random(0).

        A drawn pair whose product is 0 at precision is drawn again:
        map(0) = 0, so such a pair tests nothing of map(x * y) but
        map(x) * map(y) = 0.  The redraw ends, because every layer ring has
        nonzero constants: random_element draws a pair of unit constants
        with positive probability, and their product is a unit.
        """
        import random

        A = self.A
        if getattr(A, "rank", 1) <= 12 and hasattr(A, "basis_elems"):
            gens = A.basis_elems()
            return [(x, y, x * y) for x in gens for y in gens]
        rng = random.Random(0)
        triples = []
        while len(triples) < 20:
            x, y = A.random_element(rng, 2), A.random_element(rng, 2)
            if not (xy := x * y).is_zero():
                triples.append((x, y, xy))
        return triples

    def check_torsion_free(self):
        rep_a = self.A.torsion_submodule(self.f)
        if not rep_a.is_torsion_free:
            raise TorsionPresent(f"pair {self.label}: A has genuine f-torsion")
        if self.kind == "extension":
            rep_b = self.B.torsion_submodule(self.map_fn(self.f))
            if not rep_b.is_torsion_free:
                raise TorsionPresent(
                    f"pair {self.label}: B has genuine f-torsion"
                )


# -- absolute index helpers (monogenic layers) --------------------------------


def _monomial_index(f: LayerElem) -> int | None:
    """The absolute index of f when f is a t-monomial, else None."""
    if len(f.terms) != 1 or any(next(iter(f.terms))[1]):
        return None
    return f.index_valuation()


def _in_monomial_ideal(x: LayerElem, s: int) -> bool:
    """Membership in t^s * A for a monogenic layer (valuation test)."""
    idx = x.index_valuation()
    return idx is None or idx >= s


# -- cartesian criterion -------------------------------------------------------


def is_cartesian_mod_f(pair: RingPair) -> Verdict:
    """Decides injectivity of A/fA -> B/fB, the cartesian-square criterion.

    For f-torsion-free rings this injectivity is equivalent to the square
    of A, B and their localizations at f being a pullback.  On a layer ring
    A the index walk decides it when the map sends monomials to monomials;
    otherwise exact linear algebra does.
    """
    if pair.kind != "extension":
        raise ValueError("the cartesian criterion needs an extension pair")
    pair.check_torsion_free()
    if isinstance(pair.A, LayerRing):
        verdict = _cartesian_monomial(pair)
        if verdict is not None:
            return verdict
    return _cartesian_dense(pair)


def _cartesian_monomial(pair: RingPair) -> Verdict | None:
    """The index walk over A/fA's monomial basis, or None where it does not
    apply: f or its image is not a t-monomial, or a basis monomial's image
    is not one term."""
    A = pair.A
    s_a = _monomial_index(pair.f)
    s_b = _monomial_index(pair.map_fn(pair.f))
    if s_a is None or s_b is None:
        return None
    seen = {}
    for key in A.basis_keys():
        k, vt = key
        if k >= s_a:
            continue  # already in fA
        img = pair.map_fn(A.monomial(k, vt))
        if len(img.terms) != 1:
            return None
        if _in_monomial_ideal(img, s_b):
            return Verdict(
                FAIL,
                property="CARTESIAN_MOD_F",
                witness=A.monomial(k, vt).to_text(),
                details={"pair": pair.label, "reason": "monomial maps into fB"},
            )
        img_key = next(iter(img.terms))
        if img_key in seen:
            witness = (A.monomial(k, vt) - A.monomial(*seen[img_key])).to_text()
            return Verdict(
                FAIL,
                property="CARTESIAN_MOD_F",
                witness=witness,
                details={"pair": pair.label, "reason": "collision mod fB"},
            )
        seen[img_key] = key
    verdict = Verdict(
        PASS_EXACT, property="CARTESIAN_MOD_F", details={"pair": pair.label}
    )
    _cartesian_crosscheck(pair, verdict)
    return verdict


def _cartesian_crosscheck(pair: RingPair, verdict: Verdict):
    A, B = pair.A, pair.B
    if A.rank > _CARTESIAN_CROSSCHECK_DIM or B.rank > _CARTESIAN_CROSSCHECK_DIM:
        return
    dense = _cartesian_dense(pair)
    if dense.verdict != verdict.verdict:
        raise MethodDisagreement(
            f"cartesian fast path disagrees with dense path on {pair.label}"
        )


def _basis_elems(ring):
    if hasattr(ring, "basis_elems"):
        return ring.basis_elems()
    return [ring.monomial(*key) for key in ring.basis_keys()]


def _cartesian_dense(pair: RingPair) -> Verdict:
    """Injectivity of A/fA -> B/fB by exact linear algebra over Z/p^N."""
    A, B = pair.A, pair.B
    p, nd = A.p, A.n_digits
    a_basis = _basis_elems(A)
    fA_rows = [A.to_vec(pair.f * x) for x in a_basis]
    fA = linalg.RowSpan(fA_rows, p, nd)
    fB_img = pair.map_fn(pair.f)
    fB_cols = [B.to_vec(fB_img * y) for y in _basis_elems(B)]
    # Solve phi(x) = f*y by stacking [phi | -fB] and projecting kernels to x.
    phi_cols = [B.to_vec(pair.map_fn(x)) for x in a_basis]
    columns = phi_cols + [[-c for c in col] for col in fB_cols]
    kernel = linalg.kernel_generators(columns, p, nd)
    for gen in kernel:
        x_coords = gen[: len(a_basis)]
        if not any(x_coords):
            continue
        if not fA.contains(x_coords):
            witness = _combine(A, a_basis, x_coords)
            return Verdict(
                FAIL,
                property="CARTESIAN_MOD_F",
                witness=witness.to_text(),
                details={"pair": pair.label},
            )
    return Verdict(
        PASS_EXACT, property="CARTESIAN_MOD_F", details={"pair": pair.label}
    )


def _combine(ring, basis, coords):
    acc = ring.zero()
    for c, b in zip(coords, basis):
        if c:
            acc = acc + b * c
    return acc


# -- root closedness ------------------------------------------------------------


def check_root_closed(pair: RingPair, n: int, mode="exact", samples=500, seed=0) -> Verdict:
    """Does b^n in A force b in A, for b ranging over the pair's B side?

    mode "exact" enumerates B on extension pairs (EnumerationTooLarge
    beyond the cap) and every absolute index on localization pairs; mode
    "sampled" draws seeded random candidates.  Samples whose n-th power
    would vanish at precision witness nothing and are counted as skipped.
    """
    if n < 1:
        raise ValueError(f"root closure needs n >= 1, got {n}")
    prop = "P_ROOT_CLOSED" if n == pair.A.p else f"N_ROOT_CLOSED({n})"
    if pair.kind == "localization":
        return _root_closed_localization(pair, n, mode, samples, seed, prop)
    return _root_closed_extension(pair, n, mode, samples, seed, prop)


def _root_closed_extension(pair, n, mode, samples, seed, prop) -> Verdict:
    import random

    A, B = pair.A, pair.B
    image = linalg.RowSpan(
        [B.to_vec(pair.map_fn(x)) for x in _basis_elems(A)], B.p, B.n_digits
    )
    if mode == "exact":
        candidates = B.enumerate_elements()
    else:
        rng = random.Random(seed)
        candidates = (B.random_element(rng, 3) for _ in range(samples))
    checked = 0
    for b in candidates:
        checked += 1
        if image.contains(B.to_vec(b**n)) and not image.contains(B.to_vec(b)):
            return Verdict(
                FAIL,
                property=prop,
                witness=b.to_text(),
                samples=checked,
                details={"pair": pair.label},
            )
    verdict = PASS_EXACT if mode == "exact" else PASS_SAMPLED
    return Verdict(
        verdict, property=prop, samples=checked, details={"pair": pair.label}
    )


def _root_closed_localization(pair, n, mode, samples, seed, prop) -> Verdict:
    """Root closure of a monogenic layer A in A[1/f], decided by valuation.

    A is a truncated DVR (t^e = p, or F_p[[T]]) with valuation idx =
    index_valuation.  a/f^c in A <=> idx(a) >= c*idx(f), and (a/f^c)^n in
    A <=> n*idx(a) >= n*c*idx(f): for n >= 1 the same condition, so A is
    root closed.  The loop self-checks that idx is multiplicative,
    recomputing a^n whenever n*idx(a) < cap (MethodDisagreement on a
    mismatch), on one p^v t^k per absolute index (exact mode; monomial
    folds t^e = p) or on seeded random elements (sampled mode).
    """
    import random

    A = pair.A
    if not _monogenic(A):
        raise ValueError(
            "localization pairs need monogenic layer rings (the absolute "
            "t-index is only a valuation there)"
        )
    cap = A.index_cap
    checked = skipped = verified = 0
    if mode == "exact":
        candidates = (A.monomial(i) for i in range(cap))
    else:
        rng = random.Random(seed)
        # The c draw is unread but kept: the suite prints sample counts,
        # so its bytes pin the draw order (an element, then a c).
        candidates = (
            (A.random_element(rng, 3), rng.randint(0, pair.c_cap))[0]
            for _ in range(samples)
        )
    for a in candidates:
        checked += 1
        idx = a.index_valuation()
        if idx is None:
            continue  # a/f^c is zero at precision
        if n * idx < cap:
            got = (a**n).index_valuation()
            if got != n * idx:
                raise MethodDisagreement(
                    f"valuation multiplicativity failed on {a.to_text()}"
                )
            verified += 1
        else:
            skipped += 1
    verdict = PASS_EXACT if mode == "exact" else PASS_SAMPLED
    return Verdict(
        verdict,
        property=prop,
        samples=checked,
        details={
            "pair": pair.label,
            "powers_recomputed": verified,
            "precision_skipped": skipped,
        },
    )


# -- almost integrality -----------------------------------------------------------


def almost_integral_witness(pair: RingPair, b, c_cap: int, n_cap: int) -> Verdict:
    """Search for c <= c_cap with f^c * b^k in A for all k <= n_cap.

    b is (a, c0) standing for a / f^c0.  Success certifies bounded almost
    integrality; failure of the search is UNDECIDED_AT_PRECISION with the
    (c, first failing k) frontier, never a refutation.
    """
    if c_cap <= 0 or n_cap <= 0:
        raise ValueError("caps must be positive")
    if pair.kind != "localization":
        raise ValueError("almost-integrality search runs on localization pairs")
    a, c0 = b
    A = pair.A
    if not _monogenic(A):
        raise ValueError("almost-integrality search needs a monogenic layer")
    s_f = _monomial_index(pair.f)
    if s_f is None:
        raise ValueError("almost-integrality search needs a t-monomial f")
    idx = a.index_valuation()
    if idx is None:
        return Verdict(
            PASS_EXACT,
            property="ALMOST_INTEGRAL_WITNESS",
            witness="c = 0",
            details={"pair": pair.label, "note": "element is 0 at precision"},
        )
    frontier = []
    for c in range(c_cap + 1):
        bad = None
        for k in range(1, n_cap + 1):
            # f^c * (a/f^c0)^k has absolute index k*idx + (c - c0*k)*s_f.
            if k * idx + (c - c0 * k) * s_f < 0:
                bad = k
                break
        if bad is None:
            return Verdict(
                PASS_EXACT,
                property="ALMOST_INTEGRAL_WITNESS",
                witness=f"c = {c}",
                samples=n_cap,
                details={"pair": pair.label, "c": c},
            )
        frontier.append([c, bad])
    return Verdict(
        UNDECIDED_AT_PRECISION,
        property="ALMOST_INTEGRAL_WITNESS",
        details={
            "pair": pair.label,
            "frontier": frontier,
            "c_cap": c_cap,
            "n_cap": n_cap,
        },
    )


# -- the transfer suite -----------------------------------------------------------


def tower_pairs(handle):
    """Consecutive-layer extension pairs of a realized tower."""
    out = []
    for n in range(handle.start, handle.top):
        out.append(
            RingPair.extension(
                handle.layer(n),
                handle.layer(n + 1),
                lambda x, n=n: handle.transition(n, x),
                handle.f0(n),
                label=f"{handle.label}:{n}->{n + 1}",
            )
        )
    return out


def transfer_suite(handle, mode="sampled", samples=500, seed=0, c_cap=3) -> dict:
    """Per-layer closure report: cartesian squares along the tower, p-root
    closedness of every layer, and the same for the depth-1 tilted layers."""
    from .tilts import InsufficientDepth, tilt_tower

    report = {"tower": handle.describe(), "cartesian": [], "root_closed": [], "tilt_root_closed": []}
    for pair in tower_pairs(handle):
        report["cartesian"].append(is_cartesian_mod_f(pair).to_json_dict())
    report["root_closed"] = _layerwise_root_closed(
        handle, mode, samples, seed, c_cap
    )
    try:
        tilted = tilt_tower(handle, 1)
    except InsufficientDepth as exc:
        report["tilt_skipped"] = str(exc)
    else:
        report["tilt_root_closed"] = _layerwise_root_closed(
            tilted, mode, samples, seed + 1, c_cap
        )
        for pair in tower_pairs(tilted):
            report["cartesian"].append(is_cartesian_mod_f(pair).to_json_dict())
    report["all_ok"] = all(
        row["verdict"] in PASSING
        for key in ("cartesian", "root_closed", "tilt_root_closed")
        for row in report[key]
    )
    return report


def almost_integral_probes(handle, c_cap: int, n_cap: int) -> list[dict]:
    """Capped almost-integrality searches on canonical localized elements.

    Per layer: a unit (witness c = 0 expected) and the generator divided
    by the ideal (negative valuation, so the search stays undecided and
    reports its frontier).  Informational: an absent witness is never a
    refutation.  Layers with variables get a NOT_APPLICABLE row, because
    the absolute t-index is only a valuation on monogenic layers.
    """
    rows = []
    for n in handle.levels:
        ring = handle.layer(n)
        if not _monogenic(ring):
            rows.append(_not_applicable(n, "almost integrality"))
            continue
        pair = RingPair.localization(
            ring, ring.f0(), c_cap=c_cap, label=f"{handle.label}:level {n}"
        )
        unit = almost_integral_witness(pair, (ring.one(), 0), c_cap, n_cap)
        probe = almost_integral_witness(pair, (ring.t_gen(), 1), c_cap, n_cap)
        rows.append(
            {
                "level": n,
                "unit": unit.to_json_dict(),
                "generator_over_f": probe.to_json_dict(),
            }
        )
    return rows


def _monogenic(ring) -> bool:
    return isinstance(ring, LayerRing) and not ring.num_vars


def _not_applicable(n, what):
    return {
        "level": n,
        "verdict": NOT_APPLICABLE,
        "note": f"{what} is tracked on monogenic layers only",
    }


def _layerwise_root_closed(handle, mode, samples, seed, c_cap):
    rows = []
    for i, n in enumerate(handle.levels):
        ring = handle.layer(n)
        if not _monogenic(ring):
            rows.append(_not_applicable(n, "root closure"))
            continue
        pair = RingPair.localization(
            ring, ring.f0(), c_cap=c_cap, label=f"{handle.label}:level {n}"
        )
        verdict = check_root_closed(
            pair, ring.p, mode=mode, samples=samples, seed=seed + i
        )
        row = verdict.to_json_dict()
        row["level"] = n
        rows.append(row)
    return rows
