"""Exact arithmetic in truncated tower-layer rings.

A layer ring is a finite stand-in for the ring of integers in a p-power
ramified extension:

* mixed characteristic: coefficients in Z/p^N, one generator t with
  t^e = p, so monomials t^k (0 <= k < e) form a free basis;
* characteristic p: coefficients in F_p, generator t with t^K = 0, the
  t-adic truncation used for quotients and small tilts.

Optional "perfectoid" variables x1..xv carry exponents with p-power
denominators and are truncated by a fixed total-degree cap; dropping a
nonzero term at the cap is the one operation that genuinely discards
information, and it marks the result as lossy (LayerRing.keeps_key).
Everything else is exact modulo the stated precision (p^N, respectively
t^K).

Elements are sparse maps from exponent keys (t-index, variable-index
tuple) to nonzero residues; exponent indices are integers in the lattice
with denominators e (for t) and var_den (for the variables).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import _backend

MIXED = "mixed"
CHAR_P = "char_p"

_ENUM_LIMIT = 1 << 20

# A monogenic product goes dense when len(a) * len(b) exceeds max(this, e).
_SPARSE_LIMIT = 64


class NonPrime(ValueError):
    pass


class BadIdealExponent(ValueError):
    pass


class RingMismatch(TypeError):
    pass


class ParseError(ValueError):
    pass


class EnumerationTooLarge(ValueError):
    pass


class NotInvertible(ArithmeticError):
    pass


class _AbovePrecision:
    """Valuation marker for elements indistinguishable from 0 at precision."""

    def __repr__(self):
        return "ABOVE_PRECISION"


ABOVE_PRECISION = _AbovePrecision()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class LayerRing:
    """One layer of a tower, truncated to finite precision.

    Given n_digits, the mode is MIXED: (Z/p^n_digits)[t]/(t^e - p), basis
    t^k for 0 <= k < e.  Given window, it is CHAR_P: F_p[t]/(t^window) with
    the exponent lattice (1/e)Z, the shape of layer quotients and
    small-tilt presentations.  Exactly one of the two is given.

    ideal_num is the t-index of the distinguished ideal generator f0, so
    f0 = t^ideal_num has valuation ideal_num/e.  The level is v_p(e/e0).
    """

    def __init__(
        self,
        *,
        p: int,
        e: int,
        ideal_num: int,
        n_digits: int | None = None,
        window: int | None = None,
        e0: int = 1,
        num_vars: int = 0,
        var_den: int = 1,
        var_cap: Fraction = Fraction(0),
    ):
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if (n_digits is None) == (window is None):
            raise ValueError("give exactly one of n_digits and window")
        if e < 1 or e0 < 1 or num_vars < 0 or var_den < 1:
            raise ValueError("invalid ring shape")
        self.p = p
        self.e = e
        self.e0 = e0
        self.num_vars = num_vars
        self.var_den = var_den
        self.var_cap = Fraction(var_cap)
        self.ideal_num = ideal_num
        if n_digits is not None:
            if n_digits < 1:
                raise ValueError("mixed rings need n_digits >= 1")
            self.mode = MIXED
            self.n_digits = n_digits
            self.window = None
            self.coeff_mod = p**n_digits
            self.index_cap = e * n_digits
            self.symbol = "t"
        else:
            if window < 1:
                raise ValueError("char-p rings need window >= 1")
            self.mode = CHAR_P
            self.n_digits = 1
            self.window = window
            self.coeff_mod = p
            self.index_cap = window
            self.symbol = "T"
        if ideal_num < 0 or Fraction(ideal_num, e) > 1:
            raise BadIdealExponent(
                f"ideal exponent {Fraction(ideal_num, e)} must lie in [0, 1]"
            )
        # Absolute indices (see LayerElem.index_valuation) are valuations
        # times e; the precision cap in those units is e*N, resp. the window.
        self.val_cap = Fraction(self.index_cap, e)
        self._zero_vt = (0,) * num_vars
        # Variable parts are integer index sums, so sum * s / var_den > var_cap
        # exactly when sum * s > floor(var_cap * var_den), for any integer s.
        self.var_cap_index = math.floor(self.var_cap * var_den)
        self._var_monomials = None
        self._basis = None
        self._vt_index = None
        self._quotient = None

    # -- identity ---------------------------------------------------------

    def _key(self):
        return (
            self.mode,
            self.p,
            self.e,
            self.e0,
            self.num_vars,
            self.var_den,
            self.var_cap,
            self.ideal_num,
            self.n_digits,
            self.window,
        )

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, LayerRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.mode == MIXED:
            body = f"(Z/{self.p}^{self.n_digits})[t]/(t^{self.e} - {self.p})"
        else:
            body = f"F_{self.p}[T]/(T^{self.window}) @ lattice 1/{self.e}"
        extra = f", vars={self.num_vars}" if self.num_vars else ""
        return f"LayerRing({body}, level={self.level}{extra})"

    @property
    def level(self) -> int:
        return _vp(self.e, self.p, 0) - _vp(self.e0, self.p, 0)

    @property
    def ideal_exp(self) -> Fraction:
        return Fraction(self.ideal_num, self.e)

    # -- construction of elements -----------------------------------------

    def _cap_index(self, vt) -> bool:
        """True when the variable part overflows the total-degree cap."""
        if not self.num_vars:
            return False
        return sum(vt) > self.var_cap_index

    def keeps_key(self, k, vt) -> bool:
        """True when the ring keeps the key (k, vt): t^k is nonzero at the
        ring's precision (k below index_cap, on a CHAR_P ring the window)
        and vt lies under the variable cap.

        The one keying rule.  _from_items, _term and key_image fold through
        t^e = p, reduce mod coeff_mod, then keep a nonzero term by this
        rule; a nonzero term the cap drops marks the result lossy.
        """
        # _cap_index's test, inlined: _term asks this of every nonzero term.
        return k < self.index_cap and (not self.num_vars or sum(vt) <= self.var_cap_index)

    def _from_items(self, items, lossy=False) -> "LayerElem":
        acc: dict = {}
        get = acc.get
        mixed = self.mode == MIXED
        for k, vt, c in items:
            if mixed and k >= self.e:
                q, k = divmod(k, self.e)
                c *= self.p**q
            key = (k, vt)
            acc[key] = get(key, 0) + c
        mod, keeps = self.coeff_mod, self.keeps_key
        terms = {}
        for key, c in acc.items():
            c %= mod
            if c:
                if keeps(*key):
                    terms[key] = c
                elif not lossy:
                    lossy = self._cap_index(key[1])
        return LayerElem(self, terms, lossy)

    def _term(self, k, vt, c, lossy=False) -> "LayerElem":
        """_from_items([(k, vt, c)], lossy), without the general loop.

        Elements of zero or one term are most of what the maps build: a
        basis monomial, its image under a transition or projection, its
        power.
        """
        if self.mode == MIXED and k >= self.e:
            q, k = divmod(k, self.e)
            c *= self.p**q
        c %= self.coeff_mod
        if not c:
            return LayerElem(self, {}, lossy)
        if self.keeps_key(k, vt):
            return LayerElem(self, {(k, vt): c}, lossy)
        return LayerElem(self, {}, lossy or self._cap_index(vt))

    def _from_t_dict(self, acc: dict, lossy: bool) -> "LayerElem":
        """Canonical element from {t-index: coeff} on a ring without variables.

        The monogenic counterpart of _from_items: t-indices past the ring
        fold through t^e = p (MIXED) or drop off the window (CHAR_P).
        """
        vt = self._zero_vt
        mod = self.coeff_mod
        terms = {}
        if self.mode == MIXED:
            e = self.e
            if acc and max(acc) >= e:
                folded: dict = {}
                for k, c in acc.items():
                    if k >= e:
                        q, k = divmod(k, e)
                        c *= self.p**q
                    folded[k] = folded.get(k, 0) + c
                acc = folded
            for k, c in acc.items():
                c %= mod
                if c:
                    terms[(k, vt)] = c
        else:
            window = self.window
            for k, c in acc.items():
                if k < window:
                    c %= mod
                    if c:
                        terms[(k, vt)] = c
        return LayerElem(self, terms, lossy)

    def rescale(self, x: "LayerElem", mul: int = 1, div: int = 1) -> "LayerElem":
        """x's terms in this ring, each t- and variable index times mul over div.

        The one map between exponent lattices: a transition scales indices
        by p, the Frobenius projection and lifts copy them into another
        lattice, and inverting a composite reduction divides them by p^k
        (div must divide every scaled index; sharp checks that it does).
        Terms fold or drop by _from_items' rule.
        """
        terms = x.terms
        if not terms:
            return LayerElem(self, {}, x.lossy)
        if len(terms) == 1:
            ((k, vt), c), = terms.items()
            if mul != 1 or div != 1:
                k = k * mul // div
                vt = tuple(j * mul // div for j in vt)
            return self._term(k, vt, c, x.lossy)
        if mul == div == 1:
            items = [(k, vt, c) for (k, vt), c in terms.items()]
        else:
            items = [
                (k * mul // div, tuple(j * mul // div for j in vt), c)
                for (k, vt), c in terms.items()
            ]
        return self._from_items(items, x.lossy)

    def key_image(self, key, mul: int = 1, lossy: bool = False):
        """(terms, lossy) of ``rescale(LayerElem(src, {key: 1}, lossy), mul)``,
        without building either element: the key's indices times mul,
        folded and kept or dropped by _term's rule.

        The handles' key-level maps are this, so their images come out
        keyed as the ring keys them.
        """
        k, vt = key
        if mul != 1:
            k *= mul
            if vt:
                vt = tuple([j * mul for j in vt])
        c = 1
        if self.mode == MIXED and k >= self.e:
            q, k = divmod(k, self.e)
            c = self.p**q % self.coeff_mod
            if not c:
                return {}, lossy
        if self.keeps_key(k, vt):
            return {(k, vt): c}, lossy
        return {}, lossy or self._cap_index(vt)

    def zero(self) -> "LayerElem":
        return LayerElem(self, {}, False)

    def one(self) -> "LayerElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "LayerElem":
        return self._term(0, self._zero_vt, n)

    def monomial(self, k: int, vt=None, coeff: int = 1) -> "LayerElem":
        vt = self._zero_vt if vt is None else tuple(vt)
        if k < 0:
            raise ValueError(f"negative t-index {k}")
        if len(vt) != self.num_vars:
            raise ValueError("variable index tuple has wrong length")
        return self._term(k, vt, coeff)

    def t_gen(self) -> "LayerElem":
        return self.monomial(1)

    def var_gen(self, i: int) -> "LayerElem":
        if not 0 <= i < self.num_vars:
            raise ValueError(f"no variable x{i + 1}")
        vt = list(self._zero_vt)
        vt[i] = self.var_den
        return self.monomial(0, vt)

    def coerce(self, x) -> "LayerElem":
        if isinstance(x, LayerElem):
            if x.ring is not self and x.ring != self:
                raise RingMismatch(f"{x.ring!r} != {self!r}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise RingMismatch(f"cannot coerce {type(x).__name__}")

    def f0(self) -> "LayerElem":
        return self.monomial(self.ideal_num)

    # -- multiplication ----------------------------------------------------

    def _mul(self, a: "LayerElem", b: "LayerElem") -> "LayerElem":
        ta, tb = a.terms, b.terms
        lossy = a.lossy or b.lossy
        if not ta or not tb:
            return LayerElem(self, {}, lossy)
        if len(ta) == 1 and len(tb) == 1:
            ((ka, va), ca), = ta.items()
            ((kb, vb), cb), = tb.items()
            vt = tuple(x + y for x, y in zip(va, vb)) if self.num_vars else va
            return self._term(ka + kb, vt, ca * cb, lossy)
        if self.num_vars == 0:
            if len(ta) * len(tb) > max(_SPARSE_LIMIT, self.e):
                return self._mul_dense(ta, tb, lossy)
            acc: dict = {}
            get = acc.get
            row = [(kb, cb) for (kb, _), cb in tb.items()]
            if ta is tb:
                # A square visits each unordered pair once.  The first pair
                # to reach a t-index has i <= j, so keys arrive in the order
                # the full double loop would insert them.
                for i, (ka, ca) in enumerate(row):
                    k = ka + ka
                    acc[k] = get(k, 0) + ca * ca
                    ca += ca
                    for kb, cb in row[i + 1 :]:
                        k = ka + kb
                        acc[k] = get(k, 0) + ca * cb
            else:
                for (ka, _), ca in ta.items():
                    for kb, cb in row:
                        k = ka + kb
                        acc[k] = get(k, 0) + ca * cb
            return self._from_t_dict(acc, lossy)
        # Once the product is lossy, a pair whose variable degrees sum past
        # the cap can only be dropped: no kept key receives it, and the flag
        # it could set is already set.
        cap = self.var_cap_index
        row = [(kb, vb, sum(vb), cb) for (kb, vb), cb in tb.items()]
        items = []
        for (ka, va), ca in ta.items():
            room = cap - sum(va)
            for kb, vb, db, cb in row:
                if lossy and db > room:
                    continue
                vt = tuple(x + y for x, y in zip(va, vb))
                items.append((ka + kb, vt, ca * cb))
        return self._from_items(items, lossy)

    def _mul_dense(self, ta, tb, lossy):
        if self.mode == MIXED:
            fa = self._coeff_list(ta)
            # the kernel squares when both arguments are one list
            fb = fa if ta is tb else self._coeff_list(tb)
            conv = _backend.eisenstein_mul(fa, fb, self.e, self.p, self.coeff_mod)
        else:
            la = max(k for k, _ in ta) + 1
            lb = max(k for k, _ in tb) + 1
            fa = [0] * la
            fb = [0] * lb
            for (k, _), c in ta.items():
                fa[k] = c
            for (k, _), c in tb.items():
                fb[k] = c
            conv = _backend.window_mul(fa, fb, self.window, self.p)
        vt = self._zero_vt
        terms = {(k, vt): c for k, c in enumerate(conv) if c}
        return LayerElem(self, terms, lossy)

    def _coeff_list(self, terms) -> list:
        """The e coefficients of a monogenic MIXED element, t^0 first."""
        out = [0] * self.e
        for (k, _), c in terms.items():
            out[k] = c
        return out

    # -- the p-th power chain of LayerElem.p_power ---------------------------
    #
    # A chain value is a terms dict while sparse and an e-long coefficient
    # list once a product went dense; its coefficients lie in [0, mod) for
    # the modulus of the step that made it.

    def _chain_pow_p(self, y, mod):
        """y^p mod `mod`, by left-to-right binary powering."""
        r = y
        for bit in bin(self.p)[3:]:
            r = self._chain_mul(r, r, mod)
            if bit == "1":
                r = self._chain_mul(r, y, mod)
        return r

    def _chain_mul(self, a, b, mod):
        """a * b mod `mod`: sparse by _mul's rule until either side is dense.

        The kernel sizes its lanes for coefficients below its pmod, so both
        inputs must already lie in [0, mod).
        """
        sparse_a, sparse_b = isinstance(a, dict), isinstance(b, dict)
        if sparse_a and sparse_b and len(a) * len(b) <= max(_SPARSE_LIMIT, self.e):
            wa = LayerElem(self, a)
            prod = self._mul(wa, wa if b is a else LayerElem(self, b))
            return {key: r for key, c in prod.terms.items() if (r := c % mod)}
        fa = self._coeff_list(a) if sparse_a else a
        if b is a:
            fb = fa
        else:
            fb = self._coeff_list(b) if sparse_b else b
        return _backend.eisenstein_mul(fa, fb, self.e, self.p, mod)

    # -- valuation and ideals ----------------------------------------------

    def quotient_ring(self) -> "LayerRing":
        """The residue ring modulo (f0): F_p[t]/(t^ideal_num) x variables."""
        if self._quotient is None:
            if self.ideal_num == 0:
                raise BadIdealExponent("quotient by the unit ideal is empty")
            self._quotient = LayerRing(
                p=self.p,
                e=self.e,
                window=self.ideal_num,
                ideal_num=self.ideal_num,
                e0=self.e0,
                num_vars=self.num_vars,
                var_den=self.var_den,
                var_cap=self.var_cap,
            )
        return self._quotient

    def reduce_mod_ideal(self, x: "LayerElem") -> "LayerElem":
        x = self.coerce(x)
        quot = self._quotient or self.quotient_ring()
        items = []
        for (k, vt), c in x.terms.items():
            c %= self.p
            if c and k < self.ideal_num:
                items.append((k, vt, c))
        return quot._from_items(items, x.lossy)

    def lift(self, q: "LayerElem") -> "LayerElem":
        """Canonical coefficient lift from the quotient back to this ring."""
        if q.ring != self.quotient_ring():
            raise RingMismatch("element does not live in this ring's quotient")
        return self.rescale(q)

    # -- bases and enumeration ----------------------------------------------

    def var_monomials(self):
        if self._var_monomials is None:
            if self.num_vars == 0:
                self._var_monomials = [()]
            else:
                bound = self.var_cap_index
                mons = []
                for vt in itertools.product(
                    range(bound + 1), repeat=self.num_vars
                ):
                    if sum(vt) <= bound:
                        mons.append(vt)
                mons.sort()
                self._var_monomials = mons
        return self._var_monomials

    def t_range(self) -> int:
        return self.e if self.mode == MIXED else self.window

    def basis_keys(self):
        if self._basis is None:
            self._basis = [
                (k, vt)
                for k in range(self.t_range())
                for vt in self.var_monomials()
            ]
        return self._basis

    def _position(self, k, vt) -> int:
        """Where (k, vt), a key this ring keeps, sits in basis_keys(): the
        basis runs through the t-indices in order, each with every variable
        monomial in var_monomials() order."""
        index = self._vt_index
        if index is None:
            index = self._vt_index = {v: i for i, v in enumerate(self.var_monomials())}
        return k * len(index) + index[vt]

    def basis_key(self, k, vt):
        """The tuple of basis_keys() equal to (k, vt), a key this ring keeps.

        Callers that hold many keys at once share the basis's tuples
        instead of building their own.
        """
        return (self._basis or self.basis_keys())[self._position(k, vt)]

    @property
    def rank(self) -> int:
        return self.t_range() * len(self.var_monomials())

    def to_vec(self, x: "LayerElem"):
        x = self.coerce(x)
        vec = [0] * self.rank
        for (k, vt), c in x.terms.items():
            vec[self._position(k, vt)] = c
        return vec

    def element_count(self) -> int:
        return self.coeff_mod**self.rank

    def enumerate_elements(self):
        if self.element_count() > _ENUM_LIMIT:
            raise EnumerationTooLarge(
                f"{self.element_count()} elements exceed the enumeration cap"
            )
        basis = self.basis_keys()
        for coeffs in itertools.product(range(self.coeff_mod), repeat=len(basis)):
            yield self._from_items(
                [(k, vt, c) for (k, vt), c in zip(basis, coeffs) if c]
            )

    def random_element(self, rng, max_terms: int = 3) -> "LayerElem":
        """Up to max_terms random terms on keys drawn as positions in
        basis_keys(), without building the basis."""
        mons = self.var_monomials()
        size = self.rank
        n_terms = rng.randint(1, max_terms)
        items = []
        for _ in range(n_terms):
            k, v = divmod(rng.randrange(size), len(mons))
            items.append((k, mons[v], rng.randrange(1, self.coeff_mod)))
        return self._from_items(items)

    # -- units, idempotents, torsion ----------------------------------------

    def invert(self, x: "LayerElem") -> "LayerElem":
        """Inverse of a unit c0*(1 + z) with val(z) > 0, by geometric series.

        The series 1 + z + z^2 + ... is summed in one dict and reduced mod
        coeff_mod once, scaled by 1/c0.  Products carry their factors' lossy
        flags, so the first zero power's flag covers every power before it
        and the variable cap, if that is what zeroed it.  A unit constant
        (z = 0, even a lossy 0) has an exact inverse.
        """
        x = self.coerce(x)
        c0 = x.terms.get((0, self._zero_vt), 0)
        if c0 % self.p == 0:
            raise NotInvertible(f"{x.to_text()} has non-unit constant term")
        c0_inv = pow(c0, -1, self.coeff_mod)
        z = self.one() - x * c0_inv
        if not z.is_zero() and z.valuation() == 0:
            raise NotInvertible(
                f"{x.to_text()} is not 1 + (positive valuation) up to a unit"
            )
        if z.is_zero():
            return self.from_int(c0_inv)
        acc = {(0, self._zero_vt): 1}
        power = z
        while not power.is_zero():
            for key, c in power.terms.items():
                acc[key] = acc.get(key, 0) + c
            power = power * z
        mod = self.coeff_mod
        terms = {key: r for key, c in acc.items() if (r := c * c0_inv % mod)}
        return LayerElem(self, terms, power.lossy)

    def idempotents(self):
        """All solutions of x^2 = x.

        The ring is local (the maximal ideal is (t, p), resp. (t)), and an
        idempotent is determined by its residue in F_p, so only 0 and 1
        occur; each lifts uniquely because 2x - 1 is a unit at both.
        """
        return [self.zero(), self.one()]

    def torsion_submodule(self, f: "LayerElem"):
        """Basis of {x : f^c x = 0, c <= index_cap}, split genuine vs artifact.

        Multiplication by t is injective below the precision cap, so on a
        single layer every kernel element of a nonzero f is an artifact of
        truncation; genuinely killed elements only arise from f = 0.
        """
        f = self.coerce(f)
        if f.is_zero():
            genuine = [self.monomial(k, vt) for k, vt in self.basis_keys()]
            return TorsionReport(genuine=genuine, artifact_dim=0)
        f_idx = f.index_valuation()
        if f_idx == 0:
            return TorsionReport(genuine=[], artifact_dim=0)
        if any(any(vt) for (_, vt) in f.terms):
            raise ValueError("torsion is only tracked for t-monomial ideals")
        # f_idx >= 1, so f^index_cap kills every basis element at precision
        return TorsionReport(genuine=[], artifact_dim=self.rank)

    # -- parsing and rendering ----------------------------------------------

    def parse(self, text: str) -> "LayerElem":
        return parse_element(self, text)


@dataclass
class TorsionReport:
    genuine: list
    artifact_dim: int

    @property
    def is_torsion_free(self) -> bool:
        return not self.genuine

    @property
    def flags(self) -> tuple:
        return ("PRECISION_ARTIFACT",) if self.artifact_dim else ()


class LayerElem:
    """Canonical sparse element of a LayerRing.  Treat as immutable."""

    __slots__ = ("ring", "terms", "lossy")

    def __init__(self, ring: LayerRing, terms: dict, lossy: bool = False):
        self.ring = ring
        self.terms = terms
        self.lossy = lossy

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, self.ring._zero_vt): 1}

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, LayerElem):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        # Both sides are canonical: their keys need no folding and lie
        # under the cap, so only coefficients are reduced.
        ring = self.ring
        other = ring.coerce(other)
        acc = dict(self.terms)
        get = acc.get
        for key, c in other.terms.items():
            acc[key] = get(key, 0) + c
        mod = ring.coeff_mod
        terms = {key: r for key, c in acc.items() if (r := c % mod)}
        return LayerElem(ring, terms, self.lossy or other.lossy)

    __radd__ = __add__

    def __neg__(self):
        mod = self.ring.coeff_mod
        terms = {key: r for key, c in self.terms.items() if (r := -c % mod)}
        return LayerElem(self.ring, terms, self.lossy)

    def __sub__(self, other):
        other = self.ring.coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        other = self.ring.coerce(other)
        return self.ring._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        if n == 0:
            return self.ring.one()
        if len(self.terms) == 1:
            ((k, vt), c), = self.terms.items()
            ring = self.ring
            return ring._term(
                k * n, tuple(j * n for j in vt), pow(c, n, ring.coeff_mod), self.lossy
            )
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def p_power(self, m: int) -> "LayerElem":
        """self ** p**m, as m successive p-th powers at rising precision.

        If a = b mod p^k with k >= 1, then a^p = b^p mod p^(k+1) by the
        binomial theorem, so self^(p^m) mod p^N depends only on self mod
        p^max(1, N-m).  Step i of the chain therefore works mod
        p^max(1, N-m+i), and only the last step runs at full precision.
        Each product picks the sparse or dense path by _mul's rule; once
        dense, the chain stays on one coefficient list, which saves a term
        dict per product.  Single-term elements, char-p layers and layers
        with variables take __pow__.
        """
        if m < 0:
            raise ValueError("negative powers are not defined here")
        ring = self.ring
        if m == 0 or len(self.terms) < 2 or ring.mode != MIXED or ring.num_vars:
            return self ** ring.p**m
        p, n = ring.p, ring.n_digits
        mod = p ** max(1, n - m)
        y = {key: r for key, c in self.terms.items() if (r := c % mod)}
        for k in range(n - m + 1, n + 1):
            y = ring._chain_pow_p(y, p ** max(1, k))
        if isinstance(y, list):
            vt = ring._zero_vt
            y = {(k, vt): c for k, c in enumerate(y) if c}
        return LayerElem(ring, y, self.lossy)

    def index_valuation(self) -> int | None:
        """The valuation times e, as an absolute t-index; None at zero.

        A term c*t^k has absolute index k + e*v_p(c) (t^e = p); in
        characteristic p it is k.  On monogenic layers this is an exact
        multiplicative valuation.
        """
        ring = self.ring
        mixed = ring.mode == MIXED
        best = None
        for (k, _), c in self.terms.items():
            if mixed and not c % ring.p:
                k += ring.e * _vp(c, ring.p, ring.n_digits)
            if best is None or k < best:
                best = k
        return best

    def valuation(self):
        idx = self.index_valuation()
        return ABOVE_PRECISION if idx is None else Fraction(idx, self.ring.e)

    def divide_by_monomial(self, k: int) -> "LayerElem":
        """Exact division by t^k; raises if any term is not divisible.

        In mixed mode a coefficient p^a * u contributes a*e to the
        divisible t-index (t^e = p); dividing such a term reduces the
        p-adic precision of that coefficient, which is fine for the
        certificate-style uses here because results are re-verified by
        multiplication.
        """
        ring = self.ring
        items = []
        for (kt, vt), c in self.terms.items():
            if kt >= k:
                items.append((kt - k, vt, c))
                continue
            if ring.mode == CHAR_P:
                raise ValueError(f"{self.to_text()} is not divisible by t^{k}")
            a = _vp(c, ring.p, ring.n_digits)
            if kt + a * ring.e < k:
                raise ValueError(f"{self.to_text()} is not divisible by t^{k}")
            need = -(-(k - kt) // ring.e)  # ceil
            items.append((kt + need * ring.e - k, vt, c // ring.p**need))
        return ring._from_items(items, self.lossy)

    def to_text(self) -> str:
        return _render_element(self)

    def __repr__(self):
        return f"<{self.to_text()}>"


# -- product rings -----------------------------------------------------------


class ProductRing:
    """Finite product of layer rings, componentwise everything."""

    def __init__(self, factors: tuple):
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        mods = {f.coeff_mod for f in factors}
        if len(mods) != 1:
            raise ValueError("product factors must share the coefficient ring")
        self.factors = tuple(factors)
        self.coeff_mod = factors[0].coeff_mod
        self.p = factors[0].p
        self.n_digits = factors[0].n_digits
        self._quotient = None

    def _key(self):
        return tuple(f._key() for f in self.factors)

    def __eq__(self, other):
        return isinstance(other, ProductRing) and self._key() == other._key()

    def __hash__(self):
        return hash(("product", self._key()))

    def __repr__(self):
        return f"ProductRing({', '.join(repr(f) for f in self.factors)})"

    def wrap(self, parts) -> "ProductElem":
        return ProductElem(self, tuple(parts))

    def zero(self):
        return self.wrap(f.zero() for f in self.factors)

    def one(self):
        return self.wrap(f.one() for f in self.factors)

    def from_int(self, n):
        return self.wrap(f.from_int(n) for f in self.factors)

    def coerce(self, x):
        if isinstance(x, ProductElem):
            if x.ring is not self and x.ring != self:
                raise RingMismatch("product ring mismatch")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise RingMismatch(f"cannot coerce {type(x).__name__}")

    def f0(self):
        return self.wrap(f.f0() for f in self.factors)

    def monomial(self, k: int):
        return self.wrap(f.monomial(k) for f in self.factors)

    def quotient_ring(self):
        if self._quotient is None:
            self._quotient = ProductRing(tuple(f.quotient_ring() for f in self.factors))
        return self._quotient

    def reduce_mod_ideal(self, x):
        x = self.coerce(x)
        return self.quotient_ring().wrap(
            f.reduce_mod_ideal(part) for f, part in zip(self.factors, x.parts)
        )

    def lift(self, q):
        return self.wrap(
            f.lift(part) for f, part in zip(self.factors, q.parts)
        )

    @property
    def rank(self):
        return sum(f.rank for f in self.factors)

    @property
    def val_cap(self):
        return min(f.val_cap for f in self.factors)

    def element_count(self):
        n = 1
        for f in self.factors:
            n *= f.element_count()
        return n

    def enumerate_elements(self):
        if self.element_count() > _ENUM_LIMIT:
            raise EnumerationTooLarge("product too large to enumerate")
        for parts in itertools.product(
            *(list(f.enumerate_elements()) for f in self.factors)
        ):
            yield self.wrap(parts)

    def random_element(self, rng, max_terms: int = 3):
        return self.wrap(
            f.random_element(rng, max_terms) for f in self.factors
        )

    def idempotents(self):
        per_factor = [f.idempotents() for f in self.factors]
        return [self.wrap(parts) for parts in itertools.product(*per_factor)]


class ProductElem:
    __slots__ = ("ring", "parts", "lossy")

    def __init__(self, ring: ProductRing, parts: tuple):
        self.ring = ring
        self.parts = parts
        self.lossy = any(getattr(p, "lossy", False) for p in parts)

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def is_one(self):
        return all(p.is_one() for p in self.parts)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, ProductElem):
            return NotImplemented
        return self.ring == other.ring and self.parts == other.parts

    def __hash__(self):
        return hash((self.ring, self.parts))

    def _zip(self, other, op):
        other = self.ring.coerce(other)
        return self.ring.wrap(
            op(a, b) for a, b in zip(self.parts, other.parts)
        )

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        return self._zip(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return self.ring.wrap(-p for p in self.parts)

    def __pow__(self, n):
        return self.ring.wrap(p**n for p in self.parts)

    def p_power(self, m):
        return self.ring.wrap(part.p_power(m) for part in self.parts)

    def valuation(self):
        vals = [p.valuation() for p in self.parts]
        finite = [v for v in vals if v is not ABOVE_PRECISION]
        return min(finite) if finite else ABOVE_PRECISION

    def to_text(self):
        return "(" + " | ".join(p.to_text() for p in self.parts) + ")"

    def __repr__(self):
        return f"<{self.to_text()}>"


# -- element syntax -----------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<sym>pflat|fflat|[tT]|x\d+|p)|(?P<op>[+\-*^{}/()])|$)"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise ParseError(f"bad character at {text[pos:pos + 8]!r}")
        if match.group("int"):
            out.append(("int", int(match.group("int"))))
        elif match.group("sym"):
            out.append(("sym", match.group("sym")))
        elif match.group("op"):
            out.append(("op", match.group("op")))
        pos = match.end()
    return out


class _Parser:
    """Sums of terms c * t^{k/d} * x1^{a/d}; braces optional for integers."""

    def __init__(self, ring, tokens, symbols=None):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols or {}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}")

    def parse(self):
        acc = self.ring.zero()
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        while True:
            acc = acc + self.term() * sign
            kind, val = self.peek()
            if kind is None:
                return acc
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
                continue
            raise ParseError(f"unexpected token {val!r}")

    def term(self):
        result = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                result = result * self.factor()
            else:
                return result

    def factor(self):
        kind, val = self.take()
        if kind == "int":
            return self.ring.from_int(val)
        if kind != "sym":
            raise ParseError(f"expected a symbol or integer, got {val!r}")
        base = self.symbol_value(val)
        kind, nxt = self.peek()
        if kind == "op" and nxt == "^":
            self.take()
            exponent, had_slash = self.exponent()
            return self.apply_power(val, base, exponent, had_slash)
        return base

    def symbol_value(self, name):
        if name in self.symbols:
            return self.symbols[name]
        if name in ("t", "T"):
            return self.ring.t_gen()
        if name == "p":
            if self.ring.mode == CHAR_P:
                return self.ring.zero()
            return self.ring.from_int(self.ring.p)
        if name.startswith("x"):
            i = int(name[1:]) - 1
            if not 0 <= i < self.ring.num_vars:
                raise ParseError(f"no variable {name} in this ring")
            return self.ring.var_gen(i)
        raise ParseError(f"symbol {name!r} not available here")

    def exponent(self):
        """Return (value, had_slash); a slash marks a valuation exponent."""
        kind, val = self.take()
        if kind == "int":
            return Fraction(val), False
        if kind == "op" and val == "{":
            kind, num = self.take()
            if kind != "int":
                raise ParseError("expected integer exponent")
            kind, nxt = self.peek()
            den, had_slash = 1, False
            if kind == "op" and nxt == "/":
                self.take()
                had_slash = True
                kind, den = self.take()
                if kind != "int" or den == 0:
                    raise ParseError("expected nonzero denominator")
            self.expect("}")
            return Fraction(num, den), had_slash
        raise ParseError("expected exponent")

    def apply_power(self, name, base, exponent: Fraction, had_slash: bool):
        ring = self.ring
        if name in ("t", "T"):
            # t^{a/b} names the monomial of valuation a/b; t^n is the n-th
            # power of the generator (index n in the lattice).
            idx = exponent * ring.e if had_slash else exponent
            if idx.denominator != 1 or idx < 0:
                raise ParseError(
                    f"exponent {exponent} is not in the 1/{ring.e} lattice"
                )
            return ring.monomial(int(idx))
        if name.startswith("x"):
            idx = exponent * ring.var_den  # variable exponents are degrees
            if idx.denominator != 1 or idx < 0:
                raise ParseError(
                    f"exponent {exponent} is not in the 1/{ring.var_den} lattice"
                )
            i = int(name[1:]) - 1
            vt = list(ring._zero_vt)
            vt[i] = int(idx)
            return ring.monomial(0, vt)
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError(f"cannot raise {name} to {exponent}")
        return base ** int(exponent)


def parse_element(ring, text: str, symbols=None):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element text")
    return _Parser(ring, tokens, symbols).parse()


def _render_t(symbol: str, k: int, e: int) -> str:
    f = Fraction(k, e)
    if f.denominator == 1:
        # Integral valuation: index form (parses back as a generator power).
        return symbol if k == 1 else f"{symbol}^{k}"
    return f"{symbol}^{{{f.numerator}/{f.denominator}}}"


def _render_var(i: int, j: int, den: int) -> str:
    f = Fraction(j, den)
    name = f"x{i + 1}"
    if f == 1:
        return name
    if f.denominator == 1:
        return f"{name}^{f.numerator}"
    return f"{name}^{{{f.numerator}/{f.denominator}}}"


def _render_element(x: LayerElem) -> str:
    if not x.terms:
        return "0"
    ring = x.ring
    pieces = []
    for (k, vt), c in sorted(x.terms.items()):
        parts = []
        if k:
            parts.append(_render_t(ring.symbol, k, ring.e))
        for i, j in enumerate(vt):
            if j:
                parts.append(_render_var(i, j, ring.var_den))
        if not parts or c != 1:
            parts.insert(0, str(c))
        pieces.append("*".join(parts))
    return " + ".join(pieces)
