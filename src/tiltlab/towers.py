"""Tower specifications, realized towers, and the axiom verification suite.

A realized tower holds one layer ring per level n in [start, start+depth],
the transition maps between consecutive layers, and the Frobenius
projections between their quotients.  On the monomial bases all three maps
are index bookkeeping:

* transition (level n -> n+1): every exponent index is multiplied by p,
  which leaves absolute exponents unchanged in the finer lattice;
* reduction mod the ideal: coefficients mod p, t-indices below the window;
* Frobenius projection (quotient n+1 -> quotient n): indices are kept as
  they are and reinterpreted in the coarser lattice, so absolute exponents
  get multiplied by p; entries pushed past the window or the variable
  degree cap vanish.

A handle defines the transition, its reduction tbar and the Frobenius
projection once each, on basis keys (transition_key, tbar_key, frob_key:
LayerRing.key_image of the key, scaled by transition_scale() or copied),
and derives its element maps from them by linearity.  sharp_key is the
monoidal map on one key of a deepest quotient, the key's lift raised to
the p^m-th power; the monoidal basis passes read it.

The axiom checker works on these finite quotients exactly, calling the
key-level maps on basis keys; only the Zariskian condition is sampled (the
global statement is not decidable at truncation, so the unit-ness of
1 + I is tested on random elements).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import cycle
from operator import le

from . import linalg
from .core import (
    CHAR_P,
    LayerElem,
    LayerRing,
    NonPrime,
    NotInvertible,
    ProductRing,
    is_prime,
)
from .verdict import FAIL, PASS, SAMPLED_PASS, Verdict, per_component


class SpecError(ValueError):
    pass


class LevelOutOfRange(IndexError):
    pass


class MethodDisagreement(RuntimeError):
    """Two supposedly equivalent computations disagreed: a bug sentinel."""


class ComponentwiseMaps(TypeError):
    """A key-level map asked of a product tower, whose maps go componentwise."""


_DENSE_CROSSCHECK_DIM = 200


@dataclass(frozen=True)
class TowerSpec:
    """Declarative description of a tower; see from_json for the file form."""

    prime: int
    n_digits: int
    depth: int
    kind: str = "pure"
    m: int | None = None
    num_vars: int = 0
    var_degree_cap: Fraction = Fraction(0)
    ideal_exp: Fraction | None = None
    start_level: int = 0
    components: tuple = ()

    def __post_init__(self):
        if not is_prime(self.prime):
            raise NonPrime(f"{self.prime} is not prime")
        if self.n_digits < 1:
            raise SpecError("n_digits must be >= 1")
        if self.depth < 1:
            raise SpecError("depth must be >= 1")
        if self.start_level < 0:
            raise SpecError("start_level must be >= 0")
        if self.num_vars < 0:
            raise SpecError("num_vars must be >= 0")
        object.__setattr__(self, "var_degree_cap", Fraction(self.var_degree_cap))
        if self.var_degree_cap < 0:
            raise SpecError("var_degree_cap must be >= 0")
        if self.kind == "pure":
            eps = Fraction(1) if self.ideal_exp is None else Fraction(self.ideal_exp)
            if eps != 1:
                raise SpecError("a pure tower has ideal exponent 1")
            object.__setattr__(self, "ideal_exp", eps)
        elif self.kind == "kummer":
            if self.m is None or self.m < 2:
                raise SpecError("a Kummer tower needs a cover exponent m >= 2")
            if self.m % self.prime == 0:
                raise SpecError("the cover exponent must be coprime to p")
            if self.ideal_exp is None:
                raise SpecError("a Kummer tower needs an ideal exponent")
            eps = Fraction(self.ideal_exp)
            if not 0 < eps <= 1:
                raise SpecError("the ideal exponent must lie in (0, 1]")
            if self.num_vars:
                raise SpecError("Kummer towers are monogenic here")
            object.__setattr__(self, "ideal_exp", eps)
        elif self.kind == "product":
            if len(self.components) < 2:
                raise SpecError("a product tower needs >= 2 components")
            defaults = {f.name: f.default for f in fields(self)}
            for name in ("m", "ideal_exp", "num_vars", "var_degree_cap"):
                if getattr(self, name) != defaults[name]:
                    raise SpecError(f"a product tower takes no {name}; its components do")
            for sub in self.components:
                if (
                    sub.prime != self.prime
                    or sub.n_digits != self.n_digits
                    or sub.depth != self.depth
                    or sub.start_level != self.start_level
                ):
                    raise SpecError(
                        "product components must share prime, precision, "
                        "depth and start level"
                    )
        else:
            raise SpecError(f"unknown tower kind {self.kind!r}")
        # f0 = t^(ideal_exp * e) and t^(e * n_digits) = p^n_digits = 0
        if self.ideal_exp is not None and self.ideal_exp >= self.n_digits:
            raise SpecError(
                f"n_digits = {self.n_digits} makes the ideal generator f0 of "
                f"exponent {self.ideal_exp} vanish; n_digits must exceed it"
            )
        den = self.var_degree_cap.denominator
        while den % self.prime == 0:
            den //= self.prime
        if den != 1:
            raise SpecError(
                f"variable degree cap {self.var_degree_cap} needs a "
                f"{self.prime}-power denominator"
            )

    @property
    def e0(self) -> int:
        return self.m if self.kind == "kummer" else 1

    def to_json_dict(self) -> dict:
        out = {
            "prime": self.prime,
            "n_digits": self.n_digits,
            "depth": self.depth,
            "kind": self.kind,
            "num_vars": self.num_vars,
            "var_degree_cap": str(self.var_degree_cap),
            "start_level": self.start_level,
        }
        if self.m is not None:
            out["m"] = self.m
        if self.ideal_exp is not None:
            out["ideal_exp"] = str(self.ideal_exp)
        if self.components:
            out["components"] = [c.to_json_dict() for c in self.components]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "TowerSpec":
        if not isinstance(data, dict):
            raise SpecError(f"a tower spec is a JSON object, not {type(data).__name__}")
        try:
            components = tuple(
                cls.from_json_dict(c) for c in data.get("components", ())
            )
            return cls(
                prime=_json_int(data["prime"], "prime"),
                n_digits=_json_int(data["n_digits"], "n_digits"),
                depth=_json_int(data["depth"], "depth"),
                kind=data.get("kind", "pure"),
                m=None if data.get("m") is None else _json_int(data["m"], "m"),
                num_vars=_json_int(data.get("num_vars", 0), "num_vars"),
                var_degree_cap=_json_fraction(
                    data.get("var_degree_cap", 0), "var_degree_cap"
                ),
                ideal_exp=(
                    _json_fraction(data["ideal_exp"], "ideal_exp")
                    if data.get("ideal_exp") is not None
                    else None
                ),
                start_level=_json_int(data.get("start_level", 0), "start_level"),
                components=components,
            )
        except KeyError as exc:
            raise SpecError(f"the tower spec lacks the field {exc}") from None
        except (TypeError, ZeroDivisionError) as exc:
            raise SpecError(f"malformed tower spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "TowerSpec":
        return cls.from_json_dict(json.loads(text))


def _json_int(value, field):
    """value, if it is an integer; JSON floats and booleans are not."""
    if type(value) is not int:
        raise SpecError(
            f"the tower spec field {field!r} must be an integer, not {value!r}"
        )
    return value


def _json_fraction(value, field):
    """value as a Fraction, from a JSON integer or a string like "3/25"."""
    try:
        return Fraction(str(value))
    except ValueError:
        raise SpecError(
            f"the tower spec field {field!r} must be a fraction a/b, not {value!r}"
        ) from None


class TowerHandle:
    """A realized monogenic-family tower (mixed or characteristic p).

    Its levels are the keys of rings; its prime, e0, ideal exponent and
    characteristic are those of its base ring.  A pillar_index, if given,
    is a t-index >= 1.
    """

    def __init__(
        self,
        *,
        rings: dict[int, LayerRing],
        label: str,
        pillar_index: int | None = None,
    ):
        if pillar_index is not None and pillar_index < 1:
            raise SpecError(f"the pillar index must be >= 1, not {pillar_index}")
        self.label = label
        self._rings = rings
        self._quotients: dict[int, LayerRing] = {}
        self._pillar_index = pillar_index
        self.start = min(rings)
        self.depth = max(rings) - self.start
        base = self._base()
        self.p, self.e0, self.ideal_exp = base.p, base.e0, base.ideal_exp
        self.char_p = base.mode == CHAR_P

    def _base(self) -> LayerRing:
        return self.layer(self.start)

    # -- structure ---------------------------------------------------------

    @property
    def top(self) -> int:
        return self.start + self.depth

    @property
    def levels(self):
        return range(self.start, self.top + 1)

    def layer(self, n: int) -> LayerRing:
        if n not in self._rings:
            raise LevelOutOfRange(
                f"level {n} not realized (have {self.start}..{self.top})"
            )
        return self._rings[n]

    def quotient(self, n: int) -> LayerRing:
        # Filled on first use: quotient_ring() raises on a unit ideal.
        q = self._quotients.get(n)
        if q is None:
            q = self._quotients[n] = self.layer(n).quotient_ring()
        return q

    def ideal_index(self, n: int) -> int:
        return self.layer(n).ideal_num

    def transition_scale(self) -> int:
        return self.p

    def pillar_index(self) -> int:
        """t-index of the distinguished ideal generator, constant in n.

        A pillar_index given to the constructor (a negative control) wins.
        """
        if self._pillar_index is not None:
            return self._pillar_index
        return self.ideal_index(self.start)

    def pillar_elem(self, n: int) -> LayerElem:
        return self.layer(n).monomial(self.pillar_index())

    def f0(self, n: int) -> LayerElem:
        return self.layer(n).f0()

    # -- maps ----------------------------------------------------------------
    #
    # Each map is defined once, on basis keys: a hook takes a key of the
    # source's basis and the input's lossy mark, and returns the image's
    # terms in the target and the image's lossy mark.  The element maps
    # extend a hook linearly (_map_terms), and the element chains (embed,
    # tbar_multi, frob_multi) map level by level through them, an empty
    # element included.  The axiom pair walk and the monoidal basis passes
    # call the hooks on keys; the basis passes' key chains stop at an empty
    # image (monoidal._reduction_chains).

    def transition_key(self, n: int, key, lossy: bool = False):
        """The canonical injection on one key: indices times transition_scale()."""
        return self.layer(n + 1).key_image(key, self.transition_scale(), lossy)

    def tbar_key(self, n: int, key, lossy: bool = False):
        """The reduced transition on one key of quotient n: indices times
        transition_scale() in quotient n+1."""
        return self.quotient(n + 1).key_image(key, self.transition_scale(), lossy)

    def frob_key(self, n: int, key, lossy: bool = False):
        """The Frobenius projection on one key of quotient n+1: the indices
        are kept and read one lattice down, so an entry past the target
        window or variable cap vanishes."""
        return self.quotient(n).key_image(key, 1, lossy)

    def sharp_key(self, j: int, m: int, key, lossy: bool = False):
        """The monoidal map on one key of quotient(j + m), the deepest
        component of a depth-m tilt at layer j: the key's canonical lift to
        layer j + m (indices copied, coefficient 1) raised to the p^m-th
        power, which is the key times p^m, folded through t^e = p."""
        return self.layer(j + m).key_image(key, self.p**m, lossy)

    def _map_terms(self, hook, n: int, dst, terms: dict, lossy: bool):
        """(terms, lossy) in dst of the hook extended linearly to terms.

        Each key's image, already keyed in dst, is scaled by the key's
        coefficient, and equal keys are summed and reduced mod dst's
        coeff_mod, as LayerElem.__add__ sums canonical terms.  A term with
        coefficient 1 maps as the hook says.
        """
        if len(terms) == 1:
            (key, c), = terms.items()
            image, mark = hook(n, key, lossy)
            if c == 1:
                return image, mark
            scaled, mod = {}, dst.coeff_mod
            for k, d in image.items():
                if r := c * d % mod:
                    scaled[k] = r
            return scaled, mark
        acc, marks = {}, lossy
        get = acc.get
        for key, c in terms.items():
            image, mark = hook(n, key, lossy)
            marks = marks or mark
            for k, d in image.items():
                acc[k] = get(k, 0) + c * d
        mod = dst.coeff_mod
        return {k: r for k, c in acc.items() if (r := c % mod)}, marks

    def transition(self, n: int, x: LayerElem) -> LayerElem:
        """Canonical injection layer n -> layer n+1."""
        dst, x = self.layer(n + 1), self.layer(n).coerce(x)
        return LayerElem(dst, *self._map_terms(self.transition_key, n, dst, x.terms, x.lossy))

    # The chains check their input as the one-step maps do: x is coerced
    # into the source ring, and a backward range is refused.

    def embed(self, n_from: int, n_to: int, x: LayerElem) -> LayerElem:
        if n_to < n_from:
            raise LevelOutOfRange("can only embed upward")
        x = self.layer(n_from).coerce(x)
        for n in range(n_from, n_to):
            x = self.transition(n, x)
        return x

    def tbar(self, n: int, q: LayerElem) -> LayerElem:
        """Reduction of the transition: quotient n -> quotient n+1."""
        dst, q = self.quotient(n + 1), self.quotient(n).coerce(q)
        return LayerElem(dst, *self._map_terms(self.tbar_key, n, dst, q.terms, q.lossy))

    def tbar_multi(self, n_from: int, n_to: int, q: LayerElem) -> LayerElem:
        if n_to < n_from:
            raise LevelOutOfRange("can only apply tbar upward")
        q = self.quotient(n_from).coerce(q)
        for n in range(n_from, n_to):
            q = self.tbar(n, q)
        return q

    def frob(self, n: int, q: LayerElem) -> LayerElem:
        """Frobenius projection: quotient n+1 -> quotient n."""
        dst, q = self.quotient(n), self.quotient(n + 1).coerce(q)
        return LayerElem(dst, *self._map_terms(self.frob_key, n, dst, q.terms, q.lossy))

    def frob_multi(self, n_to: int, n_from: int, q: LayerElem) -> LayerElem:
        """Compose projections from quotient n_from down to quotient n_to."""
        if n_to > n_from:
            raise LevelOutOfRange("can only project downward")
        q = self.quotient(n_from).coerce(q)
        for n in range(n_from - 1, n_to - 1, -1):
            q = self.frob(n, q)
        return q

    def describe(self) -> dict:
        return {
            "label": self.label,
            "prime": self.p,
            "e0": self.e0,
            "ideal_exp": str(self.ideal_exp),
            "start_level": self.start,
            "depth": self.depth,
            "char_p": self.char_p,
        }


class ProductTower(TowerHandle):
    """Componentwise product of towers sharing levels, e0, ideal and pillar."""

    def __init__(self, components: tuple):
        first = components[0]
        shapes = {(c.start, c.depth, c.e0, c.ideal_exp, c.pillar_index())
                  for c in components}
        if len(shapes) > 1:
            raise SpecError("product components must share levels, e0, ideal and pillar")
        self.components = tuple(components)
        super().__init__(
            rings={n: ProductRing(tuple(c.layer(n) for c in components))
                   for n in first.levels},
            label="product(" + ", ".join(c.label for c in components) + ")",
            pillar_index=first.pillar_index(),
        )

    def _base(self):
        # Product rings carry no ideal data; the components agree on it.
        return self.components[0]._base()

    def ideal_index(self, n):
        return self.components[0].ideal_index(n)

    def _componentwise(self, method, target, n, x):
        return target.wrap(
            getattr(c, method)(n, part) for c, part in zip(self.components, x.parts)
        )

    def transition(self, n, x):
        return self._componentwise("transition", self.layer(n + 1), n, x)

    def tbar(self, n, q):
        return self._componentwise("tbar", self.quotient(n + 1), n, q)

    def frob(self, n, q):
        return self._componentwise("frob", self.quotient(n), n, q)

    # The key hooks map basis keys of one layer ring; a product ring has no
    # keys of its own, so the hooks refuse by name instead of inheriting
    # the monogenic ones.
    def _no_key_hook(self, name):
        raise ComponentwiseMaps(
            f"{self.label} has no {name}: product maps go componentwise, "
            "so call it on one of the components"
        )

    def transition_key(self, n, key, lossy=False):
        self._no_key_hook("transition_key")

    def tbar_key(self, n, key, lossy=False):
        self._no_key_hook("tbar_key")

    def frob_key(self, n, key, lossy=False):
        self._no_key_hook("frob_key")

    def sharp_key(self, j, m, key, lossy=False):
        self._no_key_hook("sharp_key")

    # Bound here too because perfbench/spans.py traces them per class.
    embed = TowerHandle.embed
    tbar_multi = TowerHandle.tbar_multi
    frob_multi = TowerHandle.frob_multi

    def describe(self):
        return {
            "label": self.label,
            "components": [c.describe() for c in self.components],
        }


def build_tower(spec: TowerSpec, *, pillar_index: int | None = None):
    """Realize all layers of a tower; raises SpecError on a bad description.

    pillar_index replaces the pillar generator's t-index (negative controls).
    """
    if spec.kind == "product":
        subs = (build_tower(sub, pillar_index=pillar_index) for sub in spec.components)
        return ProductTower(tuple(subs))
    eps = spec.ideal_exp
    rings: dict[int, LayerRing] = {}
    for n in range(spec.start_level, spec.start_level + spec.depth + 1):
        e_n = spec.e0 * spec.prime**n
        ideal_num = eps * e_n
        if ideal_num.denominator != 1:
            raise SpecError(
                f"ideal exponent {eps} does not land in the level-{n} "
                f"lattice (1/{e_n})Z; start the tower higher"
            )
        rings[n] = LayerRing(
            p=spec.prime,
            e=e_n,
            n_digits=spec.n_digits,
            ideal_num=int(ideal_num),
            e0=spec.e0,
            num_vars=spec.num_vars,
            var_den=e_n // spec.e0 if spec.num_vars else 1,
            var_cap=spec.var_degree_cap,
        )
    return TowerHandle(rings=rings, label=spec.kind, pillar_index=pillar_index)


def frob_projection(handle, n: int, x):
    """The unique y with tbar(y) = x^p, for x in the level n+1 quotient."""
    if n < handle.start or n + 1 > handle.top:
        raise LevelOutOfRange(f"no Frobenius projection at level {n}")
    return handle.frob(n, x)


# -- axiom verification ---------------------------------------------------------

@dataclass
class AxiomReport:
    axioms: dict[str, Verdict]
    tower: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v.ok() for v in self.axioms.values())

    def to_json_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "axioms": {
                k: self.axioms[k].to_json_dict() for k in sorted(self.axioms)
            },
            "tower": self.tower,
        }


def _fail(witness: str, **details) -> Verdict:
    return Verdict(FAIL, witness=witness, details=details)


def check_axioms(handle, samples: int = 200, seed: int = 0) -> AxiomReport:
    """Run the seven tower axioms on every realized pair of levels.

    Verdicts for (a)-(d), (f), (g) are exact on the finite quotients; (e)
    is a sampled proxy (invertibility of 1 + z for z in the ideal), since
    the Jacobson-radical statement quantifies over all maximal ideals.
    Axioms (b), (c), (d) and (f-2) share two passes per pair of levels
    (_check_pairs), up over quotient(n+1) and down over quotient(n).  The
    handle's side is per key: its key-level maps (frob_key, tbar_key) are
    called once per basis key and pass, plus once on each nonzero image to
    map it back (an empty projection has nothing to map back), and the
    images feed every axiom that reads them.  No ring element is built for
    a key.  The checker's side, what the images are compared against
    (p-th powers, the pillar ideal and the truncation tail), is closed
    form on the characteristic-p quotients: bounds and orthants computed
    once per pass, and a few integer comparisons per key.  On pairs small
    enough for the dense cross-checks it is replayed with ring arithmetic,
    and the F_p rank oracle of (b) and (d) reads the images the two passes
    already hold.  One failure record keeps each axiom's first witness.
    """
    if handle.depth < 2:
        raise SpecError("the axiom suite needs depth >= 2")
    if isinstance(handle, ProductTower):
        reports = [
            check_axioms(c, samples=samples, seed=seed + i)
            for i, c in enumerate(handle.components)
        ]
        axioms = {
            key: per_component(r.axioms[key] for r in reports)
            for key in reports[0].axioms
        }
        return AxiomReport(axioms=axioms, tower=handle.describe())

    import random

    axioms = {
        "a": _check_a(handle),
        **_check_pairs(handle),
        "g": _check_g(handle),
        "e": _check_e(handle, samples, random.Random(seed)),
    }
    return AxiomReport(axioms=axioms, tower=handle.describe())


def _check_a(handle) -> Verdict:
    base = handle.layer(handle.start)
    if base.e != handle.e0 * handle.p**handle.start:
        return _fail(
            f"base layer shape {base!r} does not match the declared tower",
            level=handle.start,
        )
    p_elem = base.from_int(handle.p)
    if base.mode == CHAR_P:
        if not p_elem.is_zero():
            return _fail("p is not zero in a characteristic-p base layer")
        return Verdict(PASS)
    try:
        q = p_elem.divide_by_monomial(base.ideal_num)
    except ValueError:
        return _fail("p is not divisible by f0 in the base layer")
    if q * base.f0() != p_elem:
        return _fail("p/f0 * f0 != p in the base layer")
    return Verdict(PASS)


def _check_pairs(handle) -> dict[str, Verdict]:
    """Axioms (b), (c), (d) and (f), in that order, by two passes per pair
    of levels n, n+1 and one failure record.

    The handle's side is per key: the up pass projects each quotient(n+1)
    key with frob_key and lifts the image back with tbar_key; the down
    pass takes each quotient(n) key's tbar_key and projects it back with
    frob_key.  Images map back through _map_terms, the linear extension
    the element maps use, which hands an image of one term with
    coefficient 1 straight to the hook; an empty projection has nothing to
    map back.  Every image must be keyed in its target quotient; a key it
    does not keep is a MethodDisagreement, never a verdict.  The
    projections feed (c)'s up half, (d)'s hit set and (f-2); the t-bars
    feed (b), (c)'s down half and (d)'s missing list.

    The checker's side, what the images should be, is closed form on the
    characteristic-p quotients (window I, variable cap C): it is computed
    once per pass and variable monomial vt (LayerRing.scaled_key_bounds,
    _orthant_starts) and compared per key (k, vt) by integer tests:

    * (c): the p-th power of the key is the one term (k p, vt p) with
      coefficient 1, kept iff k p < I and p deg(vt) <= C, and 0 otherwise;
    * (f-2): the projection's kernel is spanned by the keys of the pillar
      ideal, the union over f1_bar's keys (a, va) of the orthants k >= a,
      vt >= va, and of the declared truncation tail, p deg(vt) > C:
      monomials whose image overflows the cap.  basis_keys() is sorted,
      so the first key where the projection disagrees is the least key
      of the symmetric difference, the witness; the tail's dimension
      outside the ideal is a count per vt.

    On pairs within _DENSE_CROSSCHECK_DIM the walk replays the closed
    forms with ring arithmetic (``mono**p``, and the keys of
    ``f1_bar * mono`` over the basis), and the rank oracle reads the
    images the passes hold: while (b), resp. (d), holds, the dense F_p
    rank of the t-bars, resp. projections, is quotient(n)'s rank.  A
    replay that differs raises MethodDisagreement.  Ring elements are
    built only for those replays and for failure witnesses.  An axiom is
    checked while it is absent from ``failed`` and stores its first
    failure there, up half before down half within a pair.
    """
    p = handle.p
    tbar, frob, extend = handle.tbar_key, handle.frob_key, handle._map_terms
    failed: dict[str, Verdict] = {}
    # (f-1): the p-th power of the pillar generates the ideal one level up.
    level1 = handle.start + 1
    f1 = handle.pillar_elem(level1)
    f_details = {"f1": f1.to_text(), "f1_level": level1}
    if f1**p != handle.f0(level1):
        failed["f"] = _fail(
            f"(f-1) ({f1.to_text()})^{p} != f0 = {handle.f0(level1).to_text()} "
            f"at level {level1}",
            **f_details,
        )
    tail_dims = {}
    for n in range(handle.start, handle.top):
        up, down = handle.quotient(n + 1), handle.quotient(n)
        up_keys, down_keys = up.basis_keys(), down.basis_keys()
        replay = max(len(up_keys), len(down_keys)) <= _DENSE_CROSSCHECK_DIM
        f1_bar = handle.layer(n + 1).reduce_mod_ideal(handle.embed(level1, n + 1, f1))
        # One row per variable monomial vt; basis_keys() runs through
        # var_monomials() once per t-index, so cycling the rows beside the
        # keys pairs each key with its vt's row.  A key (k, vt) of the up
        # pass lies in the pillar ideal iff k >= its vt's start, and its
        # projection should vanish iff k >= kernel: 0 on the tail, the
        # start elsewhere.
        starts = _orthant_starts(up, f1_bar.terms)
        tails = [p * sum(vt) > up.var_cap_index for vt in up.var_monomials()]
        up_rows = [
            (vtp, power, 0 if tail else start)
            for (vtp, power), start, tail in zip(up.scaled_key_bounds(p), starts, tails)
        ]
        if replay and "f" not in failed:
            _replay_orthants(up, up_keys, f1_bar, starts, n)
        hit, projections = set(), []
        for key, (vtp, power, kernel) in zip(up_keys, cycle(up_rows)):
            k = key[0]
            img, lossy = frob(n, key)
            out = {}
            if img:
                _keyed(down, img, "frob_key", n)
                hit.add(next(iter(img)))
                if "c" not in failed:
                    out = extend(tbar, n, up, img, lossy)[0]
                    _keyed(up, out, "tbar_key", n)
            if replay:
                projections.append(img)
            if "c" not in failed:
                if replay:
                    _replay_power(up, key, vtp, power)
                if (out != {(k * p, vtp): 1}) if k < power else out:
                    text = up.monomial(*key).to_text()
                    failed["c"] = _fail(f"tbar(F({text})) != {text}^p at level {n}", level=n)
            if "f" not in failed and (not img) != (k >= kernel):
                failed["f"] = _fail(
                    f"(f-2) kernel mismatch at level {n}: {up.monomial(*key).to_text()}",
                    level=n,
                    **f_details,
                )
        if "f" not in failed:
            tail_dims[str(n)] = sum(start for start, tail in zip(starts, tails) if tail)
        seen, missing, lifts = {}, [], []
        for key, (vtp, power) in zip(down_keys, cycle(down.scaled_key_bounds(p))):
            img, lossy = tbar(n, key)
            _keyed(up, img, "tbar_key", n)
            if replay:
                lifts.append(img)
            if "b" not in failed:
                if not img:
                    text = down.monomial(*key).to_text()
                    failed["b"] = _fail(f"t-bar kills {text} at level {n}", level=n)
                elif (img_key := next(iter(img))) in seen:
                    witness = (down.monomial(*key) - down.monomial(*seen[img_key])).to_text()
                    failed["b"] = _fail(f"t-bar collides on {witness} at level {n}", level=n)
                else:
                    seen[img_key] = key
            if "c" not in failed:
                out = extend(frob, n, down, img, lossy)[0]
                _keyed(down, out, "frob_key", n)
                if replay:
                    _replay_power(down, key, vtp, power)
                k = key[0]
                if (out != {(k * p, vtp): 1}) if k < power else out:
                    text = down.monomial(*key).to_text()
                    failed["c"] = _fail(f"F(tbar({text})) != {text}^p at level {n}", level=n)
            if key not in hit:
                missing.append(key)
        if replay and "b" not in failed:
            _rank_oracle(up, lifts, len(down_keys), n)
        if "d" not in failed:
            if missing:
                failed["d"] = _fail(
                    f"Frobenius projection misses "
                    f"{down.monomial(*missing[0]).to_text()} at level {n}",
                    level=n,
                    missing=len(missing),
                )
            elif replay:
                _rank_oracle(down, projections, len(down_keys), n)
    if any(tail_dims.values()):
        f_details["truncation_tail_dim"] = tail_dims
    passed = {k: Verdict(PASS) for k in "bcd"}
    return {**passed, "f": Verdict(PASS, details=f_details), **failed}


def _keyed(ring, terms, hook, n):
    """Raise unless every key of a hook's image is one the target ring
    keeps: an image past its window or variable cap is a fault of the
    map, not a verdict on the tower."""
    for k, vt in terms:
        if not ring.keeps_key(k, vt):
            raise MethodDisagreement(
                f"{hook} at level {n} returns the key {(k, vt)} outside {ring!r}"
            )


def _orthant_starts(ring, shifts) -> list:
    """(f-2)'s ideal in closed form: per variable monomial vt, in
    var_monomials() order, the least t-index k with (k, vt) in the union
    over the keys (a, va) of shifts of the orthants k >= a, vt >= va
    (componentwise), or t_range() when the union misses vt.

    For f with keys shifts, the keys of f * monomial(key) over the basis
    are that union: each is key + (a, va), and the basis is closed under
    lowering an index.  f's coefficients are nonzero mod p and the sums
    key + (a, va) are distinct for one key, so no term of a product
    cancels.
    """
    top = ring.t_range()
    return [
        min([top] + [a for a, va in shifts if all(map(le, va, vt))])
        for vt in ring.var_monomials()
    ]


def _replay_orthants(ring, keys, f1_bar, starts, n):
    """Replay (f-2)'s closed form with ring arithmetic: the keys of
    ``f1_bar * monomial(*key)`` over keys, ring's basis, are the keys
    (k, vt) with k >= starts' entry for vt."""
    support = {s for key in keys for s in (f1_bar * ring.monomial(*key)).terms}
    for key, start in zip(keys, cycle(starts)):
        if (key in support) != (key[0] >= start):
            raise MethodDisagreement(
                f"f1 * quotient at level {n + 1} disagrees with its key "
                f"orthants on {ring.monomial(*key).to_text()}"
            )


def _replay_power(ring, key, vtp, power):
    """Replay (c)'s closed form on a key with ring arithmetic:
    ``monomial(*key)**p`` against scaled_key_bounds' answer."""
    k, p = key[0], ring.p
    if (ring.monomial(*key) ** p).terms != ({(k * p, vtp): 1} if k < power else {}):
        raise MethodDisagreement(
            f"{ring.monomial(*key).to_text()}^{p} disagrees with its key "
            f"at level {ring.level}"
        )


def _rank_oracle(ring, images, want, n):
    """Replay a combinatorial verdict: the dense F_p rank in ring of the
    images, given as terms."""
    rows = [ring.to_vec(LayerElem(ring, terms)) for terms in images]
    rank = linalg.matrix_rank_fp(rows, ring.p)
    if rank != want:
        raise MethodDisagreement(
            f"dense rank {rank} contradicts the combinatorial check at "
            f"level {n} (expected {want})"
        )


def _check_e(handle, samples: int, rng) -> Verdict:
    total = 0
    for n in handle.levels:
        ring = handle.layer(n)
        f0, one = handle.f0(n), ring.one()
        for _ in range(samples):
            z = f0 * ring.random_element(rng, max_terms=3)
            u = one + z
            try:
                inv = ring.invert(u)
            except NotInvertible:
                return _fail(
                    f"1 + {z.to_text()} is not invertible at level {n}",
                    level=n,
                )
            if inv * u != one:
                return _fail(
                    f"inverse of 1 + {z.to_text()} fails to verify at level {n}",
                    level=n,
                )
            total += 1
    return Verdict(SAMPLED_PASS, samples=total)


def _check_g(handle) -> Verdict:
    bases = {}
    for n in handle.levels:
        ring = handle.layer(n)
        rep = ring.torsion_submodule(handle.f0(n))
        bases[str(n)] = {
            "genuine": [x.to_text() for x in rep.genuine],
            "artifact_dim": rep.artifact_dim,
            "flags": list(rep.flags),
        }
        if not rep.is_torsion_free:
            return _fail(
                f"genuine {handle.f0(n).to_text()}-torsion at level {n}: "
                f"{rep.genuine[0].to_text()}",
                level=n,
                torsion=bases,
            )
    return Verdict(PASS, details={"torsion": bases})
