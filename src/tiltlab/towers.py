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

The axiom checker works on these finite quotients exactly; only the
Zariskian condition is sampled (the global statement is not decidable at
truncation, so the unit-ness of 1 + I is tested on random elements).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .core import (
    CHAR_P,
    BadIdealExponent,
    BadVarCap,
    LayerElem,
    LayerRing,
    NotInvertible,
    PrecisionBudget,
    Prime,
    ProductRing,
    layer_make,
)
from .verdict import FAIL, NOT_APPLICABLE, PASS, SAMPLED_PASS, Verdict


class SpecError(ValueError):
    pass


class LevelOutOfRange(IndexError):
    pass


class MethodDisagreement(RuntimeError):
    """Two supposedly equivalent computations disagreed: a bug sentinel."""


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
        Prime(self.prime)
        if self.n_digits < 1:
            raise SpecError("n_digits must be >= 1")
        if self.depth < 1:
            raise SpecError("depth must be >= 1")
        if self.start_level < 0:
            raise SpecError("start_level must be >= 0")
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
        object.__setattr__(self, "var_degree_cap", Fraction(self.var_degree_cap))

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
                var_degree_cap=Fraction(str(data.get("var_degree_cap", 0))),
                ideal_exp=(
                    Fraction(str(data["ideal_exp"]))
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


class TowerHandle:
    """A realized monogenic-family tower (mixed or characteristic p)."""

    is_product = False

    def __init__(
        self,
        *,
        spec: TowerSpec | None,
        p: int,
        e0: int,
        ideal_exp: Fraction,
        start: int,
        depth: int,
        rings: dict[int, LayerRing],
        char_p: bool = False,
        label: str = "",
        pillar_index: int | None = None,
    ):
        self.spec = spec
        self.p = p
        self.e0 = e0
        self.ideal_exp = Fraction(ideal_exp)
        self.start = start
        self.depth = depth
        self.char_p = char_p
        self.label = label or (spec.kind if spec else "tower")
        self._rings = rings
        self._pillar_index = pillar_index

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
        return self.layer(n).quotient_ring()

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

    def transition(self, n: int, x: LayerElem) -> LayerElem:
        """Canonical injection layer n -> layer n+1."""
        src, dst = self.layer(n), self.layer(n + 1)
        src.coerce(x)
        return dst.rescale(x, self.transition_scale())

    def embed(self, n_from: int, n_to: int, x: LayerElem) -> LayerElem:
        if n_to < n_from:
            raise LevelOutOfRange("can only embed upward")
        for n in range(n_from, n_to):
            x = self.transition(n, x)
        return x

    def tbar(self, n: int, q: LayerElem) -> LayerElem:
        """Reduction of the transition: quotient n -> quotient n+1."""
        src, dst = self.quotient(n), self.quotient(n + 1)
        src.coerce(q)
        return dst.rescale(q, self.transition_scale())

    def tbar_multi(self, n_from: int, n_to: int, q: LayerElem) -> LayerElem:
        for n in range(n_from, n_to):
            q = self.tbar(n, q)
        return q

    def frob(self, n: int, q: LayerElem) -> LayerElem:
        """Frobenius projection: quotient n+1 -> quotient n.

        Indices are preserved and reinterpreted one lattice down; entries
        past the target window or variable cap vanish.
        """
        src, dst = self.quotient(n + 1), self.quotient(n)
        src.coerce(q)
        return dst.rescale(q)

    def frob_multi(self, n_to: int, n_from: int, q: LayerElem) -> LayerElem:
        """Compose projections from quotient n_from down to quotient n_to."""
        for n in range(n_from - 1, n_to - 1, -1):
            q = self.frob(n, q)
        return q

    # -- sampling -------------------------------------------------------------

    def random_layer(self, n: int, rng, max_terms: int = 3) -> LayerElem:
        return self.layer(n).random_element(rng, max_terms)

    def random_quot(self, n: int, rng, max_terms: int = 3) -> LayerElem:
        return self.quotient(n).random_element(rng, max_terms)

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

    is_product = True

    def __init__(self, spec: TowerSpec | None, components: tuple):
        first = components[0]
        shapes = {(c.start, c.depth, c.e0, c.ideal_exp, c.pillar_index())
                  for c in components}
        if len(shapes) > 1:
            raise SpecError("product components must share levels, e0, ideal and pillar")
        super().__init__(
            spec=spec,
            p=first.p,
            e0=first.e0,
            ideal_exp=first.ideal_exp,
            start=first.start,
            depth=first.depth,
            rings={n: ProductRing(tuple(c.layer(n) for c in components))
                   for n in first.levels},
            char_p=first.char_p,
            label="product(" + ", ".join(c.label for c in components) + ")",
            pillar_index=first.pillar_index(),
        )
        self.components = tuple(components)

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
        return ProductTower(spec, tuple(subs))
    precision = PrecisionBudget(
        n_digits=spec.n_digits, var_degree_cap=spec.var_degree_cap
    )
    eps = spec.ideal_exp
    rings: dict[int, LayerRing] = {}
    for n in range(spec.start_level, spec.start_level + spec.depth + 1):
        e_n = spec.e0 * spec.prime**n
        if (eps * e_n).denominator != 1:
            raise SpecError(
                f"ideal exponent {eps} does not land in the level-{n} "
                f"lattice (1/{e_n})Z; start the tower higher"
            )
        try:
            rings[n] = layer_make(
                spec.prime,
                precision,
                e_n,
                num_vars=spec.num_vars,
                ideal_exp=eps,
                e0=spec.e0,
                level=n,
            )
        except (BadIdealExponent, BadVarCap) as exc:
            raise SpecError(str(exc)) from exc
    return TowerHandle(
        spec=spec,
        p=spec.prime,
        e0=spec.e0,
        ideal_exp=eps,
        start=spec.start_level,
        depth=spec.depth,
        rings=rings,
        label=spec.kind,
        pillar_index=pillar_index,
    )


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


def _merge_verdicts(parts: list[Verdict]) -> Verdict:
    for i, v in enumerate(parts):
        if v.verdict == FAIL:
            return Verdict(
                FAIL, witness=f"component {i}: {v.witness}", details=v.details
            )
    samples = [v.samples for v in parts if v.samples is not None]
    details: dict = {}
    for i, v in enumerate(parts):
        if v.details:
            details[f"component_{i}"] = v.details
    if any(v.verdict == SAMPLED_PASS for v in parts):
        return Verdict(SAMPLED_PASS, samples=sum(samples), details=details)
    if all(v.verdict == NOT_APPLICABLE for v in parts):
        return Verdict(NOT_APPLICABLE, details=details)
    return Verdict(PASS, details=details)


def check_axioms(handle, samples: int = 200, seed: int = 0) -> AxiomReport:
    """Run the seven tower axioms on every realized pair of levels.

    Verdicts for (a)-(d), (f), (g) are exact on the finite quotients; (e)
    is a sampled proxy (invertibility of 1 + z for z in the ideal), since
    the Jacobson-radical statement quantifies over all maximal ideals.
    """
    if handle.depth < 2:
        raise SpecError("the axiom suite needs depth >= 2")
    if isinstance(handle, ProductTower):
        reports = [
            check_axioms(c, samples=samples, seed=seed + i)
            for i, c in enumerate(handle.components)
        ]
        axioms = {
            key: _merge_verdicts([r.axioms[key] for r in reports])
            for key in reports[0].axioms
        }
        return AxiomReport(axioms=axioms, tower=handle.describe())

    import random

    axioms = {
        "a": _check_a(handle),
        "b": _check_b(handle),
        "c": _check_c(handle),
        "d": _check_d(handle),
        "f": _check_f(handle),
        "g": _check_g(handle),
        "e": _check_e(handle, samples, random.Random(seed)),
    }
    return AxiomReport(axioms=axioms, tower=handle.describe())


def _check_a(handle) -> Verdict:
    base = handle.layer(handle.start)
    if base.ideal_exp > 1:
        return _fail(f"ideal exponent {base.ideal_exp} > 1", level=handle.start)
    if handle.spec is not None:
        want_e = handle.e0 * handle.p**handle.start
        if base.e != want_e or base.p != handle.p:
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


def _pair_levels(handle):
    return range(handle.start, handle.top)


def _check_b(handle) -> Verdict:
    for n in _pair_levels(handle):
        src = handle.quotient(n)
        seen = {}
        for key in src.basis_keys():
            mono = src.monomial(*key)
            img = handle.tbar(n, mono)
            if img.is_zero():
                return _fail(
                    f"t-bar kills {mono.to_text()} at level {n}", level=n
                )
            img_key = next(iter(img.terms))
            if img_key in seen:
                other = seen[img_key]
                witness = (src.monomial(*key) - src.monomial(*other)).to_text()
                return _fail(
                    f"t-bar collides on {witness} at level {n}", level=n
                )
            seen[img_key] = key
        _crosscheck_rank(handle, n, injective=True)
    return Verdict(PASS)


def _check_c(handle) -> Verdict:
    p = handle.p
    for n in _pair_levels(handle):
        up = handle.quotient(n + 1)
        for key in up.basis_keys():
            mono = up.monomial(*key)
            lhs = handle.tbar(n, handle.frob(n, mono))
            rhs = mono**p
            if lhs != rhs:
                return _fail(
                    f"tbar(F({mono.to_text()})) != {mono.to_text()}^p "
                    f"at level {n}",
                    level=n,
                )
        down = handle.quotient(n)
        for key in down.basis_keys():
            mono = down.monomial(*key)
            lhs = handle.frob(n, handle.tbar(n, mono))
            rhs = mono**p
            if lhs != rhs:
                return _fail(
                    f"F(tbar({mono.to_text()})) != {mono.to_text()}^p "
                    f"at level {n}",
                    level=n,
                )
    return Verdict(PASS)


def _check_d(handle) -> Verdict:
    for n in _pair_levels(handle):
        up = handle.quotient(n + 1)
        down = handle.quotient(n)
        hit = set()
        for key in up.basis_keys():
            img = handle.frob(n, up.monomial(*key))
            if not img.is_zero():
                hit.add(next(iter(img.terms)))
        missing = [k for k in down.basis_keys() if k not in hit]
        if missing:
            witness = down.monomial(*missing[0]).to_text()
            return _fail(
                f"Frobenius projection misses {witness} at level {n}",
                level=n,
                missing=len(missing),
            )
        _crosscheck_rank(handle, n, injective=False)
    return Verdict(PASS)


def _crosscheck_rank(handle, n, injective: bool):
    """Replay the combinatorial verdict with a dense F_p rank computation."""
    src = handle.quotient(n) if injective else handle.quotient(n + 1)
    dst = handle.quotient(n + 1) if injective else handle.quotient(n)
    if src.rank > _DENSE_CROSSCHECK_DIM or dst.rank > _DENSE_CROSSCHECK_DIM:
        return
    fn = (lambda q: handle.tbar(n, q)) if injective else (lambda q: handle.frob(n, q))
    rows = [dst.to_vec(fn(src.monomial(*key))) for key in src.basis_keys()]
    rank = linalg.matrix_rank_fp(rows, handle.p)
    want = src.rank if injective else dst.rank
    if rank != want:
        raise MethodDisagreement(
            f"dense rank {rank} contradicts the combinatorial check at "
            f"level {n} (expected {want})"
        )


def _check_e(handle, samples: int, rng) -> Verdict:
    total = 0
    for n in handle.levels:
        ring = handle.layer(n)
        f0 = handle.f0(n)
        for _ in range(samples):
            z = f0 * ring.random_element(rng, max_terms=3)
            u = ring.one() + z
            try:
                inv = ring.invert(u)
            except NotInvertible:
                return _fail(
                    f"1 + {z.to_text()} is not invertible at level {n}",
                    level=n,
                )
            if inv * u != ring.one():
                return _fail(
                    f"inverse of 1 + {z.to_text()} fails to verify at level {n}",
                    level=n,
                )
            total += 1
    return Verdict(SAMPLED_PASS, samples=total)


def _check_f(handle) -> Verdict:
    p = handle.p
    level1 = handle.start + 1
    ring1 = handle.layer(level1)
    f1 = handle.pillar_elem(level1)
    details = {"f1": f1.to_text(), "f1_level": level1}
    # (f-1): the p-th power of the pillar generates the ideal one level up.
    if f1**p != handle.f0(level1):
        return _fail(
            f"(f-1) ({f1.to_text()})^{p} != f0 = {handle.f0(level1).to_text()} "
            f"at level {level1}",
            **details,
        )
    # (f-2): the kernel of each projection is the pillar ideal; with
    # variables the degree cap adds a declared truncation tail.
    tail_dims = {}
    for n in _pair_levels(handle):
        up = handle.quotient(n + 1)
        kernel = {
            key
            for key in up.basis_keys()
            if handle.frob(n, up.monomial(*key)).is_zero()
        }
        f1_img = handle.embed(level1, n + 1, f1) if n + 1 >= level1 else None
        if f1_img is None:
            return _fail("(f-2) pillar level above checked pair", **details)
        f1_bar = handle.layer(n + 1).reduce_mod_ideal(f1_img)
        ideal = set()
        for key in up.basis_keys():
            prod = f1_bar * up.monomial(*key)
            if not prod.is_zero():
                ideal.update(prod.terms)
        tail = _truncation_tail(handle, n)
        expected = ideal | tail
        if kernel != expected:
            diff = kernel.symmetric_difference(expected)
            key = sorted(diff)[0]
            return _fail(
                f"(f-2) kernel mismatch at level {n}: "
                f"{up.monomial(*key).to_text()}",
                level=n,
                **details,
            )
        tail_dims[str(n)] = len(tail - ideal)
    if any(tail_dims.values()):
        details["truncation_tail_dim"] = tail_dims
    return Verdict(PASS, details=details)


def _truncation_tail(handle, n) -> set:
    """Quotient monomials whose Frobenius image overflows the variable cap.

    These are killed by the projection for a reason the truncated model
    declares up front (the total-degree cap), not by the pillar ideal; the
    tail is empty in the monogenic case.
    """
    up = handle.quotient(n + 1)
    return {
        (k, vt)
        for k, vt in up.basis_keys()
        if sum(vt) * handle.p > up.var_cap_index
    }


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
