"""Small tilts at finite depth and the tilted tower.

The depth-m tilt of layer j is the ring of Frobenius-compatible sequences
(x_0, ..., x_m), x_i in the level j+i quotient, F(x_{i+1}) = x_i.  Such a
sequence is determined by its deepest component, and all ring operations
happen there; the presentation ring F_p[T]/(T^K), K = (ideal index at
level j) * p^m, renames the deepest quotient so that T carries the
level-j lattice valuation 1/e_j.

A depth-m tilt element carries no information below T-adic index K: that
is the tilt-side precision budget, recorded on the presentation ring as
its window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LayerRing, ProductRing, parse_element
from .towers import LevelOutOfRange, ProductTower, TowerHandle


class ZeroDepth(ValueError):
    pass


class InsufficientDepth(ValueError):
    pass


def _check_range(handle, j: int, m: int):
    if m < 0:
        raise ZeroDepth("tilt depth must be >= 0")
    if j < handle.start or j + m > handle.top:
        raise LevelOutOfRange(
            f"tilt at layer {j} depth {m} needs levels {j}..{j + m}, "
            f"realized {handle.start}..{handle.top}"
        )


@dataclass
class SmallTiltElem:
    """Element of a depth-m small tilt, stored by its deepest component."""

    handle: object
    layer: int
    depth: int
    deepest: object  # element of quotient(layer + depth)

    def component(self, i: int):
        """The level layer+i entry of the compatible sequence."""
        if not 0 <= i <= self.depth:
            raise LevelOutOfRange(f"component {i} of a depth-{self.depth} tilt")
        return self.handle.frob_multi(
            self.layer + i, self.layer + self.depth, self.deepest
        )

    def components(self):
        return [self.component(i) for i in range(self.depth + 1)]

    def _wrap(self, deepest):
        return SmallTiltElem(self.handle, self.layer, self.depth, deepest)

    def _match(self, other):
        if (
            not isinstance(other, SmallTiltElem)
            or other.layer != self.layer
            or other.depth != self.depth
        ):
            raise ValueError("tilt elements live at different layers/depths")
        return other

    def __add__(self, other):
        return self._wrap(self.deepest + self._match(other).deepest)

    def __sub__(self, other):
        return self._wrap(self.deepest - self._match(other).deepest)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.deepest * other)
        return self._wrap(self.deepest * self._match(other).deepest)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return self._wrap(self.deepest**n)

    def __eq__(self, other):
        return (
            isinstance(other, SmallTiltElem)
            and other.layer == self.layer
            and other.depth == self.depth
            and other.deepest == self.deepest
        )

    def __hash__(self):
        return hash((self.layer, self.depth, self.deepest))

    def is_zero(self):
        return self.deepest.is_zero()

    def embed_up(self) -> "SmallTiltElem":
        """Image under the tilted transition, one layer up, one depth down.

        On compatible sequences the transition is entrywise reduction of
        the original transition, which on deepest components is the p-th
        power map.
        """
        if self.depth < 1:
            raise InsufficientDepth("embedding consumes one depth step")
        return SmallTiltElem(
            self.handle, self.layer + 1, self.depth - 1, self.deepest**self.handle.p
        )

    def __repr__(self):
        return (
            f"<tilt layer={self.layer} depth={self.depth} "
            f"deepest={self.deepest.to_text()}>"
        )


class TiltPresentation:
    """Depth-m small tilt of one layer, presented as a truncated char-p ring."""

    def __init__(self, handle, layer: int, depth: int):
        _check_range(handle, layer, depth)
        self.handle = handle
        self.layer = layer
        self.depth = depth
        self.ring = _presentation_ring(handle, layer, depth)

    @property
    def quotient_exponent(self) -> int:
        """Nilpotency index K of the presentation (t-adic precision)."""
        return self.handle.ideal_index(self.layer) * self.handle.p**self.depth

    def generator(self) -> SmallTiltElem:
        """The tilt element presented by T (deepest component s)."""
        return self.from_presentation(self.ring.monomial(1))

    def from_presentation(self, x) -> SmallTiltElem:
        deepest = _reindex(x, self.handle.quotient(self.layer + self.depth))
        return SmallTiltElem(self.handle, self.layer, self.depth, deepest)

    def to_presentation(self, elem: SmallTiltElem):
        if elem.layer != self.layer or elem.depth != self.depth:
            raise ValueError("element does not belong to this presentation")
        return _reindex(elem.deepest, self.ring)

    def parse(self, text: str) -> SmallTiltElem:
        args = (self.handle, self.layer, self.depth)
        symbols = {
            "pflat": self.to_presentation(p_flat(*args)),
            "fflat": self.to_presentation(f_flat_generator(*args)),
        }
        return self.from_presentation(parse_element(self.ring, text, symbols))

    def text_of(self, elem: SmallTiltElem) -> str:
        return self.to_presentation(elem).to_text()

    def random_element(self, rng, max_terms: int = 3) -> SmallTiltElem:
        return self.from_presentation(self.ring.random_element(rng, max_terms))

    def to_json_dict(self) -> dict:
        gen = self.generator()
        return {
            "layer": self.layer,
            "depth": self.depth,
            "quotient_exponent": self.quotient_exponent,
            "generator_map": [c.to_text() for c in gen.components()],
        }


def _reindex(x, target):
    """Copy terms between index-compatible rings (same window, lattices differ)."""
    if isinstance(target, ProductRing):
        return target.wrap(
            _reindex(part, fac) for part, fac in zip(x.parts, target.factors)
        )
    return target.rescale(x)


def _presentation_ring(handle, j: int, m: int):
    if isinstance(handle, ProductTower):
        return ProductRing(
            tuple(_presentation_ring(c, j, m) for c in handle.components)
        )
    src = handle.layer(j)
    deepest = handle.layer(j + m)
    return LayerRing(
        p=handle.p,
        e=src.e,
        window=handle.ideal_index(j) * handle.p**m,
        ideal_num=handle.ideal_index(j),
        e0=handle.e0,
        num_vars=src.num_vars,
        var_den=deepest.var_den,
        var_cap=src.var_cap,
    )


def small_tilt(handle, j: int, m: int) -> TiltPresentation:
    """The depth-m truncation of the layer-j small tilt."""
    return TiltPresentation(handle, j, m)


def p_flat(handle, j: int, m: int) -> SmallTiltElem:
    """The compatible system of p-power roots of p rooted at layer j.

    Component i is p^(1/p^(j+i)) mod the ideal; in the presentation this
    is T^(e0), of valuation e0/e_j = 1/p^j.
    """
    _check_range(handle, j, m)
    quot = handle.quotient(j + m)
    return SmallTiltElem(handle, j, m, quot.monomial(handle.e0))


def f_flat_generator(handle, j: int, m: int) -> SmallTiltElem:
    """Canonical generator of the tilt-side pillar ideal at layer j.

    The monomial T^(pillar index), matching the valuation of the level-j
    pillar generator.
    """
    _check_range(handle, j, m)
    quot = handle.quotient(j + m)
    return SmallTiltElem(handle, j, m, quot.monomial(handle.pillar_index()))


def tilt_tower(handle, m: int):
    """The tilted tower at depth m, ready for the axiom suite.

    Layer j of the result is the depth-m tilt presentation of layer j; the
    transitions and Frobenius projections are the induced index maps, so
    the result is a characteristic-p tower over the same ideal data.
    """
    if isinstance(handle, ProductTower):
        return ProductTower(tuple(tilt_tower(c, m) for c in handle.components))
    new_depth = handle.depth - m
    if new_depth < 2:
        raise InsufficientDepth(
            f"tilting at depth {m} leaves {new_depth} levels; need >= 2"
        )
    rings = {
        j: _presentation_ring(handle, j, m)
        for j in range(handle.start, handle.top - m + 1)
    }
    return TowerHandle(rings=rings, label=f"tilt({handle.label}, depth={m})")
