"""Exact linear algebra over Z/p^N (Howell-style row reduction).

Z/p^N is a local principal ideal ring, so every submodule of a free module
has a reduced generating set with one pivot per column, each pivot a power
of p.  Keeping the extra "annihilator" rows p^(N-v) * row makes the span
closed under leading-zero truncation, which is what exact membership
testing needs.  Setting N = 1 recovers plain Gaussian elimination over F_p.
"""

from __future__ import annotations

from .core import _vp


class RowSpan:
    """Reduced row span of integer vectors modulo p^n_digits."""

    def __init__(self, rows, p: int, n_digits: int):
        self.p = p
        self.n_digits = n_digits
        self.mod = p**n_digits
        self.pivots: dict[int, list[int]] = {}
        self.pivval: dict[int, int] = {}
        for row in rows:
            self._insert(list(row))

    def _insert(self, row):
        p, mod, nd = self.p, self.mod, self.n_digits
        queue = [row]
        while queue:
            r = [x % mod for x in queue.pop()]
            c = next((i for i, x in enumerate(r) if x), None)
            while c is not None:
                v = _vp(r[c], p, nd)
                if c in self.pivots:
                    pv = self.pivval[c]
                    if v >= pv:
                        q = r[c] // p**pv
                        piv = self.pivots[c]
                        r = [(a - q * b) % mod for a, b in zip(r, piv)]
                        c = next(
                            (i for i, x in enumerate(r) if x), None
                        )
                        continue
                    # The new row has a sharper pivot; displace the old one.
                    queue.append(self.pivots.pop(c))
                    del self.pivval[c]
                unit = r[c] // p**v
                inv = pow(unit, -1, mod)
                r = [a * inv % mod for a in r]
                self.pivots[c] = r
                self.pivval[c] = v
                if v > 0:
                    queue.append([p ** (nd - v) * a % mod for a in r])
                break

    def reduce(self, vec):
        """Return the residue of vec after reduction against the span."""
        p, mod = self.p, self.mod
        r = [x % mod for x in vec]
        for c in sorted(self.pivots):
            if r[c] == 0:
                continue
            pv = self.pivval[c]
            if _vp(r[c], p, self.n_digits) < pv:
                return r
            q = r[c] // p**pv
            piv = self.pivots[c]
            r = [(a - q * b) % mod for a, b in zip(r, piv)]
        return r

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def rank_fp(self) -> int:
        """Number of pivots that survive modulo p (F_p-rank of the span)."""
        return sum(1 for v in self.pivval.values() if v == 0)

    def generators(self):
        return [self.pivots[c] for c in sorted(self.pivots)]


def span_contains(rows, vec, p, n_digits) -> bool:
    return RowSpan(rows, p, n_digits).contains(vec)


def spans_equal(rows_a, rows_b, p, n_digits) -> bool:
    sa = RowSpan(rows_a, p, n_digits)
    sb = RowSpan(rows_b, p, n_digits)
    return all(sa.contains(r) for r in sb.generators()) and all(
        sb.contains(r) for r in sa.generators()
    )


def kernel_generators(columns, p, n_digits):
    """Generators of {x : sum_i x_i * columns[i] = 0} over Z/p^n_digits.

    Row-reduces the block matrix [column_i | e_i]; rows whose left block
    vanished encode exact relations among the columns.
    """
    ncols = len(columns)
    if ncols == 0:
        return []
    height = len(columns[0])
    rows = [
        list(col) + [1 if j == i else 0 for j in range(ncols)]
        for i, col in enumerate(columns)
    ]
    span = RowSpan(rows, p, n_digits)
    out = []
    for c in sorted(span.pivots):
        if c >= height:
            out.append(span.pivots[c][height:])
    return out


def matrix_rank_fp(rows, p) -> int:
    if not rows:
        return 0
    return RowSpan(rows, p, 1).rank_fp()
