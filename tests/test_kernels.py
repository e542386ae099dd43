"""The polynomial kernels against an independent integer oracle."""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import _backend, _kernels_py

# The split's cutoff as shipped, and one a few dozen bits wide under which
# every packed operand of the oracle cases below that is wider than 32 bits
# is split, recursively.
CUTOFFS = [_kernels_py._TOOM3_BITS, 32]


def _at_both_cutoffs(cases):
    """Each case at the shipped cutoff, under its plain id, and at 32 bits,
    under its id with the suffix -split."""
    return [
        pytest.param(*case, cutoff, id="-".join(map(str, case)) + suffix)
        for cutoff, suffix in zip(CUTOFFS, ["", "-split"])
        for case in cases
    ]


def kronecker_reference(a, b, e, p, pmod):
    """The one-product Eisenstein kernel the +-X evaluation replaced, kept
    as a reference at sizes the schoolbook oracle is too slow for: pack
    every coefficient into one folded-width lane, multiply once, fold
    t^e = p as low + p * high, unpack."""
    if e == 1:
        return [a[0] * b[0] % pmod]
    width = _folded_width(e, p, pmod)
    shift = 8 * width * e
    packed = _kernels_py._pack(a, width, pmod - 1)
    other = packed if a is b else _kernels_py._pack(b, width, pmod - 1)
    prod = _kernels_py._product(packed, other)
    folded = (prod & ((1 << shift) - 1)) + p * (prod >> shift)
    return [c % pmod for c in _kernels_py._unpack(folded, width, e)]


def _folded_width(e, p, pmod):
    """Bytes per lane of the Eisenstein kernel: a folded lane holds
    conv[k] + p * conv[k + e] <= (p + 1) (pmod - 1)^2 e."""
    return (((p + 1) * (pmod - 1) ** 2 * e).bit_length() + 7) // 8


def eisenstein_oracle(a, b, e, p, pmod):
    """Multiply in Z[t]/(t^e - p) with plain integers, then reduce."""
    conv = [0] * (2 * e)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * e - 1, e - 1, -1):
        conv[k - e] += p * conv[k]
        conv[k] = 0
    return [c % pmod for c in conv[:e]]


def window_oracle(a, b, window, p):
    n = min(window, len(a) + len(b) - 1)
    conv = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                conv[i + j] += x * y
    return [c % p for c in conv]


def _headroom_crosses_byte(e, p, pmod):
    """Whether the folded lane, (p + 1) (pmod - 1)^2 e, needs one more byte
    than the bare convolution lane, (pmod - 1)^2 e."""
    plain = (((pmod - 1) ** 2 * e).bit_length() + 7) // 8
    folded = (((p + 1) * (pmod - 1) ** 2 * e).bit_length() + 7) // 8
    return folded > plain


EISENSTEIN_CASES = [
    (1, 5, 6), (5, 5, 2), (25, 5, 6), (8, 2, 3), (50, 5, 6),
    (1, 2, 4), (5, 5, 6), (3, 2, 3), (12, 7, 2), (40, 3, 6),
    # residues wider than a machine word: the per-lane fallbacks
    (6, 2, 70), (4, 2, 70),
    # the smallest even and odd e, one evaluation lane per half
    (2, 5, 6), (2, 3, 1), (3, 5, 2),
    # 3-byte lanes at a real odd e: X = 2^12 is not byte-aligned
    (125, 5, 2),
    # halves of about 30.5 kbit, split at the shipped cutoff too
    (400, 2, 70), (401, 2, 70),
]


def _headroom_crosses_byte(e, p, pmod):
    """Whether the folded lane, (p + 1) (pmod - 1)^2 e, needs one more byte
    than the bare convolution lane, (pmod - 1)^2 e."""
    plain = (((pmod - 1) ** 2 * e).bit_length() + 7) // 8
    return _folded_width(e, p, pmod) > plain


def test_eisenstein_cases_straddle_the_folded_lane_byte_boundary():
    crossing = [
        (e, p, nd) for e, p, nd in EISENSTEIN_CASES
        if e > 1 and _headroom_crosses_byte(e, p, p**nd)
    ]
    assert 3 <= len(crossing) <= len(EISENSTEIN_CASES) - 3
    assert (6, 2, 70) in crossing and (4, 2, 70) not in crossing


def _operands(e, pmod, rng, rounds):
    """(a, b) pairs: every coefficient at pmod - 1 (the worst case for
    carries), then a whose odd coefficients are pmod - 1 and even ones 0,
    so that a(-X) < 0, then random pairs."""
    top = [pmod - 1] * e
    negative = [(pmod - 1) * (i % 2) for i in range(e)]
    pairs = [(top, list(top)), (negative, [rng.randrange(pmod) for _ in range(e)])]
    while len(pairs) < rounds:
        pairs.append(tuple([rng.randrange(pmod) for _ in range(e)] for _ in "ab"))
    return pairs[:rounds]


def _evaluated(a, e, p, pmod):
    """a(X) and a(-X) at the kernel's X = 2^(4 width)."""
    width = _folded_width(e, p, pmod)
    even = _kernels_py._pack(a[0::2], width, pmod - 1)
    odd = _kernels_py._pack(a[1::2], width, pmod - 1) << 4 * width
    return even + odd, even - odd


def test_eisenstein_cases_reach_the_evaluation_edges():
    cases = [(e, p, p**nd) for e, p, nd in EISENSTEIN_CASES]
    assert {2, 3} <= {e for e, _, _ in cases}
    # halves past the shipped cutoff, for an even and an odd e
    large = {
        e % 2 for e, p, pmod in cases
        if e > 1 and min(abs(v).bit_length() for v in _evaluated([pmod - 1] * e, e, p, pmod))
        >= _kernels_py._TOOM3_BITS
    }
    assert large == {0, 1}
    # X = 2^(4 width) off a byte boundary, at an e of the towers
    assert any(_folded_width(e, p, pmod) % 2 and e >= 125 for e, p, pmod in cases)
    # lanes wider than a machine word
    assert any(_kernels_py._word(_folded_width(e, p, pmod)) is None for e, p, pmod in cases)
    assert (6, 2, 2**70) in cases
    # every case meets an operand that is negative at -X
    for e, p, pmod in cases:
        if e > 1:
            a = _operands(e, pmod, random.Random(0), 2)[1][0]
            assert _evaluated(a, e, p, pmod)[1] < 0


@pytest.mark.parametrize("e,p,nd,cutoff", _at_both_cutoffs(EISENSTEIN_CASES))
def test_eisenstein_mul_matches_oracle(e, p, nd, cutoff, monkeypatch):
    monkeypatch.setattr(_kernels_py, "_TOOM3_BITS", cutoff)
    rng = random.Random(e * 1000 + p)
    pmod = p**nd
    for a, b in _operands(e, pmod, rng, 20 if e <= 125 else 4):
        want = eisenstein_oracle(a, b, e, p, pmod)
        square = eisenstein_oracle(a, list(a), e, p, pmod)
        assert _kernels_py.eisenstein_mul(a, b, e, p, pmod) == want
        assert _kernels_py.eisenstein_mul(a, a, e, p, pmod) == square


@pytest.mark.parametrize("e", [3125, 6250])
@pytest.mark.parametrize("nd", [2, 3, 4, 5, 6])
def test_eisenstein_mul_matches_the_one_product_reference(e, nd):
    # the sizes of sharp-dense's ladders, odd and even e, at every modulus
    # a p = 5, N = 6 ladder climbs through
    pmod = 5**nd
    for a, b in _operands(e, pmod, random.Random(e + nd), 3):
        assert _kernels_py.eisenstein_mul(a, b, e, 5, pmod) == kronecker_reference(
            a, b, e, 5, pmod
        )
        assert _kernels_py.eisenstein_mul(a, a, e, 5, pmod) == kronecker_reference(
            a, a, e, 5, pmod
        )


@st.composite
def eisenstein_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    # nd = 40 makes lanes wider than a machine word for every p
    nd = draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(40)))
    e = draw(st.one_of(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=40)))
    pmod = p**nd
    coeff = st.one_of(st.integers(0, pmod - 1), st.just(pmod - 1), st.just(0))
    a = draw(st.lists(coeff, min_size=e, max_size=e))
    b = draw(st.lists(coeff, min_size=e, max_size=e))
    if draw(st.booleans()):  # zero even coefficients: a(-X) < 0 unless a is 0
        a = [c * (i % 2) for i, c in enumerate(a)]
    return a, b, e, p, pmod


@settings(max_examples=300, deadline=None, derandomize=True)
@given(eisenstein_inputs())
def test_eisenstein_mul_property(args):
    a, b, e, p, pmod = args
    for cutoff in CUTOFFS:
        with patch.object(_kernels_py, "_TOOM3_BITS", cutoff):
            assert _kernels_py.eisenstein_mul(a, b, e, p, pmod) == eisenstein_oracle(*args)
            assert _kernels_py.eisenstein_mul(a, a, e, p, pmod) == eisenstein_oracle(
                a, list(a), e, p, pmod
            )


@pytest.mark.parametrize("window,p,cutoff", _at_both_cutoffs(
    [(1, 2), (6, 2), (30, 5), (125, 5), (40, 257), (20, 65537)]
))
def test_window_mul_matches_oracle(window, p, cutoff, monkeypatch):
    monkeypatch.setattr(_kernels_py, "_TOOM3_BITS", cutoff)
    rng = random.Random(window * 7 + p)
    for _ in range(20):
        la = rng.randint(1, window)
        lb = rng.randint(1, window)
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        want = window_oracle(a, b, window, p)
        assert _kernels_py.window_mul(a, b, window, p) == want


def _counting_products(monkeypatch):
    """Record every _product call, the recursion's included, as (depth,
    bits of the first operand, whether it is a square); depth 0 is a call
    the kernel made itself."""
    calls = []
    real = _kernels_py._product
    depth = [0]

    def counted(x, y):
        calls.append((depth[0], x.bit_length(), x is y))
        depth[0] += 1
        try:
            return real(x, y)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_kernels_py, "_product", counted)
    return calls


def _top_level(calls):
    return [(bits, square) for depth, bits, square in calls if depth == 0]


def _about_half(bits, e, p, pmod):
    """Whether bits is half of the one packed operand's 8 width e bits, to
    within one lane: a(X) holds ceil(e / 2) lanes, its top half-lane shifted."""
    lane = 8 * _folded_width(e, p, pmod)
    return abs(2 * bits - lane * e) <= 2 * lane


def test_eisenstein_mul_above_the_real_cutoff_matches_oracle(monkeypatch):
    e, p, pmod = 400, 2, 2**70
    calls = _counting_products(monkeypatch)
    rng = random.Random(400)
    worst = [pmod - 1] * e
    for a, b in [(worst, list(worst)), ([rng.randrange(pmod) for _ in range(e)],
                                        [rng.randrange(pmod) for _ in range(e)])]:
        assert _kernels_py.eisenstein_mul(a, b, e, p, pmod) == eisenstein_oracle(
            a, b, e, p, pmod
        )
        assert _kernels_py.eisenstein_mul(a, a, e, p, pmod) == eisenstein_oracle(
            a, list(a), e, p, pmod
        )
    # 19-byte lanes: each kernel call multiplies a(X) b(X) and a(-X) b(-X),
    # operands of about 30.4 kbit, and each of those products splits once
    # into five pieces under the cutoff
    top = _top_level(calls)
    assert len(top) == 4 * 2
    assert all(_kernels_py._TOOM3_BITS < bits and _about_half(bits, e, p, pmod)
               for bits, _ in top)
    assert len(calls) == 4 * 2 * 6


@pytest.mark.parametrize("e,splits", [(6250, True), (625, False)])
def test_the_split_applies_to_large_packed_products_only(e, splits, monkeypatch):
    p, pmod = 5, 5**6
    rng = random.Random(e)
    a = [rng.randrange(pmod) for _ in range(e)]
    b = [rng.randrange(pmod) for _ in range(e)]
    calls = _counting_products(monkeypatch)
    _kernels_py.eisenstein_mul(a, b, e, p, pmod)
    products = list(calls)
    _kernels_py.eisenstein_mul(a, a, e, p, pmod)
    squares = calls[len(products):]
    # each kernel call makes two products of its own, at +X and at -X, each
    # on about half the bits of the one packed operand of a single product
    for made in (products, squares):
        top = _top_level(made)
        assert len(top) == 2 and all(_about_half(bits, e, p, pmod) for bits, _ in top)
    # a square's recursion is squares all the way down
    assert not any(square for _, square in _top_level(products))
    assert all(square for _, _, square in squares)
    if splits:  # 150 kbit halves at e = 6250
        assert len(products) > 2 and len(squares) > 2
    else:  # 12.5 kbit halves at e = 625
        assert len(products) == len(squares) == 2


def _operand(bits, shape, rng):
    """A bits-long integer: random, all ones, or zero outside its middle
    third (so that the split's pieces evaluate negative at -1 and -2)."""
    if shape == "random":
        return rng.getrandbits(bits) | 1 << (bits - 1)
    if shape == "ones":
        return (1 << bits) - 1
    third = bits // 3
    return 1 << (bits - 1) | ((1 << third) - 1) << third


@st.composite
def toom_operands(draw):
    cutoff = _kernels_py._TOOM3_BITS
    rng = random.Random(draw(st.integers(0, 2**32)))
    shapes = st.sampled_from(["random", "ones", "middle"])
    bits = draw(st.integers(cutoff - 64, 4 * cutoff))
    # up to three times as long as the other: lopsided pairs take CPython's product
    other = draw(st.integers(max(1, bits // 3), 3 * bits))
    x = _operand(bits, draw(shapes), rng)
    y = draw(st.sampled_from([0, 1, _operand(other, draw(shapes), rng)]))
    return x, y, draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(toom_operands())
def test_split_product_matches_native(args):
    x, y, sx, sy = args
    x, y = sx * x, sy * y
    assert _kernels_py._product(x, y) == x * y
    assert _kernels_py._product(y, x) == y * x
    assert _kernels_py._product(x, x) == x * x


def test_core_calls_the_kernels_these_tests_check():
    # core multiplies through tiltlab._backend; the oracle and property
    # tests above exercise _kernels_py, so the two must be the same objects.
    assert _backend.eisenstein_mul is _kernels_py.eisenstein_mul
    assert _backend.window_mul is _kernels_py.window_mul
    assert _backend.backend_name() == "python"
