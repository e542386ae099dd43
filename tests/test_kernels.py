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
]


def test_eisenstein_cases_straddle_the_folded_lane_byte_boundary():
    crossing = [
        (e, p, nd) for e, p, nd in EISENSTEIN_CASES
        if e > 1 and _headroom_crosses_byte(e, p, p**nd)
    ]
    assert 3 <= len(crossing) <= len(EISENSTEIN_CASES) - 3
    assert (6, 2, 70) in crossing and (4, 2, 70) not in crossing


@pytest.mark.parametrize("e,p,nd,cutoff", _at_both_cutoffs(EISENSTEIN_CASES))
def test_eisenstein_mul_matches_oracle(e, p, nd, cutoff, monkeypatch):
    monkeypatch.setattr(_kernels_py, "_TOOM3_BITS", cutoff)
    rng = random.Random(e * 1000 + p)
    pmod = p**nd
    for i in range(20):
        a = [rng.randrange(pmod) for _ in range(e)]
        b = [rng.randrange(pmod) for _ in range(e)]
        if i == 0:  # the worst case for carries: every coefficient at pmod - 1
            a, b = [pmod - 1] * e, [pmod - 1] * e
        want = eisenstein_oracle(a, b, e, p, pmod)
        square = eisenstein_oracle(a, list(a), e, p, pmod)
        assert _kernels_py.eisenstein_mul(a, b, e, p, pmod) == want
        assert _kernels_py.eisenstein_mul(a, a, e, p, pmod) == square


@st.composite
def eisenstein_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nd = draw(st.integers(min_value=1, max_value=12))
    e = draw(st.integers(min_value=1, max_value=40))
    pmod = p**nd
    coeff = st.one_of(st.integers(0, pmod - 1), st.just(pmod - 1), st.just(0))
    a = draw(st.lists(coeff, min_size=e, max_size=e))
    b = draw(st.lists(coeff, min_size=e, max_size=e))
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
    """Count _product's calls, the recursion's included."""
    calls = []
    real = _kernels_py._product

    def counted(x, y):
        calls.append((x.bit_length(), x is y))
        return real(x, y)

    monkeypatch.setattr(_kernels_py, "_product", counted)
    return calls


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
    # 19-byte lanes: the packed operands have about 60 kbit, so each
    # product splits once into pieces under the cutoff
    assert calls[0][0] > _kernels_py._TOOM3_BITS
    assert len(calls) == 4 * 6


@pytest.mark.parametrize("e,splits", [(6250, True), (625, False)])
def test_the_split_applies_to_large_packed_products_only(e, splits, monkeypatch):
    pmod = 5**6
    rng = random.Random(e)
    a = [rng.randrange(pmod) for _ in range(e)]
    b = [rng.randrange(pmod) for _ in range(e)]
    calls = _counting_products(monkeypatch)
    _kernels_py.eisenstein_mul(a, b, e, 5, pmod)
    products = len(calls)
    _kernels_py.eisenstein_mul(a, a, e, 5, pmod)
    squares = calls[products:]
    # a square's recursion is squares all the way down
    assert not calls[0][1] and all(square for _, square in squares)
    if splits:
        assert products > 1 and len(squares) > 1
    else:
        assert products == len(squares) == 1


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
