"""Backend equivalence: both kernels against an independent integer oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab import _kernels_py

try:
    from tiltlab import _kernels as _compiled
except ImportError:
    _compiled = None


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


@pytest.mark.parametrize("e,p,nd", EISENSTEIN_CASES)
def test_eisenstein_mul_matches_oracle(e, p, nd):
    rng = random.Random(e * 1000 + p)
    pmod = p**nd
    kernels = [_kernels_py] + ([_compiled] if _compiled is not None else [])
    for i in range(20):
        a = [rng.randrange(pmod) for _ in range(e)]
        b = [rng.randrange(pmod) for _ in range(e)]
        if i == 0:  # the worst case for carries: every coefficient at pmod - 1
            a, b = [pmod - 1] * e, [pmod - 1] * e
        want = eisenstein_oracle(a, b, e, p, pmod)
        square = eisenstein_oracle(a, list(a), e, p, pmod)
        for kernel in kernels:
            assert kernel.eisenstein_mul(a, b, e, p, pmod) == want
            assert kernel.eisenstein_mul(a, a, e, p, pmod) == square


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
    assert _kernels_py.eisenstein_mul(a, b, e, p, pmod) == eisenstein_oracle(*args)
    assert _kernels_py.eisenstein_mul(a, a, e, p, pmod) == eisenstein_oracle(
        a, list(a), e, p, pmod
    )


@pytest.mark.parametrize(
    "window,p", [(1, 2), (6, 2), (30, 5), (125, 5), (40, 257), (20, 65537)]
)
def test_window_mul_matches_oracle(window, p):
    rng = random.Random(window * 7 + p)
    for _ in range(20):
        la = rng.randint(1, window)
        lb = rng.randint(1, window)
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        want = window_oracle(a, b, window, p)
        assert _kernels_py.window_mul(a, b, window, p) == want
        if _compiled is not None:
            assert _compiled.window_mul(a, b, window, p) == want


def test_backend_selection_env(monkeypatch):
    import importlib

    monkeypatch.setenv("TILTLAB_FORCE_PY", "1")
    import tiltlab._backend as backend

    importlib.reload(backend)
    assert backend.backend_name() == "python"
    monkeypatch.delenv("TILTLAB_FORCE_PY")
    importlib.reload(backend)
