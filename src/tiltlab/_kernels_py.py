"""Pure-Python polynomial kernels.

Dense products are routed through big-integer multiplication (Kronecker
substitution): coefficients are packed into fixed-width byte lanes,
multiplied with CPython's native bignum arithmetic, and unpacked.
window_mul multiplies its packed integers once.

The Eisenstein product evaluates at two points, X = 2^b and -X, with
b = 4 * width bits, half a lane (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 44, 2009, section 3).  The even- and odd-indexed coefficients
pack separately into the kernel's lanes, E and O, so f(+-X) = E +- O X,
and the kernel makes two products of half the bits each,
f(X) g(X) and f(-X) g(-X) (two squares for a square).  Their half-sum
is the even-index convolution packed at X^2, one lane per coefficient;
their half-difference divided by X is the odd-index one.  A lane is wide
enough for conv[k] + p * conv[k + e] <= (p + 1) (pmod - 1)^2 e, so every
convolution coefficient sits in its own lane and the recovery is exact.

The product also reduces on the packed halves: t^e = p is applied as
low + p * high (one mask, one shift), and only e lanes are unpacked.
For even e each half folds into itself.  For odd e = 2h + 1 output 2j
takes p times odd lane j + h, and output 2j + 1 takes p times even lane
j + h + 1, so the halves fold across.  The folded lanes obey the bound
above, so the lane width is the one-product kernel's.

Lanes keep their minimal byte width.  Packing and unpacking move bytes
between those lanes and machine-word arrays with strided slice copies,
so no Python-level loop touches individual coefficients; lanes wider
than a machine word take a per-lane path.

Both kernels multiply their packed integers through _product.  CPython
multiplies big integers with Karatsuba only; when both operands have at
least _TOOM3_BITS bits and neither is more than twice as long as the
other, _product splits them three ways (Toom 1963, Cook 1966; the
interpolation sequence is Bodrato's, WAIFI 2007): five products of a
third the size, where Karatsuba does the work of about 5.7.  At p = 5,
N = 6 the Eisenstein halves split from e = 2500 (60 kbit) up; the
suite's e <= 625 halves (12.5 kbit or less) stay native.  With a
20,000-bit cutoff the 25 kbit squares of a one-product e = 625 were
4-7% slower, so the cutoff sits above 25 kbit.  The arithmetic is exact,
so the kernels' outputs do not depend on the split.

Median of 7 calls on a 2-core VM, Python 3.11.7, one product -> two
half products (both with the split): e = 6250 mod 5^6 (300 kbit in one
product) multiply 10.5 -> 8.8 ms (0.84), square 7.8 -> 6.2 ms (0.79);
mod 5^5 0.73 and 0.72; e = 3125 mod 5^6 0.72 and 0.71, mod 5^4 0.78 and
0.75, mod 5^2 0.76 and 0.77; e = 1250 0.83 and 0.81; e = 625 0.84 and
0.92.  Small products pay for the second pack and unpack: e = 125 reads
1.07 and 1.09, and e <= 50 about 5-8 us more per call.
"""

import sys
from array import array

# Unsigned array typecodes by item size, smallest first.
_CODES = sorted({array(c).itemsize: c for c in "QLIHB"}.items())
_SWAP = sys.byteorder != "little"
# Packed operands of at least this many bits are split three ways (Toom-3).
# Below it the split's additions and shifts cost more than they save.
_TOOM3_BITS = 30_000


def _word(nbytes):
    """(typecode, itemsize) of the narrowest word holding nbytes, or None."""
    for size, code in _CODES:
        if size >= nbytes:
            return code, size
    return None


def _pack(coeffs, width, max_coeff):
    """Nonnegative coefficients <= max_coeff in width-byte lanes, one integer."""
    word = _word((max_coeff.bit_length() + 7) // 8)
    if word is None:
        return int.from_bytes(
            b"".join([c.to_bytes(width, "little") for c in coeffs]), "little"
        )
    code, size = word
    words = array(code, coeffs)
    if _SWAP:
        words.byteswap()
    raw = words.tobytes()
    lanes = bytearray(width * len(coeffs))
    for i in range(min(size, width)):
        lanes[i::width] = raw[i::size]
    return int.from_bytes(lanes, "little")


def _unpack(value, width, count):
    """The count width-byte lanes of value, lowest first."""
    raw = value.to_bytes(width * count, "little")
    word = _word(width)
    if word is None:
        return [
            int.from_bytes(raw[i : i + width], "little")
            for i in range(0, width * count, width)
        ]
    code, size = word
    buf = bytearray(size * count)
    for i in range(width):
        buf[i::size] = raw[i::width]
    words = array(code, buf)
    if _SWAP:
        words.byteswap()
    return words


def _product(x, y):
    """x * y for integers; x is y computes the square.

    Operands of at least _TOOM3_BITS bits each, neither more than twice
    as long as the other, are split into three pieces, evaluated at 0, 1,
    -1, -2 and infinity, multiplied recursively and interpolated with
    Bodrato's sequence (Toom-3).  Anything else is CPython's product.
    """
    square = x is y
    nx = x.bit_length()
    ny = nx if square else y.bit_length()
    lo, hi = (nx, ny) if nx <= ny else (ny, nx)
    if lo < _TOOM3_BITS or hi > 2 * lo:
        return x * y  # CPython squares when x is y
    # Only the evaluations at -1 and -2 are negative.
    negative = False
    if x < 0:
        x, negative = -x, True
    if square:
        y, negative = x, False
    elif y < 0:
        y, negative = -y, not negative
    k = (hi + 2) // 3
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, (x >> k) & mask, x >> (2 * k)
    s = x0 + x2
    xp1, xm1 = s + x1, s - x1
    xm2 = ((xm1 + x2) << 1) - x0
    if square:
        y0, y2, yp1, ym1, ym2 = x0, x2, xp1, xm1, xm2
    else:
        y0, y1, y2 = y & mask, (y >> k) & mask, y >> (2 * k)
        s = y0 + y2
        yp1, ym1 = s + y1, s - y1
        ym2 = ((ym1 + y2) << 1) - y0
        del y1
    del x, y, s, x1
    r0 = _product(x0, y0)
    del x0, y0
    r4 = _product(x2, y2)
    del x2, y2
    r1 = _product(xp1, yp1)
    del xp1, yp1
    rm1 = _product(xm1, ym1)
    del xm1, ym1
    r3 = (_product(xm2, ym2) - r1) // 3
    del xm2, ym2
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    del rm1
    r3 = ((r2 - r3) >> 1) + (r4 << 1)
    r2 += r1 - r4
    r1 -= r3
    out = ((((((r4 << k) + r3) << k) + r2) << k) + r1 << k) + r0
    return -out if negative else out


def _lane_width(max_coeff, length):
    bound = max_coeff * max_coeff * length + 1
    return (bound.bit_length() + 7) // 8


def eisenstein_mul(a, b, e, p, pmod):
    """Product in (Z/pmod)[t]/(t^e - p); a, b dense lists of length e.

    Passing the same list twice (a is b) computes the square.  For e >= 2
    the product is two products of half size, at X = 2^(4 width) and -X,
    whose half-sum and half-difference are the even- and odd-index
    convolutions, each in lanes of 8 width bits; t^e = p folds them, each
    into itself for even e and across for odd e (see the module
    docstring).
    """
    if e == 1:
        return [a[0] * b[0] % pmod]
    # A folded lane holds conv[k] + p * conv[k + e] <= (p + 1) (pmod - 1)^2 e.
    width = (((p + 1) * (pmod - 1) ** 2 * e).bit_length() + 7) // 8
    lane = 8 * width  # bits per lane: X^2 = 2^lane
    half = lane >> 1  # X = 2^half
    top = pmod - 1
    even = _pack(a[0::2], width, top)
    odd = _pack(a[1::2], width, top) << half
    plus, minus = even + odd, even - odd  # f(X), f(-X)
    if a is b:
        at_plus, at_minus = _product(plus, plus), _product(minus, minus)
    else:
        even = _pack(b[0::2], width, top)
        odd = _pack(b[1::2], width, top) << half
        at_plus, at_minus = _product(plus, even + odd), _product(minus, even - odd)
    del plus, minus, even, odd
    # The even- and odd-index convolutions, each packed at X^2 = 2^lane.
    conv_even = (at_plus + at_minus) >> 1
    conv_odd = (at_plus - at_minus) >> (half + 1)
    del at_plus, at_minus
    # t^e = p.  With h = e // 2, output lane j of the even half takes p
    # times lane j + h of the even half when e is even, of the odd half
    # when e is odd; output lane j of the odd half takes p times lane j + h
    # of the odd half, or lane j + h + 1 of the even half.
    h = e >> 1
    low = lane * h
    if e & 1:
        even_out = (conv_even & ((1 << low + lane) - 1)) + p * (conv_odd >> low)
        odd_out = (conv_odd & ((1 << low) - 1)) + p * (conv_even >> low + lane)
    else:
        mask = (1 << low) - 1
        even_out = (conv_even & mask) + p * (conv_even >> low)
        odd_out = (conv_odd & mask) + p * (conv_odd >> low)
    out = [0] * e
    out[0::2] = [c % pmod for c in _unpack(even_out, width, e - h)]
    out[1::2] = [c % pmod for c in _unpack(odd_out, width, h)]
    return out


def window_mul(a, b, window, p):
    """Truncated product in F_p[t]/(t^window); inputs shorter than window."""
    la, lb = len(a), len(b)
    n = min(window, la + lb - 1) if la and lb else 0
    if n <= 0:
        return []
    width = _lane_width(p - 1, max(la, lb))
    mask = (1 << (8 * width * n)) - 1
    prod = _product(_pack(a, width, p - 1) & mask, _pack(b, width, p - 1) & mask) & mask
    return [c % p for c in _unpack(prod, width, n)]
