"""Pure-Python polynomial kernels.

Dense products are routed through a single big-integer multiplication
(Kronecker substitution): coefficients are packed into fixed-width byte
lanes, multiplied once with CPython's native bignum arithmetic, and
unpacked.  This keeps the fallback within a small factor of the compiled
kernels for the sizes the library uses.

The Eisenstein product also reduces on the packed integer: with lanes
wide enough that conv[k] + p * conv[k + e] cannot carry, t^e = p is
applied as low + p * high (one mask, one shift), and only e lanes are
unpacked.  A square packs its argument once and multiplies the packed
integer by itself, which CPython does faster than a general product.

Lanes keep their minimal byte width.  Packing and unpacking move bytes
between those lanes and machine-word arrays with strided slice copies,
so no Python-level loop touches individual coefficients; lanes wider
than a machine word take a per-lane path.
"""

import sys
from array import array

# Unsigned array typecodes by item size, smallest first.
_CODES = sorted({array(c).itemsize: c for c in "QLIHB"}.items())
_SWAP = sys.byteorder != "little"


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


def _lane_width(max_coeff, length):
    bound = max_coeff * max_coeff * length + 1
    return (bound.bit_length() + 7) // 8


def eisenstein_mul(a, b, e, p, pmod):
    """Product in (Z/pmod)[t]/(t^e - p); a, b dense lists of length e.

    Passing the same list twice (a is b) computes the square.
    """
    if e == 1:
        return [a[0] * b[0] % pmod]
    # A folded lane holds conv[k] + p * conv[k + e] <= (p + 1) (pmod - 1)^2 e.
    width = (((p + 1) * (pmod - 1) ** 2 * e).bit_length() + 7) // 8
    shift = 8 * width * e
    packed = _pack(a, width, pmod - 1)
    prod = packed * packed if a is b else packed * _pack(b, width, pmod - 1)
    folded = (prod & ((1 << shift) - 1)) + p * (prod >> shift)
    return [c % pmod for c in _unpack(folded, width, e)]


def window_mul(a, b, window, p):
    """Truncated product in F_p[t]/(t^window); inputs shorter than window."""
    la, lb = len(a), len(b)
    n = min(window, la + lb - 1) if la and lb else 0
    if n <= 0:
        return []
    width = _lane_width(p - 1, max(la, lb))
    mask = (1 << (8 * width * n)) - 1
    prod = (_pack(a, width, p - 1) & mask) * (_pack(b, width, p - 1) & mask) & mask
    return [c % p for c in _unpack(prod, width, n)]
