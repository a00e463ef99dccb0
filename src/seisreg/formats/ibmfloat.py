"""IBM System/360 hexadecimal floating point codec (SEG-Y format code 1)."""

import math

import numpy as np


def ibm_to_ieee_array(words) -> np.ndarray:
    """Decode an array of 32-bit IBM hex float bit patterns to float64.

    Layout: sign bit, 7-bit excess-64 base-16 exponent, 24-bit fraction.
    Value is (-1)^sign * 16^(exponent-64) * fraction/2^24.  A zero fraction
    decodes to 0.0 regardless of the exponent bits.
    """
    words = np.asarray(words, dtype=np.uint32)
    sign = np.where(words >> 31 == 0, 1.0, -1.0)
    exponent = ((words >> 24) & 0x7F).astype(np.int64)
    fraction = (words & 0x00FFFFFF).astype(np.float64)
    out = sign * (fraction / float(1 << 24)) * np.power(16.0, exponent - 64)
    out[fraction == 0] = 0.0
    return out


def ieee_to_ibm(value: float) -> int:
    """Encode a float as the nearest 32-bit IBM hex float bit pattern.

    Underflow saturates to 0; magnitudes beyond the representable range
    raise OverflowError.
    """
    if value == 0.0 or math.isnan(value):
        return 0
    sign = 0x80000000 if value < 0 else 0
    m = abs(value)
    # frexp: m = f * 2^b with f in [0.5, 1); pick e so m * 16^-e in [1/16, 1)
    _, b = math.frexp(m)
    e = -(-b // 4)  # ceil(b / 4)
    fraction = int(round(m * 16.0 ** (-e) * (1 << 24)))
    if fraction == 1 << 24:  # rounding carried past the top hex digit
        fraction = 1 << 20
        e += 1
    exponent = e + 64
    if exponent < 0 or fraction == 0:
        return 0
    if exponent > 127:
        raise OverflowError(f"{value!r} exceeds IBM float range")
    return sign | (exponent << 24) | fraction
