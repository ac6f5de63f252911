"""GF(2^m) arithmetic with log/antilog tables (m = 4 or 8).

Addition is XOR.  The q x q product table mul_table, from exp/log tables of
the primitive element x, backs mul and mul_vec; its rows as bytes, zero-padded
to 256, are translate_rows: b.translate(translate_rows[a]) is a times bytes b.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# primitive reduction polynomials, indexed by m
_POLYS = {
    4: 0x13,   # x^4 + x + 1
    8: 0x11D,  # x^8 + x^4 + x^3 + x^2 + 1
}


class Field:
    """Arithmetic tables for GF(2^m)."""

    def __init__(self, m: int):
        if m not in _POLYS:
            raise ValueError(f"unsupported field degree m={m}; supported: {sorted(_POLYS)}")
        self.m = m
        self.q = q = 1 << m
        self.poly = _POLYS[m]
        exp = [0] * (2 * q)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= self.poly
        exp[q - 1:2 * (q - 1)] = exp[:q - 1]
        self.exp = exp
        self.log = log
        # mul_table[a, b] = a*b; log[0] is a placeholder, so row/column 0 are set apart
        lg = np.array(log, dtype=np.uint16)
        tab = np.array(exp, dtype=np.uint8)[lg[:, None] + lg]
        tab[0, :] = tab[:, 0] = 0
        tab.setflags(write=False)
        self.mul_table = tab
        self.translate_rows = tuple(row.tobytes().ljust(256, b"\0") for row in tab)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp[(self.q - 1) - self.log[a]]

    def mul_vec(self, c: int, vec: np.ndarray) -> np.ndarray:
        """Elementwise c * vec for a field-element array, as a new array."""
        return self.mul_table[c].take(vec)

    def __repr__(self):
        return f"Field(GF({self.q}), poly=0x{self.poly:X})"


@lru_cache(maxsize=None)
def get_field(q: int) -> Field:
    """Shared Field instance for order q (16 or 256)."""
    m = q.bit_length() - 1
    if 1 << m != q or m not in _POLYS:
        raise ValueError(f"unsupported field order q={q}; supported: {[1 << m for m in _POLYS]}")
    return Field(m)


GF256 = get_field(256)
GF16 = get_field(16)

