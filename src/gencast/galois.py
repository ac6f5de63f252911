"""GF(2^m) arithmetic with log/antilog tables (m = 4 or 8).

Addition is XOR.  The q x q product table mul_table, from exp/log tables of
the primitive element x, backs mul; its rows as bytes, zero-padded to 256,
are translate_rows: b.translate(translate_rows[a]) is a times bytes b.  One
such translate is mul_vec, the one vector product, and one is outside, the
one membership test (times 1, a byte that is no symbol becomes 0).  symbols
is the one rule that turns input into symbols; mul_vec and rlnc read by it.
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
        self.inverse = (0, *(exp[q - 1 - log[a]] for a in range(1, q)))  # 1/a, for inv and rlnc
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
        return self.inverse[a]

    def outside(self, data) -> bool:
        """True iff a byte of data (bytes-like) is not a symbol of the field."""
        return data.translate(self.translate_rows[1]) != data

    def symbols(self, x) -> np.ndarray:
        """x as a uint8 array of field symbols: x itself if it is a uint8 array,
        else a new one.  A value the uint8 cast changes (256, -1, 1.5) or refuses
        (None, "ab", 2**70) or, over GF(16), a byte of 16 or more is a ValueError.
        A uint8 array over GF(256) is neither scanned nor copied: each byte is a symbol."""
        try:
            u8 = x if type(x) is np.ndarray and x.dtype.char == "B" else np.asarray(x).astype("B")
        except (TypeError, ValueError, OverflowError):
            u8 = None
        if u8 is None or u8 is not x and (u8 != x).any() \
                or self.q < 256 and self.outside(u8.tobytes()):
            raise ValueError(f"symbols outside GF({self.q})")
        return u8

    def mul_vec(self, c: int, vec) -> np.ndarray:
        """Elementwise c * vec for a 1-D array of symbols (read by symbols), as a
        new, writable uint8 array.  A coefficient outside 0..q-1 is a ValueError."""
        if not 0 <= c < self.q:
            raise ValueError(f"coefficient {c} outside GF({self.q})")
        data = bytearray(self.symbols(vec).data)  # .data: a 0-d array is one byte, not a length
        return np.frombuffer(data.translate(self.translate_rows[c]), np.uint8)

    def __repr__(self):
        return f"Field(GF({self.q}), poly=0x{self.poly:X})"

    def __reduce__(self):  # unpickled as the shared instance of its order
        return get_field, (self.q,)


@lru_cache(maxsize=None)
def get_field(q: int) -> Field:
    """Shared Field instance for order q (16 or 256)."""
    m = q.bit_length() - 1
    if 1 << m != q or m not in _POLYS:
        raise ValueError(f"unsupported field order q={q}; supported: {[1 << m for m in _POLYS]}")
    return Field(m)


GF256 = get_field(256)
GF16 = get_field(16)

