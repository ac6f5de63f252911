"""Random linear coding within a generation, and incremental decoding.

random_coefficients draws coefficients i.i.d. uniform over the field, zero
included; encode combines a generation's payloads into a CodedPacket,
recording by column the products c_j * x_j it summed (a rank-only packet is
built directly as CodedPacket(m, coefficients, None)).  DecoderState is one
receiver's decoder for one generation, built from its want flags (many at
once by for_generation): it decodes payloads iff built with known_payloads,
else tracks rank only, along the same rank trajectory.  absorb reduces the
unknown coefficients as one int, byte j for column j: each step clears the
lowest nonzero byte's column by XORing in its row times that byte (one
bytes.translate), so there is at most one step a column.  A packet keeps,
for every later decoder, the first accepted read of its coefficients and the
field its payload's symbols were last found in, so an in-place change after
either goes unseen.  absorb reuses a recorded product only if made from the
very array held, else makes its own; only encode writes the record.
"""

from __future__ import annotations

import numpy as np

from .galois import GF256, Field
from .sfm import check_generation_ids

__all__ = ["CodedPacket", "DecoderState", "encode", "random_coefficients", "random_payloads"]


class CodedPacket:
    """A coded packet, equal only to itself.  DecoderState.absorb sets, for every
    later one, read: (coefficients as bytes, their little-endian int, the field
    they passed), and payload_field: the field the payload's symbols passed."""

    __slots__ = ("generation_id", "coefficients", "payload", "products", "read", "payload_field")

    def __init__(self, generation_id, coefficients, payload, products=None):
        self.generation_id = generation_id
        self.coefficients = coefficients  # one per generation packet, generation-local order
        self.payload = payload  # None for abstract (rank-only) packets
        # column j -> (source array, c_j * source) as made for it; None unless from encode
        self.products = products
        self.read = self.payload_field = None


def random_coefficients(n, rng, field: Field = GF256) -> np.ndarray:
    """n coding coefficients drawn i.i.d. uniform over the field, zero included."""
    return rng.integers(0, field.q, size=n, dtype=np.uint8)


def encode(generation_payloads, coefficients, field: Field = GF256, generation_id=0) -> CodedPacket:
    """Combine a nonempty generation's payloads with the given coefficients, one each."""
    n = len(generation_payloads)
    coeffs = np.asarray(coefficients, dtype=np.uint8)
    if not 0 < n == len(coeffs):
        raise ValueError(f"cannot encode {n} payloads with {len(coeffs)} coefficients")
    lengths = {len(p) for p in generation_payloads}
    if len(lengths) != 1:
        raise ValueError(f"payload lengths differ within the generation: {sorted(lengths)}")
    payload = np.zeros(lengths.pop(), dtype=np.uint8)
    products = {}
    for j, (c, src) in enumerate(zip(coeffs.tolist(), generation_payloads)):
        if c:
            src = np.asarray(src, dtype=np.uint8)
            products[j] = src, field.mul_vec(c, src)
            payload ^= products[j][1]
    return CodedPacket(generation_id, coeffs, payload, products)


def random_payloads(count, length, rng, field: Field = GF256):
    """count uniform source payloads of length symbols, one a byte: the rows of
    one draw, each padded to whole 4-byte words and cut to length, which takes
    the same bytes from rng as one draw of length per payload."""
    # integers fills uint8 from 32-bit draws, 4 bytes each; a negative length stays negative
    words = -(-length // 4) * 4 or length
    return list(rng.integers(0, field.q, size=(count, words), dtype=np.uint8)[:, :length])


def _symbols(payload, field):
    """payload as a uint8 array (itself if it is one), or None if a value is no
    symbol of field.  mul_vec's rule: cast, then compare back, so a wider
    integer array's 256 or -1 is refused, not wrapped."""
    x = np.asarray(payload)
    u8 = x.astype(np.uint8, copy=False)
    return None if u8 is not x and (u8 != x).any() or field.outside(u8.tobytes()) else u8


def _checked_payloads(known_payloads, ids, field):
    """known_payloads' payloads of ids as uint8 arrays by id (None stays None);
    a symbol outside field is a ValueError."""
    if known_payloads is None:
        return None
    known = {pid: _symbols(known_payloads[pid], field) for pid in ids if pid in known_payloads}
    if bad := [pid for pid, x in known.items() if x is None]:
        raise ValueError(f"known payloads of packets {bad} hold symbols outside GF({field.q})")
    return known


class DecoderState:
    """Per (receiver, generation) incremental Gaussian elimination.

    generation_ids fixes the generation-local coefficient order; wanted_ids
    are the packets this receiver still needs from it (both pass
    sfm.check_generation_ids); known_payloads maps packet ids, at least the
    generation's other ones, to the payloads held ({} if none; a missing one,
    lengths that differ or a symbol outside the field is a ValueError), or is
    None for rank-only decoding.  Unknown column j (in generation order) owns
    _basis[j], the stored row with pivot j, or None: bytes over the
    generation's columns, zero before j and at every held column, 1 at j.
    """

    __slots__ = ("generation_id", "generation_ids", "field", "needed", "_unknowns",
                 "_mask", "_basis", "_payloads", "_held", "_length")

    def __init__(self, generation_id, generation_ids, wanted_ids, field: Field = GF256,
                 known_payloads=None):
        ids = check_generation_ids(generation_ids)
        wanted = set(check_generation_ids(wanted_ids))
        if outside := sorted(wanted.difference(ids)):
            raise ValueError(f"wanted ids not in generation: {outside}")
        flags = bytes(255 if pid in wanted else 0 for pid in ids)
        known = _checked_payloads(known_payloads, ids, field)
        self._setup(generation_id, ids, flags, len(wanted), field, known)

    @classmethod
    def for_generation(cls, generation_id, generation_ids, want_rows, field: Field = GF256,
                       known_payloads=None):
        """{receiver: DecoderState} for each receiver of want_rows (receiver ->
        want flags: a byte per id in generation order, 255 if wanted, 0 if held)
        that wants an id, checked once for all; known_payloads serves all."""
        ids = check_generation_ids(generation_ids)
        known = _checked_payloads(known_payloads, ids, field)
        states = {}
        for r, flags in want_rows.items():
            if needed := flags.count(255):
                state = states[r] = cls.__new__(cls)
                state._setup(generation_id, ids, flags, needed, field, known)
        return states

    def _setup(self, generation_id, ids, flags, needed, field, known):
        """The state of checked ids wanting the needed columns flagged 255,
        holding the checked payloads known."""
        self.generation_id = generation_id
        self.generation_ids = ids
        self.field = field
        self.needed = self._unknowns = needed
        self._mask = int.from_bytes(flags, "little")  # byte j is 255 iff column j is unknown
        self._basis = [None] * len(ids)
        # each stored row's payload, each held packet's (column, payload) and the one
        # payload length (the held payloads', else the first packet's); None if rank-only
        self._payloads = self._held = self._length = None
        if known is not None:
            held = [(j, pid) for j, (pid, flag) in enumerate(zip(ids, flags)) if not flag]
            if missing := [pid for _, pid in held if pid not in known]:
                raise ValueError(f"known payloads missing for packets {missing}")
            self._held = [(j, known[pid]) for j, pid in held]
            if len(lengths := {len(x) for _, x in self._held}) > 1:
                raise ValueError(f"held payload lengths differ: {sorted(lengths)}")
            self._length = lengths.pop() if lengths else None
            self._payloads = [None] * len(ids)

    @property
    def unknown_ids(self):
        flags = self._mask.to_bytes(len(self._basis), "little")
        return tuple(pid for pid, flag in zip(self.generation_ids, flags) if flag)

    @property
    def rank(self):
        return self._unknowns - self.needed

    @property
    def decoded(self):
        return self.needed == 0

    def absorb(self, pkt: CodedPacket) -> bool:
        """Fold a coded packet in (a rank-only state ignores its payload); True
        iff the rank increased.  A packet of another generation, of the wrong
        length, with a coefficient outside the field or, to a payload state,
        without a payload, with a payload symbol outside the field or with a
        payload of another length is a ValueError, also for a state that needs
        nothing.  Reuses a packet's accepted read and payload check."""
        if pkt.generation_id != self.generation_id:
            raise ValueError(f"packet for generation {pkt.generation_id}, state holds "
                             f"{self.generation_id}")
        if (read := pkt.read) is None:  # not yet read by an absorb that accepted it
            coeffs = pkt.coefficients
            coeffs = coeffs.tobytes() if coeffs.dtype.char == "B" else bytes(coeffs.tolist())
            read = coeffs, int.from_bytes(coeffs, "little"), None
        coeffs, whole, checked = read
        if len(coeffs) != len(self.generation_ids):
            raise ValueError(f"coefficient vector length {len(coeffs)} != generation size "
                             f"{len(self.generation_ids)}")
        field, tables = self.field, self.field.translate_rows
        if checked is not field:
            if field.outside(coeffs):
                raise ValueError(f"coefficients outside GF({field.q}): {list(coeffs)}")
            pkt.read = coeffs, whole, field  # for every later absorb
        if (held := self._held) is not None:
            if pkt.payload is None:
                raise ValueError("a state decoding payloads needs a packet with a payload")
            if pkt.payload_field is not field:  # not yet checked in this field
                if _symbols(pkt.payload, field) is None:
                    raise ValueError(f"payload symbols outside GF({field.q})")
                pkt.payload_field = field  # for every later absorb
            if self._length is None:
                self._length = len(pkt.payload)
            elif len(pkt.payload) != self._length:
                raise ValueError(f"payload length {len(pkt.payload)} != the decoder's payload "
                                 f"length {self._length}")
        if not self.needed:  # checked like any packet, but nothing left to gain
            return False
        vec = whole & self._mask

        residual = None
        if held is not None:
            residual = np.asarray(pkt.payload, dtype=np.uint8).copy()
            records = pkt.products or {}
            for j, src in held:
                if c := coeffs[j]:
                    made = records.get(j)
                    residual ^= made[1] if made and made[0] is src else field.mul_vec(c, src)

        basis = self._basis
        for _ in basis:  # each step clears its pivot, so the pivots climb: one step a column
            if not vec:
                return False  # linearly dependent
            pivot = ((vec & -vec).bit_length() - 1) >> 3  # the lowest nonzero column
            f = vec >> 8 * pivot & 255
            row = basis[pivot]
            if row is None:
                break
            vec ^= int.from_bytes(row.translate(tables[f]), "little")
            if residual is not None:
                residual ^= field.mul_vec(f, self._payloads[pivot])
        else:
            raise RuntimeError(f"elimination did not end in generation {self.generation_id}")

        fi = field.inverse[f]
        basis[pivot] = vec.to_bytes(len(coeffs), "little").translate(tables[fi])
        if residual is not None:
            self._payloads[pivot] = residual if fi == 1 else field.mul_vec(fi, residual)
        self.needed -= 1
        return True

    def solve(self):
        """Recovered payloads keyed by packet id; requires full rank.

        Back-substitutes through the echelon basis from the last pivot up.
        """
        if self._payloads is None and self._unknowns:
            raise RuntimeError("state was built without payloads; nothing to solve")
        if self.needed:
            raise RuntimeError(f"cannot solve at rank {self.rank} with {self._unknowns} unknowns")
        cols = [j for j, flag in enumerate(self._mask.to_bytes(len(self._basis), "little")) if flag]
        sol = list(self._payloads or ())  # empty when rank-only, with no unknowns
        # sol starts as the stored rows' payloads: never update in place
        for i, j in reversed(list(enumerate(cols))):
            row = self._basis[j]
            for c in cols[i + 1:]:
                if row[c]:
                    sol[j] = sol[j] ^ self.field.mul_vec(row[c], sol[c])
        return {self.generation_ids[j]: sol[j] for j in cols}
