"""Random linear coding within a generation, and incremental decoding.

Offers random_coefficients (i.i.d. uniform over the field, zero included),
random_payloads, encode (the one function that builds a CodedPacket: the
coefficients it is given plus the matching combination of the generation's
payloads, recording by column the products c_j * x_j it summed) and
DecoderState, one receiver's decoder for one generation.

A DecoderState knows from construction which packets its receiver wants and
whether it decodes payloads: it does iff built with known_payloads, the
payloads it holds of the rest (a missing one is a ValueError there), and then
refuses a packet without one; else it tracks rank only, along the payload
path's rank trajectory (both depend only on the coefficients).  absorb(pkt)
returns True iff the packet raised the rank, needed counts the innovative
packets still missing, and solve() returns the wanted payloads at full rank.
absorb reduces the unknown coefficients as one int, byte j for column j: each
step XORs in the row pivoted on the lowest nonzero byte, times that byte by
one bytes.translate.  It reuses a packet's recorded product only if made from
the very array held, else makes its own; only encode writes the record.
for_generation builds many receivers' decoders equal to building each alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .galois import GF256, Field
from .sfm import check_generation_ids

__all__ = ["CodedPacket", "DecoderState", "encode", "random_coefficients", "random_payloads"]


@dataclass(frozen=True)
class CodedPacket:
    generation_id: int
    coefficients: np.ndarray  # one per generation packet, generation-local order
    payload: np.ndarray | None  # None for abstract (rank-only) packets
    # column j -> (source array, c_j * source) as made for it; None unless from encode
    products: dict | None = dc_field(default=None, compare=False, repr=False)


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
    """Uniform source payloads (field elements stored one per byte)."""
    return [rng.integers(0, field.q, size=length, dtype=np.uint8) for _ in range(count)]


class DecoderState:
    """Per (receiver, generation) incremental Gaussian elimination.

    generation_ids fixes the generation-local coefficient order; wanted_ids
    are the packets this receiver still needs from it (both pass
    sfm.check_generation_ids); known_payloads maps packet ids, at least the
    generation's other ones, to the payloads held ({} if none), or is None
    for rank-only decoding.  Unknown column j (in generation order) owns
    _basis[j], the stored row with pivot j, or None: bytes over the
    generation's columns, zero before j and at every held column, 1 at j.
    """

    __slots__ = ("generation_id", "generation_ids", "unknown_ids", "field", "needed",
                 "_unknown_cols", "_mask", "_basis", "_payloads", "_held")

    def __init__(self, generation_id, generation_ids, wanted_ids, field: Field = GF256,
                 known_payloads=None):
        ids = check_generation_ids(generation_ids)
        wanted = set(check_generation_ids(wanted_ids))
        if outside := sorted(wanted.difference(ids)):
            raise ValueError(f"wanted ids not in generation: {outside}")
        unknowns = [c for c in enumerate(ids) if c[1] in wanted]
        self._setup(generation_id, ids, unknowns, field, known_payloads)

    @classmethod
    def for_generation(cls, generation_id, generation_ids, want_rows, field: Field = GF256,
                       known_payloads=None):
        """{receiver: DecoderState} for each receiver of want_rows (receiver ->
        0/1 row by packet id) that wants one of the ids, checked once for all;
        known_payloads serves every receiver."""
        ids = check_generation_ids(generation_ids)
        columns = list(enumerate(ids))  # (column, id) pairs
        states = {}
        for r, row in want_rows.items():
            unknowns = [c for c in columns if row[c[1]]]
            if unknowns:
                state = states[r] = cls.__new__(cls)
                state._setup(generation_id, ids, unknowns, field, known_payloads)
        return states

    def _setup(self, generation_id, ids, unknowns, field, known_payloads):
        """The state of checked ids that solves for the (column, id) pairs
        unknowns, given in column order."""
        self.generation_id = generation_id
        self.generation_ids = ids
        self._unknown_cols, self.unknown_ids = zip(*unknowns) if unknowns else ((), ())
        self.field = field
        self.needed = len(unknowns)
        self._mask = sum(255 << 8 * j for j in self._unknown_cols)  # the unknown columns' bytes
        self._basis = [None] * len(ids)
        # the payload of each stored row and the (column, payload) of each
        # held packet; None when decoding rank-only
        self._payloads = self._held = None
        if known_payloads is not None:
            held = [(j, pid) for j, pid in enumerate(ids) if pid not in self.unknown_ids]
            if missing := [pid for _, pid in held if pid not in known_payloads]:
                raise ValueError(f"known payloads missing for packets {missing}")
            self._held = [(j, np.asarray(known_payloads[pid], np.uint8)) for j, pid in held]
            self._payloads = [None] * len(ids)

    @property
    def rank(self):
        return len(self.unknown_ids) - self.needed

    @property
    def decoded(self):
        return self.needed == 0

    def absorb(self, pkt: CodedPacket) -> bool:
        """Fold a coded packet in (a rank-only state ignores its payload); True
        iff the rank increased.  A packet of another generation, of the wrong
        length, with a coefficient outside the field or, to a payload state,
        without a payload is a ValueError, also for a state that needs nothing."""
        if pkt.generation_id != self.generation_id:
            raise ValueError(
                f"packet for generation {pkt.generation_id}, state holds {self.generation_id}"
            )
        coeffs = pkt.coefficients
        coeffs = coeffs.tobytes() if coeffs.dtype == np.uint8 else bytes(coeffs.tolist())
        if len(coeffs) != len(self.generation_ids):
            raise ValueError(
                f"coefficient vector length {len(coeffs)} != generation size "
                f"{len(self.generation_ids)}"
            )
        field, tables = self.field, self.field.translate_rows
        if coeffs.translate(tables[1]) != coeffs:  # times 1, a byte outside the field is 0
            raise ValueError(f"coefficients outside GF({field.q}): {list(coeffs)}")
        if (held := self._held) is not None and pkt.payload is None:
            raise ValueError("a state decoding payloads needs a packet with a payload")
        if not self.needed:  # checked like any packet, but nothing left to gain
            return False
        vec = int.from_bytes(coeffs, "little") & self._mask

        residual = None
        if held is not None:
            residual = np.asarray(pkt.payload, dtype=np.uint8).copy()
            records = pkt.products or {}
            for j, src in held:
                if c := coeffs[j]:
                    made = records.get(j)
                    residual ^= made[1] if made and made[0] is src else field.mul_vec(c, src)

        basis = self._basis
        while vec:
            pivot = ((vec & -vec).bit_length() - 1) >> 3  # the lowest nonzero column
            f = vec >> 8 * pivot & 255
            row = basis[pivot]
            if row is None:
                break
            vec ^= int.from_bytes(row.translate(tables[f]), "little")
            if residual is not None:
                residual ^= field.mul_vec(f, self._payloads[pivot])
        else:
            return False  # linearly dependent

        fi = field.inv(f)
        basis[pivot] = vec.to_bytes(len(coeffs), "little").translate(tables[fi])
        if residual is not None:
            self._payloads[pivot] = residual if fi == 1 else field.mul_vec(fi, residual)
        self.needed -= 1
        return True

    def solve(self):
        """Recovered payloads keyed by packet id; requires full rank.

        Back-substitutes through the echelon basis from the last pivot up.
        """
        if self._payloads is None and self.unknown_ids:
            raise RuntimeError("state was built without payloads; nothing to solve")
        if self.needed:
            raise RuntimeError(
                f"cannot solve at rank {self.rank} with {len(self.unknown_ids)} unknowns"
            )
        cols = self._unknown_cols
        sol = list(self._payloads or ())  # empty when rank-only, with no unknowns
        # sol starts as the stored rows' payloads: never update in place
        for i, j in reversed(list(enumerate(cols))):
            row = self._basis[j]
            for c in cols[i + 1:]:
                if row[c]:
                    sol[j] = sol[j] ^ self.field.mul_vec(row[c], sol[c])
        return {pid: sol[j] for j, pid in zip(cols, self.unknown_ids)}
