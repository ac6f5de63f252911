"""Random linear coding within a generation, and incremental decoding.

random_coefficients draws coefficients i.i.d. uniform over the field, zero
included; encode combines a generation's payloads into a CodedPacket,
recording by column the products c_j * x_j it summed (a rank-only packet is
built directly as CodedPacket(m, coefficients, None)).  DecoderState is one
receiver's decoder for one generation, built from its wanted ids (a trial's
all at once by for_partition, from its SFM and Partition): it decodes payloads
iff built with known_payloads, else tracks rank only, along the same ranks.
absorb reduces the unknown coefficients as one int, byte j for column j: each
step clears the lowest nonzero byte's column by XORing in its row times that
byte (one bytes.translate), so there is at most one step a column.  A packet
is read when it is made, its coefficients by GF256.symbols; absorb checks on
every call what depends on its decoder, and writes nothing on the packet.  It
reuses a recorded product only if made from the very array held, else makes
its own; only encode writes the record.
"""

from __future__ import annotations

import numpy as np

from .galois import GF256, Field
from .sfm import check_generation_ids, check_same_k

__all__ = ["CodedPacket", "DecoderState", "encode", "random_coefficients", "random_payloads"]


class CodedPacket:
    """A coded packet, equal only to itself.  Its coefficients are read when it is
    made, by GF256.symbols, into row: their bytes and their little-endian int."""

    __slots__ = ("generation_id", "coefficients", "payload", "products", "row")

    def __init__(self, generation_id, coefficients, payload, products=None):
        self.generation_id = generation_id
        self.coefficients = GF256.symbols(coefficients)  # uint8, generation-local order
        self.payload = payload  # None for abstract (rank-only) packets
        # column j -> (source array, c_j * source) as made for it; None unless from encode
        self.products = products
        data = self.coefficients.tobytes()
        self.row = data, int.from_bytes(data, "little")


def random_coefficients(n, rng, field: Field = GF256) -> np.ndarray:
    """n coding coefficients drawn i.i.d. uniform over the field, zero included."""
    return rng.integers(0, field.q, size=n, dtype=np.uint8)


def encode(generation_payloads, coefficients, field: Field = GF256, generation_id=0) -> CodedPacket:
    """Combine a nonempty generation's payloads with the given coefficients, one
    each, both read by field.symbols."""
    n = len(generation_payloads)
    coeffs = field.symbols(coefficients)
    if not 0 < n == len(coeffs):
        raise ValueError(f"cannot encode {n} payloads with {len(coeffs)} coefficients")
    sources = [field.symbols(p) for p in generation_payloads]
    lengths = {len(p) for p in sources}
    if len(lengths) != 1:
        raise ValueError(f"payload lengths differ within the generation: {sorted(lengths)}")
    payload = np.zeros(lengths.pop(), dtype=np.uint8)
    products = {}
    for j, (c, src) in enumerate(zip(coeffs.tolist(), sources)):
        if c:
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


def _checked_payloads(known_payloads, ids, field):
    """known_payloads' payloads of ids by id, read by field.symbols."""
    if known_payloads is None:
        return None
    known, bad = {}, []
    for pid in filter(known_payloads.__contains__, ids):
        try:
            known[pid] = field.symbols(known_payloads[pid])
        except ValueError:
            bad.append(pid)
    if bad:
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
        row = bytes(pid in wanted for pid in ids)
        known = _checked_payloads(known_payloads, ids, field)
        self._setup(generation_id, ids, row, len(wanted), field, known)

    @classmethod
    def for_partition(cls, sfm, partition, field: Field = GF256, known_payloads=None):
        """One {receiver: DecoderState} per generation of partition, in its order,
        for every receiver of sfm that wants a packet of the generation; a
        partition of another K is a ValueError, and known_payloads serves all."""
        check_same_k(sfm, partition)
        known = _checked_payloads(known_payloads, range(sfm.n_packets), field)
        # each receiver's K 0/1 wants in partition order; a Partition's ids are checked
        flags = sfm.wants[:, [pid for ids in partition.generations for pid in ids]].tobytes()
        size, decoders, stop = sfm.n_packets, [], 0
        for m, ids in enumerate(partition.generations):
            start, stop = stop, stop + len(ids)
            decoders.append(states := {})
            for r in range(sfm.n_receivers):
                row = flags[r * size + start:r * size + stop]
                if needed := row.count(1):
                    state = states[r] = cls.__new__(cls)
                    state._setup(m, ids, row, needed, field, known)
        return decoders

    def _setup(self, generation_id, ids, row, needed, field, known):
        """The state of checked ids wanting the needed columns, 1 in row (0/1
        bytes, so times 255 none carries), holding the checked payloads known."""
        self.generation_id = generation_id
        self.generation_ids = ids
        self.field = field
        self.needed = self._unknowns = needed
        self._mask = int.from_bytes(row, "little") * 255  # byte j is 255 iff column j is unknown
        self._basis = [None] * len(ids)
        # each stored row's payload, each held packet's (column, payload) and the one
        # payload length (the held payloads', else the first packet's); None if rank-only
        self._payloads = self._held = self._length = None
        if known is not None:
            held = [(j, pid) for j, (pid, want) in enumerate(zip(ids, row)) if not want]
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
        nothing.  The same checks run on every call, and nothing is set on pkt."""
        if pkt.generation_id != self.generation_id:
            raise ValueError(f"packet for generation {pkt.generation_id}, state holds "
                             f"{self.generation_id}")
        coeffs, whole = pkt.row  # read by GF(256)'s rule when the packet was made
        if len(coeffs) != len(self.generation_ids):
            raise ValueError(f"coefficient vector length {len(coeffs)} != generation size "
                             f"{len(self.generation_ids)}")
        field, tables = self.field, self.field.translate_rows
        if field.q < 256 and field.outside(coeffs):
            raise ValueError(f"coefficients outside GF({field.q}): {list(coeffs)}")
        if (held := self._held) is not None:
            if pkt.payload is None:
                raise ValueError("a state decoding payloads needs a packet with a payload")
            try:
                payload = field.symbols(pkt.payload)
            except ValueError:
                raise ValueError(f"payload symbols outside GF({field.q})") from None
            if self._length is None:
                self._length = len(payload)
            elif len(payload) != self._length:
                raise ValueError(f"payload length {len(payload)} != the decoder's payload "
                                 f"length {self._length}")
        if not self.needed:  # checked like any packet, but nothing left to gain
            return False
        vec = whole & self._mask

        residual = None
        if held is not None:
            residual = payload.copy()
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
