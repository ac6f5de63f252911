"""Random linear coding within a generation, and incremental decoding.

A CodedPacket says what it codes, its generation's packet ids in coefficient
order and its field, and is read once, when it is made.  random_coefficients
draws coefficients i.i.d. uniform over the field, zero included; encode
combines the payloads of a generation's ids, recording by column the products
c_j * x_j it summed, which only it writes.  DecoderState is one receiver's
decoder for one generation (a trial's all at once by for_partition): it decodes
payloads iff built with known_payloads, else tracks rank only, along the same
ranks.  absorb takes packets of its field's order and its very ids and reduces
their coefficients as one int, byte j for column j: a step clears the lowest
nonzero byte's column by XORing in its row times that byte (one translate), so
there is at most one step a column.  It sets nothing on the packet.
"""

from __future__ import annotations

import numpy as np

from .galois import GF256, Field
from .sfm import check_generation_ids, check_same_k

__all__ = ["CodedPacket", "DecoderState", "encode", "random_coefficients", "random_payloads"]


class CodedPacket:
    """A coded packet, equal only to itself.  Its coefficients, one an id, and its
    payload (None if rank-only) are read by field.symbols when it is made; the
    payload is held read-only, a caller's writable array copied.  It pickles
    through this constructor, its field as the shared one and without products."""

    __slots__ = ("generation_ids", "field", "coefficients", "payload", "products", "row")

    def __init__(self, generation_ids, coefficients, payload, field: Field = GF256,
                 products=None):
        self.generation_ids = ids = tuple(generation_ids)
        self.field = field
        self.coefficients = field.symbols(coefficients)  # uint8, in ids order
        if len(self.coefficients) != len(ids):
            raise ValueError(f"{len(self.coefficients)} coefficients for packets {ids}")
        if payload is not None and (read := field.symbols(payload)).flags.writeable:
            payload = read.copy() if read is payload else read  # symbols' own arrays are new
            payload.setflags(write=False)
        self.payload = payload
        # column j -> (source array, c_j * source) as made for it; None unless from encode
        self.products = products
        data = self.coefficients.tobytes()
        self.row = data, int.from_bytes(data, "little")

    def __reduce__(self):  # products name the sender's own arrays, so they stay behind
        return CodedPacket, (self.generation_ids, self.coefficients, self.payload, self.field)


def random_coefficients(n, rng, field: Field = GF256) -> np.ndarray:
    """n coding coefficients drawn i.i.d. uniform over the field, zero included."""
    return rng.integers(0, field.q, size=n, dtype=np.uint8)


def encode(payloads, generation_ids, coefficients, field: Field = GF256) -> CodedPacket:
    """The packet of the coefficients, one an id, times payloads[pid] over a nonempty
    generation's ids, in order; payloads maps ids to payloads, all read by symbols."""
    ids = tuple(generation_ids)
    coeffs = field.symbols(coefficients)
    try:
        sources = [field.symbols(payloads[pid]) for pid in ids]
    except KeyError:
        missing = [pid for pid in ids if pid not in payloads]
        raise ValueError(f"no payloads for packets {missing} of {ids}") from None
    if len(lengths := {len(p) for p in sources}) != 1:
        raise ValueError(f"cannot encode packets {ids} of payload lengths {sorted(lengths)}")
    payload = np.zeros(lengths.pop(), dtype=np.uint8)
    products = {}
    for j, (c, src) in enumerate(zip(coeffs.tolist(), sources)):
        if c:
            products[j] = src, field.mul_vec(c, src)
            payload ^= products[j][1]
    payload.setflags(write=False)  # the packet holds it as is
    return CodedPacket(ids, coeffs, payload, field, products)


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

    __slots__ = ("generation_ids", "field", "needed", "_unknowns",
                 "_mask", "_basis", "_payloads", "_held", "_length")

    def __init__(self, generation_ids, wanted_ids, field: Field = GF256, known_payloads=None):
        ids = check_generation_ids(generation_ids)
        wanted = set(check_generation_ids(wanted_ids))
        if outside := sorted(wanted.difference(ids)):
            raise ValueError(f"wanted ids not in generation: {outside}")
        row = bytes(pid in wanted for pid in ids)
        known = _checked_payloads(known_payloads, ids, field)
        self._setup(ids, row, len(wanted), field, known)

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
        for ids in map(tuple, partition.generations):
            start, stop = stop, stop + len(ids)
            decoders.append(states := {})
            for r in range(sfm.n_receivers):
                row = flags[r * size + start:r * size + stop]
                if needed := row.count(1):
                    state = states[r] = cls.__new__(cls)
                    state._setup(ids, row, needed, field, known)
        return decoders

    def _setup(self, ids, row, needed, field, known):
        """The state of checked ids wanting the needed columns, 1 in row (0/1
        bytes, so times 255 none carries), holding the checked payloads known."""
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
        iff the rank increased.  Only what depends on this decoder is checked: a
        packet over a field of another order, of other ids or order or, to a
        payload state, without a payload or of another payload length is a
        ValueError before anything changes, also for a state that needs nothing."""
        field, tables = self.field, self.field.translate_rows
        if pkt.field.q != field.q or pkt.generation_ids != self.generation_ids:
            raise ValueError(f"a packet of {pkt.generation_ids} over GF({pkt.field.q}) does not "
                             f"fit a decoder of {self.generation_ids} over GF({field.q})")
        coeffs, whole = pkt.row
        if (held := self._held) is not None:
            if (payload := pkt.payload) is None:
                raise ValueError("a state decoding payloads needs a packet with a payload")
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
            raise RuntimeError(f"elimination did not end in generation {self.generation_ids}")

        fi = field.inverse[f]
        basis[pivot] = vec.to_bytes(len(coeffs), "little").translate(tables[fi])
        if residual is not None:
            self._payloads[pivot] = stored = residual if fi == 1 else field.mul_vec(fi, residual)
            stored.setflags(write=False)  # solve may hand it back
        self.needed -= 1
        return True

    def solve(self):
        """Recovered payloads keyed by packet id; requires full rank.

        Back-substitutes through the echelon basis from the last pivot up.  A
        solution may be a stored row's payload, which is read-only: a write into
        one raises or reaches a new array, never a later solve.
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
