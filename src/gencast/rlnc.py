"""Random linear coding within a generation, and incremental decoding.

Offers random_coefficients (i.i.d. uniform over the field, zero included),
random_payloads, encode (the one function that builds a CodedPacket: the
coefficients it is given plus the matching combination of the generation's
payloads, recording by column the products c_j * x_j it summed) and
DecoderState, one receiver's decoder for one generation.

A DecoderState knows from construction which packets its receiver wants and,
to decode payloads, the payloads it holds of the rest; a missing one is a
ValueError there.  absorb(pkt) returns True iff the packet raised the rank,
needed counts the innovative packets still missing, and solve() returns the
wanted payloads once needed is 0.  absorb cancels a held payload with the
packet's product only if that was made from the very array held, else makes
and records it.  A state without the held payloads, or fed packets with
payload=None, tracks rank only; its rank trajectory equals the payload
path's, as both depend only on the coefficients.  for_generation builds
many receivers' decoders equal to building each alone, checking ids once.
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
    generation's other ones, to the payloads held, or is None for rank-only
    decoding.  Unknown j (in generation order) owns _basis[j], the stored row
    with pivot column j, or None; a stored row is zero before its pivot and 1
    at it.
    """

    __slots__ = ("generation_id", "generation_ids", "unknown_ids", "field", "needed",
                 "_unknown_cols", "_basis", "_payloads", "_held")

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
        self._basis = [None] * self.needed  # coefficient rows (lists of ints)
        # the payload of each stored row and the (column, payload) of each
        # held packet; None when decoding rank-only
        self._payloads = self._held = None
        if known_payloads is not None or self.needed == len(ids):
            held = [(j, pid) for j, pid in enumerate(ids) if pid not in self.unknown_ids]
            if missing := [pid for _, pid in held if pid not in known_payloads]:
                raise ValueError(f"known payloads missing for packets {missing}")
            self._held = [(j, np.asarray(known_payloads[pid], np.uint8)) for j, pid in held]
            self._payloads = [None] * self.needed

    @property
    def rank(self):
        return len(self._basis) - self.needed

    @property
    def decoded(self):
        return self.needed == 0

    def absorb(self, pkt: CodedPacket) -> bool:
        """Fold a coded packet in (a rank-only state ignores its payload);
        True iff the rank increased."""
        if pkt.generation_id != self.generation_id:
            raise ValueError(
                f"packet for generation {pkt.generation_id}, state holds {self.generation_id}"
            )
        if not self.needed:
            return False
        coeffs = pkt.coefficients.tolist()
        if len(coeffs) != len(self.generation_ids):
            raise ValueError(
                f"coefficient vector length {len(coeffs)} != generation size "
                f"{len(self.generation_ids)}"
            )
        field = self.field
        vec = [coeffs[j] for j in self._unknown_cols]

        residual = None
        if pkt.payload is not None and self._held is not None:
            residual = np.asarray(pkt.payload, dtype=np.uint8).copy()
            memo = {} if pkt.products is None else pkt.products
            for j, src in self._held:
                if coeffs[j]:
                    if (made := memo.get(j)) is None or made[0] is not src:
                        made = memo[j] = src, field.mul_vec(coeffs[j], src)
                    residual ^= made[1]

        rows = field.mul_rows
        # column order; vec is reduced in place, so each column is read after
        # the eliminations of the columns before it
        for pivot, f in enumerate(vec):
            if not f:
                continue
            row = self._basis[pivot]
            if row is None:
                break  # the first nonzero column without a stored row
            fr = rows[f]
            vec[pivot:] = [v ^ fr[r] for v, r in zip(vec[pivot:], row[pivot:])]
            if residual is not None and self._payloads[pivot] is not None:
                residual ^= field.mul_vec(f, self._payloads[pivot])
        else:
            return False  # linearly dependent

        fi = field.inv(vec[pivot])
        if fi != 1:
            fr = rows[fi]
            vec[pivot:] = [fr[v] for v in vec[pivot:]]
            if residual is not None:
                residual = field.mul_vec(fi, residual)
        self._basis[pivot] = vec
        if residual is not None:
            self._payloads[pivot] = residual
        self.needed -= 1
        return True

    def solve(self):
        """Recovered payloads keyed by packet id; requires full rank.

        Back-substitutes through the echelon basis from the last pivot up.
        """
        if self.needed:
            raise RuntimeError(
                f"cannot solve at rank {self.rank} with {len(self.unknown_ids)} unknowns"
            )
        sol = list(self._payloads or [None] * len(self._basis))
        if any(prow is None for prow in sol):
            raise RuntimeError("state was advanced without payloads; nothing to solve")
        # sol starts as the stored rows: never update in place
        for j in reversed(range(len(sol))):
            row = self._basis[j]
            for c in range(j + 1, len(sol)):
                if row[c]:
                    sol[j] = sol[j] ^ self.field.mul_vec(row[c], sol[c])
        return dict(zip(self.unknown_ids, sol))
