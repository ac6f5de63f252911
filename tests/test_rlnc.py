import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencast.galois import GF16, GF256, Field
from gencast.rlnc import CodedPacket, DecoderState, encode, random_coefficients, random_payloads
from gencast.sfm import Partition, StateFeedbackMatrix

# pinned output of encode() under seed 2024 (generation of 4 packets,
# 16-byte payloads), independently checked against a shift-and-reduce
# GF(256) multiply when first generated
GOLDEN_SEED = 2024
GOLDEN_PAYLOADS = [
    "e8cad43d564803add9d0a317a4e2dd36",
    "e1605151903f384fe43b9fe863cfa9cc",
    "72a553eae7e2ecfe08ec1a14e34d6924",
    "67a630de485b2714462e7e2a2e784a2e",
]
GOLDEN_COEFFS = "c4e2efe9"
GOLDEN_CODED = "caee313dfc0a9f90e82224fb40fb6d5d"


class TestEncode:
    def test_single_packet_scaling(self):
        src = np.arange(16, dtype=np.uint8)
        rng = np.random.default_rng(5)
        pkt = encode({0: src}, [0], random_coefficients(1, rng))
        c = int(pkt.coefficients[0])
        assert list(pkt.payload) == [GF256.mul(c, int(v)) for v in src]

    def test_zero_coefficient_draw_gives_zero_payload(self):
        # force the all-zero draw by exhausting seeds until one appears
        src = {0: np.ones(4, dtype=np.uint8)}
        for seed in range(5000):
            rng = np.random.default_rng(seed)
            pkt = encode(src, [0], random_coefficients(1, rng, GF16), GF16)
            if int(pkt.coefficients[0]) == 0:
                assert not pkt.payload.any()
                break
        else:
            pytest.fail("no zero coefficient draw found")

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_all_zero_coefficients_give_a_read_only_zero_payload(self, field):
        # no product is made, so the payload is a zero array of the sources'
        # length (not the generation's), held read-only as any encoded payload
        payloads = dict(enumerate(random_payloads(3, 5, np.random.default_rng(1), field)))
        pkt = encode(payloads, [0, 1, 2], np.zeros(3, np.uint8), field)
        assert pkt.payload.tolist() == [0] * 5 and pkt.payload.dtype == np.uint8
        assert not pkt.payload.flags.writeable
        assert pkt.products == {}

    def test_golden_packet(self):
        rng = np.random.default_rng(GOLDEN_SEED)
        payloads = random_payloads(4, 16, rng, GF256)
        assert [bytes(p).hex() for p in payloads] == GOLDEN_PAYLOADS
        pkt = encode(dict(zip(range(7, 11), payloads)), range(7, 11),
                     random_coefficients(4, rng, GF256), GF256)
        assert bytes(pkt.coefficients).hex() == GOLDEN_COEFFS
        assert bytes(pkt.payload).hex() == GOLDEN_CODED
        assert (pkt.generation_ids, pkt.field) == ((7, 8, 9, 10), GF256)

    def test_values_outside_the_field_are_refused_not_wrapped(self):
        # encode reads coefficients and sources by field.symbols, as mul_vec and the
        # decoder read theirs: a value the uint8 cast changes (300 to 44, -1 to 255,
        # a source's 256 to 0) is refused, whatever its coefficient, as is a GF(16)
        # byte of 16 or more; in-range values of any integer type encode as bytes
        sources = {0: np.array([1, 2], np.uint8), 1: np.array([3, 4], np.uint8)}
        wide = {**sources, 0: np.array([256, 7])}
        for field in (GF16, GF256):
            refused = rf"^symbols outside GF\({field.q}\)$"
            for coeffs in (np.array([300, 1]), np.array([-1, 1]), [300, 1], [1.5, 1]):
                with pytest.raises(ValueError, match=refused):
                    encode(sources, [0, 1], coeffs, field)
            for coeffs in ([1, 1], [0, 1]):
                with pytest.raises(ValueError, match=refused):
                    encode(wide, [0, 1], coeffs, field)
            want = encode(sources, [0, 1], np.array([5, 9], np.uint8), field)
            got = encode({k: x.astype(np.int64) for k, x in sources.items()}, [0, 1], [5, 9],
                         field)
            assert got.payload.tolist() == want.payload.tolist()
            assert got.coefficients.dtype == np.uint8 and got.row == want.row
        for coeffs, payloads in (([16, 1], sources), ([0, 1], {**sources, 0: np.array([0, 16])})):
            with pytest.raises(ValueError, match=r"^symbols outside GF\(16\)$"):
                encode(payloads, [0, 1], np.array(coeffs, np.uint8), GF16)

    def test_empty_generation_rejected(self):
        with pytest.raises(ValueError, match=r"^cannot encode packets \(\) of payload lengths"):
            encode({}, [], np.zeros(0, np.uint8))

    def test_ragged_payloads_rejected(self):
        with pytest.raises(ValueError, match=r"^cannot encode packets \(0, 1\) of payload "
                                             r"lengths \[4, 5\]$"):
            encode({0: np.zeros(4, np.uint8), 1: np.zeros(5, np.uint8)}, [0, 1],
                   np.ones(2, np.uint8))

    def test_an_id_without_a_payload_is_refused(self):
        # each id is looked up in payloads; a missing one is named, never a KeyError
        payloads = {0: np.zeros(2, np.uint8), 2: np.zeros(2, np.uint8)}
        for ids, missing in (([0, 1], r"\[1\] of \(0, 1\)"),
                             ([3, 0, 5], r"\[3, 5\] of \(3, 0, 5\)")):
            with pytest.raises(ValueError, match=rf"^no payloads for packets {missing}$"):
                encode(payloads, ids, np.ones(len(ids), np.uint8))
        assert encode(payloads, [2, 0], [1, 1]).generation_ids == (2, 0)

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_random_payloads_equal_per_payload_draws(self, field):
        # one draw of padded rows gives the bytes of one draw per payload, for
        # every length (a whole number of 4-byte words or not), and leaves the
        # generator where the per-payload draws leave it
        for length in range(1, 41):
            for count in (0, 1, 3):
                rng, ref = np.random.default_rng(length), np.random.default_rng(length)
                got = random_payloads(count, length, rng, field)
                want = [ref.integers(0, field.q, size=length, dtype=np.uint8)
                        for _ in range(count)]
                assert [(p.dtype, p.tobytes()) for p in got] == \
                    [(p.dtype, p.tobytes()) for p in want]
                assert rng.bit_generator.state == ref.bit_generator.state
        for length in (-1, -4, -5):  # rounding up to whole words keeps a length negative
            with pytest.raises(ValueError):
                random_payloads(2, length, np.random.default_rng(0), field)


class TestAbsorb:
    def test_no_unknowns_is_decoded_noop(self):
        st = DecoderState([0, 1], [])
        assert st.decoded
        pkt = CodedPacket([0, 1], np.array([1, 1], np.uint8), None)
        assert st.absorb(pkt) is False
        assert st.rank == 0

    def test_duplicate_packet_useless(self):
        st = DecoderState([0, 1], [0, 1])
        pkt = CodedPacket([0, 1], np.array([1, 2], np.uint8), None)
        assert st.absorb(pkt) is True
        assert st.absorb(pkt) is False
        assert st.rank == 1

    def test_two_independent_rows_decode(self):
        st = DecoderState([0, 1], [0, 1])
        assert st.absorb(CodedPacket([0, 1], np.array([1, 0], np.uint8), None))
        assert st.absorb(CodedPacket([0, 1], np.array([1, 1], np.uint8), None))
        assert st.decoded

    def test_generation_mismatch(self):
        st = DecoderState([0], [0])
        with pytest.raises(ValueError, match=r"^a packet of \(1,\) over GF\(256\) does not fit "
                                             r"a decoder of \(0,\) over GF\(256\)$"):
            st.absorb(CodedPacket([1], np.array([1], np.uint8), None))

    def test_the_same_ids_in_another_order_are_refused(self):
        # a packet's coefficients follow its ids' order, so a reordered packet would
        # be read column by column against the wrong packets: it is refused unchanged
        payloads = {3: np.array([1, 2], np.uint8), 7: np.array([5, 6], np.uint8)}
        for known in (None, {}, {3: payloads[3]}):
            st = DecoderState([3, 7], [7] if known else [3, 7], known_payloads=known)
            before = st.rank, st.needed
            for pkt in (CodedPacket([7, 3], [1, 0], None if known is None else payloads[7]),
                        encode(payloads, [7, 3], [1, 2])):
                with pytest.raises(ValueError, match=r"of \(7, 3\) over GF\(256\) does not "
                                                     r"fit a decoder of \(3, 7\)"):
                    st.absorb(pkt)
                assert (st.rank, st.needed) == before
            assert st.absorb(encode(payloads, [3, 7], [1, 2]))

    @pytest.mark.parametrize("made, decoder", [(GF16, GF256), (GF256, GF16)],
                             ids=["GF16-to-GF256", "GF256-to-GF16"])
    def test_a_packet_of_another_field_is_refused(self, made, decoder):
        # two GF(16) packets of the sources [3, 7] and [5, 9] once solved, in a
        # GF(256) payload decoder, to [3, 187] and [5, 208]; each field's packets
        # now fit only its own decoders, rank-only or decoding payloads, before
        # anything changes
        sources = {0: np.array([3, 7], np.uint8), 1: np.array([5, 9], np.uint8)}
        packets = [encode(sources, [0, 1], coeffs, made) for coeffs in ([1, 2], [3, 1])]
        message = (rf"^a packet of \(0, 1\) over GF\({made.q}\) does not fit a decoder of "
                   rf"\(0, 1\) over GF\({decoder.q}\)$")
        for known in (None, {}):
            st = DecoderState([0, 1], [0, 1], decoder, known)
            for pkt in packets:
                with pytest.raises(ValueError, match=message):
                    st.absorb(pkt)
                assert (st.rank, st.needed) == (0, 2)
        st = DecoderState([0, 1], [0, 1], made, {})
        assert all(st.absorb(pkt) for pkt in packets)
        assert {k: v.tolist() for k, v in st.solve().items()} == {0: [3, 7], 1: [5, 9]}
        # a field is matched by its order: another instance of GF(2^m) fits
        assert DecoderState([0, 1], [0, 1], Field(made.m)).absorb(packets[0])

    def test_rank_monotone_and_useful_means_plus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            st = DecoderState(list(range(d)), list(range(d)), GF16)
            prev = 0
            for _ in range(d + 2):
                pkt = CodedPacket(range(d), rng.integers(0, 16, d, dtype=np.uint8), None, GF16)
                useful = st.absorb(pkt)
                assert st.rank == prev + (1 if useful else 0)
                prev = st.rank

    def test_known_payload_substitution(self):
        rng = np.random.default_rng(77)
        payloads = dict(enumerate(random_payloads(5, 8, rng)))
        # receiver already has packets 0, 2, 4 and wants 1, 3
        known = {0: payloads[0], 2: payloads[2], 4: payloads[4]}
        st = DecoderState([0, 1, 2, 3, 4], [1, 3], known_payloads=known)
        while not st.decoded:
            st.absorb(encode(payloads, range(5), random_coefficients(5, rng), GF256))
        sol = st.solve()
        assert set(sol) == {1, 3}
        assert (sol[1] == payloads[1]).all()
        assert (sol[3] == payloads[3]).all()

    def test_missing_known_payload_rejected(self):
        held = dict(enumerate(random_payloads(3, 4, np.random.default_rng(0))))
        with pytest.raises(ValueError, match=r"known payloads missing for packets \[0\]"):
            DecoderState([0, 1], [1], known_payloads={})
        with pytest.raises(ValueError, match=r"known payloads missing for packets \[5, 4\]"):
            DecoderState.for_partition(StateFeedbackMatrix([[0, 1, 1, 0, 0, 0]]),
                                       Partition(([5, 1, 4, 2], [0, 3])), known_payloads=held)

    def test_a_corrupt_basis_row_stops_elimination(self):
        # a stored row whose pivot byte is not 1 never clears its column; the
        # elimination stops after one step a column instead of cycling
        st = DecoderState([4, 2], [4, 2])
        st.absorb(CodedPacket([4, 2], np.array([1, 0], np.uint8), None))
        st._basis[0] = bytes([2, 0])
        with pytest.raises(RuntimeError, match=r"did not end in generation \(4, 2\)$"):
            st.absorb(CodedPacket([4, 2], np.array([1, 1], np.uint8), None))

    def test_state_without_known_payloads_is_rank_only(self):
        # a state wanting every packet holds none, but decodes payloads only
        # when built with known_payloads={}
        payloads = dict(enumerate(random_payloads(2, 4, np.random.default_rng(0))))
        st = DecoderState([0, 1], [0, 1])
        rng = np.random.default_rng(1)
        while not st.decoded:
            st.absorb(encode(payloads, [0, 1], random_coefficients(2, rng)))
        with pytest.raises(RuntimeError, match="without payloads"):
            st.solve()

    def test_payload_state_refuses_a_packet_without_payload(self):
        payloads = dict(enumerate(random_payloads(3, 4, np.random.default_rng(0))))
        st = DecoderState([0, 1, 2], [1, 2], known_payloads={0: payloads[0]})
        bare = CodedPacket([0, 1, 2], np.array([1, 2, 3], np.uint8), None)
        rng = np.random.default_rng(2)
        while True:
            before = st.rank, st.needed
            with pytest.raises(ValueError, match="payload"):
                st.absorb(bare)
            assert (st.rank, st.needed) == before
            if st.decoded:
                break
            st.absorb(encode(payloads, [0, 1, 2], random_coefficients(3, rng)))
        assert all((got == payloads[k]).all() for k, got in st.solve().items())

    def test_payload_length_is_fixed_once(self):
        # by the first packet when nothing is held, else by the held payloads;
        # a packet of another length is refused before it changes the state
        four, six = np.zeros(4, np.uint8), np.zeros(6, np.uint8)
        held = DecoderState([0, 1], [1], known_payloads={0: np.zeros(3, np.uint8)})
        for st, first, expect in ((DecoderState([0, 1], [0, 1], known_payloads={}), four, 4),
                                  (held, None, 3)):
            if first is not None:
                assert st.absorb(CodedPacket([0, 1], np.array([1, 2], np.uint8), first))
            for coeffs in ([3, 5], [0, 5], [1, 0]):
                before = st.rank, st.needed
                with pytest.raises(ValueError, match=f"payload length 6 != the decoder's "
                                                     f"payload length {expect}$"):
                    st.absorb(CodedPacket([0, 1], np.array(coeffs, np.uint8), six))
                assert (st.rank, st.needed) == before
        with pytest.raises(ValueError, match=r"held payload lengths differ: \[3, 4\]"):
            DecoderState([0, 1, 2], [2], known_payloads={0: np.zeros(3, np.uint8), 1: four})

    def test_receivers_holding_the_same_arrays_make_their_own_products(self):
        # each of two receivers holding packets 0 and 1 makes its two held
        # products and one pivot scaling for a packet whose record is cleared
        field = Field(8)
        calls = []
        mul_vec = field.mul_vec

        def counted(c, vec):
            calls.append(c)
            return mul_vec(c, vec)

        field.mul_vec = counted
        payloads = dict(enumerate(random_payloads(3, 4, np.random.default_rng(0))))
        held = {0: payloads[0], 1: payloads[1]}
        states = [DecoderState([0, 1, 2], [2], field, held) for _ in range(2)]
        pkt = encode(payloads, [0, 1, 2], np.array([1, 2, 3], np.uint8), field)
        pkt.products.clear()
        calls.clear()
        for state in states:
            assert state.absorb(pkt)
        assert len(calls) == 6
        assert pkt.products == {}
        assert all((st.solve()[2] == payloads[2]).all() for st in states)

    def test_rank_only_state_ignores_payloads(self):
        payloads = dict(enumerate(random_payloads(2, 4, np.random.default_rng(0))))
        st = DecoderState([0, 1], [1])
        for seed in (1, 2, 3):
            st.absorb(encode(payloads, [0, 1],
                             random_coefficients(2, np.random.default_rng(seed))))
        assert st.decoded
        with pytest.raises(RuntimeError, match="without payloads"):
            st.solve()

    def test_payload_symbols_outside_the_field_are_refused(self):
        # over GF(16) a byte of 16 or more is no symbol, in a packet's payload
        # (refused when the packet is made, whether or not it is scaled, rank-only
        # or not) or in a held payload (refused when the decoder is built)
        wide = np.array([0, 200], np.uint8)
        for coeffs in ([1], [2, 1], [0, 1]):
            with pytest.raises(ValueError, match=r"^symbols outside GF\(16\)$"):
                CodedPacket(range(len(coeffs)), np.array(coeffs, np.uint8), wide, GF16)
        message = r"known payloads of packets \[0\] hold symbols outside GF\(16\)$"
        with pytest.raises(ValueError, match=message):
            DecoderState([0, 1], [1], GF16, {0: wide})
        with pytest.raises(ValueError, match=message):
            DecoderState.for_partition(StateFeedbackMatrix([[0, 1], [0, 1]]), Partition(([0, 1],)),
                                       GF16, {0: wide})
        # GF(256) holds every byte
        assert DecoderState([0], [0]).absorb(CodedPacket([0], np.array([1], np.uint8), wide))
        st = DecoderState([0, 1], [1], GF256, {0: wide})
        assert st.absorb(CodedPacket([0, 1], np.array([1, 1], np.uint8), wide))
        assert st.solve()[1].tolist() == [0, 0]

    def test_a_wider_integer_payload_is_refused_not_wrapped(self):
        # mul_vec's rule: a value the uint8 cast changes (256, -1) is no symbol, in a
        # held payload or a packet's, over either field; in-range wider arrays pass
        for field in (GF256, GF16):
            held = rf"known payloads of packets \[0\] hold symbols outside GF\({field.q}\)$"
            with pytest.raises(ValueError, match=held):
                DecoderState([0, 1], [1], field, {0: np.array([256, -1])})
            with pytest.raises(ValueError, match=held):
                DecoderState.for_partition(StateFeedbackMatrix([[0, 1]]), Partition(([0, 1],)),
                                           field, {0: np.array([256, 7])})
            with pytest.raises(ValueError, match=rf"^symbols outside GF\({field.q}\)$"):
                CodedPacket([0], np.array([1], np.uint8), np.array([256, 7]), field)
        st = DecoderState([0, 1], [1], GF256, {0: np.array([3, 255])})
        assert st.absorb(CodedPacket([0, 1], np.array([1, 1], np.uint8), np.array([3, 7])))
        assert st.solve()[1].tolist() == [0, 248]

    def test_a_payload_cannot_change_after_it_was_read(self):
        # a packet holds its payload read-only: a caller's writable array is
        # copied, so changing it afterwards changes nothing a decoder sees
        payload = np.array([0, 15], np.uint8)
        pkt = CodedPacket([0], np.array([1], np.uint8), payload, GF16)
        payload[1] = 200
        assert pkt.payload is not payload and pkt.payload.tolist() == [0, 15]
        with pytest.raises(ValueError, match="read-only"):
            pkt.payload[1] = 200
        for _ in range(2):
            st = DecoderState([0], [0], GF16, {})
            assert st.absorb(pkt) and st.solve()[0].tolist() == [0, 15]
        # a read-only uint8 array is held as is, so is encode's own payload;
        # what the symbol rule makes anew is made read-only
        frozen = np.array([1, 2], np.uint8)
        frozen.flags.writeable = False
        assert CodedPacket([0], [1], frozen).payload is frozen
        made = encode({0: np.array([1, 2], np.uint8)}, [0], [3])
        assert not made.payload.flags.writeable
        assert CodedPacket([0], [1], made.payload).payload is made.payload
        listed = CodedPacket([0], [1], [1, 2]).payload
        assert listed.dtype == np.uint8 and not listed.flags.writeable

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_a_zero_first_held_coefficient_before_a_nonzero_one(self, field):
        # held columns 0, 1 and 2 with coefficients 0, then nonzero ones: the
        # residual starts from the first nonzero held column's product, with
        # the packet's record of it and without
        payloads = dict(enumerate(random_payloads(4, 6, np.random.default_rng(2), field)))
        held = {k: payloads[k] for k in (0, 1, 2)}
        for coeffs in ([0, 5, 7, 3], [0, 0, 9, 1], [0, 11, 0, 6]):
            for recorded in (True, False):
                pkt = encode(payloads, range(4), np.array(coeffs, np.uint8), field)
                if not recorded:
                    pkt.products.clear()
                st = DecoderState(range(4), [3], field, held)
                assert st.absorb(pkt)
                assert st.solve()[3].tolist() == payloads[3].tolist()

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_no_held_product_leaves_the_packet_payload_unwritten(self, field):
        # every held coefficient is 0, so the residual is a copy of the payload;
        # the second packet's elimination step writes into that copy, never
        # into the packet's read-only payload
        payloads = dict(enumerate(random_payloads(3, 6, np.random.default_rng(3), field)))
        packets = [encode(payloads, range(3), np.array(c, np.uint8), field)
                   for c in ([0, 1, 1], [0, 1, 2])]
        before = [pkt.payload.tobytes() for pkt in packets]
        st = DecoderState(range(3), [1, 2], field, {0: payloads[0]})
        assert all(st.absorb(pkt) for pkt in packets)
        assert [pkt.payload.tobytes() for pkt in packets] == before
        assert not any(pkt.payload.flags.writeable for pkt in packets)
        assert {k: v.tolist() for k, v in st.solve().items()} == \
            {k: payloads[k].tolist() for k in (1, 2)}

    def test_absorb_leaves_every_slot_of_its_packet_unchanged(self):
        # whatever a decoder does with a packet (accept, refuse, decode, have
        # nothing left to gain), it sets nothing on it
        payloads = dict(enumerate(random_payloads(2, 4, np.random.default_rng(0), GF16)))
        packets = [encode(payloads, [0, 1], np.array([3, 1], np.uint8), GF16),
                   CodedPacket([0, 1], np.array([200, 1], np.uint8), np.zeros(4, np.uint8)),
                   CodedPacket([0, 1], np.array([1, 2], np.uint8), None),
                   CodedPacket([1, 0], np.array([1, 2], np.uint8), None, GF16)]
        decoders = [DecoderState([0, 1], [1], field, known)
                    for field in (GF16, GF256) for known in (None, {0: payloads[0]})]
        decoders.append(DecoderState([0, 1], [], GF256, {0: payloads[0], 1: payloads[1]}))
        for pkt in packets:
            before = {name: getattr(pkt, name) for name in CodedPacket.__slots__}
            for state in decoders * 2:
                try:
                    state.absorb(pkt)
                except ValueError:
                    pass
            assert all(getattr(pkt, name) is value for name, value in before.items())


def test_a_coded_packet_is_read_when_it_is_made():
    # its ids become a tuple, its coefficients go through its field's symbol
    # rule into row: a list or a wider integer array reads as encode reads one,
    # and a value outside the field (1.5 included), a value the cast refuses or a
    # count other than the ids' is refused when the packet is made, not absorbed
    for coeffs in ([1, 2], (1, 2), np.array([1, 2]), np.array([1, 2], np.uint8)):
        for field in (GF16, GF256):
            pkt = CodedPacket(range(2), coeffs, None, field)
            assert (pkt.generation_ids, pkt.field) == ((0, 1), field)
            assert pkt.row == (b"\x01\x02", 0x0201)
            assert pkt.coefficients.dtype == np.uint8 and pkt.coefficients.tolist() == [1, 2]
            assert DecoderState([0, 1], [0, 1], field).absorb(pkt)
    for field, outside in ((GF16, [[16, 0], np.array([255, 0], np.uint8)]), (GF256, [])):
        for coeffs in ([1.5, 1], np.array([1.5, 0]), [256, 0], np.array([-1, 0]), *outside):
            with pytest.raises(ValueError, match=rf"^symbols outside GF\({field.q}\)$"):
                CodedPacket([0, 1], coeffs, None, field)
        with pytest.raises(ValueError, match=rf"^symbols outside GF\({field.q}\)$"):
            CodedPacket([0], 300, None, field)
    for coeffs, ids in (([1], [0, 1]), ([1, 2, 3], [0, 1]), ([], [4])):
        with pytest.raises(ValueError, match=rf"^{len(coeffs)} coefficients for packets \("):
            CodedPacket(ids, coeffs, None)
    # a uint8 array is held as is, and read once: a change in place goes unseen
    coeffs = np.array([1, 2], np.uint8)
    pkt = CodedPacket([0, 1], coeffs, None, GF16)
    coeffs[0] = 200
    assert pkt.coefficients is coeffs and pkt.row == (b"\x01\x02", 0x0201)
    assert DecoderState([0, 1], [0, 1], GF16).absorb(pkt)


@pytest.mark.parametrize("bad", [None, [2**70], "ab", [None, 1]],
                         ids=["None", "2**70", "str", "None-in-list"])
def test_input_the_uint8_cast_refuses_is_no_symbol(bad):
    # what the cast cannot read at all is refused with the rule's ValueError,
    # not a TypeError or OverflowError, wherever a packet or a decoder reads it
    for field in (GF16, GF256):
        refused = rf"^symbols outside GF\({field.q}\)$"
        reads = [lambda: CodedPacket([0], bad, None, field),
                 lambda: encode({0: np.ones(2, np.uint8)}, [0], bad, field),
                 lambda: encode({0: bad}, [0], [1], field),
                 lambda: field.mul_vec(1, bad)]
        if bad is not None:  # a packet with payload None is rank-only
            reads.append(lambda: CodedPacket([0], [1], bad, field))
        for read in reads:
            with pytest.raises(ValueError, match=refused):
                read()
        with pytest.raises(ValueError, match=rf"^known payloads of packets \[0\] hold symbols "
                                             rf"outside GF\({field.q}\)$"):
            DecoderState([0, 1], [1], field, {0: bad})


@st.composite
def symbol_input_cases(draw):
    """A field, an input kind (uint8 array, int64 array or list) and in it two
    coefficients, two 3-symbol sources, a 3-symbol held payload and a packet
    payload; each vector holds field symbols only, or values from -300 to 300
    (0 to 255 in a uint8 array)."""
    field = draw(st.sampled_from([GF16, GF256]))
    kind = draw(st.sampled_from(["uint8", "int64", "list"]))
    wide = st.integers(0, 255) if kind == "uint8" else st.integers(-300, 300)

    def values(n):
        value = draw(st.sampled_from([st.integers(0, field.q - 1), wide]))
        return draw(st.lists(value, min_size=n, max_size=n))

    return field, kind, values(2), [values(3), values(3)], values(3), values(3)


@settings(max_examples=300, deadline=None)
@given(symbol_input_cases())
def test_every_reader_refuses_exactly_what_a_scalar_rule_refuses(case):
    # mul_vec, encode, CodedPacket and a decoder's known payloads refuse a vector
    # iff a value is outside 0..q-1, and otherwise give what the same values as
    # uint8 arrays give; a packet that could be made fits every decoder of its
    # field and ids
    field, kind, coeffs, sources, held, payload = case
    q = field.q

    def make(values):
        return values if kind == "list" else np.array(values, np.dtype(kind))

    def ok(values, q=q):
        return all(0 <= v < q for v in values)

    def times(c, values):
        return [field.mul(c, v) for v in values]

    refused = rf"^symbols outside GF\({q}\)$"
    if ok(held):
        assert field.mul_vec(3, make(held)).tolist() == times(3, held)
    else:
        with pytest.raises(ValueError, match=refused):
            field.mul_vec(3, make(held))

    sourced = {k: make(x) for k, x in enumerate(sources)}
    if ok(coeffs) and ok(sources[0]) and ok(sources[1]):
        pkt = encode(sourced, [0, 1], make(coeffs), field)
        products = [times(c, x) for c, x in zip(coeffs, sources)]
        assert pkt.payload.tolist() == [a ^ b for a, b in zip(*products)]
        assert pkt.coefficients.tolist() == coeffs
    else:
        with pytest.raises(ValueError, match=refused):
            encode(sourced, [0, 1], make(coeffs), field)

    message = rf"^known payloads of packets \[0\] hold symbols outside GF\({q}\)$"
    for build in (lambda: DecoderState([0, 1], [1], field, {0: make(held)}),
                  lambda: DecoderState.for_partition(StateFeedbackMatrix([[0, 1]]),
                                                     Partition(([0, 1],)), field,
                                                     {0: make(held)})):
        if ok(held):
            build()
        else:
            with pytest.raises(ValueError, match=message):
                build()

    if not (ok(coeffs) and ok(payload)):
        with pytest.raises(ValueError, match=refused):
            CodedPacket([0, 1], make(coeffs), make(payload), field)
        return
    pkt = CodedPacket([0, 1], make(coeffs), make(payload), field)
    assert pkt.row == (bytes(coeffs), int.from_bytes(bytes(coeffs), "little"))
    assert pkt.payload.tolist() == payload
    h = np.array([1, 2, 3], np.uint8)
    for known in ({0: h}, None):
        state = DecoderState([0, 1], [1], field, known)
        twin = DecoderState([0, 1], [1], field, known)
        same = CodedPacket([0, 1], np.array(coeffs, np.uint8), np.array(payload, np.uint8), field)
        assert state.absorb(pkt) == twin.absorb(same) == (coeffs[1] != 0)
        if known is not None and state.decoded:
            residual = [a ^ b for a, b in zip(payload, times(coeffs[0], [1, 2, 3]))]
            assert state.solve()[1].tolist() == times(field.inv(coeffs[1]), residual)


def test_coded_packets_compare_by_identity():
    # equal arrays in distinct packets neither make them equal nor fail
    packets = [CodedPacket([0, 1], np.array([1, 2], np.uint8), np.zeros(3, np.uint8))
               for _ in range(2)]
    a, b = packets
    assert a == a and not a != a and hash(a) == hash(a)
    assert a != b and not a == b
    assert len({a, b, a}) == 2


class TestConstructor:
    def test_numpy_integer_ids(self):
        st = DecoderState(np.array([7, 3, 5], dtype=np.int64), [np.uint8(5), np.int32(7)])
        assert st.generation_ids == (7, 3, 5)
        assert st.unknown_ids == (7, 5)
        assert all(type(i) is int for i in st.generation_ids + st.unknown_ids)
        assert (st.rank, st.needed) == (0, 2)

    def test_unknown_ids_follow_generation_order(self):
        st = DecoderState([4, 9, 1, 6], [6, 1, 4])
        assert st.unknown_ids == (4, 1, 6)
        assert st.needed == 3

    def test_wanted_id_outside_generation_rejected(self):
        with pytest.raises(ValueError, match="42"):
            DecoderState([1, 2], [2, 42])

    def test_partition_of_another_k_rejected(self):
        # a partition covering fewer or more packets than the SFM builds no decoder
        sfm = StateFeedbackMatrix([[1, 0, 1]])
        for groups, k in ((([0, 1],), 2), (([0, 1], [2, 3]), 4)):
            with pytest.raises(ValueError,
                               match=rf"^partition covers K={k} packets, SFM has K=3$"):
                DecoderState.for_partition(sfm, Partition(groups))

    def test_counters_unchanged_by_dependent_and_late_packets(self):
        st = DecoderState([0, 1], [0, 1])
        assert st.absorb(CodedPacket([0, 1], np.array([1, 2], np.uint8), None))
        assert (st.rank, st.needed) == (1, 1)
        # 2 * (1, 2) = (2, 4) in GF(256): dependent
        assert not st.absorb(CodedPacket([0, 1], np.array([2, 4], np.uint8), None))
        assert (st.rank, st.needed, st.decoded) == (1, 1, False)
        assert st.absorb(CodedPacket([0, 1], np.array([0, 1], np.uint8), None))
        assert (st.rank, st.needed, st.decoded) == (2, 0, True)
        assert not st.absorb(CodedPacket([0, 1], np.array([5, 9], np.uint8), None))
        assert (st.rank, st.needed, st.decoded) == (2, 0, True)


class TestSolve:
    def test_zero_unknowns_empty_map(self):
        st = DecoderState([0], [])
        assert st.solve() == {}

    def test_single_unknown_inverse(self):
        src = np.array([9, 0, 255, 17], dtype=np.uint8)
        st = DecoderState([4], [4], known_payloads={})
        c = 0x37
        coded = GF256.mul_vec(c, src)
        st.absorb(CodedPacket([4], np.array([c], np.uint8), coded))
        assert (st.solve()[4] == src).all()

    def test_before_full_rank_rejected(self):
        st = DecoderState([0, 1], [0, 1])
        st.absorb(CodedPacket([0, 1], np.array([1, 1], np.uint8), np.zeros(4, np.uint8)))
        with pytest.raises(RuntimeError):
            st.solve()

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_a_write_into_a_solution_never_changes_a_later_solve(self, field):
        # the probe: after decoding the sources [1, 2] and [3, 4], writing 77 into
        # each solution made a second GF(256) solve return [157, 2] and [77, 4]
        payloads = {0: np.array([1, 2], np.uint8), 1: np.array([3, 4], np.uint8)}
        st = DecoderState((0, 1), (0, 1), field, known_payloads={})
        for coeffs in ([1, 2], [3, 4]):
            assert st.absorb(encode(payloads, (0, 1), coeffs, field))
        first = st.solve()
        for sol in first.values():
            try:
                sol[0] = 77
            except ValueError:  # a stored row's payload, held read-only
                pass
        second = st.solve()
        assert {k: v.tolist() for k, v in second.items()} == {0: [1, 2], 1: [3, 4]}
        for k, sol in first.items():  # read-only, or a new array of its own
            assert not sol.flags.writeable or not np.shares_memory(sol, second[k])

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_back_substitution_over_three_unknowns(self, field):
        # the stored rows keep nonzero bytes right of their pivots, so the first
        # pivot's solution needs the later ones already substituted, and sums
        # two terms; a write into the first solve's solutions changes no later one
        payloads = dict(enumerate(random_payloads(4, 6, np.random.default_rng(4), field)))
        st = DecoderState(range(4), [0, 1, 3], field, {2: payloads[2]})
        for coeffs in ([1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9]):
            assert st.absorb(encode(payloads, range(4), np.array(coeffs, np.uint8), field))
        want = {k: payloads[k].tolist() for k in (0, 1, 3)}
        first = st.solve()
        assert {k: v.tolist() for k, v in first.items()} == want
        for sol in first.values():
            try:
                sol[:] = 77
            except ValueError:  # a stored row's payload, held read-only
                pass
        assert {k: v.tolist() for k, v in st.solve().items()} == want

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_round_trip_property(self, field):
        rng = np.random.default_rng(11)
        for _ in range(60):
            gen_size = int(rng.integers(1, 7))
            payloads = dict(enumerate(random_payloads(gen_size, 12, rng, field)))
            wanted = [k for k in range(gen_size) if rng.random() < 0.6]
            known = {k: payloads[k] for k in range(gen_size) if k not in wanted}
            st = DecoderState(list(range(gen_size)), wanted, field, known)
            for _ in range(4 * gen_size + 8):
                if st.decoded:
                    break
                st.absorb(encode(payloads, range(gen_size),
                                 random_coefficients(gen_size, rng, field), field))
            assert st.decoded  # overwhelmingly likely with the extra margin
            sol = st.solve()
            for k in wanted:
                assert (sol[k] == payloads[k]).all()


@pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
def test_a_pickled_packet_is_read_again_over_the_shared_field(field):
    assert pickle.loads(pickle.dumps(field)) is field
    rng = np.random.default_rng(5)
    payloads = dict(enumerate(random_payloads(3, 6, rng, field)))
    packets = [encode(payloads, (0, 1, 2), random_coefficients(3, rng, field), field)
               for _ in range(4)]
    copies = pickle.loads(pickle.dumps(packets))
    for pkt, copy in zip(packets, copies):
        assert copy is not pkt and copy.field is field
        assert (copy.generation_ids, copy.row) == (pkt.generation_ids, pkt.row)
        assert copy.coefficients.tolist() == pkt.coefficients.tolist()
        assert copy.payload.tolist() == pkt.payload.tolist()
        assert not copy.payload.flags.writeable
    rank_only = pickle.loads(pickle.dumps(CodedPacket((4, 1), [3, 0], None, field)))
    assert (rank_only.generation_ids, rank_only.payload, rank_only.field) == ((4, 1), None, field)

    def decode(pkts):
        st = DecoderState((0, 1, 2), (0, 2), field, {1: payloads[1]})
        innovative = [st.absorb(pkt) for pkt in pkts]
        return innovative, {k: v.tolist() for k, v in st.solve().items()}

    assert decode(copies) == decode(packets)
    assert decode(packets)[1] == {k: payloads[k].tolist() for k in (0, 2)}


def test_full_rank_probability_spot_check():
    # small-scale version of the acceptance statistic: d=2, q=16
    rng = np.random.default_rng(42)
    d, q, trials = 2, 16, 20000
    hits = 0
    coeffs = rng.integers(0, q, size=(trials, d, d), dtype=np.uint8)
    for i in range(trials):
        st = DecoderState(list(range(d)), list(range(d)), GF16)
        for j in range(d):
            st.absorb(CodedPacket(range(d), coeffs[i, j], None, GF16))
        hits += st.decoded
    expect = math.prod(1 - q**-i for i in range(1, d + 1))
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(hits / trials - expect) < 3 * sigma


def test_encode_uses_the_given_coefficients():
    payloads = random_payloads(5, 8, np.random.default_rng(0), GF16)
    coeffs = np.array([3, 0, 15, 1, 7], np.uint8)
    pkt = encode(dict(enumerate(payloads)), range(5), coeffs, GF16)
    assert pkt.coefficients is coeffs
    expected = np.zeros(8, np.uint8)
    for c, src in zip(coeffs.tolist(), payloads):
        expected ^= np.array([GF16.mul(c, int(v)) for v in src], np.uint8)
    assert (pkt.payload == expected).all()
    assert (pkt.generation_ids, pkt.field) == ((0, 1, 2, 3, 4), GF16)
    for n in (4, 6):  # refused by the packet encode makes
        with pytest.raises(ValueError, match=rf"^{n} coefficients for packets \(0, 1, 2, 3, 4\)$"):
            encode(dict(enumerate(payloads)), range(5), np.ones(n, np.uint8), GF16)


@st.composite
def encode_cases(draw):
    """A field, a generation of source arrays and one coefficient each."""
    field = draw(st.sampled_from([GF16, GF256]))
    g = draw(st.integers(1, 6))
    length = draw(st.integers(1, 6))
    symbol = st.integers(0, field.q - 1)
    sources = [np.array(draw(st.lists(symbol, min_size=length, max_size=length)), np.uint8)
               for _ in range(g)]
    return field, sources, draw(st.lists(symbol, min_size=g, max_size=g))


@settings(max_examples=200, deadline=None)
@given(encode_cases())
def test_encode_records_the_products_it_sums(case):
    field, sources, coeffs = case
    pkt = encode(dict(enumerate(sources)), range(len(sources)), coeffs, field)
    # a zero coefficient makes no product and records none
    assert sorted(pkt.products) == [j for j, c in enumerate(coeffs) if c]
    total = np.zeros(len(sources[0]), np.uint8)
    for j, (src, prod) in pkt.products.items():
        assert src is sources[j]
        assert prod.tolist() == [field.mul(coeffs[j], int(v)) for v in sources[j]]
        total ^= prod
    assert pkt.payload.tolist() == total.tolist()


@st.composite
def held_copy_cases(draw):
    """A field, g >= 2 sources, a wanted subset leaving some packet held,
    one held packet to corrupt, a nonzero corruption and a coefficient seed."""
    field = draw(st.sampled_from([GF16, GF256]))
    g = draw(st.integers(2, 6))
    wanted = draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=g - 1, unique=True))
    bad = draw(st.sampled_from([k for k in range(g) if k not in wanted]))
    symbols = st.lists(st.integers(0, field.q - 1), min_size=4, max_size=4)
    sources = [np.array(draw(symbols), np.uint8) for _ in range(g)]
    delta = np.array(draw(symbols.filter(any)), np.uint8)
    return field, sources, wanted, bad, delta, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(held_copy_cases())
def test_decoder_uses_only_its_own_held_arrays(case):
    field, sources, wanted, bad, delta, seed = case
    g = len(sources)

    def encoded():
        rng = np.random.default_rng(seed)
        return [encode(dict(enumerate(sources)), range(g), random_coefficients(g, rng, field),
                       field) for _ in range(4 * g + 16)]

    def decode(held, packets):
        state = DecoderState(range(g), wanted, field, held)
        for pkt in packets:
            state.absorb(pkt)
        assert state.decoded  # overwhelmingly likely with the extra packets
        return {k: v.tolist() for k, v in state.solve().items()}

    # equal held copies that are other objects reuse none of the encoder's
    # products and still decode to the sources
    copies = {k: sources[k].copy() for k in range(g) if k not in wanted}
    packets = encoded()
    assert decode(copies, packets) == {k: sources[k].tolist() for k in wanted}
    # and leave every packet's record as encode made it
    for pkt in packets:
        assert sorted(pkt.products) == [j for j, c in enumerate(pkt.coefficients) if c]
        for j, (src, prod) in pkt.products.items():
            assert src is sources[j]
            assert prod.tolist() == field.mul_vec(pkt.coefficients[j], src).tolist()
    # a corrupted copy of one held source is used as held, although the
    # packets record the true source's products for its column: the result
    # is the one decoding makes from the held arrays alone
    held = {k: sources[k] for k in copies}
    held[bad] = sources[bad] ^ delta
    packets = encoded()
    with_records = decode(held, packets)
    for pkt in packets:
        pkt.products.clear()
    assert with_records == decode(held, packets)


def reference_rank(field, rows):
    """Rank over the field by textbook Gauss-Jordan elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [a ^ field.mul(row[col], b) for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


@st.composite
def decoder_cases(draw):
    """A field, generation ids in a shuffled order, a wanted subset in any
    order, source payloads, up to 2g + 2 coefficient rows, and a column and
    a value outside the field (GF(16) bytes, or int64 values beyond a byte)."""
    field = draw(st.sampled_from([GF16, GF256]))
    g = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(10, 10 + g)))
    wanted = draw(st.lists(st.sampled_from(ids), unique=True))
    symbol = st.integers(0, field.q - 1)
    payloads = {pid: draw(st.lists(symbol, min_size=4, max_size=4)) for pid in ids}
    rows = draw(st.lists(st.lists(symbol, min_size=g, max_size=g), max_size=2 * g + 2))
    bad = draw(st.integers(field.q, 255) if field.q < 256 else
               st.one_of(st.integers(-(2**40), -1), st.integers(256, 2**40)))
    return field, ids, wanted, payloads, rows, draw(st.integers(0, g - 1)), bad


@settings(max_examples=200, deadline=None)
@given(decoder_cases())
def test_decoder_rank_innovation_and_solve(case):
    field, ids, wanted, payloads, rows, bad_col, bad = case
    other = GF256 if field is GF16 else GF16
    known = {pid: np.array(payloads[pid], np.uint8) for pid in ids if pid not in wanted}
    state = DecoderState(ids, wanted, field, known)
    # the same system rank-only, with numpy ids, the wanted ids reversed and
    # int64 coefficients
    abstract = DecoderState(np.array(ids), np.array(wanted[::-1], dtype=int), field)
    assert state.unknown_ids == abstract.unknown_ids == tuple(p for p in ids if p in wanted)
    # a packet of other ids (one more, one changed or, if any, the same in
    # another order) or of the other field is rejected before any change, also
    # by a state that wants nothing or has decoded; a packet with a coefficient
    # outside its field, or a count other than its ids', cannot be made
    outside = np.zeros(len(ids), np.uint8 if 0 <= bad < 256 else np.int64)
    outside[bad_col] = bad
    zeros = np.zeros(4, np.uint8)
    foreign = [[*ids, 99], [*ids[:-1], ids[-1] + 50]] + ([ids[::-1]] if len(ids) > 1 else [])
    bad_packets = [CodedPacket(i, np.zeros(len(i), np.uint8), zeros, field) for i in foreign]
    bad_packets.append(CodedPacket(ids, np.zeros(len(ids), np.uint8), zeros, other))
    if outside.dtype == np.uint8:  # a GF(256) packet with a byte outside GF(16)
        bad_packets.append(CodedPacket(ids, outside, zeros, GF256))
    with pytest.raises(ValueError, match=rf"^symbols outside GF\({field.q}\)$"):
        CodedPacket(ids, outside, zeros, field)
    with pytest.raises(ValueError, match=rf"^{len(ids) + 1} coefficients for packets"):
        CodedPacket(ids, np.zeros(len(ids) + 1, np.uint8), zeros, field)

    def rejects_bad_packets(decoder):
        before = decoder.rank, decoder.needed
        for pkt in bad_packets:
            with pytest.raises(ValueError, match="does not fit a decoder of"):
                decoder.absorb(pkt)
        return (decoder.rank, decoder.needed) == before

    assert rejects_bad_packets(state) and rejects_bad_packets(abstract)
    assert (state.rank, state.needed) == (0, len(wanted))
    wanted_cols = [ids.index(pid) for pid in wanted]
    prev = 0
    for n, row in enumerate(rows, 1):
        coded = [0] * 4
        for c, pid in zip(row, ids):
            coded = [a ^ field.mul(c, b) for a, b in zip(coded, payloads[pid])]
        innovative = state.absorb(
            CodedPacket(ids, np.array(row, np.uint8), np.array(coded, np.uint8), field))
        assert abstract.absorb(CodedPacket(ids, np.array(row, np.int64), None, field)) == \
            innovative
        assert (abstract.rank, abstract.needed) == (state.rank, state.needed)
        expected = reference_rank(field, [[r[j] for j in wanted_cols] for r in rows[:n]])
        assert state.rank == expected
        assert innovative == (expected > prev)
        assert state.needed == len(wanted) - expected
        prev = expected
    assert state.decoded == (prev == len(wanted))
    assert rejects_bad_packets(state) and rejects_bad_packets(abstract)
    if state.decoded:
        solved = state.solve()
        assert sorted(solved) == sorted(wanted)
        for pid in wanted:
            assert solved[pid].tolist() == payloads[pid]


@st.composite
def shared_packet_cases(draw):
    """Decoders over GF(16) and GF(256) of generations 0 and 1 (1-3 packets,
    ids from 0 and from 10), rank-only or decoding 2-byte payloads, wanting any
    subset, some decoded before the packets come; then packets over either
    field of either generation's first 1-3 ids, a coefficient byte each (often
    outside GF(16)), with a 2- or 3-byte payload of GF(16) symbols or none."""
    fields = st.sampled_from([GF16, GF256])
    specs = []
    for _ in range(draw(st.integers(2, 6))):
        g = draw(st.integers(1, 3))
        specs.append((draw(fields), draw(st.integers(0, 1)), g,
                      draw(st.lists(st.integers(0, g - 1), unique=True)),
                      draw(st.booleans()), draw(st.booleans())))
    byte = st.one_of(st.integers(0, 15), st.integers(0, 255))
    packets = draw(st.lists(st.tuples(
        fields, st.integers(0, 1), st.lists(byte, min_size=1, max_size=3),
        st.one_of(st.none(), st.lists(st.integers(0, 15), min_size=2, max_size=3))),
        max_size=8))
    return specs, packets


def shared_packet_decoder(field, generation, g, wanted, payloads, decoded_first):
    ids = range(10 * generation, 10 * generation + g)
    held = {ids[k]: np.full(2, k + 1, np.uint8) for k in range(g) if k not in wanted}
    state = DecoderState(ids, [ids[k] for k in wanted], field, held if payloads else None)
    for unit in np.eye(g, dtype=np.uint8) if decoded_first else ():
        state.absorb(CodedPacket(ids, unit, np.zeros(2, np.uint8), field))
    return state


@settings(max_examples=200, deadline=None)
@given(shared_packet_cases())
def test_a_packet_shared_by_decoders_acts_as_a_fresh_copy_on_each(case):
    # one packet absorbed in turn by several decoders, twice over, does to
    # each what a fresh copy of it does to a twin: the same return value,
    # counters, error text and solution; so a packet refused once (of another
    # field, ids or payload length) is refused again by every decoder it does
    # not fit, and one refused when it is made reaches no decoder
    specs, packets = case
    shared = [shared_packet_decoder(*spec) for spec in specs]
    twins = [shared_packet_decoder(*spec) for spec in specs]

    def outcome(state, pkt):
        try:
            got = state.absorb(pkt)
        except ValueError as err:
            got = str(err)
        return got, state.needed, state.rank

    def solution(state):
        try:
            return {k: v.tolist() for k, v in state.solve().items()}
        except RuntimeError as err:
            return str(err)

    def packet(field, generation, coeffs, payload):
        return CodedPacket(range(10 * generation, 10 * generation + len(coeffs)),
                           np.array(coeffs, np.uint8),
                           None if payload is None else np.array(payload, np.uint8), field)

    for spec in packets:
        field, _, coeffs, _ = spec
        if field is GF16 and max(coeffs) > 15:
            with pytest.raises(ValueError, match=r"^symbols outside GF\(16\)$"):
                packet(*spec)
            continue
        pkt = packet(*spec)
        for _ in range(2):
            for state, twin in zip(shared, twins):
                assert outcome(state, pkt) == outcome(twin, packet(*spec))
    assert [solution(s) for s in shared] == [solution(t) for t in twins]
