import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencast.galois import GF16, GF256, Field
from gencast.rlnc import CodedPacket, DecoderState, encode, random_coefficients, random_payloads

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
        pkt = encode([src], random_coefficients(1, rng))
        c = int(pkt.coefficients[0])
        assert list(pkt.payload) == [GF256.mul(c, int(v)) for v in src]

    def test_zero_coefficient_draw_gives_zero_payload(self):
        # force the all-zero draw by exhausting seeds until one appears
        src = [np.ones(4, dtype=np.uint8)]
        for seed in range(5000):
            rng = np.random.default_rng(seed)
            pkt = encode(src, random_coefficients(1, rng, GF16), GF16)
            if int(pkt.coefficients[0]) == 0:
                assert not pkt.payload.any()
                break
        else:
            pytest.fail("no zero coefficient draw found")

    def test_golden_packet(self):
        rng = np.random.default_rng(GOLDEN_SEED)
        payloads = random_payloads(4, 16, rng, GF256)
        assert [bytes(p).hex() for p in payloads] == GOLDEN_PAYLOADS
        pkt = encode(payloads, random_coefficients(4, rng, GF256), GF256, generation_id=7)
        assert bytes(pkt.coefficients).hex() == GOLDEN_COEFFS
        assert bytes(pkt.payload).hex() == GOLDEN_CODED
        assert pkt.generation_id == 7

    def test_empty_generation_rejected(self):
        with pytest.raises(ValueError):
            encode([], np.zeros(0, np.uint8))

    def test_ragged_payloads_rejected(self):
        with pytest.raises(ValueError):
            encode([np.zeros(4, np.uint8), np.zeros(5, np.uint8)], np.ones(2, np.uint8))

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
        st = DecoderState(0, [0, 1], [])
        assert st.decoded
        pkt = CodedPacket(0, np.array([1, 1], np.uint8), None)
        assert st.absorb(pkt) is False
        assert st.rank == 0

    def test_duplicate_packet_useless(self):
        st = DecoderState(0, [0, 1], [0, 1])
        pkt = CodedPacket(0, np.array([1, 2], np.uint8), None)
        assert st.absorb(pkt) is True
        assert st.absorb(pkt) is False
        assert st.rank == 1

    def test_two_independent_rows_decode(self):
        st = DecoderState(0, [0, 1], [0, 1])
        assert st.absorb(CodedPacket(0, np.array([1, 0], np.uint8), None))
        assert st.absorb(CodedPacket(0, np.array([1, 1], np.uint8), None))
        assert st.decoded

    def test_generation_mismatch(self):
        st = DecoderState(0, [0], [0])
        with pytest.raises(ValueError):
            st.absorb(CodedPacket(1, np.array([1], np.uint8), None))

    def test_rank_monotone_and_useful_means_plus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            st = DecoderState(0, list(range(d)), list(range(d)), GF16)
            prev = 0
            for _ in range(d + 2):
                pkt = CodedPacket(0, rng.integers(0, 16, d, dtype=np.uint8), None)
                useful = st.absorb(pkt)
                assert st.rank == prev + (1 if useful else 0)
                prev = st.rank

    def test_known_payload_substitution(self):
        rng = np.random.default_rng(77)
        payloads = random_payloads(5, 8, rng)
        # receiver already has packets 0, 2, 4 and wants 1, 3
        known = {0: payloads[0], 2: payloads[2], 4: payloads[4]}
        st = DecoderState(3, [0, 1, 2, 3, 4], [1, 3], known_payloads=known)
        while not st.decoded:
            st.absorb(encode(payloads, random_coefficients(5, rng), GF256, generation_id=3))
        sol = st.solve()
        assert set(sol) == {1, 3}
        assert (sol[1] == payloads[1]).all()
        assert (sol[3] == payloads[3]).all()

    def test_missing_known_payload_rejected(self):
        held = dict(enumerate(random_payloads(3, 4, np.random.default_rng(0))))
        with pytest.raises(ValueError, match=r"known payloads missing for packets \[0\]"):
            DecoderState(0, [0, 1], [1], known_payloads={})
        with pytest.raises(ValueError, match=r"known payloads missing for packets \[5, 4\]"):
            DecoderState.for_generation(0, [5, 1, 4, 2], {0: bytes([0, 255, 0, 255])},
                                        known_payloads=held)

    def test_a_corrupt_basis_row_stops_elimination(self):
        # a stored row whose pivot byte is not 1 never clears its column; the
        # elimination stops after one step a column instead of cycling
        st = DecoderState(4, [0, 1], [0, 1])
        st.absorb(CodedPacket(4, np.array([1, 0], np.uint8), None))
        st._basis[0] = bytes([2, 0])
        with pytest.raises(RuntimeError, match="did not end in generation 4"):
            st.absorb(CodedPacket(4, np.array([1, 1], np.uint8), None))

    def test_state_without_known_payloads_is_rank_only(self):
        # a state wanting every packet holds none, but decodes payloads only
        # when built with known_payloads={}
        payloads = random_payloads(2, 4, np.random.default_rng(0))
        st = DecoderState(0, [0, 1], [0, 1])
        rng = np.random.default_rng(1)
        while not st.decoded:
            st.absorb(encode(payloads, random_coefficients(2, rng)))
        with pytest.raises(RuntimeError, match="without payloads"):
            st.solve()

    def test_payload_state_refuses_a_packet_without_payload(self):
        payloads = random_payloads(3, 4, np.random.default_rng(0))
        st = DecoderState(0, [0, 1, 2], [1, 2], known_payloads={0: payloads[0]})
        bare = CodedPacket(0, np.array([1, 2, 3], np.uint8), None)
        rng = np.random.default_rng(2)
        while True:
            before = st.rank, st.needed
            with pytest.raises(ValueError, match="payload"):
                st.absorb(bare)
            assert (st.rank, st.needed) == before
            if st.decoded:
                break
            st.absorb(encode(payloads, random_coefficients(3, rng)))
        assert all((got == payloads[k]).all() for k, got in st.solve().items())

    def test_payload_length_is_fixed_once(self):
        # by the first packet when nothing is held, else by the held payloads;
        # a packet of another length is refused before it changes the state
        four, six = np.zeros(4, np.uint8), np.zeros(6, np.uint8)
        held = DecoderState(0, [0, 1], [1], known_payloads={0: np.zeros(3, np.uint8)})
        for st, first, expect in ((DecoderState(0, [0, 1], [0, 1], known_payloads={}), four, 4),
                                  (held, None, 3)):
            if first is not None:
                assert st.absorb(CodedPacket(0, np.array([1, 2], np.uint8), first))
            for coeffs in ([3, 5], [0, 5], [1, 0]):
                before = st.rank, st.needed
                with pytest.raises(ValueError, match=f"payload length 6 != the decoder's "
                                                     f"payload length {expect}$"):
                    st.absorb(CodedPacket(0, np.array(coeffs, np.uint8), six))
                assert (st.rank, st.needed) == before
        with pytest.raises(ValueError, match=r"held payload lengths differ: \[3, 4\]"):
            DecoderState(0, [0, 1, 2], [2], known_payloads={0: np.zeros(3, np.uint8), 1: four})

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
        payloads = random_payloads(3, 4, np.random.default_rng(0))
        held = {0: payloads[0], 1: payloads[1]}
        states = [DecoderState(0, [0, 1, 2], [2], field, held) for _ in range(2)]
        pkt = encode(payloads, np.array([1, 2, 3], np.uint8), field)
        pkt.products.clear()
        calls.clear()
        for state in states:
            assert state.absorb(pkt)
        assert len(calls) == 6
        assert pkt.products == {}
        assert all((st.solve()[2] == payloads[2]).all() for st in states)

    def test_rank_only_state_ignores_payloads(self):
        payloads = random_payloads(2, 4, np.random.default_rng(0))
        st = DecoderState(0, [0, 1], [1])
        for seed in (1, 2, 3):
            st.absorb(encode(payloads, random_coefficients(2, np.random.default_rng(seed))))
        assert st.decoded
        with pytest.raises(RuntimeError, match="without payloads"):
            st.solve()

    def test_payload_symbols_outside_the_field_are_refused(self):
        # over GF(16) a byte of 16 or more is no symbol, in a packet's payload
        # (refused before it changes anything, whether or not it is scaled) or
        # in a held payload (refused when the decoder is built)
        wide = np.array([0, 200], np.uint8)
        held = DecoderState(0, [0, 1], [1], GF16, {0: np.array([3, 4], np.uint8)})
        for st, coeffs in ((DecoderState(0, [0], [0], GF16, {}), [1]), (held, [2, 1])):
            with pytest.raises(ValueError, match=r"payload symbols outside GF\(16\)$"):
                st.absorb(CodedPacket(0, np.array(coeffs, np.uint8), wide))
            assert (st.rank, st.needed) == (0, 1)
        message = r"known payloads of packets \[0\] hold symbols outside GF\(16\)$"
        with pytest.raises(ValueError, match=message):
            DecoderState(0, [0, 1], [1], GF16, {0: wide})
        with pytest.raises(ValueError, match=message):
            DecoderState.for_generation(0, [0, 1], {0: [0, 1], 1: [0, 1]}, GF16, {0: wide})
        # a rank-only state ignores payloads, and GF(256) holds every byte
        assert DecoderState(0, [0], [0], GF16).absorb(CodedPacket(0, np.array([1], np.uint8),
                                                                 wide))
        st = DecoderState(0, [0, 1], [1], GF256, {0: wide})
        assert st.absorb(CodedPacket(0, np.array([1, 1], np.uint8), wide))
        assert st.solve()[1].tolist() == [0, 0]

    def test_a_wider_integer_payload_is_refused_not_wrapped(self):
        # mul_vec's rule: a value the uint8 cast changes (256, -1) is no symbol, in a
        # held payload or a packet's, over either field; in-range wider arrays pass
        for field in (GF256, GF16):
            held = rf"known payloads of packets \[0\] hold symbols outside GF\({field.q}\)$"
            with pytest.raises(ValueError, match=held):
                DecoderState(0, [0, 1], [1], field, {0: np.array([256, -1])})
            with pytest.raises(ValueError, match=held):
                DecoderState.for_generation(0, [0, 1], {0: b"\0\xff"}, field,
                                            {0: np.array([256, 7])})
            st = DecoderState(0, [0], [0], field, {})
            with pytest.raises(ValueError, match=rf"payload symbols outside GF\({field.q}\)$"):
                st.absorb(CodedPacket(0, np.array([1], np.uint8), np.array([256, 7])))
            assert (st.rank, st.needed) == (0, 1)
        st = DecoderState(0, [0, 1], [1], GF256, {0: np.array([3, 255])})
        assert st.absorb(CodedPacket(0, np.array([1, 1], np.uint8), np.array([3, 7])))
        assert st.solve()[1].tolist() == [0, 248]

    def test_a_payload_is_checked_once_per_field(self):
        # like the coefficient read, the check is kept on the packet with its field
        pkt = CodedPacket(0, np.array([1], np.uint8), np.array([0, 15], np.uint8))
        assert DecoderState(0, [0], [0], GF16, {}).absorb(pkt)
        assert pkt.payload_field is GF16
        pkt.payload[1] = 200  # changed after the GF(16) check: later GF(16) decoders miss it
        assert DecoderState(0, [0], [0], GF16, {}).absorb(pkt)
        assert DecoderState(0, [0], [0], GF256, {}).absorb(pkt)
        assert pkt.payload_field is GF256
        with pytest.raises(ValueError, match=r"outside GF\(16\)"):  # checked again
            DecoderState(0, [0], [0], GF16, {}).absorb(pkt)


def test_coded_packets_compare_by_identity():
    # equal arrays in distinct packets neither make them equal nor fail
    packets = [CodedPacket(0, np.array([1, 2], np.uint8), np.zeros(3, np.uint8))
               for _ in range(2)]
    a, b = packets
    assert a == a and not a != a and hash(a) == hash(a)
    assert a != b and not a == b
    assert len({a, b, a}) == 2


class TestConstructor:
    def test_numpy_integer_ids(self):
        st = DecoderState(0, np.array([7, 3, 5], dtype=np.int64), [np.uint8(5), np.int32(7)])
        assert st.generation_ids == (7, 3, 5)
        assert st.unknown_ids == (7, 5)
        assert all(type(i) is int for i in st.generation_ids + st.unknown_ids)
        assert (st.rank, st.needed) == (0, 2)

    def test_unknown_ids_follow_generation_order(self):
        st = DecoderState(0, [4, 9, 1, 6], [6, 1, 4])
        assert st.unknown_ids == (4, 1, 6)
        assert st.needed == 3

    def test_wanted_id_outside_generation_rejected(self):
        with pytest.raises(ValueError, match="42"):
            DecoderState(0, [1, 2], [2, 42])

    def test_counters_unchanged_by_dependent_and_late_packets(self):
        st = DecoderState(0, [0, 1], [0, 1])
        assert st.absorb(CodedPacket(0, np.array([1, 2], np.uint8), None))
        assert (st.rank, st.needed) == (1, 1)
        # 2 * (1, 2) = (2, 4) in GF(256): dependent
        assert not st.absorb(CodedPacket(0, np.array([2, 4], np.uint8), None))
        assert (st.rank, st.needed, st.decoded) == (1, 1, False)
        assert st.absorb(CodedPacket(0, np.array([0, 1], np.uint8), None))
        assert (st.rank, st.needed, st.decoded) == (2, 0, True)
        assert not st.absorb(CodedPacket(0, np.array([5, 9], np.uint8), None))
        assert (st.rank, st.needed, st.decoded) == (2, 0, True)


class TestSolve:
    def test_zero_unknowns_empty_map(self):
        st = DecoderState(0, [0], [])
        assert st.solve() == {}

    def test_single_unknown_inverse(self):
        src = np.array([9, 0, 255, 17], dtype=np.uint8)
        st = DecoderState(0, [4], [4], known_payloads={})
        c = 0x37
        coded = GF256.mul_vec(c, src)
        st.absorb(CodedPacket(0, np.array([c], np.uint8), coded))
        assert (st.solve()[4] == src).all()

    def test_before_full_rank_rejected(self):
        st = DecoderState(0, [0, 1], [0, 1])
        st.absorb(CodedPacket(0, np.array([1, 1], np.uint8), np.zeros(4, np.uint8)))
        with pytest.raises(RuntimeError):
            st.solve()

    @pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
    def test_round_trip_property(self, field):
        rng = np.random.default_rng(11)
        for _ in range(60):
            gen_size = int(rng.integers(1, 7))
            payloads = random_payloads(gen_size, 12, rng, field)
            wanted = [k for k in range(gen_size) if rng.random() < 0.6]
            known = {k: payloads[k] for k in range(gen_size) if k not in wanted}
            st = DecoderState(0, list(range(gen_size)), wanted, field, known)
            for _ in range(4 * gen_size + 8):
                if st.decoded:
                    break
                st.absorb(encode(payloads, random_coefficients(gen_size, rng, field), field))
            assert st.decoded  # overwhelmingly likely with the extra margin
            sol = st.solve()
            for k in wanted:
                assert (sol[k] == payloads[k]).all()


def test_full_rank_probability_spot_check():
    # small-scale version of the acceptance statistic: d=2, q=16
    rng = np.random.default_rng(42)
    d, q, trials = 2, 16, 20000
    hits = 0
    coeffs = rng.integers(0, q, size=(trials, d, d), dtype=np.uint8)
    for i in range(trials):
        st = DecoderState(0, list(range(d)), list(range(d)), GF16)
        for j in range(d):
            st.absorb(CodedPacket(0, coeffs[i, j], None))
        hits += st.decoded
    expect = math.prod(1 - q**-i for i in range(1, d + 1))
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(hits / trials - expect) < 3 * sigma


def test_encode_uses_the_given_coefficients():
    payloads = random_payloads(5, 8, np.random.default_rng(0), GF16)
    coeffs = np.array([3, 0, 15, 1, 7], np.uint8)
    pkt = encode(payloads, coeffs, GF16, generation_id=2)
    assert pkt.coefficients is coeffs
    expected = np.zeros(8, np.uint8)
    for c, src in zip(coeffs.tolist(), payloads):
        expected ^= np.array([GF16.mul(c, int(v)) for v in src], np.uint8)
    assert (pkt.payload == expected).all()
    assert pkt.generation_id == 2
    with pytest.raises(ValueError, match="cannot encode 5 payloads with 4 coefficients"):
        encode(payloads, coeffs[:4], GF16)


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
    pkt = encode(sources, coeffs, field)
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
        return [encode(sources, random_coefficients(g, rng, field), field)
                for _ in range(4 * g + 16)]

    def decode(held, packets):
        state = DecoderState(0, range(g), wanted, field, held)
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
    known = {pid: np.array(payloads[pid], np.uint8) for pid in ids if pid not in wanted}
    state = DecoderState(0, ids, wanted, field, known)
    # the same system rank-only, with numpy ids, the wanted ids reversed and
    # int64 coefficients
    abstract = DecoderState(0, np.array(ids), np.array(wanted[::-1], dtype=int), field)
    assert state.unknown_ids == abstract.unknown_ids == tuple(p for p in ids if p in wanted)
    # a packet of another generation, of the wrong length or with a
    # coefficient outside the field (in any column) is rejected before any
    # change, also by a state that wants nothing or has decoded
    outside = np.zeros(len(ids), np.uint8 if 0 <= bad < 256 else np.int64)
    outside[bad_col] = bad
    zeros = np.zeros(4, np.uint8)
    bad_packets = [(CodedPacket(0, outside, zeros), "outside GF|range"),
                   (CodedPacket(0, np.zeros(len(ids) + 1, np.uint8), zeros), "length"),
                   (CodedPacket(1, np.zeros(len(ids), np.uint8), zeros), "generation")]

    def rejects_bad_packets(decoder):
        before = decoder.rank, decoder.needed
        for pkt, match in bad_packets:
            with pytest.raises(ValueError, match=match):
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
            CodedPacket(0, np.array(row, np.uint8), np.array(coded, np.uint8)))
        assert abstract.absorb(CodedPacket(0, np.array(row, np.int64), None)) == innovative
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
def generation_cases(draw):
    """A field, one generation's ids within K packets, 0/1 want rows over
    the K packets for a few receivers, payloads and coefficient rows."""
    field = draw(st.sampled_from([GF16, GF256]))
    k = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                         min_size=1, max_size=5))
    symbol = st.integers(0, field.q - 1)
    payloads = [draw(st.lists(symbol, min_size=3, max_size=3)) for _ in range(k)]
    coeffs = draw(st.lists(st.lists(symbol, min_size=len(ids), max_size=len(ids)),
                           max_size=2 * len(ids) + 2))
    return field, ids, rows, payloads, coeffs


@settings(max_examples=150, deadline=None)
@given(generation_cases())
def test_for_generation_matches_one_by_one(case):
    field, ids, rows, payloads, coeffs = case
    sources = [np.array(p, np.uint8) for p in payloads]
    # equal when built, and fed the same packets, rank-only and with
    # payloads (every source for all, each receiver's held ones for one),
    # equal throughout
    for with_payloads in (False, True):
        flags = {r: bytes(255 if row[k] else 0 for k in ids) for r, row in enumerate(rows)}
        built = DecoderState.for_generation(5, ids, flags, field,
                                            dict(enumerate(sources)) if with_payloads else None)
        single = {r: DecoderState(5, ids, [k for k in ids if row[k]], field,
                                  {k: sources[k] for k in ids if not row[k]}
                                  if with_payloads else None)
                  for r, row in enumerate(rows) if any(row[k] for k in ids)}
        assert built.keys() == single.keys()
        for r, state in built.items():
            one = single[r]
            assert (state.generation_id, state.generation_ids, state.unknown_ids,
                    state.needed, state.rank) == (one.generation_id, one.generation_ids,
                                                  one.unknown_ids, one.needed, one.rank)
        for row in coeffs:
            coded = None
            if with_payloads:
                coded = np.zeros(3, np.uint8)
                for c, k in zip(row, ids):
                    coded ^= field.mul_vec(c, sources[k])
            pkt = CodedPacket(5, np.array(row, np.uint8), coded)
            for r, state in built.items():
                assert state.absorb(pkt) == single[r].absorb(pkt)
                assert (state.needed, state.rank) == (single[r].needed, single[r].rank)
        for r, state in built.items():
            if with_payloads and state.decoded:
                got, want = state.solve(), single[r].solve()
                assert got.keys() == want.keys()
                assert all((got[k] == want[k]).all() and (got[k] == sources[k]).all()
                           for k in got)
            elif state.decoded:  # rank-only: neither has payloads to solve
                for s in (state, single[r]):
                    with pytest.raises(RuntimeError, match="without payloads"):
                        s.solve()


@st.composite
def shared_packet_cases(draw):
    """Decoders over GF(16) and GF(256) of generations 0 and 1 (1-3 packets),
    rank-only or decoding 2-byte payloads, wanting any subset, some decoded
    before the packets come; then packets of either generation, 1-3
    coefficient bytes each (often outside GF(16)), with a 2- or 3-byte
    payload of GF(16) symbols or none."""
    specs = []
    for _ in range(draw(st.integers(2, 6))):
        g = draw(st.integers(1, 3))
        specs.append((draw(st.sampled_from([GF16, GF256])), draw(st.integers(0, 1)), g,
                      draw(st.lists(st.integers(0, g - 1), unique=True)),
                      draw(st.booleans()), draw(st.booleans())))
    byte = st.one_of(st.integers(0, 15), st.integers(0, 255))
    packets = draw(st.lists(st.tuples(
        st.integers(0, 1), st.lists(byte, min_size=1, max_size=3),
        st.one_of(st.none(), st.lists(st.integers(0, 15), min_size=2, max_size=3))),
        max_size=8))
    return specs, packets


def shared_packet_decoder(field, generation_id, g, wanted, payloads, decoded_first):
    held = {k: np.full(2, k + 1, np.uint8) for k in range(g) if k not in wanted}
    state = DecoderState(generation_id, range(g), wanted, field, held if payloads else None)
    for unit in np.eye(g, dtype=np.uint8) if decoded_first else ():
        state.absorb(CodedPacket(generation_id, unit, np.zeros(2, np.uint8)))
    return state


@settings(max_examples=200, deadline=None)
@given(shared_packet_cases())
def test_a_packet_shared_by_decoders_acts_as_a_fresh_copy_on_each(case):
    # one packet absorbed in turn by several decoders, twice over, does to
    # each what a fresh copy of it does to a twin: the same return value,
    # counters, error text and solution; so a packet refused once (outside
    # one decoder's field, of the wrong length or generation) is refused
    # again by every decoder it does not fit
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

    def packet(generation_id, coeffs, payload):
        return CodedPacket(generation_id, np.array(coeffs, np.uint8),
                           None if payload is None else np.array(payload, np.uint8))

    for spec in packets:
        pkt = packet(*spec)
        for _ in range(2):
            for state, twin in zip(shared, twins):
                assert outcome(state, pkt) == outcome(twin, packet(*spec))
    assert [solution(s) for s in shared] == [solution(t) for t in twins]
