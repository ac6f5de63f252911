import numpy as np
import pytest

from gencast.galois import GF16, GF256, get_field


def test_characteristic_two():
    for x in (0, 1, 0x53, 0xFF):
        assert GF256.add(x, x) == 0


def test_multiplicative_identity():
    for x in range(256):
        assert GF256.mul(x, 1) == x


def test_known_product():
    # x * x^7 = x^8 reduces to x^4+x^3+x^2+1 under the 0x11D polynomial
    assert GF256.mul(0x02, 0x80) == 0x1D


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF16.inv(0)


@pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
def test_field_axioms(field):
    q = field.q
    if q <= 16:
        elems = range(q)
        pairs = [(a, b) for a in elems for b in elems]
        triples = [(a, b, c) for a in elems for b in elems for c in elems]
    else:
        rng = np.random.default_rng(0)
        pairs = [tuple(map(int, rng.integers(0, q, 2))) for _ in range(2000)]
        triples = [tuple(map(int, rng.integers(0, q, 3))) for _ in range(2000)]
    for a, b in pairs:
        assert field.mul(a, b) == field.mul(b, a)
        if b:
            assert field.mul(field.mul(a, b), field.inv(b)) == a
    for a, b, c in triples:
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        # distributivity over XOR addition
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)


@pytest.mark.parametrize("field", [GF16, GF256], ids=["GF16", "GF256"])
def test_exp_log_tables_consistent(field):
    for a in range(1, field.q):
        assert field.exp[field.log[a]] == a
        assert field.mul(a, field.inv(a)) == 1


def reference_mul(a, b, m, poly):
    """Shift-and-add GF(2^m) product, reduced by the field polynomial; shares
    no table with Field."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return product


def test_mul_table_matches_scalar_mul():
    # every q^2 product of the table, its translate rows (zero past q) and
    # mul, against the shift-and-add reference
    for field, poly in ((GF16, 0x13), (GF256, 0x11D)):
        ref = [[reference_mul(a, b, field.m, poly) for b in range(field.q)]
               for a in range(field.q)]
        assert field.mul_table.tolist() == ref
        assert len(field.translate_rows) == field.q
        for row, want in zip(field.translate_rows, ref):
            assert list(row[:field.q]) == want and row[field.q:] == bytes(256 - field.q)
        assert [[field.mul(a, b) for b in range(field.q)] for a in range(field.q)] == ref


def test_scalar_mul_rejects_an_element_outside_the_field():
    # translate_rows is zero-padded for bytes.translate; mul does not read it
    with pytest.raises(IndexError):
        GF16.mul(3, 200)


@pytest.mark.parametrize("field, poly", [(GF16, 0x13), (GF256, 0x11D)], ids=["GF16", "GF256"])
def test_mul_vec_matches_reference_on_a_new_array(field, poly):
    rng = np.random.default_rng(5)
    vec = rng.integers(0, field.q, 64, dtype=np.uint8)
    before = vec.copy()
    for c in (0, 1, int(rng.integers(2, field.q))):
        out = field.mul_vec(c, vec)
        assert out.tolist() == [reference_mul(c, int(v), field.m, poly) for v in vec]
        assert not np.shares_memory(out, vec)
    assert (vec == before).all()


def test_mul_vec():
    vec = np.array([0, 1, 2, 0x80], dtype=np.uint8)
    out = GF256.mul_vec(2, vec)
    assert list(out) == [0, 2, 4, 0x1D]
    assert list(GF256.mul_vec(0, vec)) == [0, 0, 0, 0]
    assert list(GF256.mul_vec(1, vec)) == list(vec)


def test_get_field_rejects_unsupported():
    with pytest.raises(ValueError):
        get_field(64)
    assert get_field(256) is GF256
