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


def test_mul_table_matches_scalar_mul():
    for field in (GF16, GF256):
        rng = np.random.default_rng(1)
        a = rng.integers(0, field.q, 100)
        b = rng.integers(0, field.q, 100)
        for x, y in zip(a, b):
            assert field.mul_table[x, y] == field.mul(int(x), int(y))


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
