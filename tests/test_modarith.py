"""Prime sampling, word-size prime fields, packed modular vectors."""

import random
from fractions import Fraction

import numpy as np
import pytest

from seqguess.errors import BadModulus
from seqguess.modarith import (
    MAX_PRIME_BITS,
    ModPrime,
    PackedVec,
    is_probable_prime,
    mul_add_in_place,
    reduce_scalar,
    sample_prime,
)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_probable_prime_matches_trial_division():
    for n in range(-3, 500):
        assert is_probable_prime(n) == _trial_division(n), n


def test_is_probable_prime_known_large_cases():
    assert is_probable_prime(2**31 - 1)  # Mersenne
    assert not is_probable_prime(2**31 - 3)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(2465 * 2465)


def test_sample_prime_in_range_and_deterministic():
    for bits in (2, 3, 8, 20, 31):
        rng = random.Random(7)
        p = sample_prime(bits, rng=rng)
        assert 2 ** (bits - 1) <= p < 2**bits
        assert is_probable_prime(p)
        assert sample_prime(bits, rng=random.Random(7)) == p


def test_sample_prime_respects_exclusions():
    # bits=3 covers [4, 8): the only primes are 5 and 7
    assert sample_prime(3, exclude={5}, rng=random.Random(0)) == 7
    assert sample_prime(3, exclude={7}, rng=random.Random(0)) == 5
    with pytest.raises(ValueError):
        sample_prime(3, exclude={5, 7}, rng=random.Random(0))


def test_sample_prime_bit_bounds():
    assert MAX_PRIME_BITS == 31
    with pytest.raises(ValueError):
        sample_prime(1)
    with pytest.raises(ValueError):
        sample_prime(32)


def test_modprime_rejects_bad_moduli():
    with pytest.raises(ValueError):
        ModPrime(8)
    with pytest.raises(ValueError):
        ModPrime(1)
    with pytest.raises(ValueError):
        ModPrime(2147483659)  # prime, but 32 bits


def test_modprime_field_ops():
    fp = ModPrime(97)
    assert fp.add(90, 10) == 3
    assert fp.sub(3, 10) == 90
    assert fp.neg(1) == 96
    assert fp.mul(10, 10) == 3
    assert fp.mul(fp.inv(13), 13) == 1
    assert fp.div(1, 3) == fp.inv(3)
    assert fp.is_zero(0) and not fp.is_zero(5)
    assert fp.from_int(-1) == 96
    with pytest.raises(ZeroDivisionError):
        fp.inv(0)


def test_reduce_scalar():
    fp = ModPrime(7)
    assert reduce_scalar(10, fp) == 3
    assert reduce_scalar(Fraction(1, 3), fp) == 5
    assert reduce_scalar(Fraction(-2, 3), fp) == 4
    assert reduce_scalar(np.int64(13), fp) == 6
    with pytest.raises(BadModulus):
        reduce_scalar(Fraction(1, 7), fp)
    with pytest.raises(BadModulus):
        reduce_scalar(Fraction(3, 14), fp)


def test_packed_vec_layout():
    v = PackedVec.zeros(3, 5)
    assert v.components == 3 and v.stride == 5
    v.component(1)[2] = 9
    assert v.data[1 * 5 + 2] == 9


def test_mul_add_in_place_frozen():
    fp = ModPrime(5)
    v1 = PackedVec.zeros(1, 2)
    v2 = PackedVec.zeros(1, 2)
    v1.component(0)[:] = [1, 2]
    v2.component(0)[:] = [3, 4]
    mul_add_in_place(v1, v2, 2, fp)
    assert list(v1.component(0)) == [2, 0]  # (1+6, 2+8) mod 5


def test_mul_add_in_place_no_overflow_at_edge():
    # largest admissible prime, largest residues: c*v + w must not wrap int64
    p = 2**31 - 1
    fp = ModPrime(p)
    v1 = PackedVec.zeros(1, 3)
    v2 = PackedVec.zeros(1, 3)
    v1.component(0)[:] = [p - 1] * 3
    v2.component(0)[:] = [p - 1] * 3
    mul_add_in_place(v1, v2, p - 1, fp)
    # (p-1) + (p-1)^2 = p(p-1) = 0 mod p
    assert list(v1.component(0)) == [0, 0, 0]


def test_mul_add_shape_mismatch():
    fp = ModPrime(5)
    with pytest.raises(ValueError):
        mul_add_in_place(PackedVec.zeros(1, 2), PackedVec.zeros(1, 3), 1, fp)


def test_mul_add_random_against_python_ints():
    rng = random.Random(3)
    fp = ModPrime(1000003)
    for _ in range(50):
        a = [rng.randrange(fp.p) for _ in range(8)]
        b = [rng.randrange(fp.p) for _ in range(8)]
        c = rng.randrange(fp.p)
        v1 = PackedVec.zeros(2, 4)
        v2 = PackedVec.zeros(2, 4)
        v1.data[:] = a
        v2.data[:] = b
        mul_add_in_place(v1, v2, c, fp)
        assert list(v1.data) == [(x + c * y) % fp.p for x, y in zip(a, b)]
