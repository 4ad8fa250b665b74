"""Prime sampling, word-size prime fields, and the tests' reduction of rationals."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import reduce_scalar
from seqguess.errors import BadModulus
from seqguess.modarith import (
    MAX_PRIME_BITS,
    ModPrime,
    is_probable_prime,
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
