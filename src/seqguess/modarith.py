"""Machine-word prime-field arithmetic.

Everything the modular layers touch lives here: a prime field whose
elements are plain Python ints in [0, p), and prime sampling.  Exact
values enter a field in guess._TermImages and lift._reduce_flat.

Primes are sampled with at most 31 bits so that a product of two
residues stays below 2**62 and vectorized int64 arithmetic on residues
never overflows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_PRIME_BITS = 31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for everything below 3.3 * 10**24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sample_prime(bits: int, exclude: frozenset | set = frozenset(), rng: random.Random | None = None) -> int:
    """Draw a prime with exactly `bits` bits, avoiding `exclude`.

    The intended operating size is 31 bits; smaller sizes (down to the
    point where the range still contains primes) are accepted so that
    exhaustion behaviour stays testable.  Sampling is deterministic given
    `rng`; when the random search stalls the full range is scanned, so
    small ranges exhaust cleanly instead of looping.

    Raises:
        ValueError: bits out of range or no prime left to return.
    """
    if not (2 <= bits <= MAX_PRIME_BITS):
        raise ValueError(f"prime bit size must be in [2, {MAX_PRIME_BITS}], got {bits}")
    rng = rng or random.Random(0)
    lo, hi = 1 << (bits - 1), 1 << bits
    for _ in range(64 * bits):
        c = rng.randrange(lo, hi) | 1
        if c not in exclude and is_probable_prime(c):
            return c
    for c in range(lo | 1, hi, 2):
        if c not in exclude and is_probable_prime(c):
            return c
    raise ValueError(f"no unused prime of bit size {bits} remains")


@dataclass(frozen=True)
class ModPrime:
    """The field Z/pZ with elements represented as ints in [0, p)."""

    p: int

    def __post_init__(self):
        if self.p < 2 or self.p.bit_length() > MAX_PRIME_BITS or not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not a prime of at most {MAX_PRIME_BITS} bits")

    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return a * self.inv(b) % self.p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def from_int(self, n: int) -> int:
        return n % self.p

