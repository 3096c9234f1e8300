"""Exact integer sequences underlying Jaco graphs.

The central object is the lowest-in-neighbor series c: c[0] = 0, c[1] = 1
and, for n >= 2, c[n] is the least k < n with a*k + c[k] >= n.  From it
follow the in-degree n - c[n], the out-degree (a-1)*n + c[n] and the
reach a*n + c[n] of every vertex of the infinite order-a graph.

At every order c is a Beatty sequence.  Let r = (a + sqrt(a*a + 4))/2, so
that r = a + 1/r, and beta = r/(r+1).  Then, for every n >= 0,

    c[n] = floor(n/r + beta)
         = (isqrt((a*a + 4)*(a*n + 1)**2) - a*a*n + a - 2) // (2*a),

which c_beatty evaluates.  At a = 1 this is floor((n+1)/phi), Hofstadter's
G-sequence (OEIS A005206).  Proof:
  1. Let f(k) = floor(k/r + beta).  Since a + 1/r = r,
     a*k + f(k) = floor(k*r + beta).
  2. floor(k*r + beta) >= n holds exactly when k >= (n - beta)/r.  Since
     beta*(1 + 1/r) = 1, (n - beta)/r = x - 1 with x = n/r + beta.
  3. x is irrational for every n >= 0: its sqrt(a*a + 4) coefficient is
     (a*n + 1)/(2a) > 0, and a*a + 4 is never a square.  So the least such
     k is ceil(x - 1) = floor(x) = f(n).
  4. f(0) = 0 and f(1) = 1, because 1/r + beta lies in (1, 2).  By strong
     induction on the definition of c, c = f.
  5. For the integer form: x = ((a*n + 1)*sqrt(a*a + 4) - a*a*n + a - 2)/(2a),
     and floor((y + m)/q) = floor((floor(y) + m)/q) for integers m and q > 0.
A corollary: the reach a*k + c[k] = floor(k*r + beta) is a Beatty sequence
too.

Every sequence obeying x[i+1] = a*x[i] + x[i-1] comes from
recurrence_terms: the Lucas basis U(a, -1), U_0, U_1, ... = 0, 1, a, ...,
is recurrence_terms(a, 0, 1) and the Liz numbers B_1, B_2, ... = 1, 1,
a+1, ... are recurrence_terms(a, 1, 1).  At a = 1 both are the Fibonacci
numbers; at a = 2 the basis is the Pell numbers.  c has a closed form over
that basis: expand n in its unique constrained digit expansion, shift
every basis index down by one and add a 0/1 correction term (c_closed).
A digit expansion is a plain tuple of ints, alpha_1 first; the order a it
is read in travels beside it as an argument.
"""

from __future__ import annotations

__all__ = [
    "ZeckDigitError", "SequenceTable", "recurrence_terms", "c_series", "zeck_encode",
    "validate_digits", "zeck_decode", "tau", "c_closed", "c_beatty", "bettina_dplus",
]

from bisect import bisect_right
from collections import namedtuple
from functools import cache, lru_cache
from itertools import compress, islice
from math import isqrt
from operator import index, mul


class ZeckDigitError(ValueError):
    """A digit string violates the generalized Zeckendorf constraints."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"digit alpha_{index}: {message}")


def check_order(a: int) -> None:
    """Reject graph orders outside the defined domain (a >= 1)."""
    if a < 1:
        raise ValueError(f"order a must be >= 1, got {a}")


class SequenceTable(namedtuple("SequenceTable", "a c")):
    """The series c[0], c[1], ... of order a; the reach column is computed on each read.

    reach[n] = a*n + c[n].  The two degrees have no column: their readers
    take them inline from c.
    """

    __slots__ = ()

    @property
    def reach(self) -> tuple[int, ...]:
        return tuple(self.a * n + cn for n, cn in enumerate(self.c))


# Terms of x[i+1] = a*x[i] + x[i-1] per (a, x[0], x[1]), grown on demand.
_TERMS_CACHE: dict[tuple[int, int, int], list[int]] = {}


def recurrence_terms(a: int, x0: int, x1: int, *, count: int = 0, at_least: int = 0) -> list[int]:
    """Cached x[0], x[1], ... of x[i+1] = a*x[i] + x[i-1].

    The list holds at least count terms and its last term is >= at_least.
    It is shared between callers and must not be mutated.
    """
    terms = _TERMS_CACHE.get((a, x0, x1))
    if terms is None:
        terms = _TERMS_CACHE[a, x0, x1] = [x0, x1]
    while len(terms) < count or terms[-1] < at_least:
        terms.append(a * terms[-1] + terms[-2])
    return terms


def c_series(a: int, horizon: int) -> SequenceTable:
    """Compute c[0..horizon] in O(horizon), one tight step per n.

    The defining minimization is a scan over k < n, but the minimizing k
    never decreases as n grows, so a single forward pointer k suffices,
    carried with its reach a*k + c[k].  c[n] = k exactly while n <= that
    reach, and the next reach is at least one further (a >= 1 and c is
    non-decreasing), so k never needs more than one step per n.
    """
    check_order(a)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    c = [0] * (horizon + 1)
    if horizon >= 1:
        c[1] = 1
    k, reach = 1, a + 1
    for n in range(2, horizon + 1):
        if n > reach:
            k += 1
            reach = a * k + c[k]
        c[n] = k
    return SequenceTable(a, tuple(c))


@lru_cache(maxsize=1, typed=True)
def zeck_encode(a: int, n: int) -> tuple[int, ...]:
    """Greedy constrained digit expansion of n over the basis U(a, -1).

    Returns the digits of n = sum(alpha_i * U_i), alpha_1 first, with no
    trailing zero; the expansion of 0 is the empty tuple.  n is taken
    through operator.index, so a float is refused with TypeError and a
    bool expands as the int it equals.  Valid digit
    strings satisfy alpha_1 < a, alpha_i <= a, and alpha_i = a only when
    alpha_{i-1} = 0.  Working from the largest basis term down, take the
    largest admissible multiple of each term.  The remainder after
    position 2 is < U_2 = a and becomes alpha_1, so alpha_1 < a holds by
    construction, as does the rule that a full digit (alpha_i = a) is
    followed below by a zero.

    A term that fits is subtracted up to twice; only a remainder still >=
    that term pays for a divmod, so at a = 1 and a = 2, where every digit
    is at most 2, no digit divides.  A digit is never found by repeated
    subtraction beyond that, since it can be as large as a.

    The last expansion is remembered (a one-entry lru_cache with typed
    keys, so True never shares an entry with 1): a point query that asks
    for the digits of n and then for c_closed(a, n) or bettina_dplus(n)
    expands n once.  The result is an immutable tuple, so sharing it is
    safe.  Only this function reads the memo; zeck_decode validates and
    sums every string it is given, so a round trip checks the encoder
    against an independent evaluation every time.  A test that patches a
    route this function reads (check_order, recurrence_terms) should
    call zeck_encode.cache_clear() before the patch and after it: a
    remembered expansion can hide the patch, or outlive it.
    """
    check_order(a)
    n = index(n)
    if n < 0:
        raise ValueError(f"value must be >= 0, got {n}")
    if n == 0:
        return ()
    terms = recurrence_terms(a, 0, 1, count=3, at_least=n)
    m = bisect_right(terms, n) - 1
    if m < 2:
        m = 2
    digits = []  # alpha_m first
    r = n
    for u in terms[m:1:-1]:
        if u > r:
            digits.append(0)
        else:
            r -= u
            if u > r:
                digits.append(1)
            else:
                r -= u
                if u > r:
                    digits.append(2)
                else:
                    q, r = divmod(r, u)
                    digits.append(q + 2)
    digits.append(r)
    digits.reverse()
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


@cache
def _digit_classes(a: int) -> bytes:
    """The class of each byte value as a digit of order a: 0 zero, 1 nonzero
    below a, 2 full (= a), 3 above a.  Callers pass orders >= 256 as 256,
    so they share one table, since no byte reaches them."""
    return bytes(0 if d == 0 else 1 if d < a else 2 if d == a else 3 for d in range(256))


def validate_digits(a: int, digits: tuple[int, ...]) -> None:
    """Raise ZeckDigitError if digits violates any constraint of an order-a
    digit string (see zeck_encode), or holds a digit that is not an int (a
    bool is one, as it is for bytearray).

    A tuple whose digits are all bytes is screened whole (as a bytearray,
    which CPython builds from a tuple faster than bytes): translated to
    digit classes, it is valid when its last digit is nonzero, its first
    class is below full, no class is above a, and no full digit follows a
    nonzero one.  A string that fails the screen, whose digits are no
    bytes (a digit outside 0..255 raises ValueError, one with no
    __index__ TypeError), that holds a digit that is no int (one with an
    __index__), or that is no tuple, is walked digit by digit, which
    names the first bad index: first the first digit that is no int, then
    the first constraint broken.
    """
    check_order(a)
    if not digits:
        return
    # only a tuple is screened: bytearray(m) of an int m is m zero bytes
    if type(digits) is tuple:
        try:
            raw = bytearray(digits)
            # bytearray also takes a digit that is no int through its
            # __index__, and a sum can come out an int through __radd__:
            # only the walk's own isinstance test is exact
            ints = all(map(int.__instancecheck__, digits))
        except (ValueError, TypeError):
            ints = False
        if ints:
            # a conditional, not min(): the call to min() costs more than the lookup
            cls = raw.translate(_digit_classes(a if a < 256 else 256))
            # find, not `in`: `in` first tries a bytes needle as an int and
            # pays for the TypeError
            if (raw[-1] and cls[0] < 2 and 3 not in cls
                    and cls.find(b"\x01\x02") < 0 and cls.find(b"\x02\x02") < 0):
                return
    for i, alpha in enumerate(digits, 1):
        if not isinstance(alpha, int):
            raise ZeckDigitError(i, f"digit must be an int, got {alpha!r}")
    if digits[-1] == 0:
        raise ZeckDigitError(len(digits), "leading digit must be nonzero")
    if not 0 <= digits[0] < a:
        raise ZeckDigitError(1, f"alpha_1 must satisfy 0 <= alpha_1 < a, got {digits[0]}")
    for i in range(1, len(digits)):
        if not 0 <= digits[i] <= a:
            raise ZeckDigitError(i + 1, f"digit must be in [0, {a}], got {digits[i]}")
        if digits[i] == a and digits[i - 1] != 0:
            raise ZeckDigitError(i + 1, f"alpha_{i + 1} = a requires alpha_{i} = 0")


def zeck_decode(a: int, digits: tuple[int, ...]) -> int:
    """Evaluate a digit string back to its integer value, validating it
    first; the empty string is 0."""
    validate_digits(a, digits)
    terms = islice(recurrence_terms(a, 0, 1, count=len(digits) + 1), 1, None)
    return _dot(a, digits, terms)  # alpha_i * U_i


def _dot(a: int, digits: tuple[int, ...], terms) -> int:
    """sum(alpha * u) over the nonzero digits of a valid order-a string and
    the terms beside them, an int; 0 for the empty string.

    At a = 1 every valid digit is 0 or 1, so the sum is that of the terms
    beside the ones, with no product.
    """
    if a == 1:
        return sum(compress(terms, digits))
    return sum(map(mul, compress(digits, digits), compress(terms, digits)))


def tau(digits: tuple[int, ...]) -> int:
    """The 0/1 correction term of the closed form, read off the digits.

    Zero when alpha_1 = 0; one when alpha_1 > 1; otherwise determined by
    the parity of the run of leading ones and by whether the digit after
    the run is zero or larger than one.  For a = 1 this is always zero.
    """
    if not digits:
        raise ValueError("correction term is undefined for the zero representation")
    if digits[0] == 0:
        return 0
    if digits[0] > 1:
        return 1
    run = 1
    while run < len(digits) and digits[run] == 1:
        run += 1
    after = digits[run] if run < len(digits) else 0
    if after == 0:
        return run % 2
    return 1 - run % 2


def c_closed(a: int, n: int) -> int:
    """Closed form for c[n]: shift every digit's basis index down, add tau."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    digits = zeck_encode(a, n)
    terms = recurrence_terms(a, 0, 1, at_least=n)
    return _dot(a, digits, terms) + tau(digits)  # alpha_i * U_{i-1}


def c_beatty(a: int, n: int) -> int:
    """c[n] from its Beatty form floor(n/r + r/(r+1)), in exact integers
    (see the module docstring)."""
    check_order(a)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (isqrt((a * a + 4) * (a * n + 1) ** 2) - a * a * n + a - 2) // (2 * a)


def bettina_dplus(n: int) -> int:
    """Out-degree of v_n in the infinite order-1 graph via Zeckendorf shift.

    Expand n over the Fibonacci numbers and shift every index down by one;
    the correction term vanishes at order 1, so this is a pure digit shift,
    which is c_closed at order 1.
    """
    return c_closed(1, n)
