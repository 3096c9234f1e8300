"""Exact integer sequences underlying Jaco graphs.

The central object is the lowest-in-neighbor series c: c[0] = 0, c[1] = 1
and, for n >= 2, c[n] is the least k < n with a*k + c[k] >= n.  From it
follow the in-degree (n - c[n]), the out-degree ((a-1)*n + c[n]) and the
reach (a*n + c[n]) of every vertex of the infinite order-a graph.  Only c
is stored; the derived columns (these three and the prefix sum of c) are
computed on first access.

The same series has a closed form over the generalized Lucas basis
U(a, -1): expand n in the unique constrained digit expansion over that
basis, shift every basis index down by one and add a 0/1 correction term.
A digit expansion is a plain tuple of ints, alpha_1 first; the order a
it is read in travels beside it as an argument.  The greedy encoder
subtracts a fitting term once and divides only when the remainder still
fits it, so order-1 digits cost no division; decoding and the closed
form are one C-iterator dot product of the nonzero digits with their
basis terms.
All arithmetic is exact (Python integers widen as needed).  Every
sequence obeying x[i+1] = a*x[i] + x[i-1] (the Lucas basis, the Liz
numbers, the Fibonacci numbers) comes from one cached builder,
recurrence_terms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, islice
from operator import mul


class ZeckDigitError(ValueError):
    """A digit string violates the generalized Zeckendorf constraints."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"digit alpha_{index}: {message}")


def check_order(a: int) -> None:
    """Reject graph orders outside the defined domain (a >= 1)."""
    if a < 1:
        raise ValueError(f"order a must be >= 1, got {a}")


@dataclass(frozen=True)
class SequenceTable:
    """The series c[0], c[1], ... of order a; derived columns are computed on demand.

    dminus[n] = n - c[n], dplus[n] = (a-1)*n + c[n], reach[n] = a*n + c[n],
    and csum[n] = c[0] + ... + c[n].
    """

    a: int
    c: tuple[int, ...]

    @cached_property
    def dminus(self) -> tuple[int, ...]:
        return tuple(n - cn for n, cn in enumerate(self.c))

    @cached_property
    def dplus(self) -> tuple[int, ...]:
        return tuple((self.a - 1) * n + cn for n, cn in enumerate(self.c))

    @cached_property
    def reach(self) -> tuple[int, ...]:
        return tuple(self.a * n + cn for n, cn in enumerate(self.c))

    @cached_property
    def csum(self) -> tuple[int, ...]:
        return tuple(accumulate(self.c))


# Terms of x[i+1] = a*x[i] + x[i-1] per (a, x[0], x[1]), grown on demand.
_TERMS_CACHE: dict[tuple[int, int, int], list[int]] = {}


def recurrence_terms(a: int, x0: int, x1: int, *, count: int = 0, at_least: int = 0) -> list[int]:
    """Cached x[0], x[1], ... of x[i+1] = a*x[i] + x[i-1].

    The list holds at least count terms and its last term is >= at_least.
    It is shared between callers and must not be mutated.
    """
    terms = _TERMS_CACHE.setdefault((a, x0, x1), [x0, x1])
    while len(terms) < count or terms[-1] < at_least:
        terms.append(a * terms[-1] + terms[-2])
    return terms


def lucas_terms(a: int, m: int) -> tuple[int, ...]:
    """(U_0, ..., U_m) of U(a, -1): U_0 = 0, U_1 = 1, U_{n+1} = a*U_n + U_{n-1}."""
    check_order(a)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return tuple(recurrence_terms(a, 0, 1, count=m + 1)[: m + 1])


def liz_terms(a: int, m: int) -> tuple[int, ...]:
    """Liz numbers (B_0, ..., B_m); for a = 1 these are the Fibonacci numbers."""
    check_order(a)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    # B_0 = 0 stands outside the recurrence, which starts at B_1 = B_2 = 1
    return (0, *recurrence_terms(a, 1, 1, count=m)[:m])


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


def zeck_encode(a: int, n: int) -> tuple[int, ...]:
    """Greedy constrained digit expansion of n over the basis U(a, -1).

    Returns the digits of n = sum(alpha_i * U_i), alpha_1 first, with no
    trailing zero; the expansion of 0 is the empty tuple.  Valid digit
    strings satisfy alpha_1 < a, alpha_i <= a, and alpha_i = a only when
    alpha_{i-1} = 0.  Working from the largest basis term down, take the
    largest admissible multiple of each term.  The remainder after
    position 2 is < U_2 = a and becomes alpha_1, so alpha_1 < a holds by
    construction, as does the rule that a full digit (alpha_i = a) is
    followed below by a zero.

    A term that fits is subtracted once; only a remainder still >= that
    term pays for a divmod, so at a = 1, where every digit is 0 or 1, no
    digit divides.  A digit is never found by repeated subtraction, since
    it can be as large as a.
    """
    check_order(a)
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
                q, r = divmod(r, u)
                digits.append(q + 1)
    digits.append(r)
    digits.reverse()
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def validate_digits(a: int, digits: tuple[int, ...]) -> None:
    """Raise ZeckDigitError if digits violates any constraint of an order-a
    digit string (see zeck_encode)."""
    check_order(a)
    if not digits:
        return
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
    """Evaluate a digit string back to its integer value, validating it first."""
    validate_digits(a, digits)
    if not digits:
        return 0
    terms = recurrence_terms(a, 0, 1, count=len(digits) + 1)
    return _dot(digits, islice(terms, 1, None))  # alpha_i * U_i


def _dot(digits: tuple[int, ...], terms) -> int:
    """sum(alpha * u) over the nonzero digits and the terms beside them."""
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
    return _dot(digits, terms) + tau(digits)  # alpha_i * U_{i-1}


def bettina_dplus(n: int) -> int:
    """Out-degree of v_n in the infinite order-1 graph via Zeckendorf shift.

    Expand n over the Fibonacci numbers and shift every index down by one;
    the correction term vanishes at order 1, so this is a pure digit shift,
    which is c_closed at order 1.
    """
    return c_closed(1, n)
