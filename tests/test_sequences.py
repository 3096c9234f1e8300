import time
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco import sequences
from jaco.oracles import c_series_bruteforce, enumerate_zeck_reps
from jaco.sequences import (
    ZeckDigitError,
    bettina_dplus,
    c_closed,
    c_series,
    liz_terms,
    lucas_terms,
    tau,
    validate_digits,
    zeck_decode,
    zeck_encode,
)


class TestLucasTerms:
    @pytest.mark.parametrize(
        "a,m,expected",
        [
            (1, 6, [0, 1, 1, 2, 3, 5, 8]),
            (2, 4, [0, 1, 2, 5, 12]),
            (3, 3, [0, 1, 3, 10]),
        ],
    )
    def test_known_prefixes(self, a, m, expected):
        assert list(lucas_terms(a, m)) == expected

    def test_strictly_increasing_from_u1(self):
        for a in range(1, 6):
            terms = lucas_terms(a, 30)
            start = 2 if a == 1 else 1  # a=1 allows the single tie U_1 = U_2
            for i in range(start, 30):
                assert terms[i + 1] > terms[i]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lucas_terms(0, 5)
        with pytest.raises(ValueError):
            lucas_terms(2, 0)


class TestLizTerms:
    @pytest.mark.parametrize(
        "a,m,expected",
        [
            (1, 6, [0, 1, 1, 2, 3, 5, 8]),
            (2, 5, [0, 1, 1, 3, 7, 17]),
            (3, 4, [0, 1, 1, 4, 13]),
        ],
    )
    def test_known_prefixes(self, a, m, expected):
        assert list(liz_terms(a, m)) == expected

    def test_order_one_is_fibonacci(self):
        assert liz_terms(1, 20) == lucas_terms(1, 20)

    def test_rejects_short_request(self):
        with pytest.raises(ValueError):
            liz_terms(2, 1)


class TestCSeries:
    def test_seeds(self):
        table = c_series(3, 1)
        assert table.c[0] == 0
        assert table.c[1] == 1

    @pytest.mark.parametrize(
        "a,expected",
        [
            (1, [1, 1, 2, 3, 3, 4, 4, 5]),
            (2, [1, 1, 1, 2, 2, 3, 3, 4]),
        ],
    )
    def test_known_values(self, a, expected):
        assert list(c_series(a, 8).c[1:]) == expected

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_matches_bruteforce_definition(self, a):
        assert list(c_series(a, 400).c) == c_series_bruteforce(a, 400)

    @pytest.mark.parametrize("a", range(1, 7))
    def test_every_horizon_matches_bruteforce(self, a):
        # the carried reach starts at a + 1 and the table ends at the horizon:
        # both edges show only at small horizons
        for h in range(61):
            assert list(c_series(a, h).c) == c_series_bruteforce(a, h), f"a={a} h={h}"

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_monotone_unit_steps(self, a):
        c = c_series(a, 500).c
        assert all(c[n + 1] - c[n] in (0, 1) for n in range(500))

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_derived_columns(self, a):
        t = c_series(a, 300)
        for n in range(1, 301):
            assert t.dplus[n] + t.dminus[n] == a * n
            assert t.reach[n] == n + t.dplus[n]
            assert t.dminus[n] == n - t.c[n]

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_fixpoint_identity(self, a):
        # c[a*k + c[k] - b] = k for 0 <= b < a
        t = c_series(a, 600)
        for k in range(1, 601):
            for b in range(a):
                target = a * k + t.c[k] - b
                if target <= 600:
                    assert t.c[target] == k


class TestZeckendorf:
    def test_encode_examples(self):
        assert zeck_encode(1, 7) == (0, 0, 1, 0, 1)  # 7 = 5 + 2
        assert zeck_encode(2, 8) == (1, 1, 1)  # 8 = 5 + 2 + 1 (Pell)
        assert zeck_encode(2, 4) == (0, 2)  # 4 = 2 * U_2
        assert zeck_encode(3, 0) == ()

    def test_decode_examples(self):
        assert zeck_decode(1, (0, 0, 1, 0, 1)) == 7
        assert zeck_decode(2, (1, 1, 1)) == 8

    def test_decode_rejects_full_digit_after_nonzero(self):
        with pytest.raises(ZeckDigitError) as err:
            zeck_decode(2, (1, 2))
        assert err.value.index == 2

    def test_decode_rejects_bad_alpha1(self):
        with pytest.raises(ZeckDigitError) as err:
            zeck_decode(1, (1,))
        assert err.value.index == 1

    def test_decode_rejects_oversized_digit(self):
        with pytest.raises(ZeckDigitError):
            zeck_decode(2, (0, 3))

    def test_decode_rejects_zero_leading_digit(self):
        with pytest.raises(ZeckDigitError):
            zeck_decode(2, (1, 0))

    def test_small_values_are_single_digit(self):
        for a in range(2, 6):
            for n in range(1, a):
                assert zeck_encode(a, n) == (n,)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_uniqueness_small(self, a):
        reps = enumerate_zeck_reps(a, 300)
        for n in range(1, 301):
            assert reps[n] == [zeck_encode(a, n)]

    @given(a=st.integers(1, 5), n=st.integers(0, 100_000))
    @settings(max_examples=300)
    def test_roundtrip(self, a, n):
        rep = zeck_encode(a, n)
        assert zeck_decode(a, rep) == n

    def test_order_one_alpha1_always_zero(self):
        for n in range(1, 2000):
            digits = zeck_encode(1, n)
            assert digits[0] == 0


class TestTau:
    def test_examples(self):
        assert tau(zeck_encode(2, 8)) == 1  # run of ones, length 3
        assert tau(zeck_encode(2, 7)) == 0  # alpha_1 = 0
        assert tau(zeck_encode(2, 6)) == 1  # single leading one, then zero
        assert tau((2,)) == 1  # alpha_1 > 1

    def test_run_then_larger_digit(self):
        # 1 = alpha_1 = ... = alpha_i < alpha_{i+1}: parity of the run
        assert tau((1, 2)) == 0  # run 1 (odd)
        assert tau((1, 1, 2)) == 1  # run 2 (even)

    def test_order_one_always_zero(self):
        for n in range(1, 3000):
            assert tau(zeck_encode(1, n)) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            tau(())


class TestClosedForm:
    def test_examples(self):
        assert c_closed(2, 8) == 4
        assert c_closed(2, 4) == 2
        assert c_closed(1, 8) == 5

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_matches_recursion(self, a):
        c = c_series(a, 3000).c
        for n in range(1, 3001):
            assert c_closed(a, n) == c[n]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            c_closed(2, 0)


class TestBettina:
    def test_examples(self):
        assert bettina_dplus(1) == 1
        assert bettina_dplus(7) == 4  # 7 = f_5 + f_3 -> f_4 + f_2
        assert bettina_dplus(8) == 5  # 8 = f_6 -> f_5

    def test_matches_closed_form_and_outdegree(self):
        t = c_series(1, 3000)
        for n in range(1, 3001):
            assert bettina_dplus(n) == c_closed(1, n) == t.dplus[n]


def golden_beatty(n):
    """floor((n+1)/phi), exactly: (floor(m*sqrt(5)) - m) // 2 with m = n + 1."""
    m = n + 1
    return (isqrt(5 * m * m) - m) // 2


class TestOrderOneBeatty:
    # at a = 1, c is Hofstadter's G-sequence (OEIS A005206), whose Beatty
    # form floor((n+1)/phi) is an exact route independent of the recurrence

    def test_table_matches_at_every_n(self):
        c = c_series(1, 200_000).c
        assert all(c[n] == golden_beatty(n) for n in range(1, 200_001))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**100 - 1))
    def test_closed_form_and_bettina_match_up_to_a_googol(self, n):
        assert c_closed(1, n) == bettina_dplus(n) == golden_beatty(n)


# orders 1..8 and one order so large that a digit can be ~10**9, with
# values up to 10**120
_ORDERS = st.integers(1, 8) | st.just(10**9)
_VALUES = st.integers(0, 10**120)


def _error_of(call):
    try:
        call()
    except ZeckDigitError as exc:
        return type(exc), exc.index, str(exc)
    return None


class TestDigitKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(a=_ORDERS, n=_VALUES)
    def test_encoding_is_valid_and_round_trips(self, a, n):
        digits = zeck_encode(a, n)
        validate_digits(a, digits)
        assert zeck_decode(a, digits) == n

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**120))
    def test_order_one_closed_form_is_beatty(self, n):
        assert c_closed(1, n) == (isqrt(5 * (n + 1) ** 2) - n - 1) // 2

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(2, 8) | st.just(10**9), n=st.integers(1, 10**120))
    def test_closed_form_is_the_least_reaching_k(self, a, n):
        # c(n) is the least k with a*k + c(k) >= n, and c(0) = 0
        k = c_closed(a, n)
        c_prev = c_closed(a, k - 1) if k > 1 else 0
        assert a * k + c_closed(a, k) >= n > a * (k - 1) + c_prev

    def test_huge_digits_take_one_step_each(self):
        # a digit can be as large as a: finding it by repeated subtraction
        # would take ~10**9 steps here
        start = time.perf_counter()
        digits = zeck_encode(10**9, 10**40 + 7)
        assert time.perf_counter() - start < 0.5
        assert zeck_decode(10**9, digits) == 10**40 + 7

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_decode_raises_exactly_where_validation_does(self, a):
        terms = lucas_terms(a, 6)
        for length in range(6):
            for digits in product(range(-1, a + 2), repeat=length):
                error = _error_of(lambda: validate_digits(a, digits))
                assert _error_of(lambda: zeck_decode(a, digits)) == error, digits
                if error is None:
                    want = sum(alpha * terms[i + 1] for i, alpha in enumerate(digits))
                    assert zeck_decode(a, digits) == want, digits


class TestBasisCacheIsolation:
    def test_public_results_are_immutable_tuples(self):
        assert isinstance(lucas_terms(2, 5), tuple)
        assert isinstance(c_series(2, 5).c, tuple)
        assert isinstance(zeck_encode(2, 9), tuple)


def test_horizon_zero_table():
    t = c_series(1, 0)
    assert t.c == (0,) and t.reach == (0,)


def test_order_validation():
    for fn in (lambda: c_series(0, 5), lambda: zeck_encode(0, 3), lambda: sequences.c_closed(-1, 3)):
        with pytest.raises(ValueError):
            fn()
