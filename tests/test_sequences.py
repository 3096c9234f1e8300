import sys
import time
import tracemalloc
from bisect import bisect_right
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaco import analysis, sequences
from jaco.oracles import c_series_bruteforce, enumerate_zeck_reps
from jaco.sequences import (
    ZeckDigitError,
    bettina_dplus,
    c_beatty,
    c_closed,
    c_series,
    recurrence_terms,
    tau,
    validate_digits,
    zeck_decode,
    zeck_encode,
)


class TestLucasTerms:
    # the Lucas basis U_0, U_1, ... of U(a, -1) is recurrence_terms(a, 0, 1)
    @pytest.mark.parametrize(
        "a,m,expected",
        [
            (1, 6, [0, 1, 1, 2, 3, 5, 8]),
            (2, 4, [0, 1, 2, 5, 12]),
            (3, 3, [0, 1, 3, 10]),
        ],
    )
    def test_known_prefixes(self, a, m, expected):
        assert recurrence_terms(a, 0, 1, count=m + 1)[: m + 1] == expected

    def test_strictly_increasing_from_u1(self):
        for a in range(1, 6):
            terms = recurrence_terms(a, 0, 1, count=31)
            start = 2 if a == 1 else 1  # a=1 allows the single tie U_1 = U_2
            for i in range(start, 30):
                assert terms[i + 1] > terms[i]


class TestLizTerms:
    # the Liz numbers B_1, B_2, ... are recurrence_terms(a, 1, 1); B_0 = 0
    # stands outside the recurrence
    @pytest.mark.parametrize(
        "a,m,expected",
        [
            (1, 6, [0, 1, 1, 2, 3, 5, 8]),
            (2, 5, [0, 1, 1, 3, 7, 17]),
            (3, 4, [0, 1, 1, 4, 13]),
        ],
    )
    def test_known_prefixes(self, a, m, expected):
        assert [0, *recurrence_terms(a, 1, 1, count=m)[:m]] == expected

    def test_order_one_is_fibonacci(self):
        liz = recurrence_terms(1, 1, 1, count=20)[:20]
        assert [0, *liz] == recurrence_terms(1, 0, 1, count=21)[:21]


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
            # the out-degree (a-1)*n + c[n] and the in-degree n - c[n] have no
            # column; the reach is n plus the out-degree
            assert t.reach[n] == a * n + t.c[n]

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
            # at a = 1 the out-degree (a-1)*n + c[n] is c[n]
            assert bettina_dplus(n) == c_closed(1, n) == t.c[n]


def golden_beatty(n):
    """floor((n+1)/phi), exactly: (floor(m*sqrt(5)) - m) // 2 with m = n + 1."""
    m = n + 1
    return (isqrt(5 * m * m) - m) // 2


class TestOrderOneBeatty:
    # at a = 1, c is Hofstadter's G-sequence (OEIS A005206), whose Beatty
    # form floor((n+1)/phi) is an exact route independent of the recurrence

    def test_table_matches_at_every_n(self):
        c = c_series(1, 200_000).c
        assert all(c[n] == golden_beatty(n) == c_beatty(1, n) for n in range(1, 200_001))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**100 - 1))
    def test_closed_form_and_bettina_match_up_to_a_googol(self, n):
        assert c_closed(1, n) == bettina_dplus(n) == golden_beatty(n)


class TestBeattyForm:
    # c[n] = floor(n/r + r/(r+1)) at every order, in exact integers

    def test_examples(self):
        assert [c_beatty(1, n) for n in range(9)] == [0, 1, 1, 2, 3, 3, 4, 4, 5]
        assert [c_beatty(2, n) for n in range(9)] == [0, 1, 1, 1, 2, 2, 3, 3, 4]

    @pytest.mark.parametrize("a", range(1, 13))
    def test_matches_the_table_at_every_n(self, a):
        c = c_series(a, 20_000).c
        assert all(c_beatty(a, n) == c[n] for n in range(20_001))

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(1, 8) | st.just(10**9), n=st.integers(1, 10**120))
    def test_matches_the_closed_form(self, a, n):
        assert c_beatty(a, n) == c_closed(a, n)


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

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_decode_raises_exactly_where_validation_does(self, a):
        # every string of length <= 6 over the digits -1..a+1
        for length in range(7):
            for digits in product(range(-1, a + 2), repeat=length):
                _assert_matches_reference(a, digits)

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(1, 5), n=st.integers(1, 10**60), data=st.data())
    def test_validation_of_long_strings_with_one_changed_digit(self, a, n, data):
        digits = list(zeck_encode(a, n))
        i = data.draw(st.integers(0, len(digits) - 1))
        digits[i] = data.draw(st.integers(-1, a + 1))
        _assert_matches_reference(a, tuple(digits))

    @pytest.mark.parametrize("a", [254, 255, 256])
    def test_validation_at_the_byte_boundary(self, a):
        # the digits 255 and 256 in each position, among digits on both
        # sides of the order and of the largest byte
        for length in range(1, 5):
            for digits in product((0, 1, 254, 255, 256, 257), repeat=length):
                _assert_matches_reference(a, digits)

    def test_validation_at_a_huge_order(self):
        a = 10**9
        for length in range(1, 5):
            for digits in product((-1, 0, 1, 255, 256, a - 1, a, a + 1), repeat=length):
                _assert_matches_reference(a, digits)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_validation_of_float_digits(self, a):
        # bytearray() refuses a float digit, so the string is walked digit by
        # digit, and the walk refuses the first float before any other rule
        for length in range(1, 4):
            for digits in product((0, 1, 1.0, 2.0, 0.5), repeat=length):
                if any(isinstance(alpha, float) for alpha in digits):
                    want = _error_of(lambda: _reference_validate(a, digits))
                    first = next(i for i, alpha in enumerate(digits, 1)
                                 if isinstance(alpha, float))
                    assert want[:2] == (ZeckDigitError, first), digits
                    _assert_matches_reference(a, digits)

    @pytest.mark.parametrize("a, digits, index", [(1, (0, 0.5), 2), (2, (0.5,), 1)])
    def test_fractional_digits_are_refused(self, a, digits, index):
        # the bounds admit 0.5 (0 <= 0.5 < a), so only the int rule refuses it
        with pytest.raises(ZeckDigitError, match="must be an int, got 0.5") as caught:
            zeck_decode(a, digits)
        assert caught.value.index == index

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_validation_of_index_digits(self, a):
        # bytearray() takes a digit that is no int through its __index__, so
        # the screen must refuse it as the walk does: a tuple and a list of
        # the same digits fail alike, at the first such digit.  The digit sum
        # of a string with a _SummedIndex is an int, so no sum can tell it
        # from ints: (_SummedIndex(0), _SummedIndex(1)) once decoded to 2 at
        # a = 1 and raised TypeError at a = 2
        index_digits = (_Index(0), _Index(1), _SummedIndex(0), _SummedIndex(1))
        for length in range(1, 4):
            for digits in product((0, 1, *index_digits), repeat=length):
                if any(isinstance(alpha, _Index) for alpha in digits):
                    first = next(i for i, alpha in enumerate(digits, 1)
                                 if isinstance(alpha, _Index))
                    for string in (digits, list(digits)):
                        with pytest.raises(ZeckDigitError) as caught:
                            zeck_decode(a, string)
                        assert caught.value.index == first, string
                    _assert_matches_reference(a, digits)

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(1, 5), n=st.integers(0, 10**60))
    def test_decode_returns_an_int(self, a, n):
        assert type(zeck_decode(a, zeck_encode(a, n))) is int

    def test_validation_of_strings_that_are_no_tuples(self):
        # a list is walked digit by digit; an int is no digit string, and
        # is refused without a buffer of that many bytes being built
        for digits in ([0, 1], [1, 1], [0, 3]):
            _assert_matches_reference(2, digits)
        with pytest.raises(TypeError):
            validate_digits(2, 10**18)

    @settings(max_examples=300, deadline=None)
    @given(a=_ORDERS, n=_VALUES)
    def test_encoder_matches_the_reference(self, a, n):
        assert zeck_encode(a, n) == _reference_encode(a, n)

    @pytest.mark.parametrize("a", [2, 3])
    def test_encoder_matches_the_reference_at_every_small_value(self, a):
        for n in range(5001):
            assert zeck_encode(a, n) == _reference_encode(a, n), n


def _reference_validate(a, digits):
    """The digit-by-digit validator: the reference for validate_digits."""
    if not digits:
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


class _Index:
    """A digit that is no int, though bytearray() takes it through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


class _SummedIndex(_Index):
    """An _Index that an int sum takes too: 0 + x is an int through __radd__."""

    def __radd__(self, other):
        return other + self.value


def _assert_matches_reference(a, digits):
    """validate_digits and zeck_decode raise the reference's ZeckDigitError
    (type, index, message), or decode to the digits' value."""
    want = _error_of(lambda: _reference_validate(a, digits))
    assert _error_of(lambda: validate_digits(a, digits)) == want, digits
    assert _error_of(lambda: zeck_decode(a, digits)) == want, digits
    if want is None:
        terms = recurrence_terms(a, 0, 1, count=len(digits) + 1)
        value = sum(alpha * terms[i + 1] for i, alpha in enumerate(digits))
        assert zeck_decode(a, digits) == value, digits


def _reference_encode(a, n):
    """The greedy that subtracts a fitting term once before it divides: the
    reference for zeck_encode."""
    if n == 0:
        return ()
    terms = recurrence_terms(a, 0, 1, count=3, at_least=n)
    m = max(bisect_right(terms, n) - 1, 2)
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


class TestEncoderInput:
    def test_a_float_is_refused(self):
        # 5.0 once expanded to (0.0, 0, 0, 0, 1), which zeck_decode refuses
        for call in (lambda: zeck_encode(1, 5.0), lambda: c_closed(1, 5.0),
                     lambda: bettina_dplus(5.0), lambda: zeck_encode(2, 5.0)):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_a_bool_expands_as_the_int_it_equals(self, a):
        # zeck_encode(2, True) once returned (True,)
        for flag in (False, True):
            digits = zeck_encode(a, flag)
            assert digits == zeck_encode(a, int(flag))
            assert all(type(alpha) is int for alpha in digits), digits
        assert type(c_closed(a, True)) is int and c_closed(a, True) == 1


def _outcome(call):
    """What a call returns, by repr (so 1 and True differ), or the type and
    text of what it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc), str(exc)


_MEMO_ROUTES = {
    "zeck_encode": lambda a, n: zeck_encode(a, n),
    "c_closed": lambda a, n: c_closed(a, n),
    "bettina_dplus": lambda a, n: bettina_dplus(n),
}

# few values, so that calls repeat and hit the memo; bools, a float and
# negatives among them
_MEMO_VALUES = st.sampled_from([0, 1, 2, 5, 7, 10**20, -1, -5, True, False, 5.0, 1.0])


@pytest.fixture
def clear_encoder_memo():
    # a memo filled while a route the encoder reads was patched would
    # outlive the patch
    zeck_encode.cache_clear()
    yield
    zeck_encode.cache_clear()


class TestEncoderMemo:
    # zeck_encode remembers its last expansion only (lru_cache(maxsize=1,
    # typed=True)); nothing else reads that memo

    def test_a_point_query_expands_n_once(self, clear_encoder_memo):
        n = 10**40 + 7
        digits = zeck_encode(1, n)
        assert c_closed(1, n) == bettina_dplus(n) == golden_beatty(n)
        assert zeck_encode(1, n) is digits
        info = zeck_encode.cache_info()
        assert (info.misses, info.hits, info.maxsize, info.currsize) == (1, 3, 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(calls=st.lists(
        st.tuples(st.sampled_from(sorted(_MEMO_ROUTES)), st.integers(0, 4),
                  _MEMO_VALUES | st.integers(-2, 10**6)),
        min_size=1, max_size=30,
    ))
    def test_every_call_answers_as_after_a_clear(self, calls):
        zeck_encode.cache_clear()
        live = [_outcome(lambda: _MEMO_ROUTES[name](a, n)) for name, a, n in calls]
        fresh = []
        for name, a, n in calls:
            zeck_encode.cache_clear()
            fresh.append(_outcome(lambda: _MEMO_ROUTES[name](a, n)))
        assert live == fresh

    @pytest.mark.parametrize("a, n", [(1, 33), (2, 33), (3, 33)])
    def test_decode_never_reads_the_memo(self, monkeypatch, clear_encoder_memo, a, n):
        # a _dot fault planted right after a warm encode still shows: decode
        # validates and sums the remembered string like any other
        digits = zeck_encode(a, n)
        real = sequences._dot
        monkeypatch.setattr(sequences, "_dot",
                            lambda a, d, terms: real(a, d, terms) + (d == digits))
        assert zeck_encode(a, n) is digits
        assert zeck_decode(a, zeck_encode(a, n)) == n + 1
        report = analysis.verify_suite(a, a, 40)
        failed = {c.claim_id: c.counterexample for c in report.claims if not c.passed}
        assert failed["seq.zeck_roundtrip"] == f"a={a} n={n} decoded={n + 1}"

    def test_a_large_expansion_is_freed_by_the_next(self, clear_encoder_memo):
        # an expansion of 10**4 digits; the Fibonacci basis it needs (about
        # 4 MB, quadratic in the digit count) is built before tracing
        big = recurrence_terms(1, 0, 1, count=10_002)[10_001] - 1
        zeck_encode(1, big)
        zeck_encode.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            size = sys.getsizeof(zeck_encode(1, big))
            held = tracemalloc.get_traced_memory()[0] - start
            zeck_encode(1, 7)
            after = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert size > 8 * 9_000
        assert held >= size
        assert after < size // 10


class TestBasisCacheIsolation:
    def test_public_results_are_immutable_tuples(self):
        assert isinstance(c_series(2, 5).c, tuple)
        assert isinstance(zeck_encode(2, 9), tuple)


def test_horizon_zero_table():
    t = c_series(1, 0)
    assert t.c == (0,) and t.reach == (0,)


def test_order_validation():
    for fn in (
        lambda: c_series(0, 5),
        lambda: c_series(2, -1),
        lambda: zeck_encode(0, 3),
        lambda: sequences.c_closed(-1, 3),
        lambda: c_beatty(0, 5),
        lambda: c_beatty(2, -1),
    ):
        with pytest.raises(ValueError):
            fn()
