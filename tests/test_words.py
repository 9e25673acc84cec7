from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from asymcodes import (
    AbelianGroup,
    AlphabetSpec,
    CodeBook,
    ProductChannel,
    Word,
    asym_distance,
    ball_overlap,
    best_cr_group,
    builtin_table_generators,
    canonical_pairing,
    construct_even,
    construct_extended,
    construct_odd_mixed,
    corrects_t_errors,
    cr_code,
    d_ell_distance,
    decode_asymmetric,
    double_code,
    error_ball,
    expand_to_binary,
    find_pairing,
    fold_to_ternary,
    is_lm_code,
    is_single_rq_correcting,
    is_t_code,
    is_ternary_code,
    make_channel,
    min_asym_distance,
    nullspace,
    rank,
    simulate_channel,
    sphere_bound,
    vt_code,
    weight_enumerator,
    weight_w,
)
from asymcodes import words as words_mod
from asymcodes.linearq import MatrixModZq, decode_concat
from asymcodes.words import (
    AlphabetMismatch,
    DecodeAmbiguity,
    DecodeFailure,
    DecodingError,
    EnumerationCapExceeded,
)

from conftest import book_from_strings
from reference_codes import CODE_8_32


# past str()'s 4300-digit limit: 2^16609 <= 10^5000 < 2^16610
HUGE = 10**5000


def w(sym, q=3):
    return Word(tuple(sym), AlphabetSpec.uniform(q, len(sym)))


class TestTypes:
    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            AlphabetSpec(())
        with pytest.raises(ValueError):
            AlphabetSpec((2, 1))
        assert AlphabetSpec.uniform(3, 4).sizes == (3, 3, 3, 3)

    def test_word_validation(self):
        a = AlphabetSpec((2, 3))
        assert Word((1, 2), a).symbols == (1, 2)
        with pytest.raises(ValueError):
            Word((2, 0), a)
        with pytest.raises(ValueError):
            Word((0, 0, 0), a)

    def test_codebook_sorted_and_duplicate_free(self):
        a = AlphabetSpec.uniform(2, 2)
        c = CodeBook.from_symbols(a, [(1, 1), (0, 0)])
        assert [x.symbols for x in c] == [(0, 0), (1, 1)]
        with pytest.raises(ValueError):
            CodeBook.from_symbols(a, [(1, 1), (1, 1)])

    def test_codebook_equality_ignores_name(self):
        a = AlphabetSpec.uniform(2, 2)
        c1 = CodeBook.from_symbols(a, [(0, 0)], name="x")
        c2 = CodeBook.from_symbols(a, [(0, 0)], name="y")
        assert c1 == c2


class TestWeightAndDistance:
    def test_weight_examples(self):
        assert weight_w(w((0, 0, 0, 0), q=2)) == 0
        assert weight_w(w((1, 2, 2))) == 5
        assert weight_w(w((1, 1, 0, 0), q=2)) == 2

    def test_asym_distance_examples(self):
        x = w((1, 1, 0, 0), q=2)
        assert asym_distance(x, x) == 0
        assert asym_distance(x, w((0, 0, 1, 1), q=2)) == 2
        assert asym_distance(w((1, 1, 1), q=2), w((0, 0, 0), q=2)) == 3

    def test_length_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            asym_distance(w((0, 0)), w((0, 0, 0)))

    def test_min_asym_distance(self):
        c = book_from_strings(["000", "111"])
        assert min_asym_distance(c) == 3
        with pytest.raises(ValueError):
            min_asym_distance(book_from_strings(["000"]))

    def test_min_asym_distance_example_code(self):
        assert min_asym_distance(book_from_strings(CODE_8_32)) == 2

    def test_is_t_code_examples(self):
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        assert is_t_code(c, 1)
        assert not is_t_code(book_from_strings(["00", "01"]), 1)

    def test_min_distance_matches_pairwise_brute_force(self):
        import random

        rng = random.Random(99)
        for _ in range(30):
            q = rng.choice([2, 3, 5])
            n = rng.randrange(2, 7)
            pool = list(itertools.product(range(q), repeat=n))
            rows = rng.sample(pool, min(rng.randrange(2, 15), len(pool)))
            a = AlphabetSpec.uniform(q, n)
            c = CodeBook.from_symbols(a, rows)
            brute = min(
                asym_distance(Word(x, a), Word(y, a))
                for x, y in itertools.combinations(rows, 2)
            )
            assert min_asym_distance(c) == brute


@st.composite
def codebooks(draw):
    """Small codes over uniform, mixed, wide (> 64 thermometer bits) and
    single-weight alphabet profiles, q up to 9."""
    kind = draw(st.sampled_from(["uniform", "mixed", "wide", "one-weight"]))
    if kind == "mixed":
        sizes = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=6)))
    elif kind == "wide":
        sizes = (5,) * 20
    else:
        sizes = (draw(st.integers(2, 9)),) * draw(st.integers(1, 6))
    word = st.tuples(*[st.integers(0, q - 1) for q in sizes])
    rows = draw(st.lists(word, min_size=2, max_size=30, unique=True))
    if kind == "one-weight":
        # a last coordinate tops every word up to the same symbol sum
        top = sum(q - 1 for q in sizes)
        sizes += (top + 1,)
        rows = [r + (top - sum(r),) for r in rows]
    return CodeBook.from_symbols(AlphabetSpec(sizes), rows)


def brute_min(c):
    return min(asym_distance(x, y) for x, y in itertools.combinations(c.words, 2))


# The real row block, and one small enough that these codes span many blocks.
BLOCKS = pytest.mark.parametrize("block", [words_mod._PAIR_BLOCK, 5])


class TestMinDistanceKernel:
    @pytest.mark.parametrize("rows", [[], [(0, 1, 1)]])
    def test_codes_of_fewer_than_two_words(self, rows):
        c = CodeBook.from_symbols(AlphabetSpec.uniform(2, 3), rows)
        assert is_t_code(c, 1) and is_t_code(c, 3)
        with pytest.raises(ValueError, match="^need at least two codewords$"):
            min_asym_distance(c)

    @BLOCKS
    @settings(max_examples=400)
    @given(codebooks())
    def test_equals_brute_force(self, block, c):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words_mod, "_PAIR_BLOCK", block)
            assert min_asym_distance(c) == brute_min(c)
            d, i, j = words_mod._min_asym_pair(c)
        assert i < j and asym_distance(c.words[i], c.words[j]) == d

    @BLOCKS
    @given(codebooks(), st.integers(1, 6))
    def test_is_t_code_equals_all_pairs_above_t(self, block, c, t):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words_mod, "_PAIR_BLOCK", block)
            got = is_t_code(c, t)
        assert got == all(
            asym_distance(x, y) > t for x, y in itertools.combinations(c.words, 2)
        )

    @BLOCKS
    @given(codebooks(), st.integers(0, 6))
    def test_stop_at(self, block, c, stop_at):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words_mod, "_PAIR_BLOCK", block)
            d, i, j = words_mod._min_asym_pair(c, stop_at=stop_at)
        true = brute_min(c)
        if true <= stop_at:
            assert d <= stop_at
        else:
            assert d == true
        assert d == asym_distance(c.words[i], c.words[j])

    def test_reads_the_narrow_words(self):
        # CR n = 18: 13 798 words, 248 364 symbols.  The kernel reads the
        # uint8 words and packs them without a bit per column of padding;
        # an int64 copy of the words alone would trace 8 bytes per symbol.
        import tracemalloc

        c = cr_code(best_cr_group(18))
        tracemalloc.start()
        try:
            answer = is_t_code(c, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer is True
        assert peak < 8 * len(c) * c.n

    def test_wide_lee_profile_needs_two_columns(self):
        # [20,18]_5 Lee profile: 80 thermometer bits, two uint64 columns
        a = AlphabetSpec.uniform(5, 20)
        x, y = (4,) * 20, (4,) * 19 + (0,)
        c = CodeBook.from_symbols(a, [x, y, (0,) * 20])
        assert words_mod._thermometer(c.matrix(), a.sizes).shape == (3, 2)
        assert min_asym_distance(c) == 4
        assert words_mod._min_asym_pair(c)[1:] == (1, 2)


@st.composite
def word_pairs(draw):
    n = draw(st.integers(1, 6))
    q = draw(st.integers(2, 4))
    a = AlphabetSpec.uniform(q, n)
    xs = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    return Word(tuple(xs), a), Word(tuple(ys), a)


class TestDistanceProperties:
    @given(word_pairs())
    def test_symmetry_and_identity(self, pair):
        x, y = pair
        assert asym_distance(x, y) == asym_distance(y, x)
        assert (asym_distance(x, y) == 0) == (x.symbols == y.symbols)

    @given(word_pairs())
    def test_weight_upper_bound(self, pair):
        x, y = pair
        assert asym_distance(x, y) <= weight_w(x) + weight_w(y)

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    ))
    def test_binary_hamming_sandwich(self, pair):
        xs, ys = pair
        a = AlphabetSpec.uniform(2, len(xs))
        x, y = Word(tuple(xs), a), Word(tuple(ys), a)
        d_h = sum(1 for p, r in zip(xs, ys) if p != r)
        assert asym_distance(x, y) >= math.ceil(d_h / 2)


# every verifier names an argument that is not a code book or a channel
# before it reads any attribute of it
@pytest.mark.parametrize("call, message", [
    (lambda: is_t_code("x", 1), "c 'x' is not a CodeBook"),
    (lambda: is_t_code("abc", 1), "c 'abc' is not a CodeBook"),
    (lambda: is_t_code(None, 1), "c None is not a CodeBook"),
    (lambda: min_asym_distance("x"), "c 'x' is not a CodeBook"),
    (lambda: is_lm_code("x", 1, 1), "c 'x' is not a CodeBook"),
    (lambda: weight_enumerator(None), "c None is not a CodeBook"),
    (lambda: corrects_t_errors(None, None, 1), "c None is not a CodeBook"),
    (lambda: corrects_t_errors(vt_code(6), None, 1), "ch None is not a ProductChannel"),
    (lambda: ball_overlap([(0,) * 6], ProductChannel.power(make_channel("Z", 2), 6), 1),
     "c list is not a CodeBook"),
    (lambda: ball_overlap(vt_code(6), make_channel("Z", 2), 1),
     "ch ChannelGraph is not a ProductChannel"),
])
def test_verifiers_name_a_non_code_book(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# every other entry point that takes a matrix, a code book, a channel or a
# pairing names a wrong-type one before it reads any attribute of it
@pytest.mark.parametrize("call, message", [
    (lambda: nullspace("x"), "M 'x' is not a MatrixModZq"),
    (lambda: rank(None), "M None is not a MatrixModZq"),
    (lambda: is_single_rq_correcting(1.5), "H 1.5 is not a MatrixModZq"),
    (lambda: construct_even("x"), "c 'x' is not a CodeBook"),
    (lambda: construct_odd_mixed(None), "c None is not a CodeBook"),
    (lambda: construct_extended("x", "y"), "c0 'x' is not a CodeBook"),
    (lambda: construct_extended(vt_code(3), "y"), "c1 'y' is not a CodeBook"),
    (lambda: decode_asymmetric("x", (0,), 1), "c 'x' is not a CodeBook"),
    (lambda: simulate_channel("x", None, trials=5, seed=1, p=0.1), "c 'x' is not a CodeBook"),
    (lambda: simulate_channel(vt_code(3), None, trials=5, seed=1, p=0.1),
     "ch None is not a ProductChannel"),
    (lambda: error_ball(w((0, 0)), None, 1), "ch None is not a ProductChannel"),
    (lambda: fold_to_ternary("x", canonical_pairing(2)), "c 'x' is not a CodeBook"),
    (lambda: fold_to_ternary(vt_code(2), None), "p None is not a Pairing"),
    (lambda: expand_to_binary(vt_code(2), None), "p None is not a Pairing"),
    (lambda: expand_to_binary(None, canonical_pairing(2)), "c None is not a CodeBook"),
    (lambda: is_ternary_code(None, canonical_pairing(2)), "c None is not a CodeBook"),
    (lambda: is_ternary_code(vt_code(2), "p"), "p 'p' is not a Pairing"),
    (lambda: find_pairing(None), "c None is not a CodeBook"),
    (lambda: double_code(None), "c None is not a CodeBook"),
], ids=["nullspace", "rank", "is_single_rq_correcting", "construct_even",
        "construct_odd_mixed", "construct_extended-c0", "construct_extended-c1",
        "decode_asymmetric", "simulate_channel-c", "simulate_channel-ch", "error_ball",
        "fold_to_ternary-c", "fold_to_ternary-p", "expand_to_binary-p", "expand_to_binary-c",
        "is_ternary_code-c", "is_ternary_code-p", "find_pairing", "double_code"])
def test_entry_points_name_a_wrong_type_object(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestEnumerator:
    def test_counts(self):
        c = book_from_strings(["000", "111", "122", "212", "221"], q=3)
        we = weight_enumerator(c)
        assert we.counts == (1, 0, 0, 4)
        assert we.evaluate(2, 1) == 12

    def test_empty_and_singleton(self):
        empty = CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), [])
        assert weight_enumerator(empty).counts == (0, 0, 0, 0)
        single = book_from_strings(["00"])
        assert weight_enumerator(single).counts == (1, 0, 0)

    @given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                    min_size=0, max_size=15, unique_by=tuple))
    def test_normalization(self, rows):
        c = CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), [tuple(r) for r in rows])
        assert weight_enumerator(c).evaluate(1, 1) == len(c)


class TestDecoder:
    def setup_method(self):
        self.c = book_from_strings(["0000", "1100", "0011", "1111"])

    def test_zero_error(self):
        assert decode_asymmetric(self.c, (0, 0, 0, 0), 1).symbols == (0, 0, 0, 0)

    def test_single_error(self):
        assert decode_asymmetric(self.c, (0, 1, 0, 0), 1).symbols == (1, 1, 0, 0)

    def test_ambiguity(self):
        with pytest.raises(DecodeAmbiguity) as e:
            decode_asymmetric(self.c, (0, 0, 0, 0), 2)
        assert [x.symbols for x in e.value.candidates] == [
            (0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)]

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            decode_asymmetric(self.c, (1, 1, 0, 0), -1)

    def test_failure(self):
        c = book_from_strings(["11"])
        with pytest.raises(DecodeFailure):
            decode_asymmetric(c, (0, 0), 1)

    def test_soundness_on_checksum_code(self):
        # every single-decrement pattern on a verified 1-code decodes back
        from asymcodes import vt_code

        c = vt_code(8, 0)
        for x in c.symbol_rows:
            assert decode_asymmetric(c, x, 1).symbols == x
            for i, s in enumerate(x):
                if s:
                    received = x[:i] + (s - 1,) + x[i + 1 :]
                    assert decode_asymmetric(c, received, 1).symbols == x

    def test_soundness_exhaustive_small_codes(self):
        # every correctable decrement pattern decodes back, for a few codes
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(2, 7)
            q = rng.choice([2, 3])
            a = AlphabetSpec.uniform(q, n)
            pool = list(itertools.product(range(q), repeat=n))
            rng.shuffle(pool)
            rows = pool[: rng.randrange(2, 9)]
            c = CodeBook.from_symbols(a, rows)
            for t in (1, 2):
                if not is_t_code(c, t):
                    continue
                for x in c.symbol_rows:
                    for e in itertools.product(*[range(min(s, t) + 1) for s in x]):
                        if sum(e) > t:
                            continue
                        received = tuple(s - d for s, d in zip(x, e))
                        assert decode_asymmetric(c, received, t).symbols == x


def reference_decode_asymmetric(c, received, t):
    """The former decoder: a scan of every codeword for the ones at or above
    the received word within t decrements."""
    if t < 0:
        raise ValueError("t must be >= 0")
    rs = tuple(received.symbols if isinstance(received, Word) else received)
    if len(rs) != c.n:
        raise AlphabetMismatch("received word length does not match the code")
    candidates = []
    for word in c.words:
        drop = 0
        for a, r in zip(word.symbols, rs):
            if a < r:
                drop = t + 1
                break
            drop += a - r
            if drop > t:
                break
        if drop <= t:
            candidates.append(word)
    if not candidates:
        raise DecodeFailure(f"no codeword within {t} decrements of {rs}")
    if len(candidates) > 1:
        raise DecodeAmbiguity(candidates)
    return candidates[0]


def decode_outcome(decode, *args):
    """The decoded word, or the exception type with its candidates."""
    try:
        return ("decoded", decode(*args).symbols)
    except DecodingError as e:
        return (type(e), tuple(x.symbols for x in getattr(e, "candidates", ())))


def brute_up_ball(received, sizes, t):
    return [
        y
        for y in itertools.product(*[range(r, q) for r, q in zip(received, sizes)])
        if sum(y) - sum(received) <= t
    ]


@st.composite
def decode_cases(draw):
    """A code over a mixed alphabet, a received word inside the alphabet
    (arbitrary, or a codeword lowered anywhere), and t = 0..3."""
    sizes = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=6)))
    word = st.tuples(*[st.integers(0, q - 1) for q in sizes])
    rows = draw(st.lists(word, max_size=12, unique=True))
    a = AlphabetSpec(sizes)
    c = CodeBook.from_symbols(a, rows)
    if rows and draw(st.booleans()):
        sent = draw(st.sampled_from(rows))
        received = tuple(draw(st.integers(0, s)) for s in sent)
    else:
        received = draw(word)
    if draw(st.booleans()):
        received = Word(received, a)
    return c, received, draw(st.integers(0, 3))


class TestUpBallDecoder:
    @settings(max_examples=300, deadline=None)
    @given(decode_cases())
    def test_equals_reference_scan(self, case):
        c, received, t = case
        assert decode_outcome(words_mod.decode_asymmetric, c, received, t) == decode_outcome(
            reference_decode_asymmetric, c, received, t
        )

    @settings(max_examples=150, deadline=None)
    @given(decode_cases())
    def test_up_ball_count_and_listing_match_brute_force(self, case):
        c, received, t = case
        rs = received.symbols if isinstance(received, Word) else received
        sizes = c.alphabet.sizes
        room = [q - 1 - r for r, q in zip(rs, sizes)]
        budget = min(t, sum(room))
        listed = list(words_mod._up_ball(rs, sizes, budget))
        brute = brute_up_ball(rs, sizes, t)
        assert listed == brute
        assert words_mod._up_ball_size(room, budget) == len(brute)

    def test_cap_checked_before_the_up_ball_is_listed(self, monkeypatch):
        c = vt_code(8, 0)
        received = (0, 1, 0, 0, 1, 0, 0, 0)
        size = len(brute_up_ball(received, c.alphabet.sizes, 2))

        def listed(*args):
            raise AssertionError("the up-ball was listed past the cap")

        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", size - 1)
        monkeypatch.setattr(words_mod, "_up_ball", listed)
        with pytest.raises(EnumerationCapExceeded, match=f"{size} exceeds"):
            decode_asymmetric(c, received, 2)
        monkeypatch.undo()
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", size)
        assert decode_outcome(decode_asymmetric, c, received, 2) == decode_outcome(
            reference_decode_asymmetric, c, received, 2
        )

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("code, received", [
        (vt_code(8, 0), (0, 1, 0, 0, 1, 0, 0, 0)),
        (CodeBook.from_symbols(AlphabetSpec((2, 3) * 3), [(1, 2) * 3, (0, 0, 1, 0, 0, 0)]), (0,) * 6),
    ])
    def test_cap_one_below_the_exact_up_ball_size(self, monkeypatch, code, received, t):
        # the rooms hold the ball below the stars-and-bars bound, so the
        # exact count decides, and the message names it
        size = len(brute_up_ball(received, code.alphabet.sizes, t))
        assert size < math.comb(6 + t, t)
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", size - 1)
        with pytest.raises(EnumerationCapExceeded,
                           match=f"radius-{t} up-ball: {size} exceeds enumeration cap {size - 1}"):
            decode_asymmetric(code, received, t)
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", size)
        assert decode_outcome(decode_asymmetric, code, received, t) == decode_outcome(
            reference_decode_asymmetric, code, received, t
        )

    def test_exact_count_only_past_the_bound(self, monkeypatch):
        # six coordinates with room and t = 2: C(8, 2) = 28 words at most
        c = vt_code(8, 0)
        received = (0, 1, 0, 0, 1, 0, 0, 0)

        def counted(*args):
            raise AssertionError("the up-ball was counted")

        monkeypatch.setattr(words_mod, "_up_ball_size", counted)
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", math.comb(8, 2))
        assert decode_outcome(decode_asymmetric, c, received, 2) == decode_outcome(
            reference_decode_asymmetric, c, received, 2
        )
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", math.comb(8, 2) - 1)
        with pytest.raises(AssertionError, match="counted"):
            decode_asymmetric(c, received, 2)

    def test_huge_t_equals_the_saturating_t(self):
        c = vt_code(8, 0)
        for received in [(0,) * 8, (1, 0, 1, 1, 0, 0, 1, 0), c.symbol_rows[3]]:
            most = sum(1 - s for s in received)
            want = decode_outcome(decode_asymmetric, c, received, most)
            assert decode_outcome(decode_asymmetric, c, received, 10**9) == want
            assert decode_outcome(reference_decode_asymmetric, c, received, 10**9) == want

    @pytest.mark.parametrize("received, where", [
        ((-1, 0, 0, 0), "symbol -1 at coordinate 0"),
        ((0, 0, 1, 2), "symbol 2 at coordinate 3"),
    ])
    def test_rejects_symbols_outside_the_alphabet(self, received, where):
        with pytest.raises(ValueError, match=where):
            decode_asymmetric(vt_code(4, 0), received, 1)


class TestIntegerRule:
    """Symbols are integers by operator.index: ints, bools and numpy
    integers pass as plain ints; a float or anything else raises ValueError
    naming its coordinate (and row)."""

    def test_word(self):
        a = AlphabetSpec.uniform(2, 2)
        with pytest.raises(ValueError, match=r"symbol 1\.5 at coordinate 0 is not an integer"):
            Word((1.5, 0), a)
        with pytest.raises(ValueError, match=r"symbol np\.float64\(1\.0\) at coordinate 1"):
            Word((0, np.float64(1.0)), a)
        with pytest.raises(ValueError, match=r"symbol '1' at coordinate 0"):
            Word(("1", 0), a)
        for symbols in [(True, 0), (np.int64(1), np.uint8(0)), np.array([1, 0])]:
            word = Word(symbols, a)
            assert word.symbols == (1, 0) and set(map(type, word.symbols)) == {int}
            assert str(word) == "10"

    def test_decode_asymmetric(self):
        c = vt_code(4, 0)
        with pytest.raises(ValueError, match=r"symbol 1\.7 at coordinate 0 is not an integer"):
            decode_asymmetric(c, (1.7, 0, 0, 0), 1)
        with pytest.raises(ValueError, match=r"at coordinate 3 is not an integer"):
            decode_asymmetric(c, (0, 0, 0, np.float64(0)), 1)
        want = decode_asymmetric(c, (1, 0, 0, 0), 1).symbols
        for received in [(True, False, False, False), np.array([1, 0, 0, 0]), (np.int8(1), 0, 0, 0)]:
            got = decode_asymmetric(c, received, 1).symbols
            assert got == want and set(map(type, got)) == {int}

    def test_from_symbols(self):
        a = AlphabetSpec.uniform(2, 2)
        with pytest.raises(ValueError, match=r"row 0: symbol 1\.5 at coordinate 0 is not an integer") as caught:
            CodeBook.from_symbols(a, [(1.5, 0), (0, 0)])
        assert caught.value.row == 0
        with pytest.raises(ValueError, match=r"row 1: symbol '1' at coordinate 1"):
            CodeBook.from_symbols(a, [(0, 0), (0, "1")])
        with pytest.raises(ValueError, match=r"row 2: symbol None at coordinate 0"):
            CodeBook.from_symbols(a, [(0, 0), (0, 1), (None, 1)])
        for array in [np.array([(1.0, 0.0)]), np.array([(True, False)]), np.array([("1", "0")])]:
            with pytest.raises(ValueError, match=f"rows of dtype {array.dtype} are not integer symbols"):
                CodeBook.from_symbols(a, array)
        for rows in [[(True, False), (0, 0)],
                     [(np.int64(1), np.uint8(0)), (0, 0)],
                     [np.array([1, 0]), (0, 0)],
                     np.array([(1, 0), (0, 0)], dtype=np.int8),
                     np.array([(1, 0), (0, 0)], dtype=object)]:
            c = CodeBook.from_symbols(a, rows)
            assert c.symbol_rows == ((0, 0), (1, 0))
            assert set(map(type, c.symbol_rows[1])) == {int}

    def test_object_array_rows_follow_the_sequence_rule(self):
        # an object array carries symbols past int64: read as sequence rows,
        # each row under the integer rule and the range check, by row
        big = AlphabetSpec.uniform(2**64, 2)
        c = CodeBook.from_symbols(big, np.array([(2**64 - 1, 0), (3, 2**63)], dtype=object))
        assert c.symbol_rows == ((3, 2**63), (2**64 - 1, 0))
        a = AlphabetSpec.uniform(11, 2)
        with pytest.raises(ValueError, match=rf"row 1: symbol {10**30} at coordinate 0 outside 0\.\.10"):
            CodeBook.from_symbols(a, np.array([(0, 1), (10**30, 1)], dtype=object))
        with pytest.raises(ValueError, match=r"row 0: symbol 1\.5 at coordinate 1 is not an integer"):
            CodeBook.from_symbols(a, np.array([(0, 1.5), (2, 1)], dtype=object))

    def test_alphabet_sizes(self):
        with pytest.raises(ValueError, match=r"alphabet size 2\.9 is not an integer"):
            AlphabetSpec((2.9, 3))
        with pytest.raises(ValueError, match=r"alphabet size '3' is not an integer"):
            AlphabetSpec((2, "3"))
        a = AlphabetSpec((np.int64(2), np.uint8(3)))
        assert a.sizes == (2, 3) and set(map(type, a.sizes)) == {int}

    def test_metric_functions(self):
        with pytest.raises(ValueError, match=r"symbol 1\.5 at coordinate 0 is not an integer"):
            asym_distance((1.5, 0), (0, 0))
        with pytest.raises(ValueError, match=r"symbol 0\.5 at coordinate 0 is not an integer"):
            weight_w((0.5, 1))
        with pytest.raises(ValueError, match=r"symbol 1\.5 at coordinate 0 is not an integer"):
            d_ell_distance((0, 0), (1.5, 0), 1)
        book = CodeBook.from_symbols(AlphabetSpec.uniform(2, 2), [(1, 0)])
        with pytest.raises(ValueError, match=r"symbol 1\.0 at coordinate 0 is not an integer"):
            (1.0, 0) in book
        assert asym_distance(np.array([2, 0]), (np.int8(0), True)) == 2
        assert weight_w((True, np.int64(2))) == 3
        assert d_ell_distance((1, 0), np.array([0, 0]), 1) == 1
        assert (True, 0) in book and np.array([1, 0]) in book and (0, 1) not in book


    def test_true_reads_as_one(self):
        # operator.index takes a bool as the int it is: True is 1
        assert vt_code(True) == vt_code(1)
        c = vt_code(6)
        assert is_t_code(c, True) is is_t_code(c, 1) is True
        assert is_t_code(c, 2) is False

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: sphere_bound(3, HUGE, 1, 1), ValueError,
                     r"^n at least 2\^16609 is too large", id="sphere_bound-n"),
        pytest.param(lambda: simulate_channel(
                         vt_code(6), ProductChannel.power(make_channel("Z", 2), 6),
                         trials=HUGE, seed=1, p=0.1),
                     EnumerationCapExceeded,
                     r"^at least 2\^16609 trials of 6 symbols: at least 2\^16612 ",
                     id="simulate_channel-trials"),
        pytest.param(lambda: canonical_pairing(AbelianGroup((HUGE + 1,))), EnumerationCapExceeded,
                     r"^non-identity elements of group at least 2\^16609: at least 2\^16609 ",
                     id="canonical_pairing-group"),
        pytest.param(lambda: cr_code(AbelianGroup((HUGE,))), EnumerationCapExceeded,
                     r"^non-identity elements of group at least 2\^16609: ", id="cr_code-group"),
        pytest.param(lambda: vt_code(HUGE), EnumerationCapExceeded,
                     r"^non-identity elements of group at least 2\^16609: ", id="vt_code-n"),
        pytest.param(lambda: Word((HUGE, 0), AlphabetSpec.uniform(2, 2)), ValueError,
                     r"^symbol at least 2\^16609 at coordinate 0 outside 0\.\.1$",
                     id="Word-symbol"),
        pytest.param(lambda: d_ell_distance(w((0, 0), q=5), (1, 0), HUGE, wrap=True), ValueError,
                     r"ambiguous for q=5, ell=at least 2\^16609$", id="d_ell_distance-ell"),
        pytest.param(lambda: builtin_table_generators(HUGE), ValueError,
                     r"^no bundled generators for m=at least 2\^16609$",
                     id="builtin_table_generators-m"),
    ])
    def test_huge_integers_are_named_in_refusals(self, call, error, message):
        # str() stops at 4300 digits; a refusal names a larger integer by
        # its bit length instead of failing while it formats the message
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: cr_code(AbelianGroup((3,)), (HUGE,)),
                     r"^target \(at least 2\^16609,\) is not an element of 3$", id="target"),
        pytest.param(lambda: cr_code(AbelianGroup((3,)), HUGE),
                     r"^target at least 2\^16609 is not a tuple of group components$",
                     id="target-integer"),
        pytest.param(lambda: cr_code(HUGE), r"^group at least 2\^16609 is not an AbelianGroup$",
                     id="group"),
        pytest.param(lambda: cr_code([HUGE]), r"^group list is not an AbelianGroup$",
                     id="group-list"),
    ])
    def test_huge_integers_are_named_in_cr_code_refusals(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


@st.composite
def alphabets_and_rows(draw, max_q=5):
    """A mixed alphabet and distinct rows over it, in no particular order."""
    sizes = draw(st.lists(st.integers(2, max_q), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1) for q in sizes]),
                         max_size=20, unique=True))
    return AlphabetSpec(tuple(sizes)), rows


class TestCodeBookArray:
    """One validated, lex-sorted array holds a code book; everything else
    is derived from it."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(alphabets_and_rows(), alphabets_and_rows(max_q=300)), st.randoms())
    def test_every_view_agrees(self, drawn, rnd):
        alphabet, rows = drawn
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        c = CodeBook.from_symbols(alphabet, shuffled)
        by_words = CodeBook(alphabet, [Word(r, alphabet) for r in rows])
        by_array = CodeBook.from_symbols(alphabet, np.array(shuffled, dtype=np.int64).reshape(-1, alphabet.n))
        assert c == by_words == by_array
        assert hash(c) == hash(by_words) == hash(by_array)
        ordered = sorted(rows)
        assert len(c) == len(rows)
        assert c.symbol_rows == tuple(ordered)
        assert c.symbol_set == frozenset(rows)
        assert c.matrix().tolist() == [list(r) for r in ordered]
        assert [w.symbols for w in c.words] == ordered == [w.symbols for w in c]
        assert all(w == Word(w.symbols, alphabet) for w in c.words)
        # derived words share the row tuples
        assert all(w.symbols is r for w, r in zip(c.words, c.symbol_rows))
        assert all(r in c for r in rows)

    @settings(max_examples=100, deadline=None)
    @given(alphabets_and_rows(), st.data())
    def test_a_bad_row_is_named(self, drawn, data):
        alphabet, rows = drawn
        assume(rows)
        rows = list(rows)
        j = data.draw(st.integers(0, len(rows) - 1))
        if data.draw(st.booleans()):
            at = data.draw(st.integers(j + 1, len(rows)))
            text = str(Word(rows[j], alphabet))
            rows.insert(at, rows[j])
            message = f"row {at}: duplicate codeword {text}"
        else:
            i = data.draw(st.integers(0, alphabet.n - 1))
            q = alphabet.sizes[i]
            s = data.draw(st.sampled_from([-1, q, q + 7]))
            rows[j] = rows[j][:i] + (s,) + rows[j][i + 1:]
            at, message = j, f"row {j}: symbol {s} at coordinate {i} outside 0..{q - 1}"
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            CodeBook.from_symbols(alphabet, rows)
        assert caught.value.row == at

    @pytest.mark.parametrize("rows, message", [
        ([(0, 0, 3), (0, 0, 0), (3, 0, 0)], "row 0: symbol 3 at coordinate 2"),
        ([(1, 1, 1), (0, 0, 0), (1, 1, 1), (0, 0, 0)], "row 2: duplicate codeword 111"),
        ([(2, 2, 2), (2, 2, 2), (0, 0, 0), (0, 0, 0)], "row 1: duplicate codeword 222"),
    ])
    def test_the_first_bad_input_row_is_named(self, rows, message):
        with pytest.raises(ValueError, match=message):
            CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), rows)

    def test_word_constructor_checks_alphabets(self):
        a, b = AlphabetSpec.uniform(2, 2), AlphabetSpec.uniform(3, 2)
        with pytest.raises(AlphabetMismatch):
            CodeBook(a, [Word((0, 0), a), Word((1, 2), b)])
        c = CodeBook(a, [Word((1, 1), a), Word((0, 1), a)], name="x", meta={"k": "v"})
        assert c.symbol_rows == ((0, 1), (1, 1)) and c.name == "x" and c.meta == {"k": "v"}

    @pytest.mark.parametrize("words, message", [
        ([(0, 1)], "code book item 0, (0, 1), is not a Word"),
        ([Word((0, 0), AlphabetSpec.uniform(2, 2)), "01"], "code book item 1, '01', is not a Word"),
        (5, "code book words 5 are not iterable"),
        (None, "code book words None are not iterable"),
    ])
    def test_word_constructor_names_bad_input(self, words, message):
        with pytest.raises(ValueError) as caught:
            CodeBook(AlphabetSpec.uniform(2, 2), words)
        assert type(caught.value) is ValueError and str(caught.value) == message

    @pytest.mark.parametrize("rows, error, message", [
        (5, ValueError, "code book rows 5 are not iterable"),
        (None, ValueError, "code book rows None are not iterable"),
        ([5], words_mod.RowError, "row 0: 5 is not a sequence of symbols"),
        ([(0, 1), None], words_mod.RowError, "row 1: None is not a sequence of symbols"),
    ])
    def test_from_symbols_names_bad_input(self, rows, error, message):
        with pytest.raises(ValueError) as caught:
            CodeBook.from_symbols(AlphabetSpec.uniform(2, 2), rows)
        assert type(caught.value) is error and str(caught.value) == message
        if error is words_mod.RowError:
            assert caught.value.row == len(rows) - 1

    def test_ragged_and_misshapen_rows(self):
        a = AlphabetSpec.uniform(3, 3)
        with pytest.raises(ValueError, match="row 1: word length 2 != alphabet length 3"):
            CodeBook.from_symbols(a, [(0, 0, 0), (1, 1)])
        with pytest.raises(ValueError, match="row 0: word length 4"):
            CodeBook.from_symbols(a, [(0, 0, 0, 0)])
        with pytest.raises(ValueError, match="do not have 3 columns"):
            CodeBook.from_symbols(a, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match=f"row 0: symbol {10**30} at coordinate 1"):
            CodeBook.from_symbols(a, [(0, 10**30, 0)])


class TestMatrixCache:
    def test_fresh_int64_copy_of_read_only_narrow_rows(self):
        c = CodeBook.from_symbols(AlphabetSpec((2, 3, 5)), [(1, 2, 4), (0, 0, 0), (1, 0, 3)])
        m = c.matrix()
        assert m.dtype == np.int64 and m.tolist() == [list(r) for r in c.symbol_rows]
        m[0, 0] = 7
        assert c.matrix()[0, 0] == 0
        assert c._symbol_array.dtype == np.uint8
        assert not c._symbol_array.flags.writeable

    def test_wide_alphabet_and_empty_code(self):
        c = CodeBook.from_symbols(AlphabetSpec((2, 300)), [(1, 299), (0, 256)])
        assert c._symbol_array.dtype == np.uint16
        assert c.matrix().tolist() == [[0, 256], [1, 299]]
        empty = CodeBook.from_symbols(AlphabetSpec.uniform(3, 4), [])
        assert empty.matrix().shape == (0, 4) and empty.matrix().dtype == np.int64


class TestLexWords:
    @pytest.mark.parametrize("q", [2, 3, 5, 257])
    @pytest.mark.parametrize("k", range(5))
    def test_lists_every_word_in_lex_order_or_refuses(self, q, k):
        if q**k > words_mod.DEFAULT_ENUM_CAP:
            with pytest.raises(EnumerationCapExceeded, match=f"^{q}\\^{k} w: {q**k} exceeds"):
                words_mod._lex_words(q, k, "w")
            return
        got = words_mod._lex_words(q, k, "w")
        assert got.shape == (q**k, k)
        assert got.dtype == (np.uint8 if q <= 256 else np.uint16)
        assert list(map(tuple, got.tolist())) == list(itertools.product(range(q), repeat=k))

    def test_k_zero_is_one_empty_word(self):
        assert words_mod._lex_words(3, 0, "w").shape == (1, 0)

    def test_k_past_the_cap_bit_length_refuses_by_name(self):
        # q**k would take a second to build and 20 MB to hold; check_cap
        # would name it by its bit length
        with pytest.raises(EnumerationCapExceeded, match=r"^w: 3\^100000000 exceeds enumeration cap"):
            words_mod._lex_words(3, 10**8, "w")

    def test_a_bad_cap_setting_is_named_first(self, monkeypatch):
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", 0)
        monkeypatch.setenv("ASYMCODES_ENUM_CAP", "abc")
        for k in (1, 10**8):
            with pytest.raises(ValueError, match="ASYMCODES_ENUM_CAP must be a positive integer"):
                words_mod._lex_words(3, k, "w")

    def test_check_cap_names_any_size(self, monkeypatch):
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", 7)
        with pytest.raises(EnumerationCapExceeded, match="^w: 8 exceeds enumeration cap 7$"):
            words_mod.check_cap(8, "w")
        with pytest.raises(EnumerationCapExceeded, match=f"^w: {2**64 - 1} exceeds"):
            words_mod.check_cap(2**64 - 1, "w")
        # str() refuses integers past 4300 digits
        with pytest.raises(EnumerationCapExceeded,
                           match=r"^w: at least 2\^16609 exceeds enumeration cap 7$"):
            words_mod.check_cap(10**5000, "w")

    def test_a_cap_of_one_refuses_every_listing_before_it_allocates(self, monkeypatch):
        from asymcodes import (best_cr_group, codewords_of, cr_code, enumerate_orbits,
                               hamming_parity_check, lee_parity_check)
        from asymcodes.linearq import MatrixModZq

        def listed(*args, **kwargs):
            raise AssertionError("a word space was listed")

        monkeypatch.setattr(np, "indices", listed)
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", 1)
        for call in (lambda: cr_code(best_cr_group(6)),
                     lambda: codewords_of(MatrixModZq(3, ((1, 1, 1),))),
                     lambda: hamming_parity_check(3, 2),
                     lambda: lee_parity_check(5, 1),
                     lambda: enumerate_orbits(1)):
            with pytest.raises(EnumerationCapExceeded):
                call()


class TestLeastFactor:
    """The one trial-division loop, bounded by the cap like every other
    exhaustive search."""

    @staticmethod
    def first_divisor(n):
        return next(d for d in range(2, n + 1) if n % d == 0)

    def test_equals_the_first_divisor(self):
        assert [words_mod._least_factor(n) for n in range(2, 3000)] == \
            [self.first_divisor(n) for n in range(2, 3000)]
        assert [n for n in range(-3, 3000) if words_mod._is_prime(n)] == \
            [n for n in range(2, 3000) if self.first_divisor(n) == n]

    def test_the_cap_bounds_the_divisors(self, monkeypatch):
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", 100)
        # isqrt(10007) = 100: the divisors up to the cap settle it
        assert words_mod._is_prime(10007)
        # a factor under the cap answers whatever the cofactor
        assert words_mod._least_factor(2 * 10007**2) == 2
        for n, root in ((101**2, 101), (101 * 103, 101), (10007**2, 10007)):
            with pytest.raises(EnumerationCapExceeded, match=(
                    f"^trial division of {n}: divisor {root} exceeds enumeration cap 100$")):
                words_mod._is_prime(n)

    def test_a_huge_number_is_named_by_its_bit_length(self, monkeypatch):
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", 10)
        # str() refuses integers past 4300 digits; 11^5000 has 5207
        with pytest.raises(EnumerationCapExceeded, match=(
                r"^trial division of at least 2\^17297: divisor at least 2\^8648 exceeds")):
            words_mod._least_factor(11**5000)

    def test_a_bad_cap_setting_is_named_first(self, monkeypatch):
        monkeypatch.setattr(words_mod, "DEFAULT_ENUM_CAP", 0)
        monkeypatch.setenv("ASYMCODES_ENUM_CAP", "abc")
        with pytest.raises(ValueError, match="ASYMCODES_ENUM_CAP must be a positive integer"):
            words_mod._is_prime(7)


class TestLimitedMagnitude:
    def test_identity(self):
        x = w((2, 0), q=5)
        assert d_ell_distance(x, x, 1) == 0

    def test_no_wrap_sentinel(self):
        x, y = w((2, 0), q=5), w((1, 4), q=5)
        assert d_ell_distance(x, y, 1) == 3  # n + 1

    def test_wrap(self):
        x, y = w((2, 0), q=5), w((1, 4), q=5)
        assert d_ell_distance(x, y, 1, wrap=True) == 2

    def test_wrap_needs_a_word_for_q(self):
        with pytest.raises(ValueError):
            d_ell_distance((2, 0), (1, 4), 1, wrap=True)
        assert d_ell_distance(w((2, 0), q=5), (1, 4), 1, wrap=True) == 2
        assert d_ell_distance((2, 0), w((1, 4), q=5), 1, wrap=True) == 2

    def test_wrap_needs_headroom(self):
        x, y = w((0, 0), q=2), w((1, 1), q=2)
        with pytest.raises(ValueError):
            d_ell_distance(x, y, 1, wrap=True)

    def test_is_lm_code_wrap_needs_headroom(self):
        c = book_from_strings(["00", "11"], q=2)
        with pytest.raises(ValueError, match=r"^wrap-around direction is ambiguous for q=2, ell=1$"):
            is_lm_code(c, 1, 1, wrap=True)

    def test_is_lm_code_examples(self):
        c0 = book_from_strings(["00", "11", "22", "33", "44"], q=5)
        assert is_lm_code(c0, 1, 1, wrap=True)
        bad = book_from_strings(["00", "01"], q=3)
        assert not is_lm_code(bad, 1, 1, wrap=True)

    @given(word_pairs())
    def test_degenerate_ell(self, pair):
        # with ell >= q-1 and no wrap the sentinel branch never fires
        x, y = pair
        q = x.alphabet.q
        ell = q - 1 if q > 2 else 1
        m_xy = sum(1 for a, b in zip(x.symbols, y.symbols) if a > b)
        m_yx = sum(1 for a, b in zip(x.symbols, y.symbols) if b > a)
        assert d_ell_distance(x, y, ell) == max(m_xy, m_yx)

    def test_lm_brute_force_agreement(self):
        # the packed kernel agrees with the scalar distance, in the real row
        # blocks and in blocks of 5 pairs; its pair is a closest one or, on
        # a "no", one at distance <= t.  Small word spaces are sampled from
        # the full pool; wide ones, n*q past 64 and past 128 bits (two and
        # three packed columns), are random words near one random word.
        import random

        def check(c, t, ell, wrap):
            dist = {
                (i, j): d_ell_distance(c.words[i], c.words[j], ell, wrap)
                for i, j in itertools.combinations(range(len(c)), 2)
            }
            ok = is_lm_code(c, t, ell, wrap)
            assert ok == (min(dist.values()) >= t + 1)
            d, i, j = words_mod._lm_pair(c, t, ell, wrap)
            assert i < j and dist[(i, j)] == d
            assert d <= t if not ok else d == min(dist.values())
            return ok

        rng = random.Random(3)
        answers = set()
        for block, wrap in itertools.product([words_mod._PAIR_BLOCK, 5], [False, True]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(words_mod, "_PAIR_BLOCK", block)
                for _ in range(120):
                    q = rng.randrange(2, 8)
                    n = rng.randrange(1, 5)
                    ell = rng.choice([1, 2, 3])
                    if wrap and q <= 2 * ell:
                        continue
                    pool = list(itertools.product(range(q), repeat=n))
                    rows = rng.sample(pool, rng.randrange(2, min(len(pool), 12) + 1))
                    c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
                    check(c, rng.choice([1, 2, 3]), ell, wrap)
                for q, n in [(7, 10), (5, 27)] * 15:
                    ell = rng.randrange(1, (q - 1) // 2 + 1)
                    base = [rng.randrange(q) for _ in range(n)]
                    rows = {tuple(rng.randrange(q) for _ in range(n))}
                    while len(rows) < 12:
                        word = list(base)
                        for i in rng.sample(range(n), rng.randrange(4)):
                            step = word[i] + rng.choice([-1, 1]) * rng.randrange(1, ell + 2)
                            word[i] = step % q if wrap else min(max(step, 0), q - 1)
                        rows.add(tuple(word))
                    c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
                    answers.add(check(c, rng.choice([1, 2, 3]), ell, wrap))
        assert answers == {False, True}

    @pytest.mark.parametrize("block", [words_mod._PAIR_BLOCK, 5])
    def test_lm_pair_names_the_first_closest_pair_on_yes(self, block):
        # on a "yes" every pair is compared, and only a strictly closer pair
        # replaces the best: the pair is the first closest one in (i, j) order
        import random

        rng = random.Random(17)
        yes = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words_mod, "_PAIR_BLOCK", block)
            for _ in range(300):
                q, n, ell = rng.randrange(2, 6), rng.randrange(1, 5), rng.choice([1, 2])
                pool = list(itertools.product(range(q), repeat=n))
                rows = rng.sample(pool, rng.randrange(2, min(len(pool), 10) + 1))
                c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
                first = min(
                    (d_ell_distance(c.words[i], c.words[j], ell), i, j)
                    for i, j in itertools.combinations(range(len(c)), 2)
                )
                if first[0] < 2:
                    continue
                yes += 1
                assert words_mod._lm_pair(c, rng.randrange(1, first[0]), ell) == first
        assert yes > 20

    def test_lm_pair_spans_row_blocks(self):
        # even symbols of Z5 are pairwise more than ell = 1 apart; the 729
        # words span several blocks of the real size, and the one odd word
        # sits among the last rows
        far = [tuple(2 * s for s in word) for word in itertools.product(range(3), repeat=6)]
        a = AlphabetSpec.uniform(5, 6)
        c = CodeBook.from_symbols(a, far)
        assert words_mod._PAIR_BLOCK // (len(c) - 1) < len(c) // 2
        assert is_lm_code(c, 1, 1) and is_lm_code(c, 5, 1)
        odd = (4,) * 5 + (3,)
        near = CodeBook.from_symbols(a, far + [odd])
        assert not is_lm_code(near, 1, 1)
        d, i, j = words_mod._lm_pair(near, 1, 1)
        assert odd in (near.symbol_rows[i], near.symbol_rows[j])
        assert i < j and d == d_ell_distance(near.words[i], near.words[j], 1) == 1

    def test_lm_reads_packed_bits(self):
        # CR n = 18: 13 798 words, 248 364 symbols.  The kernel packs each
        # word one-hot and as its three table rows, 36 bits apiece, into one
        # uint64 column each; float32 one-hot rows and tables would trace 56
        # bytes per symbol.
        import tracemalloc

        c = cr_code(best_cr_group(18))
        tracemalloc.start()
        try:
            answer = is_lm_code(c, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer is True
        assert peak < 8 * len(c) * c.n

    @pytest.mark.parametrize("ell", [0, -3])
    def test_lm_code_rejects_ell_below_one(self, ell):
        # with ell <= 0 every differing coordinate would count as "more than
        # ell apart", and 22 and 23 would read as far apart
        c = book_from_strings(["00", "22", "23", "44"], q=5)
        with pytest.raises(ValueError, match="ell must be >= 1"):
            is_lm_code(c, 1, ell)
        with pytest.raises(ValueError, match="ell must be >= 1"):
            d_ell_distance(c.words[1], c.words[2], ell)

    def test_lm_needs_a_uniform_alphabet(self):
        c = CodeBook.from_symbols(AlphabetSpec((3, 5)), [(0, 0), (2, 4)])
        with pytest.raises(ValueError, match="uniform alphabet"):
            is_lm_code(c, 1, 1)


# Every entry point that reads one received word, each over Z_5^4: the
# decrement decoder, the syndrome decoder of the concatenated code with
# outer check (1 2) over Z_5, the error ball on the chain channel, and Word.
Z5_4 = AlphabetSpec.uniform(5, 4)
READERS = {
    "decode_asymmetric": lambda x: decode_asymmetric(
        CodeBook.from_symbols(Z5_4, [(0, 0, 0, 0), (1, 1, 1, 1)]), x, 1),
    "decode_concat": lambda x: decode_concat(MatrixModZq(5, ((1, 2),), "parity"), x),
    "error_ball": lambda x: error_ball(x, ProductChannel.power(make_channel("chain", 5), 4), 1),
    "Word": lambda x: Word(x, Z5_4),
}


class TestOneWordReader:
    """`words._read_word` reads the received word of both decoders, the
    centre of `error_ball` and the symbols of a Word: the same bad operand
    raises the same exception type from each, with the same message."""

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("operand, error, message", [
        (5, ValueError, "word 5 is not a sequence of symbols"),
        (None, ValueError, "word None is not a sequence of symbols"),
        ((0, 0, 0), AlphabetMismatch, "word length 3 != alphabet length 4"),
        ((0,) * 5, AlphabetMismatch, "word length 5 != alphabet length 4"),
        (Word((0,) * 4, AlphabetSpec.uniform(7, 4)), AlphabetMismatch,
         "word alphabet profile does not match"),
        ((0, 1.5, 0, 0), ValueError, "symbol 1.5 at coordinate 1 is not an integer"),
        ((0, 0, 5, 0), ValueError, "symbol 5 at coordinate 2 outside 0..4"),
        ((0, 0, 0, -1), ValueError, "symbol -1 at coordinate 3 outside 0..4"),
        ((0, 0, 0, 300), ValueError, "symbol 300 at coordinate 3 outside 0..4"),
    ])
    def test_same_error_from_every_reader(self, reader, operand, error, message):
        with pytest.raises(ValueError) as caught:
            READERS[reader](operand)
        assert type(caught.value) is error and str(caught.value) == message

    def test_error_ball_takes_any_word_operand(self):
        ch = ProductChannel.power(make_channel("chain", 5), 4)
        want = error_ball(Word((1, 0, 4, 2), Z5_4), ch, 2)
        for x in [(1, 0, 4, 2), [1, 0, 4, 2], np.array([1, 0, 4, 2]), (True, 0, np.uint8(4), 2)]:
            assert error_ball(x, ch, 2) == want

    def test_mixed_alphabet_checks_each_coordinate(self):
        # a symbol of 3 or more is past the least size, 3, so the range is
        # checked coordinate by coordinate, with and without the bytes pass
        a = AlphabetSpec((3, 5, 3, 256, 300))
        for symbols in [(2, 4, 2, 255, 0), (2, 4, 2, 255, 299)]:
            assert Word(symbols, a).symbols == symbols
        for symbols, message in [((2, 5, 0, 0, 0), "symbol 5 at coordinate 1 outside 0..4"),
                                 ((0, 0, 0, 256, 0), "symbol 256 at coordinate 3 outside 0..255"),
                                 ((0, 0, 3, 0, 300), "symbol 3 at coordinate 2 outside 0..2")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Word(symbols, a)
