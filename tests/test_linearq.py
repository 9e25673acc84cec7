from __future__ import annotations

import itertools
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymcodes import (
    AlphabetSpec,
    CodeBook,
    MatrixModZq,
    ProductChannel,
    codewords_of,
    concat_code,
    corrects_t_errors,
    decode_concat,
    double_code,
    hamming_parity_check,
    is_t_code,
    lee_parity_check,
    make_channel,
    min_asym_distance,
    min_hamming_distance,
    is_single_rq_correcting,
)
from asymcodes import words
from asymcodes.linearq import nullspace, rank
from asymcodes.words import DecodeFailure, EnumerationCapExceeded, Word

from conftest import book_from_strings
from reference_codes import CODE_5_27_Q3, LEE_5_2_PARTIAL_ROWS, TETRACODE


class TestMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixModZq(3, ((1, 0), (0, 1)), "weird")
        with pytest.raises(ValueError):
            MatrixModZq(3, ((1, 0), (2, 0)), "parity")  # zero column
        m = MatrixModZq(3, ((4, -1),), "generator")
        assert m.rows == ((1, 2),)

    def test_numbers_follow_the_integer_rule(self):
        with pytest.raises(ValueError, match=r"matrix entry 1\.7 is not an integer"):
            MatrixModZq(5, ((1.7, 2),), "parity")
        with pytest.raises(ValueError, match=r"modulus 5\.0 is not an integer"):
            MatrixModZq(5.0, ((1, 2),), "parity")
        m = MatrixModZq(np.int64(5), ((np.int8(7), True),), "parity")
        assert (m.q, m.rows) == (5, ((2, 1),))
        assert {type(m.q), *map(type, m.rows[0])} == {int}

    def test_hash_is_taken_once_and_a_second_decode_hits_the_plan_cache(self):
        from asymcodes import linearq

        H = MatrixModZq(5, LEE_5_2_PARTIAL_ROWS, "parity")
        again = MatrixModZq(5, tuple(map(list, LEE_5_2_PARTIAL_ROWS)), "parity")
        assert again == H and again is not H and hash(again) == hash(H)
        # the rows are hashed when the matrix is made, not at each lookup
        spoiled = MatrixModZq(5, LEE_5_2_PARTIAL_ROWS, "parity")
        object.__setattr__(spoiled, "rows", None)
        assert hash(spoiled) == hash(H)
        linearq._syndrome_plan.cache_clear()
        word = (0,) * 2 * H.ncols
        assert decode_concat(H, word) == word
        assert linearq._syndrome_plan.cache_info().hits == 0
        assert decode_concat(again, word) == word
        assert linearq._syndrome_plan.cache_info().hits == 1

    def test_text_round_trip(self):
        m = MatrixModZq(5, ((1, 2, 3), (0, 4, 1)), "parity")
        again = MatrixModZq.from_text(m.to_text())
        assert again == m
        assert m.to_text().splitlines()[0] == "5 2 3 parity"

    def test_rank_and_nullspace(self):
        H = hamming_parity_check(3, 2)
        assert rank(H) == 2
        G = nullspace(H)
        assert G.nrows == 2
        # every basis row is in the kernel
        for g in G.rows:
            for h in H.rows:
                assert sum(a * b for a, b in zip(g, h)) % 3 == 0


class TestParityChecks:
    def test_hamming_3_2(self):
        H = hamming_parity_check(3, 2)
        assert H.ncols == 4
        assert [H.column(j) for j in range(4)] == [(0, 1), (1, 0), (1, 1), (1, 2)]
        assert {str(w) for w in codewords_of(H)} == set(TETRACODE)
        assert min_hamming_distance(H) == 3

    def test_hamming_2_3(self):
        H = hamming_parity_check(2, 3)
        assert H.ncols == 7
        assert min_hamming_distance(H) == 3

    def test_hamming_5_2(self):
        H = hamming_parity_check(5, 2)
        assert H.ncols == 6
        assert min_hamming_distance(H) == 3

    def test_lee_5_2_partial_is_the_reference_matrix(self):
        H = lee_parity_check(5, 2, full=False)
        assert H.rows == LEE_5_2_PARTIAL_ROWS

    def test_lee_5_2_full(self):
        H = lee_parity_check(5, 2, full=True)
        assert H.ncols == 12
        assert H.column(0) == (0, 1) and H.column(1) == (0, 2)

    def test_lee_3_2_full_equals_hamming(self):
        assert lee_parity_check(3, 2, full=True).rows == hamming_parity_check(3, 2).rows

    def test_lee_rejects_even_q(self):
        with pytest.raises(ValueError):
            lee_parity_check(2, 3)

    def test_lee_full_lengths_and_condition(self):
        for q, r in [(3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]:
            H = lee_parity_check(q, r, full=True)
            assert H.ncols == (q**r - 1) // 2
            assert is_single_rq_correcting(H)

    @pytest.mark.parametrize("q, r", [(2, 2), (2, 5), (3, 2), (3, 5), (5, 1), (5, 3), (7, 3), (11, 2)])
    def test_equal_the_column_comprehensions(self, q, r):
        def leading(top, full=True):
            cols = [v for v in itertools.product(range(q), repeat=r)
                    if any(v) and next(x for x in v if x) <= top]
            if not full:
                cols = [v for v in cols if v[0] != 0]
            return tuple(tuple(c[i] for c in cols) for i in range(r))

        if r >= 2:
            assert hamming_parity_check(q, r).rows == leading(1)
        if q > 2:
            for full in (True, False):
                assert lee_parity_check(q, r, full=full).rows == leading((q - 1) // 2, full)

    @pytest.mark.parametrize("call, message", [
        (lambda: hamming_parity_check(4, 2), "q must be prime"),
        (lambda: lee_parity_check(9, 1), "q must be an odd prime"),
        (lambda: rank(MatrixModZq(4, ((1, 2),))), "rank over Z_q needs q prime"),
        (lambda: nullspace(MatrixModZq(4, ((1, 2),))), "nullspace over Z_q needs q prime"),
        (lambda: concat_code(MatrixModZq(4, ((1, 0, 1),))), "q must be prime"),
    ])
    def test_a_composite_modulus_is_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda q: hamming_parity_check(q, 2),
        lambda q: lee_parity_check(q, 1),
        lambda q: nullspace(MatrixModZq(q, ((1, 2),))),
        lambda q: concat_code(MatrixModZq(q, ((1, 0, 1),))),
    ])
    def test_a_modulus_with_no_factor_under_the_cap_is_refused(self, monkeypatch, call):
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10**6)
        t0 = time.monotonic()
        with pytest.raises(EnumerationCapExceeded, match=(
                r"^trial division of 2305843009213693951: divisor 1518500249 "
                r"exceeds enumeration cap 1000000$")):
            call(2**61 - 1)
        assert time.monotonic() - t0 < 10

    def test_cap_bounds_the_column_listing(self, monkeypatch):
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 100)
        with pytest.raises(EnumerationCapExceeded, match=r"\b3\^6 column vectors: 729 exceeds"):
            hamming_parity_check(3, 6)
        with pytest.raises(EnumerationCapExceeded, match=r"\b5\^4 column vectors: 625 exceeds"):
            lee_parity_check(5, 4)


class TestRqCondition:
    def test_reference_matrix_passes(self):
        assert is_single_rq_correcting(MatrixModZq(5, LEE_5_2_PARTIAL_ROWS, "parity"))

    def test_plus_minus_collision(self):
        H = MatrixModZq(5, ((1, 4),), "parity")
        assert not is_single_rq_correcting(H)

    def test_repeated_column(self):
        H = MatrixModZq(5, ((1, 1), (2, 2)), "parity")
        assert not is_single_rq_correcting(H)


class TestCodewordsOf:
    def test_generator_enumeration(self):
        G = MatrixModZq(3, ((0, 1, 1, 1), (1, 0, 1, 2)), "generator")
        book = codewords_of(G)
        assert len(book) == 9
        assert (0, 0, 0, 0) in book and (0, 1, 1, 1) in book and (1, 0, 1, 2) in book

    def test_zero_generator(self):
        G = MatrixModZq(3, ((0, 0, 0),), "generator")
        assert [w.symbols for w in codewords_of(G)] == [(0, 0, 0)]

    def test_cap(self, monkeypatch):
        G = MatrixModZq(3, tuple((0,) * 30 for _ in range(30)), "generator")
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 100)
        with pytest.raises(EnumerationCapExceeded):
            codewords_of(G)

    def test_identity_distance_one(self):
        G = MatrixModZq(3, ((1, 0), (0, 1)), "generator")
        assert min_hamming_distance(G) == 1

    def test_repetition_distance_three(self):
        assert min_hamming_distance(MatrixModZq(3, ((1, 1, 1),), "generator")) == 3

    def test_empty_null_space_keeps_its_length(self):
        # a full-rank check's null space has no rows, hence no columns of its own
        H = MatrixModZq(3, ((1, 0), (0, 1)), "parity")
        assert nullspace(H).nrows == 0
        book = codewords_of(H)
        assert book.n == 2 and [w.symbols for w in book] == [(0, 0)]
        with pytest.raises(ValueError, match="^code has no nonzero codeword$"):
            min_hamming_distance(H)


def outer_repetition():
    return MatrixModZq(3, ((1, 1, 1),), "generator")


def encode(cc, message):
    """The codeword the message spans: message times the generator, mod q."""
    assert len(message) == cc.dimension
    return tuple(sum(m * g for m, g in zip(message, col)) % cc.q
                 for col in zip(*cc.generator.rows))


class TestConcat:
    def test_shortened_5_3_exact_words(self):
        cc = concat_code(outer_repetition(), shorten_to_odd=True)
        assert (cc.length, cc.dimension) == (5, 3)
        book = cc.codebook()
        assert {str(w) for w in book} == set(CODE_5_27_Q3)
        assert is_t_code(book, 1)

    def test_8_6_code(self):
        cc = concat_code(nullspace(hamming_parity_check(3, 2)))
        assert (cc.length, cc.dimension) == (8, 6)
        book = cc.codebook()
        assert len(book) == 3**6
        assert is_t_code(book, 1)

    def test_7_5_code(self):
        cc = concat_code(nullspace(hamming_parity_check(3, 2)), shorten_to_odd=True)
        assert (cc.length, cc.dimension) == (7, 5)
        assert is_t_code(cc.codebook(), 1)

    def test_20_18_parameters(self):
        cc = concat_code(nullspace(lee_parity_check(5, 2, full=False)))
        assert (cc.length, cc.dimension) == (20, 18)
        assert cc.q == 5

    def test_rejects_bad_outer(self):
        # identity outer code has Hamming distance 1
        bad = MatrixModZq(3, ((1, 0), (0, 1)), "generator")
        with pytest.raises(ValueError):
            concat_code(bad)

    def test_linearity_and_size(self):
        cc = concat_code(outer_repetition())
        book = cc.codebook()
        assert len(book) == 3 ** cc.dimension
        rows = book.symbol_set
        sample = random.Random(0).sample(sorted(rows), 12)
        for a in sample:
            for b in sample:
                s = tuple((x + y) % 3 for x, y in zip(a, b))
                assert s in rows

    def test_coset_structure(self):
        # restricted to one outer word, the pairs are exactly (a, a + c_j)
        cc = concat_code(outer_repetition())
        book = cc.codebook()
        outer_words = {(0, 0, 0), (1, 1, 1), (2, 2, 2)}
        for w in book.symbol_rows:
            diffs = tuple((w[2 * j + 1] - w[2 * j]) % 3 for j in range(3))
            assert diffs in outer_words

    def test_encode_matches_generator(self):
        cc = concat_code(outer_repetition())
        rng = random.Random(4)
        book = cc.codebook()
        for _ in range(20):
            msg = tuple(rng.randrange(3) for _ in range(cc.dimension))
            assert encode(cc, msg) in book


class TestZeroOuterCode:
    """The zero outer code [m, 0]_q: no outer generator row survives row
    reduction, and its check is the m x m identity, which corrects every
    +-1 error."""

    ZERO = MatrixModZq(3, ((0, 0, 0),), "generator")

    def test_passes_the_check_with_the_identity(self):
        cc = concat_code(self.ZERO)
        assert (cc.q, cc.m, cc.k, cc.length, cc.dimension) == (3, 3, 0, 6, 3)
        assert cc.outer_check == MatrixModZq(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "parity")
        assert concat_code(self.ZERO, check=False) == cc

    def test_the_6_3_code_corrects_one_decrement(self):
        book = concat_code(self.ZERO).codebook()
        assert len(book) == 27
        assert is_t_code(book, 1)
        chain = ProductChannel(tuple(make_channel("chain", 3) for _ in range(6)))
        assert corrects_t_errors(book, chain, 1)

    def test_every_single_decrement_decodes(self):
        cc = concat_code(self.ZERO)
        decoded = 0
        for w in cc.codebook().symbol_rows:
            for pos in range(6):
                y = list(w)
                y[pos] = (y[pos] - 1) % 3  # a 0 wraps to 2
                assert decode_concat(cc.outer_check, tuple(y)) == w
                decoded += 1
        assert decoded == 162

    def test_shortened_5_2_code(self):
        cc = concat_code(self.ZERO, shorten_to_odd=True)
        assert (cc.length, cc.dimension) == (5, 2)
        assert cc.generator.rows == ((0, 1, 1, 0, 0), (0, 0, 0, 1, 1))
        book = cc.codebook()
        assert len(book) == 9 and is_t_code(book, 1)
        for w in book.symbol_rows:
            for pos in range(5):
                y = list(w)
                y[pos] = (y[pos] - 1) % 3
                assert decode_concat(cc.outer_check, tuple(y), shortened=True) == w

    def test_length_one_shortened_has_no_generator_row(self):
        one = MatrixModZq(3, ((0,),), "generator")
        assert concat_code(one).generator.rows == ((1, 1),)
        with pytest.raises(ValueError, match="leaves no generator row"):
            concat_code(one, shorten_to_odd=True)

    def test_binary_is_still_refused(self):
        # over Z_2 a column equals its negative: +1 and -1 share a syndrome
        with pytest.raises(ValueError, match="does not correct a single"):
            concat_code(MatrixModZq(2, ((0, 0, 0),), "generator"))


class TestDecodeConcat:
    def test_clean_word_unchanged(self):
        cc = concat_code(nullspace(hamming_parity_check(3, 2)))
        word = encode(cc, (1, 2, 0, 1, 0, 2))
        assert decode_concat(cc.outer_check, word) == word

    def test_exhaustive_single_error_sweep_8_6(self):
        cc = concat_code(nullspace(hamming_parity_check(3, 2)))
        book = cc.codebook()
        for w in book.symbol_rows:
            for pos in range(8):
                y = list(w)
                y[pos] = (y[pos] - 1) % 3
                assert decode_concat(cc.outer_check, tuple(y)) == w

    def test_exhaustive_single_error_sweep_shortened(self):
        cc = concat_code(outer_repetition(), shorten_to_odd=True)
        book = cc.codebook()
        for w in book.symbol_rows:
            for pos in range(5):
                y = list(w)
                y[pos] = (y[pos] - 1) % 3
                assert decode_concat(cc.outer_check, tuple(y), shortened=True) == w

    def test_double_error_never_silently_correct(self):
        # beyond design distance: either an explicit failure or a visible
        # miscorrection, never the sent word back
        for outer, length in [
            (nullspace(hamming_parity_check(3, 2)), 8),
            (outer_repetition(), 6),
        ]:
            cc = concat_code(outer)
            book = cc.codebook()
            rng = random.Random(8)
            for w in rng.sample(book.symbol_rows, 60):
                pos = rng.sample(range(length), 2)
                y = list(w)
                for p in pos:
                    y[p] = (y[p] - 1) % 3
                try:
                    got = decode_concat(cc.outer_check, tuple(y))
                except DecodeFailure:
                    continue
                assert got != w

    def test_double_error_failures_occur_for_non_perfect_code(self):
        # the [6,4]_3 code leaves syndromes unmatched by any single error
        cc = concat_code(outer_repetition())
        book = cc.codebook()
        rng = random.Random(9)
        flagged = 0
        for w in rng.sample(book.symbol_rows, 60):
            pos = rng.sample(range(6), 2)
            y = list(w)
            for p in pos:
                y[p] = (y[p] - 1) % 3
            try:
                decode_concat(cc.outer_check, tuple(y))
            except DecodeFailure:
                flagged += 1
        assert flagged > 0


def reference_decode_concat(H_outer, received, shortened=False):
    """The former decoder: compare the syndrome with col_j and -col_j for
    every column j in turn.  It raises what decode_concat raises, with the
    same messages, on integer input."""
    q, m = H_outer.q, H_outer.ncols
    y = [int(s) for s in (received.symbols if isinstance(received, Word) else received)]
    expect = 2 * m - 1 if shortened else 2 * m
    if len(y) != expect:
        raise ValueError(f"received word must have length {expect}")
    for i, s in enumerate(y):
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} at coordinate {i} outside 0..{q - 1}")
    if shortened:
        d = [y[0]] + [(y[2 * j] - y[2 * j - 1]) % q for j in range(1, m)]
    else:
        d = [(y[2 * j + 1] - y[2 * j]) % q for j in range(m)]
    syndrome = tuple(sum(h[j] * d[j] for j in range(m)) % q for h in H_outer.rows)
    if not any(syndrome):
        return tuple(y)
    for j in range(m):
        col = H_outer.column(j)
        neg = tuple((-x) % q for x in col)
        if syndrome == col:
            pos = None if (shortened and j == 0) else (2 * j - 1 if shortened else 2 * j)
        elif syndrome == neg:
            pos = 0 if (shortened and j == 0) else (2 * j if shortened else 2 * j + 1)
        else:
            continue
        if pos is None:
            raise DecodeFailure(
                f"syndrome {syndrome} matches only a decrement of the dropped coordinate")
        y[pos] = (y[pos] + 1) % q
        return tuple(y)
    raise DecodeFailure(f"syndrome {syndrome} matches no single +-1 outer error")


def concat_outcome(decode, H, received, shortened):
    """The decoded word with the type of every symbol, or the exception
    type and message."""
    try:
        got = decode(H, received, shortened)
    except (DecodeFailure, ValueError) as e:
        return type(e), str(e)
    return got, tuple(map(type, got))


@st.composite
def concat_cases(draw):
    """An arbitrary outer parity check over Z_q, q = 2..13 and r = 1..6
    rows, so that the packed syndrome of the larger ones runs past 63 bits,
    sometimes with a repeated or negated column, and an arbitrary received
    word, now and then with a symbol just outside 0..q-1."""
    q = draw(st.integers(2, 13))
    r = draw(st.integers(1, 6))
    column = st.tuples(*[st.integers(0, q - 1)] * r).filter(any)
    cols = draw(st.lists(column, min_size=1, max_size=5))
    twin = draw(st.sampled_from(["none", "repeat", "negate"]))
    if twin != "none":
        src = draw(st.sampled_from(cols))
        if twin == "negate":
            src = tuple((-x) % q for x in src)
        cols.insert(draw(st.integers(0, len(cols))), src)
    H = MatrixModZq(q, tuple(zip(*cols)), "parity")
    shortened = draw(st.booleans())
    length = 2 * len(cols) - (1 if shortened else 0)
    low, high = (-1, q) if draw(st.integers(0, 9)) == 0 else (0, q - 1)
    received = tuple(draw(st.lists(st.integers(low, high), min_size=length, max_size=length)))
    return H, received, shortened


def received_forms(received, q):
    """The one received word as a tuple, a list, a numpy row and, inside
    the alphabet, a Word."""
    forms = [received, list(received), np.array(received, dtype=np.int64)]
    if all(0 <= s < q for s in received):
        forms.append(Word(received, AlphabetSpec.uniform(q, len(received))))
    return forms


class TestSyndromeTable:
    @settings(max_examples=300, deadline=None)
    @given(concat_cases())
    def test_equals_reference_column_loop(self, case):
        H, received, shortened = case
        want = concat_outcome(reference_decode_concat, H, received, shortened)
        for form in received_forms(received, H.q):
            assert concat_outcome(decode_concat, H, form, shortened) == want

    def test_packed_syndrome_past_64_bits(self):
        # q = 13, six rows and n = 16: each row's sum takes 12 bits, 72 in all
        cols = [tuple(int(i == k) for i in range(6)) for k in range(6)]
        cols += [(1, 1, 1, 1, 1, 1), (1, 2, 3, 4, 5, 6)]
        outer = nullspace(MatrixModZq(13, tuple(zip(*cols)), "parity"))
        rng = random.Random(15)
        for shortened in (False, True):
            cc = concat_code(outer, shorten_to_odd=shortened)
            H, gen = cc.outer_check, cc.generator.rows
            assert (H.nrows, H.ncols) == (6, 8)
            for _ in range(100):
                coef = [rng.randrange(13) for _ in gen]
                sent = tuple(sum(c * g[i] for c, g in zip(coef, gen)) % 13 for i in range(cc.length))
                y = list(sent)
                hit = rng.randrange(cc.length)
                y[hit] = (y[hit] - 1) % 13
                for word in (sent, tuple(y)):
                    got = concat_outcome(decode_concat, H, word, shortened)
                    assert got == concat_outcome(reference_decode_concat, H, word, shortened)
                    assert got[0] == sent or (shortened and hit == 0)
                noise = tuple(rng.randrange(13) for _ in range(cc.length))
                assert concat_outcome(decode_concat, H, noise, shortened) == concat_outcome(
                    reference_decode_concat, H, noise, shortened)

    def test_single_errors_on_binary_and_repeated_columns(self):
        # q = 2 makes col = -col, and column 2 repeats column 0: the first
        # match, the first-of-pair coordinate of the lowest column, wins
        for H in [MatrixModZq(2, ((1, 0, 1), (0, 1, 1)), "parity"),
                  MatrixModZq(3, ((1, 0, 1), (0, 1, 0)), "parity")]:
            for shortened in (False, True):
                length = 2 * H.ncols - (1 if shortened else 0)
                for y in itertools.product(range(H.q), repeat=length):
                    assert concat_outcome(decode_concat, H, y, shortened) == concat_outcome(
                        reference_decode_concat, H, y, shortened)

    def test_failure_names_the_syndrome(self):
        H = MatrixModZq(7, ((1,),), "parity")
        with pytest.raises(DecodeFailure, match=r"syndrome \(2,\) matches no single"):
            decode_concat(H, (0, 2))
        with pytest.raises(DecodeFailure, match=r"syndrome \(1,\) matches only"):
            decode_concat(H, (1,), shortened=True)

    @pytest.mark.parametrize("received, where", [
        ((3, 3, 3, 3, 4, 4, 5, 5), "symbol 3 at coordinate 0"),
        ((0, 0, 0, 0, 1, 1, 2, -1), "symbol -1 at coordinate 7"),
    ])
    def test_rejects_symbols_outside_the_alphabet(self, received, where):
        cc = concat_code(nullspace(hamming_parity_check(3, 2)))
        with pytest.raises(ValueError, match=where):
            decode_concat(cc.outer_check, received)

    @pytest.mark.parametrize("received, where", [
        ((0.5, 0, 0, 0, 0, 0, 0, 0), "symbol 0.5 at coordinate 0 is not an integer"),
        ((0, 0, 0, 0, 0, 0, 0, 1.0), "symbol 1.0 at coordinate 7 is not an integer"),
        (np.zeros(8), "symbol np.float64.0.0. at coordinate 0 is not an integer"),
        ((0, 0, "1", 0, 0, 0, 0, 0), "symbol '1' at coordinate 2 is not an integer"),
        (np.zeros(8, dtype=bool), "symbol np.False_ at coordinate 0 is not an integer"),
    ])
    def test_rejects_symbols_that_are_not_integers(self, received, where):
        cc = concat_code(nullspace(hamming_parity_check(3, 2)))
        with pytest.raises(ValueError, match=where):
            decode_concat(cc.outer_check, received)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int8, bool])
    def test_returns_plain_ints(self, kind):
        # numpy integers and Python bools are integers; what comes back is ints
        H = concat_code(nullspace(hamming_parity_check(3, 2))).outer_check
        for row in [(0,) * 8, (0, 1, 1, 1, 0, 0, 0, 1), (0, 1) + (0,) * 6]:
            want = reference_decode_concat(H, row)
            if kind is bool:
                forms = [tuple(map(bool, row)), list(map(bool, row))]
            else:
                y = np.array(row, dtype=kind)
                forms = [y, tuple(y), list(y)]
            for form in forms:
                got = decode_concat(H, form)
                assert got == want and set(map(type, got)) == {int}

    def test_alphabet_past_256_symbols(self):
        # symbols past 255 take the general route and decode the same
        H = MatrixModZq(257, ((1, 2, 3),), "parity")
        rng = random.Random(16)
        for _ in range(200):
            y = tuple(rng.choice([0, 255, 256, rng.randrange(257)]) for _ in range(6))
            assert concat_outcome(decode_concat, H, y, False) == concat_outcome(
                reference_decode_concat, H, y, False)


class TestDouble:
    def test_examples(self):
        cc = concat_code(outer_repetition(), shorten_to_odd=True)
        doubled = double_code(cc.codebook())
        assert doubled.n == 10 and len(doubled) == 27
        assert min_asym_distance(doubled) == 4

    def test_single_word(self):
        c = book_from_strings(["0"], q=3)
        assert [w.symbols for w in double_code(c)] == [(0, 0)]

    def test_doubling_exactness_random(self):
        rng = random.Random(12)
        for _ in range(25):
            q = rng.choice([2, 3, 4])
            n = rng.randrange(2, 5)
            pool = list(itertools.product(range(q), repeat=n))
            rows = rng.sample(pool, rng.randrange(2, 7))
            c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
            assert min_asym_distance(double_code(c)) == 2 * min_asym_distance(c)
