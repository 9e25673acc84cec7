from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from asymcodes import (
    AbelianGroup,
    AlphabetSpec,
    CodeBook,
    Pairing,
    canonical_pairing,
    codewords_of,
    construct_even,
    construct_extended,
    construct_odd_mixed,
    cr_code,
    expand_to_binary,
    find_pairing,
    fold_to_ternary,
    hamming_parity_check,
    is_t_code,
    is_ternary_code,
    make_channel,
    corrects_t_errors,
    ProductChannel,
    vt_code,
    weight_enumerator,
)

from asymcodes import channels, words
from asymcodes.ternary import EXPANSIONS
from asymcodes.words import EnumerationCapExceeded

from conftest import book_from_strings
from reference_codes import (
    CODE_6_12,
    CODE_7_16,
    CODE_8_32,
    DECODABLE_TRIT_PAIRS,
    EXTENDED_7_16,
    MIXED_7_SOURCE,
    NON_DECODABLE_TRIT_PAIR,
    TETRACODE,
)


def identity_pairing(m):
    return Pairing(tuple((2 * j, 2 * j + 1) for j in range(m)))


class TestFold:
    def test_fold_four_word_code(self):
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        f = fold_to_ternary(c, identity_pairing(2))
        assert [x.symbols for x in f] == [(0, 0)]

    def test_fold_single_word(self):
        c = book_from_strings(["01"])
        f = fold_to_ternary(c, Pairing(((0, 1),)))
        assert [x.symbols for x in f] == [(1,)]

    def test_fold_vt6_gives_linear_d3_code(self):
        f = fold_to_ternary(vt_code(6, 0), canonical_pairing(6))
        rows = set(f.symbol_rows)
        assert rows == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}
        # 1-dimensional, all nonzero weights 3
        a, b = (1, 1, 1), (2, 2, 2)
        assert tuple((2 * x) % 3 for x in a) == b

    @pytest.mark.parametrize("n", [6, 10, 18])
    def test_fold_vt_invariant_under_residue_multipliers(self, n):
        # n + 1 is a prime = 3 (mod 4): multiplying the coordinates by a
        # residue r maps the pair read from h to the pair read from r*h,
        # so the fold is closed under the induced trit permutation
        p = n + 1
        pairing = canonical_pairing(n)
        rows = set(fold_to_ternary(vt_code(n, 0), pairing).symbol_rows)
        first = {a + 1: k for k, (a, _) in enumerate(pairing.pairs)}
        for r in {x * x % p for x in range(1, p)}:
            image = [first[h * r % p] for h in first]
            moved = set()
            for row in rows:
                out = [0] * len(row)
                for k, t in zip(image, row):
                    out[k] = t
                moved.add(tuple(out))
            assert moved == rows, r

    def test_pairing_mismatch(self):
        c = book_from_strings(["0000"])
        with pytest.raises(ValueError):
            fold_to_ternary(c, Pairing(((0, 1),)))


class TestExpand:
    def test_expand_example_code(self, ternary_12_source):
        out = expand_to_binary(ternary_12_source, identity_pairing(3))
        assert {str(w) for w in out} == set(CODE_6_12)

    def test_expand_tetracode(self):
        tetra = book_from_strings(TETRACODE, q=3)
        out = expand_to_binary(tetra, identity_pairing(4))
        assert {str(w) for w in out} == set(CODE_8_32)

    def test_expand_single_zero(self):
        c = book_from_strings(["0"], q=3)
        out = expand_to_binary(c, Pairing(((0, 1),)))
        assert {w.symbols for w in out} == {(0, 0), (1, 1)}


def reference_expand(c, targets):
    """The former expansion loop: every combination of each trit's bit
    pairs, one itertools.product per codeword, written to the target
    positions; bits copy to their one position."""
    out = set()
    n_out = sum(len(t) for t in targets)
    for w in c.symbol_rows:
        parts = [EXPANSIONS[s] if len(t) == 2 else ((s,),) for s, t in zip(w, targets)]
        for combo in itertools.product(*parts):
            word = [0] * n_out
            for t, bits in zip(targets, combo):
                for pos, bit in zip(t, bits):
                    word[pos] = bit
            out.add(tuple(word))
    return out


def image_size(c):
    """Words an expansion makes: the sum over codewords of 2^(zero trits);
    a zero bit copies through without doubling."""
    sizes = c.alphabet.sizes
    return sum(2 ** sum(s == 0 and q == 3 for s, q in zip(w, sizes)) for w in c.symbol_rows)


@st.composite
def bit_trit_codes(draw):
    """A code over a random bit/trit layout, a random assignment of output
    positions (a pairing with an optional singleton, the singleton bit
    first), and whether the layout is a pairing's (bit first, then trits)."""
    pairs = draw(st.integers(0, 3))
    single = draw(st.booleans()) or pairs == 0
    perm = draw(st.permutations(range(2 * pairs + single)))
    pairing = Pairing(
        tuple((perm[2 * j], perm[2 * j + 1]) for j in range(pairs)),
        singleton=perm[-1] if single else None,
    )
    sizes = (2,) * single + (3,) * pairs
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1) for q in sizes]),
                         max_size=10, unique=True))
    return CodeBook.from_symbols(AlphabetSpec(sizes), rows), pairing


class TestOneExpansion:
    @settings(max_examples=100, deadline=None)
    @given(bit_trit_codes())
    def test_expand_to_binary_equals_reference(self, drawn):
        c, p = drawn
        targets = ([(p.singleton,)] if p.singleton is not None else []) + list(p.pairs)
        out = expand_to_binary(c, p)
        assert out.n == p.n and set(out.symbol_rows) == reference_expand(c, targets)
        assert len(out) == image_size(c)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5), st.data())
    def test_in_place_expansion_equals_reference(self, sizes, data):
        rows = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1) for q in sizes]),
                                  max_size=10, unique=True))
        c = CodeBook.from_symbols(AlphabetSpec(tuple(sizes)), rows)
        targets, at = [], 0
        for q in sizes:
            width = 2 if q == 3 else 1
            targets.append(tuple(range(at, at + width)))
            at += width
        out = construct_odd_mixed(c, check=False)
        assert out.n == at and set(out.symbol_rows) == reference_expand(c, targets)


class TestGaloisProperties:
    @settings(deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                    min_size=1, max_size=12, unique_by=tuple))
    def test_fold_after_expand_is_identity(self, rows):
        tern = CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), [tuple(r) for r in rows])
        p = identity_pairing(3)
        assert fold_to_ternary(expand_to_binary(tern, p), p) == tern

    @settings(deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6),
                    min_size=1, max_size=16, unique_by=tuple))
    def test_expand_after_fold_contains_code(self, rows):
        c = CodeBook.from_symbols(AlphabetSpec.uniform(2, 6), [tuple(r) for r in rows])
        p = identity_pairing(3)
        roundtrip = expand_to_binary(fold_to_ternary(c, p), p)
        assert c.symbol_set <= roundtrip.symbol_set
        assert (roundtrip == c) == is_ternary_code(c, p)


class TestConstructEven:
    def test_example_six_twelve(self, ternary_12_source):
        out = construct_even(ternary_12_source)
        assert {str(w) for w in out} == set(CODE_6_12)
        assert is_t_code(out, 1)

    def test_example_eight_thirtytwo(self):
        tetra = codewords_of(hamming_parity_check(3, 2))
        out = construct_even(tetra)
        assert {str(w) for w in out} == set(CODE_8_32)
        assert len(out) == 32

    def test_size_matches_enumerator(self, ternary_12_source):
        out = construct_even(ternary_12_source)
        assert len(out) == weight_enumerator(ternary_12_source).evaluate(2, 1)

    def test_rejection_names_the_shared_word(self, monkeypatch, ternary_12_source):
        # one ball listing checks the input and, on a failure, names the witness
        listings = []
        balls = channels._balls
        monkeypatch.setattr(channels, "_balls", lambda *a: listings.append(1) or balls(*a))
        with pytest.raises(ValueError) as e:
            construct_even(book_from_strings(["11", "12"], q=3))
        assert str(e.value) == ("input does not correct one error on its product channel: "
                                "10 lies in the radius-1 error balls of 11 and 12")
        assert len(listings) == 1
        assert len(construct_even(ternary_12_source)) == 12
        assert len(listings) == 2

    def test_rejects_non_channel_code(self):
        bad = book_from_strings(["11", "12"], q=3)
        with pytest.raises(ValueError):
            construct_even(bad)
        # unchecked variant builds anyway
        out = construct_even(bad, check=False)
        assert len(out) == 2


class TestConstructOddMixed:
    def test_example_seven(self):
        c = CodeBook.from_symbols(AlphabetSpec((2, 3, 3, 3)), MIXED_7_SOURCE)
        out = construct_odd_mixed(c)
        assert {str(w) for w in out} == set(CODE_7_16)
        assert is_t_code(out, 1)

    def test_pure_ternary_reduces_to_even(self, ternary_12_source):
        assert construct_odd_mixed(ternary_12_source) == construct_even(ternary_12_source)

    def test_degenerate_rejection(self):
        c = book_from_strings(["0", "1"])
        with pytest.raises(ValueError):
            construct_odd_mixed(c)


class TestConstructExtended:
    def test_worked_example(self):
        part0 = book_from_strings(["000", "111", "222"], q=3)
        part1 = book_from_strings(["210", "021", "102"], q=3)
        out = construct_extended(part0, part1)
        assert {str(w) for w in out} == set(EXTENDED_7_16)
        assert is_t_code(out, 1)

    def test_empty_second_part(self):
        part0 = book_from_strings(["000", "111", "222"], q=3)
        empty = CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), [])
        out = construct_extended(part0, empty)
        even = construct_even(part0)
        assert {w.symbols for w in out} == {(0,) + w for w in even.symbol_rows}

    def test_lemma_witness_images(self):
        # parts 1v and 2v produce images at asymmetric distance >= 2
        from asymcodes import asym_distance

        v = (0, 1)
        part0 = CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), [(1,) + v])
        part1 = CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), [(2,) + v])
        out = construct_extended(part0, part1)
        words = list(out)
        for x, y in itertools.combinations(words, 2):
            assert asym_distance(x, y) >= 2

    def test_cross_conflict_rejected(self):
        part0 = book_from_strings(["000"], q=3)
        part1 = book_from_strings(["100"], q=3)  # inside part0's error ball
        with pytest.raises(ValueError):
            construct_extended(part0, part1)


class TestExpansionCap:
    """Every construction checks its binary image size against the
    enumeration cap before expanding."""

    def test_size_is_weight_enumerator_on_ternary_codes(self, ternary_12_source):
        tetra = codewords_of(hamming_parity_check(3, 2))
        for c in (ternary_12_source, tetra):
            assert image_size(c) == weight_enumerator(c).evaluate(2, 1) == len(construct_even(c))

    def test_size_counts_zero_trits_only_on_mixed_codes(self):
        c = CodeBook.from_symbols(AlphabetSpec((2, 3, 3, 3)), MIXED_7_SOURCE)
        assert image_size(c) == len(construct_odd_mixed(c))

    @pytest.mark.parametrize("which", ["even", "odd_mixed", "extended"])
    def test_cap_checked_before_expanding(self, monkeypatch, which):
        part0 = book_from_strings(["000", "111", "222"], q=3)
        part1 = book_from_strings(["210", "021", "102"], q=3)
        # unchecked: the ball check's 15 words would count against the cap
        build = {
            "even": lambda: construct_even(part0, check=False),
            "odd_mixed": lambda: construct_odd_mixed(part0, check=False),
            "extended": lambda: construct_extended(part0, part1, check=False),
        }[which]
        size = 16 if which == "extended" else 10
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", size - 1)
        with pytest.raises(EnumerationCapExceeded):
            build()
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", size)
        assert len(build()) == size

    def test_expand_to_binary_checks_the_cap(self, monkeypatch):
        # a singleton bit, two trits: 4 + 2 + 1 words; the bit never doubles
        c = CodeBook.from_symbols(AlphabetSpec((2, 3, 3)), [(0, 0, 0), (1, 0, 2), (1, 1, 2)])
        p = Pairing(((4, 0), (1, 3)), singleton=2)
        size = image_size(c)
        assert size == 7
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", size - 1)
        with pytest.raises(EnumerationCapExceeded, match="7 exceeds"):
            expand_to_binary(c, p)
        # folds to 000 and 100 under this pairing: 8 words
        binary = CodeBook.from_symbols(AlphabetSpec.uniform(2, 5), [(0,) * 5, (0, 0, 0, 0, 1)])
        with pytest.raises(EnumerationCapExceeded):
            is_ternary_code(binary, Pairing(((0, 1), (2, 3)), singleton=4))
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", size)
        assert len(expand_to_binary(c, p)) == size

    def test_all_zero_word_of_length_22_is_refused(self, monkeypatch):
        # 2^22 binary words: refused at once instead of built
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10**6)
        zero = CodeBook.from_symbols(AlphabetSpec.uniform(3, 22), [(0,) * 22])
        with pytest.raises(EnumerationCapExceeded, match="4194304"):
            construct_even(zero)


class TestDecodablePairs:
    def test_ten_pairs_pass_oracle(self):
        ch = ProductChannel.power(make_channel("T", 3), 2)
        for a, b in DECODABLE_TRIT_PAIRS:
            pair = book_from_strings([a, b], q=3)
            assert corrects_t_errors(pair, ch, 1), (a, b)

    def test_negative_pair_fails(self):
        ch = ProductChannel.power(make_channel("T", 3), 2)
        pair = book_from_strings(list(NON_DECODABLE_TRIT_PAIR), q=3)
        assert not corrects_t_errors(pair, ch, 1)

    def test_images_have_distance_two(self):
        from asymcodes import min_asym_distance

        for a, b in DECODABLE_TRIT_PAIRS:
            pair = book_from_strings([a, b], q=3)
            image = construct_even(pair)
            assert min_asym_distance(image) >= 2, (a, b)


class TestTernaryness:
    def test_vt6_is_ternary_under_inverse_pairing(self):
        assert is_ternary_code(vt_code(6, 0), canonical_pairing(6))

    def test_vt7_is_generalized_ternary(self):
        assert is_ternary_code(vt_code(7, 0), canonical_pairing(7, mode="vt-odd"))

    def test_not_ternary(self):
        c = book_from_strings(["00", "01"])
        assert not is_ternary_code(c, Pairing(((0, 1),)))

    def test_ternary_for_all_targets(self):
        # the checksum codes are ternary for every target element
        for g in range(7):
            assert is_ternary_code(vt_code(6, g), canonical_pairing(6))
        for g in range(9):
            assert is_ternary_code(vt_code(8, g), canonical_pairing(8))
        group = AbelianGroup((3, 3))
        pairing = canonical_pairing(group)
        for g in [(0, 0), (0, 1), (1, 2), (2, 2)]:
            assert is_ternary_code(cr_code(group, g), pairing), g


class TestFindPairing:
    def test_four_word_code(self):
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        p = find_pairing(c)
        assert p is not None and p.pairs == ((0, 1), (2, 3))

    def test_cr_code_has_pairing(self):
        c = cr_code(AbelianGroup((3, 3)))
        p = find_pairing(c)
        assert p is not None
        assert is_ternary_code(c, p)

    def test_single_word(self):
        c = book_from_strings(["01"])
        p = find_pairing(c)
        assert p is not None and is_ternary_code(c, p)

    def test_no_pairing(self):
        c = book_from_strings(["00", "01"])
        assert find_pairing(c) is None

    def test_odd_length_with_singleton(self):
        p = find_pairing(vt_code(7, 0))
        assert p is not None and p.singleton is not None
        assert is_ternary_code(vt_code(7, 0), p)


class TestRandomEndToEnd:
    def test_oracle_passing_codes_expand_to_one_codes(self):
        rng = random.Random(17)
        ch_cache = {}
        for _ in range(40):
            m = rng.randrange(2, 6)
            ch = ch_cache.setdefault(m, ProductChannel.power(make_channel("T", 3), m))
            pool = list(itertools.product(range(3), repeat=m))
            rng.shuffle(pool)
            rows = []
            for cand in pool[: rng.randrange(4, 30)]:
                trial = CodeBook.from_symbols(AlphabetSpec.uniform(3, m), rows + [cand])
                if corrects_t_errors(trial, ch, 1):
                    rows.append(cand)
            c = CodeBook.from_symbols(AlphabetSpec.uniform(3, m), rows)
            out = construct_even(c)
            assert is_t_code(out, 1)
            assert len(out) == weight_enumerator(c).evaluate(2, 1)
