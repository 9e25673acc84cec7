from __future__ import annotations

import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

from asymcodes import (
    AbelianGroup,
    Pairing,
    best_cr_group,
    canonical_pairing,
    cr_code,
    is_t_code,
    vt_code,
)
from asymcodes import words
from asymcodes.words import EnumerationCapExceeded


class TestGroup:
    def test_elements_product_group(self):
        G = AbelianGroup((3, 3))
        assert G.nonidentity_elements == (
            (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
        )

    def test_elements_cyclic(self):
        assert AbelianGroup.cyclic(7).nonidentity_elements == tuple((i,) for i in range(1, 7))
        assert AbelianGroup.cyclic(2).nonidentity_elements == ((1,),)

    def test_listing_checks_the_cap_first(self, monkeypatch):
        # an order just above the cap refuses at once, before any tuple is listed
        order = words.DEFAULT_ENUM_CAP + 2
        start = time.perf_counter()
        with pytest.raises(EnumerationCapExceeded,
                           match=f"^non-identity elements of group {order}: {order - 1} exceeds"):
            AbelianGroup.cyclic(order).nonidentity_elements
        with pytest.raises(EnumerationCapExceeded, match=r": at least 2\^70 exceeds"):
            canonical_pairing(2**70)
        assert time.perf_counter() - start < 1
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 6)
        assert len(AbelianGroup.cyclic(7).nonidentity_elements) == 6
        with pytest.raises(EnumerationCapExceeded, match="^non-identity elements of group 2x4: 7"):
            AbelianGroup((2, 4)).nonidentity_elements

    def test_parse_and_str(self):
        G = AbelianGroup.parse("2x2x3")
        assert G.factors == (2, 2, 3) and G.order == 12
        assert str(G) == "2x2x3"

    def test_factors_follow_the_integer_rule(self):
        with pytest.raises(ValueError, match=r"cyclic factor 3\.9 is not an integer"):
            AbelianGroup((3.9,))
        G = AbelianGroup((np.int64(3), np.uint8(2)))
        assert G.factors == (3, 2) and set(map(type, G.factors)) == {int}

    def test_element_order(self):
        G = AbelianGroup((2, 5))
        assert G.element_order((1, 0)) == 2
        assert G.element_order((1, 1)) == 10
        assert G.element_order((0, 2)) == 5


class TestBestGroup:
    def test_examples(self):
        assert best_cr_group(8).factors == (3, 3)
        assert best_cr_group(15).factors == (2, 2, 2, 2)
        assert best_cr_group(9).factors == (2, 5)

    def test_order(self):
        for n in range(1, 40):
            assert best_cr_group(n).order == n + 1

    def test_equals_the_factorisation_of_the_order(self):
        # each prime dividing n + 1, ascending, once per power of it that divides
        for n in range(1, 201):
            m = n + 1
            primes = [p for p in range(2, m + 1) if all(p % d for d in range(2, p))]
            factors = [p for p in primes for e in range(1, m.bit_length()) if m % p**e == 0]
            assert best_cr_group(n).factors == tuple(factors), n

    def test_an_order_with_no_factor_under_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10**6)
        # 2^61 - 2 + 1 is the Mersenne prime 2^61 - 1, which trial division
        # would take seconds to hours to reach
        for call in (lambda: best_cr_group(2**61 - 2), lambda: canonical_pairing(2**61 - 2)):
            t0 = time.monotonic()
            with pytest.raises(EnumerationCapExceeded, match=(
                    r"^trial division of 2305843009213693951: divisor 1518500249 exceeds")):
                call()
            assert time.monotonic() - t0 < 10
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10)
        # 113 is prime and isqrt(113) = 10: the divisors up to the cap settle it
        assert best_cr_group(2 * 113 - 1).factors == (2, 113)
        with pytest.raises(EnumerationCapExceeded,
                           match=r"^trial division of 121: divisor 11 exceeds enumeration cap 10$"):
            best_cr_group(2 * 121 - 1)

    def test_length_follows_the_integer_rule(self):
        # the error names the length given, not the group order n + 1
        with pytest.raises(ValueError, match=r"^length 6\.0 is not an integer$"):
            best_cr_group(6.0)
        assert best_cr_group(np.int64(8)) == best_cr_group(8)


class TestCrCode:
    def test_sizes_from_small_examples(self):
        assert len(vt_code(6, 0)) == 10
        assert len(vt_code(7, 0)) == 16
        assert len(vt_code(8, 0)) == 30
        assert len(cr_code(AbelianGroup((3, 3)))) == 32
        assert len(cr_code(AbelianGroup.cyclic(11))) == 94

    def test_cr_z3z3_is_coordinate_permutation_of_expanded_tetracode(self):
        # With coefficients in lexicographic element order the checksum code
        # is the expanded [4,2,3]_3 code only after regrouping coordinates
        # so that inverse elements sit in adjacent pairs.
        from reference_codes import CODE_8_32

        c = cr_code(AbelianGroup((3, 3)))
        perm = {0: 0, 1: 1, 2: 2, 3: 4, 4: 6, 5: 3, 6: 7, 7: 5}
        permuted = {
            tuple(w[i] for i in sorted(perm, key=lambda k: perm[k]))
            for w in c.symbol_rows
        }
        expected = {tuple(int(ch) for ch in s) for s in CODE_8_32}
        assert permuted == expected

    def test_all_binary_cr_codes_are_one_codes(self):
        for n in range(2, 11):
            c = cr_code(best_cr_group(n))
            assert is_t_code(c, 1), n

    def test_size_bound(self):
        for n in range(2, 13):
            c = cr_code(best_cr_group(n))
            assert len(c) * (n + 1) >= 2**n

    def test_cosets_partition_the_cube(self):
        G = AbelianGroup.cyclic(6)
        union = set()
        total = 0
        for g in range(6):
            c = cr_code(G, (g,))
            total += len(c)
            union |= c.symbol_set
        assert total == 2**5 and len(union) == 2**5

    def test_nonbinary_order_condition(self):
        # Z_2 x Z_5 has an element of order 2 < 3
        with pytest.raises(ValueError):
            cr_code(AbelianGroup((2, 5)), q=3)
        # all non-identity elements of Z_7 have order 7 >= 3
        c = cr_code(AbelianGroup.cyclic(7), q=3)
        assert len(c) * 7 >= 3**6

    def test_target_must_be_in_group(self):
        with pytest.raises(ValueError):
            cr_code(AbelianGroup.cyclic(7), (9,))

    def test_plain_integer_target_is_named(self):
        # a target is a tuple of components, even in a cyclic group
        with pytest.raises(ValueError, match=r"^target 3 is not a tuple of group components$"):
            cr_code(AbelianGroup.cyclic(7), 3)
        assert cr_code(AbelianGroup.cyclic(7), (3,)) == cr_code(AbelianGroup.cyclic(7), [3])

    @pytest.mark.parametrize("group", [16, "3x3"])
    def test_a_group_that_is_not_one_is_named(self, group):
        # the working calls are cr_code(best_cr_group(16)) and
        # cr_code(AbelianGroup.parse("3x3"))
        message = f"group {group!r} is not an AbelianGroup"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cr_code(group)

    def test_a_numpy_integer_group_is_named_by_its_value(self):
        with pytest.raises(ValueError, match=r"^group 16 is not an AbelianGroup$"):
            cr_code(np.int64(16))

    def test_nonbinary_vt_is_one_code(self):
        c = vt_code(6, 0, q=3)
        assert is_t_code(c, 1)


    def test_the_one_cap_bounds_the_enumeration(self, monkeypatch):
        # vt_code(6) lists the 2^3 = 8 words of the larger half, then joins
        # them into the 10 codewords; the cap bounds both before listing
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 9)
        with pytest.raises(EnumerationCapExceeded,
                           match="checksum code vt-6-g0-q2: 10 exceeds enumeration cap 9"):
            vt_code(6)
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10)
        assert len(vt_code(6)) == 10

    def test_a_cap_below_the_half_table_refuses_before_listing(self, monkeypatch):
        def listed(*args, **kwargs):
            raise AssertionError("a half-table was listed")

        monkeypatch.setattr(np, "indices", listed)
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 7)
        with pytest.raises(EnumerationCapExceeded,
                           match=r"2\^3 half-words: 8 exceeds enumeration cap 7"):
            vt_code(6)
        # under the default cap, q^30 half-words are refused at once
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10**6)
        with pytest.raises(EnumerationCapExceeded, match=r"2\^30 half-words: 1073741824 exceeds"):
            vt_code(60)

    @pytest.mark.parametrize("call, value", [
        (lambda: cr_code(AbelianGroup.cyclic(7), (1.5,)), "target component 1.5"),
        (lambda: cr_code(AbelianGroup((3, 3)), (0, 2.0)), "target component 2.0"),
        (lambda: cr_code(AbelianGroup.cyclic(7), q=2.0), "q 2.0"),
        (lambda: vt_code(6, 1.0), "target 1.0"),
        (lambda: vt_code(6.0), "length 6.0"),
        (lambda: vt_code(6, q=3.0), "q 3.0"),
    ], ids=["cr-target", "cr-product-target", "cr-q", "vt-target", "vt-length", "vt-q"])
    def test_numbers_follow_the_integer_rule(self, call, value):
        with pytest.raises(ValueError, match=rf"^{re.escape(value)} is not an integer$"):
            call()

    def test_integer_targets_read_as_their_value(self):
        # operator.index reads True as 1, as at every other integer boundary
        G = AbelianGroup.cyclic(7)
        c = cr_code(G, (True,), q=np.int64(3))
        assert c == cr_code(G, (1,), q=3) and c.name == "cr-7-g1-q3"
        assert cr_code(G, (np.uint8(1),)).name == "cr-7-g1-q2"
        assert vt_code(np.int64(6), np.int32(1)).name == "vt-6-g1-q2"


def _brute_force_cr(G: AbelianGroup, q: int):
    """Every word of {0..q-1}^n in lex order, and its weighted sum in each
    factor of G, from the definition."""
    coeffs = G.nonidentity_elements
    n = len(coeffs)
    digits = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.uint8)
    sums = [
        sum(digits[:, i].astype(np.int64) * e[j] for i, e in enumerate(coeffs)) % d
        for j, d in enumerate(G.factors)
    ]
    return digits, sums


_REFERENCE_GROUPS = [(m,) for m in range(2, 19)] + [
    (2, 2), (2, 2, 2), (3, 3), (2, 3), (2, 2, 3), (4, 4), (2, 4), (2, 2, 2, 2),
    (2, 6), (2, 8), (2, 2, 4), (3, 5), (3, 6), (5, 3),
]


class TestCrCodeReference:
    @pytest.mark.parametrize("factors", _REFERENCE_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_equals_the_whole_space_filter(self, factors):
        G = AbelianGroup(factors)
        n = G.order - 1
        for q in (2, 3, 4):
            if q**n > 2 * 10**5:
                continue
            if any(G.element_order(e) < q for e in G.nonidentity_elements):
                with pytest.raises(ValueError, match=rf"group {G} has elements of order < q={q}"):
                    cr_code(G, q=q)
                continue
            digits, sums = _brute_force_cr(G, q)
            for g in itertools.product(*map(range, factors)):
                keep = np.logical_and.reduce([s == x for s, x in zip(sums, g)])
                c = cr_code(G, g, q)
                assert np.array_equal(c.matrix(), digits[keep]), (factors, q, g)
                assert c.name == f"cr-{G}-g{''.join(map(str, g))}-q{q}"

    def test_reference_cases_cover_every_q_and_both_parities(self):
        # a group of even order has an element of order 2 (Cauchy), so
        # q > 2 occurs only at even lengths
        covered = {
            (q, (G.order - 1) % 2)
            for G in map(AbelianGroup, _REFERENCE_GROUPS)
            for q in (2, 3, 4)
            if q ** (G.order - 1) <= 2 * 10**5
            and all(G.element_order(e) >= q for e in G.nonidentity_elements)
        }
        assert covered == {(2, 0), (2, 1), (3, 0), (4, 0)}


def _zero_sum_count(G: AbelianGroup, q: int = 2) -> int:
    """Words of {0..q-1}^n with weighted sum the identity, by a DP over the
    coordinates on the counts per group element: O(n * |G| * q)."""
    counts = {G.identity: 1}
    for e in G.nonidentity_elements:
        step = {}
        for s, k in counts.items():
            x = s
            for _ in range(q):
                step[x] = step.get(x, 0) + k
                x = G.add(x, e)
        counts = step
    return counts.get(G.identity, 0)


class TestCrSizesPastThePaper:
    @pytest.mark.parametrize("n, size", [(17, 7296), (18, 13798), (19, 26216), (20, 49940)])
    def test_sizes_match_the_group_dp(self, n, size):
        G = best_cr_group(n)
        assert _zero_sum_count(G) == size
        assert len(cr_code(G)) == size

    def test_the_dp_matches_small_codes(self):
        for n in range(1, 13):
            G = best_cr_group(n)
            assert _zero_sum_count(G) == len(cr_code(G)), n
        assert _zero_sum_count(AbelianGroup.cyclic(7), 3) == len(cr_code(AbelianGroup.cyclic(7), q=3))

    def test_n18_allocates_the_half_tables_and_the_code_only(self):
        # listing all 2^18 words at once traces about 43 MiB
        G = best_cr_group(18)
        G.nonidentity_elements
        tracemalloc.start()
        try:
            c = cr_code(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c) == 13798
        assert peak < 4 * 2**20


class TestPairing:
    def test_validation(self):
        with pytest.raises(ValueError):
            Pairing(((0, 0),))
        with pytest.raises(ValueError):
            Pairing(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            Pairing(((0, 1),), singleton=1)

    def test_coordinates_follow_the_integer_rule(self):
        with pytest.raises(ValueError, match=r"coordinate 1\.5 is not an integer"):
            Pairing(((0, 1.5),))
        with pytest.raises(ValueError, match=r"coordinate 2\.0 is not an integer"):
            Pairing(((0, 1),), singleton=2.0)
        p = Pairing(((np.int64(0), True),), singleton=np.int32(2))
        assert p == Pairing(((0, 1),), singleton=2)
        assert set(map(type, (*p.pairs[0], p.singleton))) == {int}

    @pytest.mark.parametrize("mode, n", [("inverse", 6), ("vt-odd", 7)])
    def test_length_follows_the_integer_rule(self, mode, n):
        # int() read 6.9 as 6 and paired a word of length 6
        with pytest.raises(ValueError, match=rf"length {n}\.9 is not an integer"):
            canonical_pairing(n + 0.9, mode)
        with pytest.raises(ValueError, match=rf"length {n}\.0 is not an integer"):
            canonical_pairing(float(n), mode)
        assert canonical_pairing(np.int64(n), mode) == canonical_pairing(n, mode)

    def test_inverse_pairing_cyclic(self):
        p = canonical_pairing(AbelianGroup.cyclic(7))
        assert p.pairs == ((0, 5), (1, 4), (3, 2))
        p9 = canonical_pairing(AbelianGroup.cyclic(9))
        assert p9.pairs == ((0, 7), (1, 6), (2, 5), (3, 4))

    def test_inverse_pairing_vt_length_shorthand(self):
        assert canonical_pairing(6).pairs == ((0, 5), (1, 4), (3, 2))

    @pytest.mark.parametrize("p", [11, 19])
    def test_inverse_pairing_residue_first_for_prime_3_mod_4(self, p):
        # coordinate c holds the element c + 1
        pairs = canonical_pairing(AbelianGroup.cyclic(p)).pairs
        residues = {x * x % p for x in range(1, p)}
        assert len(pairs) == (p - 1) // 2
        for a, b in pairs:
            assert (a + 1 + b + 1) % p == 0
            assert a + 1 in residues
            assert b + 1 not in residues

    def test_inverse_pairing_prime_1_mod_4_keeps_lower_index_first(self):
        p = canonical_pairing(AbelianGroup.cyclic(13))
        assert p.pairs == tuple((i, 11 - i) for i in range(6))

    def test_inverse_pairing_product_group(self):
        p = canonical_pairing(AbelianGroup((3, 3)))
        assert p.pairs == ((0, 1), (2, 5), (3, 7), (4, 6))

    def test_inverse_needs_odd_order(self):
        with pytest.raises(ValueError):
            canonical_pairing(AbelianGroup.cyclic(8))

    def test_vt_odd(self):
        p = canonical_pairing(7, mode="vt-odd")
        assert p.pairs == ((0, 6), (1, 5), (2, 4))
        assert p.singleton == 3
        with pytest.raises(ValueError):
            canonical_pairing(6, mode="vt-odd")
