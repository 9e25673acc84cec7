from __future__ import annotations

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

    def test_nonbinary_vt_is_one_code(self):
        c = vt_code(6, 0, q=3)
        assert is_t_code(c, 1)


    def test_the_one_cap_bounds_the_enumeration(self, monkeypatch):
        # vt_code(6) lists all 2^6 = 64 words before it keeps the checksum class
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 63)
        with pytest.raises(EnumerationCapExceeded, match="64 exceeds enumeration cap 63"):
            vt_code(6)
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 64)
        assert len(vt_code(6)) == 10


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
