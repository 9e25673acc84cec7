from __future__ import annotations

import itertools
import re
import time

import pytest

from asymcodes import (
    best_d3_dimension,
    hamming_parity_check,
    is_perfect,
    rate_ratio,
    sphere_bound,
    table1_report,
    table2_report,
)
from asymcodes.bounds import (
    SPHERE_BITS,
    canonical_d3_ternary_check,
    format_table,
    kernel_image_size,
    rate_ratio_row,
)
from asymcodes.groups import vt_code
from asymcodes.linearq import codewords_of, concat_code, decode_concat, lee_parity_check, nullspace

from conftest import book_from_strings


class TestSphereBound:
    def test_examples(self):
        assert sphere_bound(3, 8, 1, 1) == 729
        assert sphere_bound(5, 10, 1, 1) == 5**10 // 11
        assert sphere_bound(7, 4, 0, 1) == 7**4

    def test_general_formula(self):
        from math import comb

        assert sphere_bound(4, 6, 2, 3) == 4**6 // (1 + 6 * 3 + comb(6, 2) * 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            sphere_bound(1, 4, 1, 1)

    @pytest.mark.parametrize("q, n", [(3, 100_000), (3, 10**30), (3, 8834), (2, SPHERE_BITS),
                                      (2**64, 219)])
    def test_word_space_past_the_limit_names_n(self, q, n):
        # 3^8834 has 14 002 bits; the others reach the limit before q^n is built
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match=rf"^n {n} is too large: q\^n must stay below 2\^{SPHERE_BITS}$"):
            sphere_bound(q, n, 2, 1)
        assert time.perf_counter() - start < 1

    def test_largest_word_spaces_and_any_radius(self):
        start = time.perf_counter()
        # 3^8833 has 14 000 bits
        assert sphere_bound(3, 8833, 0, 1) == 3**8833
        # every radius from n on counts the whole space: sum C(n, i) = 2^n
        assert sphere_bound(2, SPHERE_BITS - 1, 10**30, 1) == 1
        # sum C(8, i) 2^i = 3^8
        assert sphere_bound(3, 8, 10**30, 2) == 1
        # a ball larger than the space
        assert sphere_bound(2, 100, 3, 10**30) == 0
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("call, message", [
    (lambda: hamming_parity_check(3.0, 2), "q 3.0 is not an integer"),
    (lambda: hamming_parity_check(3, 2.0), "r 2.0 is not an integer"),
    (lambda: hamming_parity_check(3, 1), "r must be >= 2"),
    (lambda: lee_parity_check(5.0, 2), "q 5.0 is not an integer"),
    (lambda: lee_parity_check(5, 2.0), "r 2.0 is not an integer"),
    (lambda: lee_parity_check(5, 0), "r must be >= 1"),
    (lambda: rate_ratio(3.0), "m 3.0 is not an integer"),
    (lambda: rate_ratio(2), "m must be >= 3"),
    (lambda: sphere_bound(3.0, 4, 1, 1), "q 3.0 is not an integer"),
    (lambda: sphere_bound(3, 4.0, 1, 1), "n 4.0 is not an integer"),
    (lambda: sphere_bound(3, 4, 1.5, 1), "t_tilde 1.5 is not an integer"),
    (lambda: sphere_bound(3, 4, 1, "1"), "ell '1' is not an integer"),
    (lambda: sphere_bound(1, 4, 1, 1), "q must be >= 2"),
    (lambda: sphere_bound(3, 0, 1, 1), "n must be >= 1"),
    (lambda: sphere_bound(3, 4, -1, 1), "t_tilde must be >= 0"),
    (lambda: sphere_bound(3, 4, 1, 0), "ell must be >= 1"),
    (lambda: best_d3_dimension(3, 2.5), "n 2.5 is not an integer"),
    (lambda: best_d3_dimension(3.0, 4), "q 3.0 is not an integer"),
    (lambda: best_d3_dimension(3, 2), "n must be >= 3"),
    (lambda: canonical_d3_ternary_check(4.0), "m 4.0 is not an integer"),
    (lambda: vt_code(0), "n must be >= 1"),
    (lambda: vt_code(-3), "n must be >= 1"),
    # an object of the wrong type is named before any attribute is read
    (lambda: codewords_of(1.5), "M 1.5 is not a MatrixModZq"),
    (lambda: concat_code("x"), "outer_gen 'x' is not a MatrixModZq"),
    (lambda: decode_concat(None, (0,) * 6), "H_outer None is not a MatrixModZq"),
    (lambda: is_perfect("x", 1, 1), "c 'x' is not a CodeBook"),
])
def test_entry_points_name_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestPerfect:
    def test_8_6_code_is_perfect(self):
        book = concat_code(nullspace(hamming_parity_check(3, 2))).codebook()
        assert is_perfect(book, 1, 1)

    def test_5_3_code_is_not(self):
        from asymcodes import MatrixModZq

        cc = concat_code(MatrixModZq(3, ((1, 1, 1),), "generator"), shorten_to_odd=True)
        assert not is_perfect(cc.codebook(), 1, 1)

    def test_precondition_enforced(self):
        bad = book_from_strings(["00", "01"], q=3)
        with pytest.raises(ValueError):
            is_perfect(bad, 1, 1)

    def test_bound_respected_by_certified_codes(self):
        # every wrap-verified code obeys the packing bound
        import random

        from asymcodes import AlphabetSpec, CodeBook, is_lm_code

        rng = random.Random(2)
        for _ in range(40):
            q, n = rng.choice([(3, 3), (5, 2), (5, 3)])
            pool = list(itertools.product(range(q), repeat=n))
            rows = rng.sample(pool, rng.randrange(1, 8))
            c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
            if is_lm_code(c, 1, 1, wrap=True):
                assert len(c) <= sphere_bound(q, n, 1, 1)


class TestBestDimension:
    def test_binary(self):
        assert best_d3_dimension(2, 7) == 4
        assert best_d3_dimension(2, 8) == 4
        assert best_d3_dimension(2, 6) == 3
        assert best_d3_dimension(2, 10) == 6

    def test_ternary(self):
        assert best_d3_dimension(3, 4) == 2
        assert best_d3_dimension(3, 13) == 10

    def test_unsupported(self):
        with pytest.raises(ValueError):
            best_d3_dimension(5, 6)


class TestCanonicalTernaryRepresentative:
    def test_shapes(self):
        H = canonical_d3_ternary_check(5)
        assert H.nrows == 3 and H.ncols == 5

    def test_image_size_matches_direct_enumeration(self):
        from asymcodes import weight_enumerator

        for m in (3, 4, 5, 6, 7):
            H = canonical_d3_ternary_check(m)
            direct = weight_enumerator(codewords_of(H)).evaluate(2, 1)
            assert kernel_image_size(H) == direct

    def test_known_images(self):
        assert kernel_image_size(canonical_d3_ternary_check(3)) == 10
        assert kernel_image_size(canonical_d3_ternary_check(4)) == 32
        assert kernel_image_size(canonical_d3_ternary_check(5)) == 64


class TestRateRatio:
    def test_required_rows(self):
        assert abs(rate_ratio(3) - 1.107) <= 0.001
        assert abs(rate_ratio(4) - 1.250) <= 0.001
        assert abs(rate_ratio(5) - 1.000) <= 0.001

    def test_row_structure(self):
        row = rate_ratio_row(4)
        assert row.n == 8 and row.within_tolerance is True


class TestReports:
    def test_table1(self):
        rep = table1_report()
        rows = {r["n"]: r for r in rep["rows"]}
        assert rows[6]["within_tolerance"] and rows[8]["within_tolerance"]
        assert rows[10]["within_tolerance"]
        # deviation flags are present for every row with a reference
        assert all(r["within_tolerance"] is not None for r in rep["rows"]
                   if r["reference_s"] is not None)

    def test_table2_values(self):
        rep = table2_report()
        rows = {r["n"]: r for r in rep["rows"]}
        assert rows[8]["cr_size"] == 32 and rows[8]["cyclic_image_size"] == 29
        assert rows[8]["partition"] is None and rows[8]["known_bounds"] == "36"
        assert rows[15]["cr_size"] == 2048 and rows[15]["cyclic_image_size"] == 2144
        assert rows[6]["cr_size"] == 10 and rows[6]["cyclic_image_size"] == 12
        assert all(r["cr_matches_reference"] for r in rep["rows"])
        assert all(r["cyclic_matches_reference"] for r in rep["rows"])

    def test_format_table(self):
        text = format_table(table2_report())
        assert text.splitlines()[0].startswith("n")
        assert len(text.splitlines()) == 12
