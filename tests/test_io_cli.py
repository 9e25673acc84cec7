from __future__ import annotations

import importlib.util
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from asymcodes import (
    AlphabetSpec,
    CodeBook,
    ProductChannel,
    best_cr_group,
    bounds,
    codewords_of,
    cr_code,
    hamming_parity_check,
    is_t_code,
    lee_parity_check,
    make_channel,
    nullspace,
    simulate_channel,
    vt_code,
)
from asymcodes import words
from asymcodes.cli import main
from asymcodes.io import (
    CodeFileError,
    ReportDocument,
    parse_code_file,
    parse_decimal,
    parse_symbols,
    write_code_file,
)
from asymcodes.linearq import MatrixModZq

from conftest import book_from_strings
from reference_codes import CODE_5_27_Q3


class TestCodeFile:
    def test_round_trip(self):
        c = book_from_strings(CODE_5_27_Q3, q=3)
        assert parse_code_file(write_code_file(c)) == c

    def test_round_trip_mixed_alphabet(self):
        a = AlphabetSpec((2, 3, 3))
        c = CodeBook.from_symbols(a, [(0, 2, 1), (1, 0, 0)], name="mixed")
        again = parse_code_file(write_code_file(c))
        assert again == c and again.name == "mixed"

    def test_round_trip_wide_alphabet(self):
        a = AlphabetSpec.uniform(12, 2)
        c = CodeBook.from_symbols(a, [(0, 11), (10, 3)])
        assert parse_code_file(write_code_file(c)) == c

    def test_random_round_trips(self):
        rng = random.Random(21)
        for _ in range(20):
            q = rng.choice([2, 3, 5, 11])
            n = rng.randrange(1, 6)
            pool = list(itertools.product(range(q), repeat=n))
            rows = rng.sample(pool, min(len(pool), rng.randrange(1, 9)))
            c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
            assert parse_code_file(write_code_file(c)) == c

    def test_empty_body_is_valid(self):
        c = parse_code_file("q=3 n=4\n")
        assert len(c) == 0 and c.alphabet == AlphabetSpec.uniform(3, 4)

    def test_metadata_survives_round_trip(self):
        from asymcodes import SearchConfig, search_cyclic

        code = search_cyclic(3, SearchConfig(seed=2))
        again = parse_code_file(write_code_file(code))
        assert again == code
        assert again.meta["score"] == "12"
        assert again.meta["strategy"] == "exact-clique"
        assert again.meta["seed"] == "2"
        assert again.meta["proven_optimal"] == "yes"

    def test_out_of_range_symbol_reports_line(self):
        with pytest.raises(CodeFileError, match="line 3"):
            parse_code_file("q=3 n=4\n0120\n0300\n")

    def test_symbols_past_int64_parse(self):
        # a body past int64 reaches CodeBook.from_symbols as an object array
        q = 2**64
        c = parse_code_file(f"q={q} n=2\n{q - 1},0\n3,{2**63}\n")
        assert c.alphabet == AlphabetSpec.uniform(q, 2)
        assert [tuple(w) for w in c] == [(3, 2**63), (q - 1, 0)]
        assert parse_code_file(write_code_file(c)) == c

    def test_symbol_past_int64_reports_line(self):
        with pytest.raises(CodeFileError) as e:
            parse_code_file(f"q=11 n=2\n0,10\n{10**30},1\n")
        assert str(e.value) == f"line 3: symbol {10**30} at coordinate 0 outside 0..10"

    def test_duplicate_reports_line(self):
        with pytest.raises(CodeFileError, match="line 3"):
            parse_code_file("q=3 n=2\n01\n01\n")

    def test_missing_header(self):
        with pytest.raises(CodeFileError):
            parse_code_file("# only a comment\n")

    def test_wrong_length_line(self):
        with pytest.raises(CodeFileError, match="line 2"):
            parse_code_file("q=3 n=4\n012\n")

    @pytest.mark.parametrize("sizes, rows", [
        ((3,) * 5, CODE_5_27_Q3),
        ((2, 3, 10), [(0, 2, 9), (1, 0, 0), (1, 2, 5)]),
        ((3,) * 4, []),
        ((2, 12), [(0, 11), (1, 3)]),
        ((2,) * 16, cr_code(best_cr_group(16)).symbol_rows),
        ((10,) * 6, [(9,) * 6, (0, 9, 9, 9, 9, 9), (9,) * 5 + (8,)]),
    ], ids=["uniform", "mixed", "empty", "wide", "cr16", "all-9"])
    def test_body_equals_the_joined_rows(self, sizes, rows):
        rows = [tuple(map(int, r)) for r in rows]
        c = CodeBook.from_symbols(AlphabetSpec(sizes), rows, name="c", meta={"k": "v"})
        text = write_code_file(c)
        sep = "," if max(sizes) > 10 else ""
        lines = text.splitlines()[:2] + [sep.join(map(str, r)) for r in c.symbol_rows]
        assert text == "\n".join(lines) + "\n"


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestNarrowWords:
    """Code files are written from and read into the code book's uint8
    array: an int64 copy of the words alone would trace 8 bytes per symbol.
    On CR n = 18 (13 798 words, 248 364 symbols) write traces about 2.1
    bytes per symbol (its text and one ASCII buffer) and parse about 13
    (mostly the per-line strings)."""

    CR18 = cr_code(best_cr_group(18))

    def test_write_traces_near_its_text(self):
        c = self.CR18
        text, peak = _traced_peak(lambda: write_code_file(c))
        assert text.count("\n") == len(c) + 2
        assert peak < 4 * len(c) * c.n

    def test_parse_keeps_the_digits_narrow(self):
        c = self.CR18
        text = write_code_file(c)
        back, peak = _traced_peak(lambda: parse_code_file(text))
        assert back == c and back._symbol_array.dtype == np.uint8
        assert peak < 16 * len(c) * c.n

    def test_package_paths_cache_no_tuple_copy(self):
        # the code book's array stays the one copy of its words: neither
        # simulation nor a comma-format write caches `symbol_rows`
        vt8 = vt_code(8)
        c = CodeBook.from_symbols(vt8.alphabet, vt8._symbol_array)
        simulate_channel(c, ProductChannel.power(make_channel("Z", 2), 8), 50, 1, force_errors=1)
        assert "symbol_rows" not in vars(c)
        lee = codewords_of(nullspace(lee_parity_check(11, 1)))
        c = CodeBook.from_symbols(lee.alphabet, lee._symbol_array)
        assert write_code_file(c) == write_code_file(lee)
        assert "symbol_rows" not in vars(c)


TOKEN = st.text("abcxyz0189-_.", min_size=1, max_size=6)


@st.composite
def code_files(draw, min_rows=0):
    """A code with a name and meta keys, over a uniform or mixed alphabet
    up to q = 20 (digit strings up to q = 10, comma lists past it)."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        sizes = (draw(st.integers(2, 20)),) * n
    else:
        sizes = tuple(draw(st.lists(st.integers(2, 20), min_size=n, max_size=n)))
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1) for q in sizes]),
                         min_size=min_rows, max_size=12, unique=True))
    name = draw(st.one_of(st.just(""), TOKEN))
    meta = draw(st.dictionaries(TOKEN.filter(lambda k: k not in ("q", "n", "name")),
                                st.text("abc019=,:", max_size=5), max_size=3))
    return CodeBook.from_symbols(AlphabetSpec(sizes), rows, name=name, meta=meta)


class TestFileRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(code_files())
    def test_code_file(self, c):
        again = parse_code_file(write_code_file(c))
        assert again == c and again.name == c.name and again.meta == c.meta
        assert write_code_file(again) == write_code_file(c)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 13), st.integers(0, 3), st.integers(1, 5),
           st.sampled_from(["generator", "parity"]), st.booleans(), st.data())
    def test_matrix_file(self, q, nrows, ncols, role, comment, data):
        rows = tuple(tuple(data.draw(st.lists(st.integers(-q, 2 * q), min_size=ncols, max_size=ncols)))
                     for _ in range(nrows))
        try:
            m = MatrixModZq(q, rows, role)
        except ValueError:  # a parity check with an all-zero column
            assume(False)
        text = ("# a comment\n" if comment else "") + m.to_text()
        assert MatrixModZq.from_text(text) == m


# Token faults: each int() would read as the symbol s it replaces (the
# letter aside); the one token rule, ASCII -?[0-9]+, rejects them all.
TOKEN_FAULTS = {
    "letter": lambda s, i: "x",
    "underscore": lambda s, i: f"0_{s}",
    "space": lambda s, i: f" {s}" if i else f"{s} ",
    "plus": lambda s, i: f"+{s}",
    "script": lambda s, i: "".join(chr(0x660 + int(d)) for d in str(s)),
}


class TestHostileCodeFiles:
    """Each fault in one codeword line is a CodeFileError naming that line
    (comment and blank lines count)."""

    @settings(max_examples=200, deadline=None)
    @given(code_files(min_rows=1), st.sampled_from(["range", "negative", "duplicate", "short", *TOKEN_FAULTS]),
           st.data())
    def test_fault_names_its_line(self, c, fault, data):
        lines = write_code_file(c).splitlines()
        lines[1:1] = ["", "# between"]
        first = 4  # 0-based index of the first codeword line
        j = data.draw(st.integers(0, len(c) - 1))
        sep = "," if any(q > 10 for q in c.alphabet.sizes) else ""
        symbols = list(c.symbol_rows[j])
        bad = first + j
        if fault == "duplicate":
            assume(len(c) > 1)
            k = data.draw(st.integers(0, len(c) - 1).filter(lambda k: k != j))
            lines[first + j] = lines[first + k]
            bad = first + max(j, k)
        elif fault == "short":
            assume(c.n > 1)  # an empty line is blank, not short
            lines[first + j] = sep.join(map(str, symbols[:-1]))
        else:
            i = data.draw(st.integers(0, c.n - 1))
            q, s = c.alphabet.sizes[i], symbols[i]
            if fault == "space":
                assume(c.n > 1)  # the line's outer blanks are stripped
            if fault in TOKEN_FAULTS:
                symbols[i] = TOKEN_FAULTS[fault](s, i)
            else:
                symbols[i] = {"range": q, "negative": -1}[fault]
            assume(not (fault == "range" and q == 10 and not sep))  # "10" is two digits
            lines[first + j] = sep.join(map(str, symbols))
        what = "invalid literal" if fault in TOKEN_FAULTS else ""
        with pytest.raises(CodeFileError, match=f"^line {bad + 1}: {what}"):
            parse_code_file("\n".join(lines) + "\n")

    @pytest.mark.parametrize("body, line, what", [
        ("012\n# c\n\n030\n", 5, "symbol 3 at coordinate 1 outside 0..2"),
        ("01,2\n11,2\n-1,0\n", 4, "symbol -1 at coordinate 0 outside 0..11"),
        ("012\n120\n012\n", 4, "duplicate codeword 012"),
        ("012\n01\n", 3, "expected 3 symbols, got 2"),
        ("0a1\n", 2, "invalid literal"),
        ("0,1\n1_0,3\n", 3, "invalid literal for int() with base 10: '1_0'"),
        (" 1 ,2\n", 2, "invalid literal for int() with base 10: '1 '"),
        ("+4,3\n", 2, "invalid literal for int() with base 10: '+4'"),
        ("0\u06612\n", 2, "invalid literal for int() with base 10: '\u0661'"),
    ], ids=["range", "negative", "duplicate", "short", "letter", "underscore", "space", "plus",
            "script"])
    def test_examples(self, body, line, what):
        header = "q=12 n=2\n" if "," in body else "q=3 n=3\n"
        with pytest.raises(CodeFileError, match=f"^line {line}: {re.escape(what)}"):
            parse_code_file(header + body)

    def test_matrix_tokens_follow_the_same_rule(self):
        for row in ("1_0 2", "+1 2", "1 \u0662"):
            with pytest.raises(ValueError, match="invalid literal for int"):
                MatrixModZq.from_text(f"3 1 2 generator\n{row}\n")
        with pytest.raises(ValueError, match="bad matrix header"):
            MatrixModZq.from_text("+3 1 2 generator\n1 2\n")

    def test_matrix_rows_beyond_the_header_count_are_rejected(self, tmp_path, capsys):
        from asymcodes.linearq import hamming_parity_check, nullspace

        text = nullspace(hamming_parity_check(3, 2)).to_text()
        assert text.startswith("3 2 4 generator\n")
        with pytest.raises(ValueError, match="^expected 2 rows, found 3$"):
            MatrixModZq.from_text(text + "1 1 1 1\n")
        f = tmp_path / "outer.txt"
        f.write_text(text + "1 1 1 1\n")
        assert main(["construct", "concat", "--outer-gen", str(f)]) == 2
        assert capsys.readouterr().err == "error: expected 2 rows, found 3\n"

    @pytest.mark.parametrize("text, message", [
        ("3 2 2 generator\n# c\n1 1\n1\n", "line 4: row 1 has 1 entries, expected 2"),
        ("3 1 2 generator\n\n1_0 2\n", "line 3: invalid literal for int() with base 10: '1_0'"),
        ("# c\n3 1 two generator\n1 2\n", "line 2: bad matrix header '3 1 two generator'"),
    ], ids=["short-row", "token", "header"])
    def test_matrix_errors_name_the_file_line(self, tmp_path, capsys, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MatrixModZq.from_text(text)
        f = tmp_path / "outer.txt"
        f.write_text(text)
        assert main(["construct", "concat", "--outer-gen", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestLineRule:
    """Both text formats skip the same lines: blank ones and those that
    start with '#' once stripped, before the header and after it."""

    COMMENTS = ["  # c", "\t# c"]

    @pytest.mark.parametrize("comment", COMMENTS)
    def test_code_file(self, comment):
        c = CodeBook.from_symbols(AlphabetSpec.uniform(3, 2), [(0, 1), (2, 2)])
        lines = write_code_file(c).splitlines()
        text = "\n".join([comment, lines[1], comment, lines[2], comment, lines[3], comment])
        assert parse_code_file(text) == c
        with pytest.raises(CodeFileError, match="^line 6: symbol 3 at coordinate 1"):
            parse_code_file(text.replace("22", "23"))

    @pytest.mark.parametrize("comment", COMMENTS)
    def test_matrix_file(self, comment):
        text = "\n".join([comment, "3 2 4 generator", comment, "2 2 1 0", comment, "1 2 0 1", comment])
        assert MatrixModZq.from_text(text) == MatrixModZq(3, ((2, 2, 1, 0), (1, 2, 0, 1)), "generator")

    def test_a_matrix_file_with_indented_comments_builds_a_concat_code(self, tmp_path):
        f = tmp_path / "outer.txt"
        f.write_text("3 2 4 generator\n  # the [4,2]_3 code\n2 2 1 0\n1 2 0 1\n")
        assert main(["construct", "concat", "--outer-gen", str(f)]) == 0


@st.composite
def messy_digit_files(draw):
    """A digit-format code (every q <= 10) and the lines of its file, with
    comments before the header, comment and blank lines in the body, and
    some words written comma-separated.  Returns the code, the lines, and
    the words in file order with the 1-based number of each one's line."""
    n = draw(st.integers(1, 5))
    sizes = tuple(draw(st.lists(st.integers(2, 10), min_size=n, max_size=n)))
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1) for q in sizes]),
                         min_size=1, max_size=12, unique=True))
    c = CodeBook.from_symbols(AlphabetSpec(sizes), rows, name="m")
    header = write_code_file(c).splitlines()[1]
    lines = ["# made by hand"] * draw(st.integers(0, 2)) + [header]
    where = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "# note", "   "]), max_size=2))
        sep = "," if draw(st.integers(0, 3)) == 0 else ""
        lines.append(sep.join(map(str, row)))
        where.append(len(lines))
    lines += draw(st.lists(st.sampled_from(["", "# end"]), max_size=2))
    return c, lines, rows, where


def _join(lines, crlf, final_newline):
    eol = "\r\n" if crlf else "\n"
    return eol.join(lines) + (eol if final_newline else "")


class TestBodyDecode:
    """The one-pass body decode reads what a line-by-line reader reads."""

    @settings(max_examples=200, deadline=None)
    @given(messy_digit_files(), st.booleans(), st.booleans())
    def test_equals_the_line_reader(self, case, crlf, final_newline):
        c, lines, _, where = case
        text = _join(lines, crlf, final_newline)
        body = [text.splitlines()[k - 1].strip() for k in where]
        reference = CodeBook.from_symbols(c.alphabet, [parse_symbols(line, "") for line in body])
        got = parse_code_file(text)
        assert got == reference == c and got.name == "m"

    @settings(max_examples=200, deadline=None)
    @given(messy_digit_files(), st.sampled_from(["range", "duplicate"]), st.booleans(),
           st.data())
    def test_faults_name_their_line(self, case, fault, crlf, data):
        c, lines, rows, where = case
        j = data.draw(st.integers(0, len(rows) - 1))
        sep = "," if "," in lines[where[j] - 1] else ""
        if fault == "range":
            symbols = list(rows[j])
            i = data.draw(st.integers(0, c.n - 1))
            symbols[i] = c.alphabet.sizes[i]
            if symbols[i] == 10:
                assume(c.n > 1)  # a lone "10" reads as two digits
                sep = ","
            bad = where[j]
        else:
            assume(len(rows) > 1)
            k = data.draw(st.integers(0, len(rows) - 1).filter(lambda k: k != j))
            symbols = rows[k]
            bad = max(where[j], where[k])
        lines[where[j] - 1] = sep.join(map(str, symbols))
        what = "duplicate codeword" if fault == "duplicate" else "symbol"
        with pytest.raises(CodeFileError, match=f"^line {bad}: {what}"):
            parse_code_file(_join(lines, crlf, True))


class TestReportDocument:
    def test_json_round_trip(self):
        doc = ReportDocument(command=["verify"], parameters={"t": 1},
                             results={"verified": True}, seed=3)
        again = ReportDocument.from_json(doc.to_json())
        assert again == doc

    def test_deterministic_field_order(self):
        doc = ReportDocument(command=["x"])
        keys = list(json.loads(doc.to_json()).keys())
        assert keys == ["tool", "version", "command", "parameters", "results",
                        "flags", "seed"]


class TestCliExitCodes:
    def test_construct_and_verify_ok(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        assert main(["construct", "cr", "--group", "3x3", "--g", "0,0",
                     "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out), "--model", "asym", "--t", "1"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_construct_without_out_writes_the_code_to_stdout(self, capsys):
        assert main(["construct", "vt", "--n", "4"]) == 0
        code = vt_code(4)
        assert capsys.readouterr() == (write_code_file(code),
                                       f"constructed (4,{len(code)}) code over q=2\n")

    def test_search_help_states_the_node_budget(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        with pytest.raises(SystemExit) as exit_:
            main(["search", "--help"])
        assert exit_.value.code == 0
        assert ("  --budget BUDGET       node budget: the exact strategy expands at most 50 000 "
                "nodes per unit (default 60)\n") in capsys.readouterr().out

    def test_verify_failure_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.code"
        bad.write_text("q=2 n=2\n00\n01\n")
        assert main(["verify", "--in", str(bad), "--model", "asym", "--t", "1"]) == 1
        assert "NOT VERIFIED" in capsys.readouterr().out

    def test_verify_failure_names_witness(self, tmp_path, capsys):
        bad = tmp_path / "bad.code"
        bad.write_text("q=2 n=2\n00\n01\n")
        rep = tmp_path / "v.json"
        assert main(["verify", "--in", str(bad), "--model", "asym", "--t", "1",
                     "--json", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "witness: 00 and 01 at asymmetric distance 1"
        results = json.loads(rep.read_text())["results"]
        assert results["verified"] is False
        assert results["witness"] == {"x": "00", "y": "01", "distance": 1}

    def test_verify_success_has_no_witness(self, tmp_path, capsys):
        good = tmp_path / "good.code"
        good.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        rep = tmp_path / "v.json"
        assert main(["verify", "--in", str(good), "--model", "asym", "--t", "1",
                     "--json", str(rep)]) == 0
        assert "witness" not in capsys.readouterr().err
        results = json.loads(rep.read_text())["results"]
        assert results["verified"] is True and "witness" not in results

    def test_verify_limited_model(self, tmp_path):
        f = tmp_path / "c0.code"
        f.write_text("q=5 n=2\n00\n11\n22\n33\n44\n")
        assert main(["verify", "--in", f.as_posix(), "--model", "limited",
                     "--t", "1", "--l", "1", "--wrap"]) == 0

    def test_verify_limited_model_names_witness(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=5 n=2\n00\n11\n22\n23\n")
        rep = tmp_path / "v.json"
        assert main(["verify", "--in", str(f), "--model", "limited", "--t", "1", "--l", "1",
                     "--wrap", "--json", str(rep)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "NOT VERIFIED\n"
        assert captured.err == "witness: 22 and 23 at limited-magnitude distance 1\n"
        results = json.loads(rep.read_text())["results"]
        assert results["verified"] is False
        assert results["witness"] == {"x": "22", "y": "23", "distance": 1}

    @pytest.mark.parametrize("model, rows, flags", [
        ("asym", "q=2 n=4\n0000\n0011\n0111\n1100\n", []),
        ("limited", "q=5 n=2\n00\n11\n22\n23\n", ["--l", "1", "--wrap"]),
    ])
    def test_verify_answers_and_names_the_pair_from_one_scan(
        self, monkeypatch, tmp_path, capsys, model, rows, flags
    ):
        from asymcodes import words

        scans, scan = [], words._pair_scan

        def counted(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(words, "_pair_scan", counted)
        f = tmp_path / "c.code"
        f.write_text(rows)
        assert main(["verify", "--in", str(f), "--model", model, "--t", "1", *flags]) == 1
        assert capsys.readouterr().err.startswith("witness: ")
        assert len(scans) == 1

    @pytest.mark.parametrize("ell", ["0", "-3"])
    def test_verify_limited_model_rejects_ell_below_one(self, tmp_path, capsys, ell):
        f = tmp_path / "c.code"
        f.write_text("q=5 n=2\n00\n22\n23\n44\n")
        assert main(["verify", "--in", str(f), "--model", "limited", "--t", "1",
                     "--l", ell]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ell must be >= 1\n"

    @pytest.mark.parametrize("model", ["asym", "ball"])
    @pytest.mark.parametrize("flags", [["--l", "3"], ["--wrap"], ["--l", "1", "--wrap"]])
    def test_verify_refuses_limited_flags_on_other_models(self, tmp_path, capsys, model, flags):
        f = tmp_path / "c.code"
        f.write_text("q=5 n=2\n00\n22\n44\n")
        rep = tmp_path / "v.json"
        assert main(["verify", "--in", str(f), "--model", model, "--t", "1", *flags,
                     "--json", str(rep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --l and --wrap apply only to --model limited, not {model}\n"
        )
        assert not rep.exists()

    def test_verify_limited_defaults_ell_to_one_in_its_report(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=5 n=2\n00\n22\n44\n")
        reports = []
        for i, flags in enumerate([[], ["--l", "1"]]):
            rep = tmp_path / f"v{i}.json"
            assert main(["verify", "--in", str(f), "--model", "limited", "--t", "1",
                         *flags, "--json", str(rep)]) == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["parameters"] == {
            "in": str(f), "model": "limited", "t": 1, "l": 1, "wrap": False,
        }

    def test_search_cyclic_rejects_out1(self, tmp_path, capsys):
        out, out1 = tmp_path / "c.code", tmp_path / "d.code"
        assert main(["search", "cyclic", "--m", "3", "--out", str(out),
                     "--out1", str(out1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: --out1 ")
        assert not out.exists() and not out1.exists()

    def test_decode_exit_codes(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["decode", "--code", str(f), "--received", "0100", "--t", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1100"
        assert main(["decode", "--code", str(f), "--received", "0000", "--t", "2"]) == 1

    def test_decode_ambiguity_lists_the_candidates(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["decode", "--code", str(f), "--received", "0000", "--t", "2"]) == 1
        assert capsys.readouterr().out == "AMBIGUOUS: 3 candidates\n0000\n0011\n1100\n"

    def test_decode_rejects_negative_t(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["decode", "--code", str(f), "--received", "1100", "--t", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: t must be >= 0\n"

    def test_vt_length_below_one_is_named(self, capsys):
        # n = 0 used to surface as the group's "cyclic factors must be >= 2"
        assert main(["construct", "vt", "--n", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"

    def test_search_over_enumeration_cap_is_usage_error(self, capsys):
        # 3^13 words exceed the default cap of 10^6
        assert main(["search", "cyclic", "--m", "13", "--strategy", "greedy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--outer-lee", "3"), ("--outer-lee", "+3,2"), ("--outer-lee", "5,2,foo"),
        ("--outer-lee", "5,2,partial,x"), ("--outer-hamming", "3,2,1"),
        ("--outer-hamming", "3,\u0662"), ("--outer-hamming", "3"), ("--outer-hamming", "3,2,partial"),
    ])
    def test_concat_outer_flags_are_checked(self, capsys, flag, value):
        assert main(["construct", "concat", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert flag in captured.err

    def test_decode_rejects_a_loose_integer_token(self, tmp_path, capsys):
        # int() reads 1_1 as 11, a symbol of this code
        f = tmp_path / "c.code"
        f.write_text("q=12 n=3\n0,0,0\n11,1,1\n")
        assert main(["decode", "--code", str(f), "--received", "1_1,1,1", "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid literal for int() with base 10: '1_1'\n"

    def test_decode_reads_the_word_as_the_code_file_does(self, tmp_path, capsys):
        # past q = 10 a comma-free word is one integer, as in a code file
        f = tmp_path / "c.code"
        f.write_text("q=12 n=1\n0\n11\n")
        assert main(["decode", "--code", str(f), "--received", "11", "--t", "0"]) == 0
        assert capsys.readouterr().out == "11\n"

    @pytest.mark.parametrize("received", ["0102", "1,1,0,2", "010"])
    def test_decode_rejects_word_outside_code_alphabet(self, tmp_path, capsys, received):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["decode", "--code", str(f), "--received", received, "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--p", "0.1", "--force-errors", "1", "--trials", "10"],
            ["--p", "0.1", "--trials", "-5"],
            ["--p", "0.1", "--trials", "10", "--t", "-1"],
            ["--force-errors", "-3", "--trials", "10"],
        ],
        ids=["p-and-force", "negative-trials", "negative-t", "negative-force"],
    )
    def test_simulate_rejects_bad_inputs(self, tmp_path, capsys, flags):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["simulate", "--code", str(f), "--seed", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_simulate_refuses_an_empty_code(self, tmp_path, capsys):
        f = tmp_path / "empty.code"
        f.write_text("q=2 n=4\n")
        assert main(["simulate", "--code", str(f), "--seed", "1", "--p", "0.1",
                     "--trials", "10"]) == 2
        assert capsys.readouterr().err == "error: cannot simulate an empty code\n"

    @pytest.mark.parametrize("header, message", [
        ("q=3 n=2 foo", "bad header token 'foo'"),
        ("n=2", "header needs q= and n="),
        ("q=3", "header needs q= and n="),
        ("q=3 n=x", "invalid literal for int() with base 10: 'x'"),
        ("q=3,a n=2", "invalid literal for int() with base 10: 'a'"),
        ("q=3,3,3 n=2", "q profile length != n"),
    ], ids=["token", "no-n", "no-q", "n", "q", "profile"])
    def test_header_faults_are_usage_errors(self, tmp_path, capsys, header, message):
        with pytest.raises(CodeFileError, match=f"^line 1: {re.escape(message)}$"):
            parse_code_file(f"{header}\n01\n")
        f = tmp_path / "bad.code"
        f.write_text(f"# a comment\n{header}\n01\n")
        assert main(["verify", "--in", str(f), "--model", "asym", "--t", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: line 2: {message}\n")

    def test_bound(self, capsys):
        assert main(["bound", "sphere", "--q", "3", "--n", "8", "--t", "1",
                     "--l", "1"]) == 0
        assert capsys.readouterr().out.strip() == "729"

    @pytest.mark.parametrize("n", ["100000", str(10**30)])
    def test_bound_refuses_a_huge_word_space_at_once(self, capsys, n):
        start = time.perf_counter()
        assert main(["bound", "sphere", "--q", "3", "--n", n, "--t", "2", "--l", "1"]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n {n} is too large: q^n must stay below 2^14000\n"

    def test_simulate_refuses_huge_trials_at_once(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["simulate", "--code", str(f), "--p", "0.1", "--trials", str(10**30),
                     "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {10**30} trials of 4 symbols: at least 2^")

    def test_simulate_force_errors_past_n_acts_as_n(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        outputs = []
        for k in ("4", "1000"):
            assert main(["simulate", "--code", str(f), "--force-errors", k, "--trials", "300",
                         "--seed", "6"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == ["failure rate 0.740000 (222/300)\n"] * 2

    @pytest.mark.parametrize("token", ["1_0", "+5", " 8", "\u0663"])
    @pytest.mark.parametrize("args", [
        ["bound", "sphere", "--q", "3", "--n", "{}", "--t", "1", "--l", "1"],
        ["construct", "vt", "--n", "{}"],
        ["simulate", "--code", "c.code", "--p", "0.1", "--trials", "{}", "--seed", "1"],
    ], ids=["bound", "vt", "simulate"])
    def test_integer_flags_follow_the_token_rule(self, capsys, token, args):
        # int() reads each of these tokens as an integer
        with pytest.raises(SystemExit) as exc:
            main([a.format(token) for a in args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"invalid integer value: {token!r}" in captured.err

    @pytest.mark.parametrize("token", [" 0_0", "\u0660.\u0665", "\u0665", "1_0"])
    @pytest.mark.parametrize("args", [
        ["simulate", "--code", "c.code", "--p", "{}", "--trials", "10", "--seed", "1"],
        ["search", "cyclic", "--m", "3", "--budget", "{}"],
    ], ids=["p", "budget"])
    def test_decimal_flags_follow_the_token_rule(self, capsys, token, args):
        # float() reads each of these tokens as a number
        with pytest.raises(SystemExit) as exc:
            main([a.format(token) for a in args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"invalid decimal value: {token!r}" in captured.err

    @pytest.mark.parametrize("token, value", [("0.1", 0.1), ("0.05", 0.05), ("5", 5.0),
                                              (".5", 0.5), ("-2.", -2.0), ("1e-3", 0.001)])
    def test_decimal_token_rule_reads_plain_numbers(self, token, value):
        assert parse_decimal(token) == value

    @pytest.mark.parametrize("token", ["1_0", "+5", " 8", "\u0663"])
    def test_group_factors_follow_the_token_rule(self, capsys, token):
        assert main(["construct", "cr", "--group", f"3x{token}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid literal for int() with base 10: {token!r}\n"

    @pytest.mark.parametrize("what", [["hamming", "--q", "3", "--r", "2"],
                                      ["lee", "--q", "3", "--r", "2"],
                                      ["double", "--in", "c.code"]])
    def test_unchecked_only_where_a_check_runs(self, capsys, what):
        with pytest.raises(SystemExit) as exc:
            main(["construct", *what, "--unchecked"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unchecked" in capsys.readouterr().err

    def test_usage_error_exit_two(self, tmp_path):
        missing = tmp_path / "nope.code"
        assert main(["verify", "--in", str(missing), "--model", "asym", "--t", "1"]) == 2
        bad = tmp_path / "bad.code"
        bad.write_text("q=3 n=2\n0300\n")
        assert main(["verify", "--in", str(bad), "--model", "asym", "--t", "1"]) == 2

    def test_argparse_usage_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", "asym"])
        assert exc.value.code == 2

    def test_search_strategy_is_one_of_the_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "cyclic", "--m", "4", "--strategy", "bogus"])
        assert exc.value.code == 2
        # newer Pythons print the choices without quotes
        assert re.fullmatch(r"asymcodes search: error: argument --strategy: invalid choice: "
                            r"'bogus' \(choose from ('?)exact-clique\1, \1greedy\1, "
                            r"\1randomized-restart\1\)",
                            capsys.readouterr().err.splitlines()[-1])

    def test_construct_concat_unchecked_says_so(self, capsys):
        assert main(["construct", "concat", "--outer-hamming", "3,2", "--unchecked"]) == 0
        assert capsys.readouterr() == ("", "constructed [8,6]_3 code (unchecked)\n")

    def test_search_and_simulate(self, tmp_path, capsys):
        out = tmp_path / "s.code"
        rep = tmp_path / "s.json"
        assert main(["search", "cyclic", "--m", "3", "--seed", "1", "--budget", "5",
                     "--out", str(out), "--json", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["results"]["score"] == 12
        assert main(["simulate", "--code", str(out), "--force-errors", "1",
                     "--trials", "400", "--seed", "2", "--channel", "T"]) == 0
        assert "failure rate 0.0" in capsys.readouterr().out

    def test_tables_exit_zero(self, capsys):
        assert main(["tables", "table2"]) == 0
        assert main(["tables", "verify-generators"]) == 0
        capsys.readouterr()

    def test_verify_generators_reports_a_failing_split_table(self, monkeypatch, tmp_path,
                                                            capsys):
        from asymcodes import cyclic

        part0, part1 = cyclic.BUILTIN_EXTENDED[3]
        monkeypatch.setitem(cyclic.BUILTIN_EXTENDED, 3, (part0, part1 + ("100",)))
        rep = tmp_path / "g.json"
        assert main(["tables", "verify-generators", "--json", str(rep)]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 12
        rows = json.loads(rep.read_text())["results"]["rows"]
        assert [r for r in rows if not r["ok"]] == [
            {"m": 3, "extended": True, "oracle": False, "image_size": 28, "expected": 16,
             "ok": False}]

    def test_simulate_auto_channel_is_the_decrement_chain(self, tmp_path, capsys):
        # chain on a binary coordinate is Z, so auto is chain everywhere
        f = tmp_path / "c.code"
        f.write_text("q=2,3,3 n=3\n000\n011\n102\n120\n")
        docs = []
        for channel in ("auto", "chain"):
            rep = tmp_path / f"{channel}.json"
            assert main(["simulate", "--code", str(f), "--p", "0.2", "--trials", "300",
                         "--seed", "5", "--channel", channel, "--json", str(rep)]) == 0
            docs.append(json.loads(rep.read_text()))
        assert docs[0]["parameters"].pop("channel") == "auto"
        assert docs[1]["parameters"].pop("channel") == "chain"
        assert docs[0] == docs[1]
        capsys.readouterr()

    def test_simulate_probabilistic_path(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["simulate", "--code", str(f), "--p", "0.05", "--trials", "500",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "failure rate" in out

    def test_construct_ternary_pipeline(self, tmp_path, capsys):
        tern = tmp_path / "t.code"
        tern.write_text("q=3 n=3\n000\n111\n122\n212\n221\n")
        out = tmp_path / "b.code"
        assert main(["construct", "ternary", "--in", str(tern), "--out", str(out)]) == 0
        built = parse_code_file(out.read_text())
        assert len(built) == 12
        capsys.readouterr()

    def test_construct_concat_writes_matrix_and_code(self, tmp_path):
        mat = tmp_path / "g.matrix"
        out = tmp_path / "c.code"
        assert main(["construct", "concat", "--outer-hamming", "3,2",
                     "--matrix-out", str(mat), "--out", str(out)]) == 0
        assert mat.read_text().splitlines()[0] == "3 6 8 generator"
        book = parse_code_file(out.read_text())
        assert len(book) == 729

    @pytest.mark.parametrize("what, flags", [
        (["concat", "--outer-hamming", "3,2", "--outer-lee", "5,2"], ["--outer-hamming", "--outer-lee"]),
        (["concat", "--outer-gen", "{outer}", "--outer-hamming", "3,2"], ["--outer-gen", "--outer-hamming"]),
        (["ternary", "--in", "{code}", "--in0", "{code}", "--in1", "{code}", "--unchecked"],
         ["--in", "--in0", "--in1"]),
    ], ids=["hamming-lee", "gen-hamming", "ternary"])
    def test_doubled_either_or_flags_are_refused(self, tmp_path, capsys, what, flags):
        # each of these command lines builds a code when one of its flags is dropped
        outer, code, out = tmp_path / "outer.txt", tmp_path / "t.code", tmp_path / "x.code"
        outer.write_text(nullspace(lee_parity_check(5, 2, full=False)).to_text())
        code.write_text("q=3 n=3\n000\n111\n122\n212\n221\n")
        argv = [a.format(outer=outer, code=code) for a in what]
        assert main(["construct", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert all(flag in captured.err for flag in flags)
        assert not out.exists()

    @pytest.mark.parametrize("what, message", [
        (["ternary", "--in0", "{code}"], "extended construction needs both --in0 and --in1"),
        (["ternary"], "--in is required"),
        (["concat"], "give --outer-gen, --outer-hamming or --outer-lee"),
    ], ids=["in0-alone", "no-input", "no-outer"])
    def test_missing_inputs_are_usage_errors(self, tmp_path, capsys, what, message):
        code, out = tmp_path / "t.code", tmp_path / "x.code"
        code.write_text("q=3 n=3\n000\n111\n122\n212\n221\n")
        argv = [a.format(code=code) for a in what]
        assert main(["construct", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_concat_too_large_for_out_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        # the [8,6]_3 code has 729 words
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 728)
        out = tmp_path / "c.code"
        assert main(["construct", "concat", "--outer-hamming", "3,2", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            "constructed [8,6]_3 code (outer +-1 single-error condition verified)\n"
            "error: code too large to enumerate into --out\n"))
        assert not out.exists()

    @pytest.mark.parametrize("what, H", [
        (["hamming", "--q", "3", "--r", "2"], hamming_parity_check(3, 2)),
        (["lee", "--q", "5", "--r", "2", "--partial"], lee_parity_check(5, 2, full=False)),
    ], ids=["hamming", "lee-partial"])
    def test_construct_parity_check_and_its_codewords(self, tmp_path, capsys, what, H):
        assert main(["construct", *what]) == 0
        assert capsys.readouterr() == (H.to_text(), "")
        mat, out = tmp_path / "h.matrix", tmp_path / "h.code"
        assert main(["construct", *what, "--matrix-out", str(mat), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert mat.read_text() == H.to_text()
        assert parse_code_file(out.read_text()) == codewords_of(H)

    def test_construct_ternary_from_two_parts_or_one_mixed_file(self, tmp_path, capsys):
        # the parts behind their literal bit are the one bit/trit code
        part0, part1, mixed = tmp_path / "p0", tmp_path / "p1", tmp_path / "mixed.code"
        part0.write_text("q=3 n=3\n000\n111\n122\n212\n221\n")
        part1.write_text("q=3 n=3\n112\n121\n211\n222\n")
        mixed.write_text("q=2,3,3,3 n=4\n0000\n0111\n0122\n0212\n0221\n"
                         "1112\n1121\n1211\n1222\n")
        images = []
        for argv in (["--in0", str(part0), "--in1", str(part1)], ["--in", str(mixed)]):
            out = tmp_path / "image.code"
            assert main(["construct", "ternary", *argv, "--out", str(out)]) == 0
            assert capsys.readouterr() == ("", "constructed (7,16) binary code\n")
            images.append(parse_code_file(out.read_text()))
        assert images[0] == images[1] and is_t_code(images[0], 1)

    def test_construct_concat_partial_lee_outer(self, tmp_path, capsys):
        # the [20,18]_5 code exceeds the cap: with no --out nothing enumerates it
        mat = tmp_path / "g.matrix"
        assert main(["construct", "concat", "--outer-lee", "5,2,partial",
                     "--matrix-out", str(mat)]) == 0
        assert capsys.readouterr() == (
            "", "constructed [20,18]_5 code (outer +-1 single-error condition verified)\n")
        assert mat.read_text().splitlines()[0] == "5 18 20 generator"

    def test_search_extended_writes_both_parts_and_json(self, tmp_path, capsys):
        out, out1, rep = tmp_path / "p0", tmp_path / "p1", tmp_path / "s.json"
        assert main(["search", "extended", "--m", "3", "--out", str(out), "--out1", str(out1),
                     "--json", str(rep)]) == 0
        assert capsys.readouterr() == ("", "best score 16 (proven optimal: yes)\n")
        parts = [parse_code_file(f.read_text()) for f in (out, out1)]
        assert [len(p) for p in parts] == [5, 4]
        assert parts[1].name == "extended-search-m3-part1"
        results = json.loads(rep.read_text())["results"]
        assert (results["score"], results["sizes"]) == (16, [5, 4])
        assert results["meta"] == parts[0].meta

    def test_decode_failure_exit_one(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=2 n=4\n0000\n1100\n0011\n1111\n")
        assert main(["decode", "--code", str(f), "--received", "1000", "--t", "0"]) == 1
        assert capsys.readouterr() == ("FAILURE: no codeword within range\n", "")

    def test_zero_outer_code_builds_and_verifies(self, tmp_path, capsys):
        outer, out = tmp_path / "zero.txt", tmp_path / "z.code"
        outer.write_text("3 1 3 generator\n0 0 0\n")
        assert main(["construct", "concat", "--outer-gen", str(outer), "--out", str(out)]) == 0
        assert len(parse_code_file(out.read_text())) == 27
        assert main(["verify", "--in", str(out), "--model", "asym", "--t", "1"]) == 0
        assert capsys.readouterr().out == "VERIFIED\n"

    def test_construct_double(self, tmp_path, capsys):
        base = tmp_path / "b.code"
        base.write_text("q=3 n=1\n0\n1\n2\n")
        out = tmp_path / "d.code"
        assert main(["construct", "double", "--in", str(base), "--out", str(out)]) == 0
        assert parse_code_file(out.read_text()).symbol_rows == ((0, 0), (1, 1), (2, 2))
        capsys.readouterr()


class TestBoundedRefusals:
    """Inputs that ran for hours or ended in a traceback exit 2 at once with
    one line."""

    PRIME = 2**61 - 1

    @pytest.mark.parametrize("argv", [
        ["construct", "hamming", "--q", str(PRIME), "--r", "2"],
        ["construct", "lee", "--q", str(PRIME), "--r", "1"],
        ["construct", "concat", "--outer-lee", f"{PRIME},1"],
        ["construct", "concat", "--outer-hamming", f"{PRIME},2"],
    ])
    def test_a_prime_past_the_cap_is_refused(self, monkeypatch, capsys, argv):
        monkeypatch.delenv("ASYMCODES_ENUM_CAP", raising=False)
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10**6)
        t0 = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - t0 < 10
        assert capsys.readouterr() == ("", "error: trial division of 2305843009213693951: "
                                           "divisor 1518500249 exceeds enumeration cap 1000000\n")

    def test_a_budget_whose_counts_overflow_is_refused(self, capsys):
        assert main(["search", "cyclic", "--m", "3", "--budget", "1e308"]) == 2
        assert capsys.readouterr() == (
            "", "error: time budget 1e+308 overflows its node or restart count\n")


class TestBallModel:
    def test_verify_ball_names_witness(self, tmp_path, capsys):
        bad = tmp_path / "bad.code"
        bad.write_text("q=2 n=5\n00000\n00001\n00111\n01111\n11000\n")
        rep = tmp_path / "v.json"
        assert main(["verify", "--in", str(bad), "--model", "ball", "--t", "1",
                     "--json", str(rep)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "witness: 00000 lies in the radius-1 error balls of 00000 and 00001\n"
        assert captured.out == "NOT VERIFIED\n"
        doc = json.loads(rep.read_text())
        assert doc["parameters"]["model"] == "ball"
        assert doc["results"]["verified"] is False
        assert doc["results"]["witness"] == {"received": "00000", "x": "00000", "y": "00001"}

    def test_verify_ball_success(self, tmp_path, capsys):
        f = tmp_path / "c.code"
        f.write_text("q=3 n=2\n00\n11\n22\n")
        rep = tmp_path / "v.json"
        assert main(["verify", "--in", str(f), "--model", "ball", "--t", "1",
                     "--json", str(rep)]) == 0
        assert capsys.readouterr().err == ""
        results = json.loads(rep.read_text())["results"]
        assert results["verified"] is True and "witness" not in results

    def test_construct_recheck_names_witness(self, monkeypatch, tmp_path, capsys):
        from asymcodes import cli

        monkeypatch.setattr(cli, "vt_code", lambda n, g, q: book_from_strings(["0011", "0111"]))
        out = tmp_path / "c.code"
        assert main(["construct", "vt", "--n", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "witness: 0011 lies in the radius-1 error balls of 0011 and 0111",
            "VERIFICATION FAILED: output is not a 1-code",
        ]
        assert not out.exists()


    def test_concat_recheck_names_witness(self, monkeypatch, tmp_path, capsys):
        from asymcodes.linearq import ConcatCode

        monkeypatch.setattr(ConcatCode, "codebook", lambda self: book_from_strings(["0011", "0111"]))
        out = tmp_path / "c.code"
        assert main(["construct", "concat", "--outer-hamming", "3,2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "witness: 0011 and 0111 at asymmetric distance 1",
            "VERIFICATION FAILED: output is not a 1-code",
        ]
        assert not out.exists()


class TestBadSettings:
    @pytest.mark.parametrize("budget", ["inf", "nan"])
    def test_non_finite_search_budget_is_usage_error(self, capsys, budget):
        assert main(["search", "cyclic", "--m", "3", "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: time budget") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1e6", "1_000", "+5"])
    def test_bad_enum_cap_variable_is_usage_error(self, value):
        # the variable is read when the package is imported: run a fresh one
        result = _run_cli(["bound", "sphere", "--q", "3", "--n", "8", "--t", "1", "--l", "1"],
                          ASYMCODES_ENUM_CAP=value)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: ASYMCODES_ENUM_CAP must be a positive integer, got {value!r}\n")

    @pytest.mark.parametrize("args, message", [
        ("search cyclic --m 10000", "words: 3^10000"),
        ("construct vt --n 30000", "half-words: 2^15000"),
        ("construct hamming --q 3 --r 9000", "column vectors: 3^9000"),
    ])
    def test_huge_word_spaces_are_refused_at_once(self, args, message):
        start = time.perf_counter()
        result = _run_cli(args.split(), ASYMCODES_ENUM_CAP="1000000")
        assert time.perf_counter() - start < 10
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"error: {message} exceeds enumeration cap 1000000\n"

    def test_bad_enum_cap_variable_leaves_import_working(self):
        # a library caller can catch the error, which comes where a cap applies
        code = ("import asymcodes\n"
                "try:\n    asymcodes.vt_code(4)\n"
                "except ValueError as e:\n    print(e)\n")
        result = _run_python(["-c", code], ASYMCODES_ENUM_CAP="abc")
        assert result.returncode == 0
        assert result.stdout == "ASYMCODES_ENUM_CAP must be a positive integer, got 'abc'\n"
        assert result.stderr == ""

    def test_enum_cap_variable_bounds_the_ball_oracle(self, tmp_path):
        # the radius-1 balls of vt_code(10) on the decrement chain hold 564 words
        f = tmp_path / "vt10.code"
        f.write_text(write_code_file(vt_code(10)))
        args = ["verify", "--in", str(f), "--model", "ball", "--t", "1"]
        result = _run_cli(args, ASYMCODES_ENUM_CAP="563")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == "error: radius-1 error balls: 564 exceeds enumeration cap 563\n"
        result = _run_cli(args, ASYMCODES_ENUM_CAP="564")
        assert result.returncode == 0 and result.stdout == "VERIFIED\n"

    def test_enum_cap_variable_sets_the_cap(self):
        # 3^8 = 6561 words exceed a cap of 6560
        args = ["search", "cyclic", "--m", "8", "--strategy", "greedy"]
        result = _run_cli(args, ASYMCODES_ENUM_CAP="6560")
        assert result.returncode == 2
        assert result.stderr == "error: 3^8 words: 6561 exceeds enumeration cap 6560\n"


def _run_cli(args, **env):
    return _run_python(["-m", "asymcodes.cli", *args], **env)


def _run_python(args, **env):
    import asymcodes

    src = str(Path(asymcodes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=60,
    )


class TestCliDeterminism:
    def test_search_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.code", "b.code"):
            out = tmp_path / name
            main(["search", "cyclic", "--m", "4", "--seed", "9", "--budget", "5",
                  "--strategy", "randomized-restart", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_construct_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.code", "b.code"):
            out = tmp_path / name
            main(["construct", "vt", "--n", "8", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


SEARCH_DEMO = Path(__file__).parents[1] / "scripts" / "search_demo.py"


class TestSearchDemo:
    @pytest.mark.parametrize("budget", ["0", "nan", "inf"])
    def test_a_bad_budget_is_a_usage_error(self, budget):
        result = _run_python([str(SEARCH_DEMO), "--budget", budget])
        assert result.returncode == 2 and result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines()[-1] == (
            f"search_demo.py: error: time budget must be a positive finite number, "
            f"got {float(budget)}")

    def test_lengths_past_table2_have_no_bundled_score(self):
        result = _run_python([str(SEARCH_DEMO), "--max-m", "9", "--budget", "1"])
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[5].startswith("plain m=8: score ") and "(bundled 3952)" in lines[5]
        assert lines[6].startswith("plain m=9: score ") and "(bundled –)" in lines[6]
        assert lines[-1].startswith("split m=5: score 154 (bundled 154) optimal=yes")


REPRODUCE_TABLES = Path(__file__).parents[1] / "scripts" / "reproduce_tables.py"


def _reproduce_tables():
    spec = importlib.util.spec_from_file_location("reproduce_tables", REPRODUCE_TABLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproduceTables:
    def test_json_files_are_the_cli_documents(self, tmp_path, capsys):
        assert _reproduce_tables().run(str(tmp_path / "script")) == 0
        for which in ("table1", "table2", "verify-generators"):
            want = tmp_path / f"cli-{which}.json"
            assert main(["tables", which, "--json", str(want)]) == 0
            assert (tmp_path / "script" / f"{which}.json").read_bytes() == want.read_bytes()

    def test_a_table2_mismatch_fails_the_script(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(bounds.TABLE2_REFERENCE[6], "cr", 11)
        assert _reproduce_tables().run(str(tmp_path)) == 1
        out = capsys.readouterr().out
        # every table still runs and writes its document
        assert "== bundled generator verification ==" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "table1.json", "table2.json", "verify-generators.json"]
        rows = json.loads((tmp_path / "table2.json").read_text())["results"]["rows"]
        assert not rows[0]["cr_matches_reference"]
