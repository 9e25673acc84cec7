"""Text formats: code files, the line rule matrix files share, and the JSON
report document.

Both text formats skip blank lines and comment lines, those that start
with '#' once stripped (`_numbered`).  Code file layout: one
header line of key=value tokens (q=3 or q=2,3,3 for mixed profiles, n=5,
optional name=...), then one codeword per line.  Symbols print as digit
strings when every alphabet size is at most 10 and as comma-separated
integers otherwise.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .words import AlphabetSpec, CodeBook, RowError, _separator


class CodeFileError(ValueError):
    """Malformed code file; message carries the offending line number."""


_INT_TOKEN = re.compile(r"-?[0-9]+")


def parse_ints(tokens: Sequence[str]) -> list[int]:
    """The tokens (the characters, given one string) as integers, under the
    one token rule of every text input: ASCII -?[0-9]+.  int() also reads
    '1_0', ' 1 ', '+4' and other scripts' digits; those raise the
    ValueError int() gives for a non-number instead."""
    joined = tokens if isinstance(tokens, str) else "".join(tokens)
    # nonempty ASCII-digit tokens pass at once; a string's characters are never empty
    if not (joined.isdigit() and joined.isascii() and (joined is tokens or all(tokens))):
        for token in tokens:
            if not _INT_TOKEN.fullmatch(token):
                raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return list(map(int, tokens))


_DECIMAL_TOKEN = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|inf|nan")


def parse_decimal(token: str) -> float:
    """The token as a float, under the one decimal token rule of text input:
    ASCII -?([0-9]+.?[0-9]*|.[0-9]+)([eE][-+]?[0-9]+)?, or inf or nan for the
    flag's range check to name; '1_0', ' 1 ' and other scripts' digits fail."""
    if not _DECIMAL_TOKEN.fullmatch(token):
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def parse_symbols(text: str, sep: str) -> list[int]:
    """One word's symbols, read by the rule of every word in text: a comma
    always separates symbols.  Without one, an alphabet that prints words
    as digit strings (sep = _separator(sizes) is "") reads one digit per
    symbol, and any other reads the text as one integer."""
    return parse_ints(text if not sep and "," not in text else text.split(","))


def write_code_file(c: CodeBook) -> str:
    q_token = (
        str(c.alphabet.sizes[0])
        if c.alphabet.is_uniform
        else ",".join(str(q) for q in c.alphabet.sizes)
    )
    header = f"q={q_token} n={c.n}"
    if c.name:
        header += f" name={c.name}"
    for key in sorted(c.meta):
        value = str(c.meta[key])
        if any(ch.isspace() for ch in f"{key}{value}"):
            raise ValueError(f"metadata entry {key!r} contains whitespace")
        header += f" {key}={value}"
    sep = _separator(c.alphabet.sizes)
    lines = ["# asymcodes code file v1", header]
    if sep:
        lines.extend(sep.join(map(str, row)) for row in c._symbol_array.tolist())
        return "\n".join(lines) + "\n"
    # every symbol is one digit: the body is the code's uint8 array shifted
    # in place to ASCII '0', with a newline column, decoded from its buffer;
    # the buffer goes before the header is joined on, so at most two copies
    # of the body are alive
    body = np.full((len(c), c.n + 1), ord("\n"), dtype=np.uint8)
    np.add(c._symbol_array, ord("0"), out=body[:, :-1])
    text = str(body, "ascii")
    del body
    return "\n".join(lines) + "\n" + text


def _numbered(text: str) -> Iterator[tuple[int, str]]:
    """The one line rule of both text formats: each line that is not blank
    and does not start with '#' once stripped, as (its 1-based number, the
    stripped line)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _body_rows(body: list[str], n: int, sep: str) -> np.ndarray | list[list[int]]:
    """The body's words, one row per line, for `CodeBook.from_symbols`.

    When every line is n ASCII digits of a digit-string alphabet, as
    `write_code_file` writes them, the joined bytes decode in one pass to
    a uint8 array.  Otherwise every line is read by `parse_symbols`, and a
    RowError names the first line that fails.
    """
    if not sep and set(map(len, body)) <= {n}:
        # a character past ASCII becomes '?', so each line keeps its n bytes
        joined = "".join(body).encode("ascii", "replace")
        digits = np.frombuffer(joined, dtype=np.uint8).reshape(-1, n) - ord("0")
        # bytes below '0' wrap past 9 too
        if (digits <= 9).all():
            return digits
    rows = []
    for r, line in enumerate(body):
        try:
            symbols = parse_symbols(line, sep)
        except ValueError as e:
            raise RowError(r, str(e)) from e
        if len(symbols) != n:
            raise RowError(r, f"expected {n} symbols, got {len(symbols)}")
        rows.append(symbols)
    return rows


def parse_code_file(text: str) -> CodeBook:
    lines = _numbered(text)
    header_line, header = next(lines, (0, None))
    if header is None:
        raise CodeFileError("line 0: missing header line")
    body = [line for _, line in lines]

    fields = {}
    for tok in header.split():
        if "=" not in tok:
            raise CodeFileError(f"line {header_line}: bad header token {tok!r}")
        key, _, value = tok.partition("=")
        fields[key] = value
    if "q" not in fields or "n" not in fields:
        raise CodeFileError(f"line {header_line}: header needs q= and n=")
    try:
        (n,) = parse_ints([fields["n"]])
        sizes = tuple(parse_ints(fields["q"].split(",")))
    except ValueError as e:
        raise CodeFileError(f"line {header_line}: {e}") from e
    if len(sizes) == 1:
        sizes = sizes * n
    if len(sizes) != n:
        raise CodeFileError(f"line {header_line}: q profile length != n")
    alphabet = AlphabetSpec(sizes)

    meta = {k: v for k, v in fields.items() if k not in ("q", "n", "name")}
    try:
        rows = _body_rows(body, n, _separator(sizes))
        return CodeBook.from_symbols(alphabet, rows, name=fields.get("name", ""), meta=meta)
    except RowError as e:
        # a line number is found again only here: body row r is item r + 1 of _numbered
        lineno, _ = next(itertools.islice(_numbered(text), e.row + 1, None))
        raise CodeFileError(f"line {lineno}: {e.detail}") from e


@dataclass
class ReportDocument:
    """Deterministic JSON-serializable record of one command run."""

    command: list[str]
    parameters: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    seed: int | None = None

    def to_json(self) -> str:
        doc = {
            "tool": "asymcodes",
            "version": __version__,
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "flags": self.flags,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"

    @staticmethod
    def from_json(text: str) -> "ReportDocument":
        doc = json.loads(text)
        return ReportDocument(
            command=doc["command"],
            parameters=doc["parameters"],
            results=doc["results"],
            flags=doc["flags"],
            seed=doc["seed"],
        )
