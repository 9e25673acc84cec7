"""Words, code books, and the distance metrics of the asymmetric error model.

Everything here is a pure function over immutable values.  A Word is a
fixed-length sequence of integer symbols, each drawn from a per-coordinate
alphabet {0..q_i-1}; a CodeBook is a duplicate-free, lexicographically
ordered set of words over one alphabet profile.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


def enum_cap_from_environment() -> int:
    """The enumeration cap ASYMCODES_ENUM_CAP sets, or 10^6 when unset.
    Raises ValueError, naming the variable, unless it is a positive integer."""
    raw = os.environ.get("ASYMCODES_ENUM_CAP")
    if raw is None:
        return 10**6
    if not (raw.isdigit() and raw.isascii() and int(raw) >= 1):
        raise ValueError(f"ASYMCODES_ENUM_CAP must be a positive integer, got {raw!r}")
    return int(raw)


# The one enumeration cap; check_cap reads it at every call.
try:
    DEFAULT_ENUM_CAP = enum_cap_from_environment()
except ValueError:
    # Importing never fails on a bad setting: no size fits under a cap of 0,
    # and check_cap reports the setting when it refuses one.
    DEFAULT_ENUM_CAP = 0


class AlphabetMismatch(ValueError):
    """Two operands do not share the same alphabet profile."""


class EnumerationCapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap."""


def check_cap(size: int, what: str) -> None:
    """Raise EnumerationCapExceeded if an enumeration of `size` items would
    exceed DEFAULT_ENUM_CAP.  Every exhaustive operation calls this before
    it allocates.  Under a cap below 1, a bad ASYMCODES_ENUM_CAP raises its
    ValueError.  A size of 2^64 or more is named by its bit length."""
    if size > DEFAULT_ENUM_CAP:
        _refuse(what, _shown(size, 2**64))


def _shown(value: int, exact_below: int = 2**14_000) -> str:
    """An integer as a message prints it: in full below `exact_below` (the
    default keeps inside str()'s 4300-digit limit), else by its bit length;
    a float (a count that overflowed to inf) as str() prints it."""
    if not isinstance(value, int) or abs(value) < exact_below:
        return str(value)
    return f"{'at least ' if value > 0 else 'at most -'}2^{abs(value).bit_length() - 1}"


def _refuse(what: str, size: str) -> None:
    if DEFAULT_ENUM_CAP < 1:
        enum_cap_from_environment()
    raise EnumerationCapExceeded(f"{what}: {size} exceeds enumeration cap {DEFAULT_ENUM_CAP}")


def _lex_words(q: int, k: int, what: str) -> np.ndarray:
    """Every length-k word over 0..q-1 as a (q^k, k) array in lex order and
    the narrowest unsigned dtype: the one full listing of a word space, checked
    against the cap before it allocates.  A refusal names the listing as
    `q^k what: size`.  As q >= 2, q^k exceeds the cap once k passes its bit
    length; past that and 64, k alone refuses, `what: q^k`, without
    building q^k."""
    if k > max(DEFAULT_ENUM_CAP.bit_length(), 64):
        _refuse(what, f"{_shown(q)}^{_shown(k)}")
    check_cap(q**k, f"{_shown(q)}^{k} {what}")
    return np.indices((q,) * k, dtype=np.min_scalar_type(q - 1)).reshape(k, q**k).T


class DecodingError(Exception):
    """Base class for decoder outcomes that do not produce a codeword."""


class DecodeFailure(DecodingError):
    """No codeword is consistent with the received word."""


class DecodeAmbiguity(DecodingError):
    """More than one codeword is consistent with the received word."""

    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(f"{len(self.candidates)} codewords qualify")


def _integer(value, what: str) -> int:
    """A number a value type reads, by the integer rule of `_index_symbols`
    (operator.index): a float or any other non-integer raises ValueError
    naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _at_least(value, low: int, what: str) -> int:
    """`_integer`, then a ValueError naming `what` below `low`."""
    value = _integer(value, what)
    if value < low:
        raise ValueError(f"{what} must be >= {low}")
    return value


def _named(value) -> str:
    """A refused argument as a message names it without failing: an integer
    (numpy's too) by `_shown`, a string, a float or None by its repr,
    anything else by its type's name."""
    if isinstance(value, (int, np.integer)):
        return _shown(int(value))
    return repr(value) if value is None or isinstance(value, (str, float)) else type(value).__name__


def _typed(value, cls: type, what: str):
    """value, if it is a `cls`; else a ValueError naming `what` and value,
    before any attribute of value is read."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{what} {_named(value)} is not {article} {cls.__name__}")
    return value


@dataclass(frozen=True)
class AlphabetSpec:
    """Per-coordinate alphabet sizes; coordinate i ranges over 0..sizes[i]-1."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(_integer(q, "alphabet size") for q in self.sizes))
        if len(self.sizes) < 1:
            raise ValueError("alphabet needs at least one coordinate")
        if any(q < 2 for q in self.sizes):
            raise ValueError("every alphabet size must be >= 2")
        # the byte values that are symbols on every coordinate, for the
        # range check of `_read_word`
        object.__setattr__(self, "_common_bytes", bytes(range(min(*self.sizes, 256))))

    @classmethod
    def uniform(cls, q: int, n: int) -> "AlphabetSpec":
        return cls((q,) * n)

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.sizes)) == 1

    @property
    def q(self) -> int:
        """Common symbol count; only defined for uniform alphabets."""
        if not self.is_uniform:
            raise ValueError("alphabet profile is mixed; no single q")
        return self.sizes[0]

    def __len__(self) -> int:
        return len(self.sizes)


def _separator(sizes: Sequence[int]) -> str:
    """How words print: digit strings while every alphabet size is at most
    10, comma-separated integers otherwise."""
    return "" if all(q <= 10 for q in sizes) else ","


def _index_symbols(symbols: Iterable) -> tuple[int, ...]:
    """The one integer rule for symbols: ints (bools among them) and numpy
    integers pass, by operator.index, and come back as a tuple of plain
    ints; anything else, a float or a numpy bool included, raises
    ValueError naming its coordinate."""
    symbols = tuple(symbols)
    try:
        return tuple(map(operator.index, symbols))
    except TypeError:
        for i, s in enumerate(symbols):
            try:
                operator.index(s)
            except TypeError:
                raise ValueError(f"symbol {s!r} at coordinate {i} is not an integer") from None
        raise


@dataclass(frozen=True)
class Word:
    """An immutable word over an alphabet profile."""

    symbols: tuple[int, ...]
    alphabet: AlphabetSpec

    def __post_init__(self):
        object.__setattr__(self, "symbols", _read_word(self.symbols, self.alphabet))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __str__(self) -> str:
        return _separator(self.alphabet.sizes).join(map(str, self.symbols))


def _read_word(x, alphabet: AlphabetSpec | None = None) -> tuple[int, ...]:
    """The one reader of a single word operand: a Word's symbols, or any
    other operand's as plain ints by the integer rule of `_index_symbols`.
    With an alphabet, a Word must carry it and any other operand have one
    symbol per coordinate (else AlphabetMismatch), each inside its alphabet
    (else ValueError naming the coordinate); a non-iterable, ValueError."""
    if isinstance(x, Word):
        if alphabet is not None and x.alphabet != alphabet:
            raise AlphabetMismatch("word alphabet profile does not match")
        return x.symbols
    try:
        symbols = tuple(x)
    except TypeError:
        raise ValueError(f"word {x!r} is not a sequence of symbols") from None
    if alphabet is None:
        return _index_symbols(symbols)
    sizes = alphabet.sizes
    if len(symbols) != len(sizes):
        raise AlphabetMismatch(f"word length {len(symbols)} != alphabet length {len(sizes)}")
    try:
        # bytes() of the tuple (of an array it would read the buffer) takes
        # each symbol by __index__, as operator.index does, and only in 0..255
        raw = bytes(symbols)
    except (TypeError, ValueError):
        symbols = _index_symbols(symbols)
    else:
        symbols = tuple(raw)
        # nothing left of raw: every symbol lies below every alphabet size
        if not raw.translate(None, alphabet._common_bytes) or all(map(operator.lt, symbols, sizes)):
            return symbols
    for i, (s, q) in enumerate(zip(symbols, sizes)):
        if not 0 <= s < q:
            raise ValueError(f"symbol {_shown(s)} at coordinate {i} outside 0..{_shown(q - 1)}")
    return symbols


class RowError(ValueError):
    """A code-book row lies outside the alphabet or repeats an earlier row;
    `row` indexes the input rows and `detail` is the message without it."""

    def __init__(self, row: int, detail: str):
        self.row, self.detail = row, detail
        super().__init__(f"row {row}: {detail}")


def _row_array(rows, n: int) -> np.ndarray:
    """Rows as a 2-D integer array of n columns.  An array of an integer
    dtype passes as it is; an object array (symbols past int64) is read as
    sequence rows, and any other dtype is rejected.  Sequence rows follow
    the integer rule of `_index_symbols`, and a RowError names the first
    row that breaks it; they become uint8 when every symbol lies in
    0..255, else int64, or object for symbols past int64, so that the
    range check still names them."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != n:
            raise ValueError(f"rows of shape {rows.shape} do not have {n} columns")
        if rows.dtype.kind in "iu":
            return rows
        if rows.dtype.kind != "O":
            raise ValueError(f"rows of dtype {rows.dtype} are not integer symbols")
        rows = rows.tolist()
    try:
        rows = list(rows)
    except TypeError:
        raise ValueError(f"code book rows {rows!r} are not iterable") from None
    for r, row in enumerate(rows):
        try:
            length = len(row)
        except TypeError:
            raise RowError(r, f"{row!r} is not a sequence of symbols") from None
        if length != n:
            raise RowError(r, f"word length {length} != alphabet length {n}")
    try:
        # bytes() takes each symbol by __index__, as operator.index does,
        # and only in 0..255: the integer rule in one C pass for the rows
        # of every alphabet up to 256 symbols (the per-row route alone costs
        # build-verify about 6 % of its wall time; see BENCH_15.json)
        flat = bytes(itertools.chain.from_iterable(rows))
    except (TypeError, ValueError):
        pass
    else:
        return np.frombuffer(flat, dtype=np.uint8).reshape(len(rows), n)
    for r, row in enumerate(rows):
        try:
            rows[r] = _index_symbols(row)
        except ValueError as e:
            raise RowError(r, str(e)) from None
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), n)


def _sorted_rows(rows, sizes: tuple[int, ...]) -> np.ndarray:
    """The one validation of a code book: the rows, checked against the
    alphabet and lex-sorted, as a read-only array of the narrowest unsigned
    dtype that holds every alphabet.  Raises RowError for the first input
    row with a symbol outside its alphabet, else for the first input row
    that repeats an earlier one (the sort is stable)."""
    rows = _row_array(rows, len(sizes))
    outside = ((rows < 0) | (rows >= np.array(sizes))).any(axis=1)
    if outside.any():
        r = int(np.argmax(outside))
        try:
            _read_word(rows[r].tolist(), AlphabetSpec(sizes))
        except ValueError as e:
            raise RowError(r, str(e)) from None
    rows = rows.astype(np.min_scalar_type(max(sizes) - 1), copy=False)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    repeats = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1)) + 1
    if len(repeats):
        k = repeats[np.argmin(order[repeats])]
        text = _separator(sizes).join(map(_shown, rows[k].tolist()))
        raise RowError(int(order[k]), f"duplicate codeword {text}")
    rows.flags.writeable = False
    return rows


def _trusted_word(symbols: tuple[int, ...], alphabet: AlphabetSpec) -> Word:
    """A Word over symbols already checked against alphabet, sharing the
    tuple: no copy and no second check."""
    w = object.__new__(Word)
    vars(w).update(symbols=symbols, alphabet=alphabet)
    return w


@dataclass(frozen=True, eq=False, init=False)
class CodeBook:
    """A duplicate-free set of words, iterated in lexicographic order.

    One read-only, lex-sorted integer array, `_symbol_array`, holds the
    codewords and is validated once, when the code book is made; `words`,
    `symbol_rows` and `symbol_set` are derived from it on first use.
    """

    alphabet: AlphabetSpec
    _symbol_array: np.ndarray
    name: str
    meta: dict

    def __init__(self, alphabet: AlphabetSpec, words: Iterable[Word], name: str = "", meta=None):
        """A code book from Words over `alphabet`.  Raises ValueError for
        words that are not iterable or an item that is not a Word, and
        AlphabetMismatch for a Word over another alphabet."""
        try:
            words = tuple(words)
        except TypeError:
            raise ValueError(f"code book words {words!r} are not iterable") from None
        for i, w in enumerate(words):
            if not isinstance(w, Word):
                raise ValueError(f"code book item {i}, {w!r}, is not a Word")
            if w.alphabet != alphabet:
                raise AlphabetMismatch("all words must share the code book alphabet")
        self._fill(alphabet, [w.symbols for w in words], name, {} if meta is None else meta)

    def _fill(self, alphabet, rows, name, meta):
        rows = _sorted_rows(rows, alphabet.sizes)
        vars(self).update(alphabet=alphabet, _symbol_array=rows, name=name, meta=meta)

    @classmethod
    def from_symbols(
        cls,
        alphabet: AlphabetSpec,
        rows: Iterable[Sequence[int]] | np.ndarray,
        name: str = "",
        meta: dict | None = None,
    ) -> "CodeBook":
        """A code book from rows (sequences, Words or a 2-D integer array)
        in any order.  Raises RowError, a ValueError naming the input row,
        for a row that is not a sequence, a symbol outside the alphabet or
        a repeated row, and ValueError for rows that are not iterable."""
        book = cls.__new__(cls)
        book._fill(alphabet, rows, name, dict(meta or {}))
        return book

    @cached_property
    def symbol_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._symbol_array.tolist()))

    @cached_property
    def symbol_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.symbol_rows)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(_trusted_word(r, self.alphabet) for r in self.symbol_rows)

    def word(self, i: int) -> Word:
        """The i-th codeword in lex order, built alone: `words` builds all."""
        return _trusted_word(tuple(self._symbol_array[i].tolist()), self.alphabet)

    def matrix(self) -> np.ndarray:
        """Codewords as a fresh, writable int64 array, one row per word, lex
        order: a copy for callers' arithmetic.  The package itself reads and
        writes the narrow read-only `_symbol_array` (uint8 up to 256
        symbols), the one copy of the words, and never calls this."""
        return self._symbol_array.astype(np.int64)

    @property
    def n(self) -> int:
        return len(self.alphabet)

    def __len__(self) -> int:
        return len(self._symbol_array)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, item) -> bool:
        return _read_word(item) in self.symbol_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeBook):
            return NotImplemented
        same = np.array_equal(self._symbol_array, other._symbol_array)
        return self.alphabet == other.alphabet and same

    def __hash__(self) -> int:
        return hash((self.alphabet, self._symbol_array.tobytes()))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<CodeBook{label} n={self.n} size={len(self)}>"


@dataclass(frozen=True)
class WeightEnumerator:
    """Hamming-weight counts A_w for w = 0..n."""

    length: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.length + 1:
            raise ValueError("counts must have one entry per weight 0..n")
        if any(c < 0 for c in self.counts):
            raise ValueError("weight counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def evaluate(self, X: int, Y: int) -> int:
        """Sum over w of A_w * X^(n-w) * Y^w, in exact integer arithmetic."""
        n = self.length
        return sum(a * X ** (n - w) * Y**w for w, a in enumerate(self.counts))


def weight_w(x: Word | Sequence[int]) -> int:
    """Integer sum of the symbols (not the Hamming weight)."""
    return sum(_read_word(x))


def _check_same_profile(x, y):
    xs, ys = _read_word(x), _read_word(y)
    if len(xs) != len(ys):
        raise AlphabetMismatch("words have different lengths")
    if isinstance(x, Word) and isinstance(y, Word) and x.alphabet != y.alphabet:
        raise AlphabetMismatch("words have different alphabet profiles")
    return xs, ys


def asym_distance(x, y) -> int:
    """Asymmetric distance: the larger of the two one-sided gains."""
    xs, ys = _check_same_profile(x, y)
    up = down = 0
    for a, b in zip(xs, ys):
        if b > a:
            up += b - a
        elif a > b:
            down += a - b
    return max(up, down)


# Pairs per row block of the metric verifiers: a block's intermediates are
# 512 KB to 1 MB, which keeps peak memory flat and the block in cache.
_PAIR_BLOCK = 1 << 16


def _packed(bits: np.ndarray) -> np.ndarray:
    """A (rows, k) bool matrix packed into zero-padded uint64 columns."""
    packed = np.zeros((len(bits), -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    packed[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1)
    return packed.view(np.uint64)


def _overlap(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """popcount(a & b) summed over the packed columns, broadcast."""
    out = np.bitwise_count(a[..., 0] & b[..., 0]).astype(dtype, copy=False)
    for k in range(1, a.shape[-1]):
        out += np.bitwise_count(a[..., k] & b[..., k])
    return out


def _thermometer(mat: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Each row of `mat` in thermometer code, packed: symbol s on a q-ary
    coordinate becomes s ones in q-1 bits, so for any two words
    popcount(y & ~x) is the total symbol gain going x -> y."""
    coord = np.repeat(np.arange(len(sizes)), np.array(sizes) - 1)
    level = np.concatenate([np.arange(q - 1) for q in sizes])
    return _packed(mat[:, coord] > level)


def _pair_scan(rows: int, block, floor: int, best=None, window=None) -> tuple[int, int, int]:
    """The closest-pair scan of both metric kernels: (distance, i, j), i < j,
    for a closest pair of rows, or the first one seen at distance <= floor.
    block(a, b, e) gives the distances of rows a..b-1 to rows a+1..e-1, as
    integers below their dtype's maximum, which masks the pairs j <= i;
    window(i, d) is the row past which none lies within d of row i.  Only a
    strictly closer pair replaces `best` (the seed, or None), so with no
    seed and no window a "yes" gives the first closest pair in (i, j) order.
    """

    def end(i):
        return rows if window is None else window(i, best[0])

    a = 0
    while a < rows - 1 and (best is None or best[0] > floor):
        b = min(rows, a + max(1, _PAIR_BLOCK // (end(a) - a)))
        b = min(b, a + max(1, _PAIR_BLOCK // (end(b - 1) - a)))
        e = end(b - 1)
        if e > a + 1:
            d = block(a, b, e)
            # row a+r meets column a+1+k; mask the pairs with k < r (j <= i)
            d[:, : b - a - 1][np.tri(b - a, b - a - 1, -1, dtype=bool)] = np.iinfo(d.dtype).max
            flat = int(d.argmin())
            if best is None or d.flat[flat] < best[0]:
                r, k = divmod(flat, e - a - 1)
                best = (int(d.flat[flat]), a + r, a + 1 + k)
        a = b
    return best


def _min_asym_pair(c: CodeBook, stop_at: int | None = None) -> tuple[int, int, int]:
    """The kernel of `min_asym_distance`: (distance, i, j), i < j indexing
    `c.words`, for a closest pair, or with stop_at set the first one seen at
    distance <= stop_at."""
    if len(_typed(c, CodeBook, "c")) < 2:
        raise ValueError("need at least two codewords")
    mat = c._symbol_array
    packed = _thermometer(mat, c.alphabet.sizes)
    weight = mat.sum(axis=1, dtype=np.int64)
    order = np.argsort(weight, kind="stable")
    packed, weight = packed[order], weight[order]
    dtype = np.min_scalar_type(packed.shape[1] * 64 + 1)
    # Seed with neighbours in weight order.  With rows sorted by weight the
    # gain from the lighter word is the larger one-sided count, i.e. d_a.
    seed = _overlap(packed[1:], ~packed[:-1], dtype)
    s = int(seed.argmin())

    def window(i, d):
        # rows past this one are at distance >= d from row i (Kløve)
        return int(np.searchsorted(weight, weight[i] + d, side="left"))

    d, i, j = _pair_scan(
        len(c),
        lambda a, b, e: _overlap(packed[None, a + 1 : e], ~packed[a:b, None], dtype),
        floor=1 if stop_at is None else max(1, stop_at),  # distinct words are >= 1 apart
        best=(int(seed[s]), s, s + 1),
        window=window,
    )
    return (d, *sorted((int(order[i]), int(order[j]))))


def min_asym_distance(c: CodeBook) -> int:
    """Exhaustive minimum asymmetric distance over all codeword pairs.

    Every word is packed in thermometer code (symbol s on a q-ary coordinate
    is s ones in q-1 bits), so the one-sided gain going x -> y is
    popcount(y & ~x), exactly, for any alphabet profile.  Rows are sorted by
    symbol sum w; as gain(x->y) - gain(y->x) = w(y) - w(x), the gain from the
    lighter word is d_a.  Kløve's bound d_a(x, y) >= |w(x) - w(y)| confines
    the search to pairs whose sums differ by less than the best distance
    found so far, which neighbours in weight order seed.  `is_lm_code`
    shares its packing, popcount and scan; `is_t_code` answers from one scan.
    """
    return _min_asym_pair(c)[0]


def _asym_witness(c: CodeBook, t: int) -> tuple[int, int, int] | None:
    """None iff `is_t_code`, else (distance, i, j) for a pair within t."""
    t = _at_least(t, 1, "t")
    if len(_typed(c, CodeBook, "c")) < 2:
        return None
    pair = _min_asym_pair(c, stop_at=t)
    return pair if pair[0] <= t else None


def is_t_code(c: CodeBook, t: int) -> bool:
    """True iff every pair of distinct codewords has asymmetric distance > t."""
    return _asym_witness(c, t) is None


def weight_enumerator(c: CodeBook) -> WeightEnumerator:
    """Counts of codewords by Hamming weight."""
    nonzero = (_typed(c, CodeBook, "c")._symbol_array != 0).sum(axis=1)
    counts = np.bincount(nonzero, minlength=c.n + 1)
    return WeightEnumerator(c.n, tuple(counts.tolist()))


def _up_ball_size(room: Sequence[int], budget: int) -> int:
    """Number of words y >= r with total gain at most budget, where room[i]
    is the most coordinate i can gain: one DP over the coordinates, with
    ways[s] the count of gain vectors so far that spend exactly s."""
    ways = [1] + [0] * budget
    for g in room:
        if g:
            prefix = list(itertools.accumulate(ways))
            ways = prefix[: g + 1] + [prefix[s] - prefix[s - g - 1] for s in range(g + 1, budget + 1)]
    return sum(ways)


def _up_ball(r: tuple[int, ...], sizes: Sequence[int], budget: int) -> Iterator[tuple[int, ...]]:
    """Every word y >= r with sum(y - r) <= budget inside the alphabet, once
    each and in lex order.  A word is reached by raising coordinates in
    nondecreasing order; raising a later coordinate gives a lex smaller
    subtree, so those branches are popped first."""
    stack = [(r, 0, budget)]
    while stack:
        y, start, left = stack.pop()
        yield y
        if left:
            for i in range(start, len(y)):
                if y[i] < sizes[i] - 1:
                    stack.append((y[:i] + (y[i] + 1,) + y[i + 1 :], i, left - 1))


def decode_asymmetric(c: CodeBook, received: Word | Sequence[int], t: int):
    """Decoder for the pure-decrement channel.

    Returns the unique codeword x with x >= received coordinatewise and
    total decrement at most t; raises DecodeAmbiguity (candidates in lex
    order) / DecodeFailure otherwise.  Looks up the received word's up-ball,
    the words it can have come from, in the code book; the ball's size is
    checked against the enumeration cap before it is listed, by its exact
    count only where the stars-and-bars bound exceeds the cap.  The
    received word is read against the code's alphabet by `_read_word`.
    """
    t = _at_least(t, 0, "t")
    rs = _read_word(received, c.alphabet)
    sizes = c.alphabet.sizes
    gaps = list(map(operator.sub, sizes, rs))  # q - s: one more than the room
    # no word gains more than the rooms' sum, so a larger t lists the same ball
    budget = min(t, sum(gaps) - len(gaps))
    # Stars and bars: the k coordinates with room take at most C(k+b, b)
    # gain vectors of total <= b, room or not, so only a bound past the cap
    # needs the exact count
    k = len(gaps) - gaps.count(1)
    if math.comb(k + budget, budget) > DEFAULT_ENUM_CAP:
        check_cap(_up_ball_size([g - 1 for g in gaps], budget), f"radius-{_shown(t)} up-ball")
    hits = list(filter(c.symbol_set.__contains__, _up_ball(rs, sizes, budget)))
    if not hits:
        raise DecodeFailure(f"no codeword within {_shown(t)} decrements of {rs}")
    candidates = [_trusted_word(y, c.alphabet) for y in hits]
    if len(candidates) > 1:
        raise DecodeAmbiguity(candidates)
    return candidates[0]


def _check_wrap(q: int, ell: int) -> None:
    """Under wrap, a step of at most ell has one direction only if q > 2*ell."""
    if q <= 2 * ell:
        raise ValueError(f"wrap-around direction is ambiguous for q={_shown(q)}, ell={_shown(ell)}")


def d_ell_distance(x, y, ell: int, wrap: bool = False) -> int:
    """Limited-magnitude distance counting erroneous coordinates.

    The step rule: d = a - b is how far a sits above b and -d how far b
    sits above a, both taken mod q under wrap.  A coordinate within ell
    one way counts for that side; the distance is the larger count, or
    n+1 if a moved coordinate is within ell neither way.  Wrap needs
    q > 2*ell or the direction is ambiguous.  q comes from the alphabet
    of a Word operand; wrap on two plain sequences raises ValueError
    rather than guess q from the symbols.
    """
    ell = _at_least(ell, 1, "ell")
    xs, ys = _check_same_profile(x, y)
    if wrap:
        if isinstance(x, Word):
            q = x.alphabet.q
        elif isinstance(y, Word):
            q = y.alphabet.q
        else:
            raise ValueError("wrap-around needs q: pass at least one operand as a Word")
        _check_wrap(q, ell)
    m_xy = m_yx = 0
    for a, b in zip(xs, ys):
        d, back = a - b, b - a
        if wrap:
            d, back = d % q, back % q
        if 0 < d <= ell:
            m_xy += 1
        elif 0 < back <= ell:
            m_yx += 1
        elif d:
            return len(xs) + 1
    return max(m_xy, m_yx)


def _lm_kernels(q: int, ell: int, wrap: bool) -> np.ndarray:
    """The step rule of `d_ell_distance` as three q x q tables over (x symbol,
    y symbol): y within ell above x, x within ell above y, and a moved pair
    within ell neither way."""
    d = np.arange(q)[None, :] - np.arange(q)[:, None]
    back = -d
    if wrap:
        d, back = d % q, back % q
    above_y = (d > 0) & (d <= ell)
    above_x = (back > 0) & (back <= ell)
    return np.stack([above_y, above_x, (d != 0) & ~above_y & ~above_x])


def _lm_pair(c: CodeBook, t_tilde: int, ell: int, wrap: bool = False) -> tuple[int, int, int]:
    """The kernel of `is_lm_code`: (distance, i, j) for a closest pair under
    the limited-magnitude distance, or the first one seen at distance <=
    t_tilde.  i < j index `c.words`; the arguments are as `is_lm_code`
    checks them, on a code of at least two words.  Each count of
    `d_ell_distance` sums one q x q boolean table K at (x_i, y_i) over the
    coordinates: with every word packed one-hot (bit i*q + y_i) and as its
    rows K[x_i, :] side by side, the count for x and y is
    popcount(K-rows(x) & one-hot(y)), the packed AND-and-popcount of the
    asymmetric kernel.
    """
    mat = c._symbol_array
    rows, n, q = len(c), c.n, c.alphabet.q
    onehot = _packed(np.eye(q, dtype=bool)[mat].reshape(rows, n * q))
    left = [_packed(k[mat].reshape(rows, n * q)) for k in _lm_kernels(q, ell, wrap)]
    dtype = np.min_scalar_type(n + 2)  # its maximum masks pairs; distances stop at n + 1

    def block(a, b, e):
        up, down, over = (_overlap(k[a:b, None], onehot[None, a + 1 : e], dtype) for k in left)
        return np.where(over > 0, n + 1, np.maximum(up, down))

    return _pair_scan(rows, block, floor=t_tilde)


def _lm_witness(c: CodeBook, t_tilde: int, ell: int, wrap: bool) -> tuple[int, int, int] | None:
    """None iff `is_lm_code`, else (distance, i, j) for a pair within t_tilde."""
    t_tilde, ell = _at_least(t_tilde, 1, "t_tilde"), _at_least(ell, 1, "ell")
    if not _typed(c, CodeBook, "c").alphabet.is_uniform:
        raise ValueError("limited-magnitude distances need a uniform alphabet")
    if wrap:
        _check_wrap(c.alphabet.q, ell)
    if len(c) < 2:
        return None
    pair = _lm_pair(c, t_tilde, ell, wrap)
    return pair if pair[0] <= t_tilde else None


def is_lm_code(c: CodeBook, t_tilde: int, ell: int, wrap: bool = False) -> bool:
    """True iff all distinct pairs have limited-magnitude distance >= t_tilde + 1."""
    return _lm_witness(c, t_tilde, ell, wrap) is None
