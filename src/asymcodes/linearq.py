"""Linear codes over Z_q (q prime): parity checks, the paired-coordinate
concatenation, doubling, and a syndrome decoder.

The concatenation takes an outer [m, k]_q code correcting one +-1 symbol
error and produces a [2m, m+k]_q code for the pure-decrement channel: the
word carries one free symbol a_j per coordinate pair plus the outer symbol
as the in-pair difference.  Fixing the first free symbol to zero and
dropping that coordinate gives the odd-length [2m-1, m+k-1]_q variant.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .words import (
    AlphabetSpec,
    CodeBook,
    DecodeFailure,
    _at_least,
    _integer,
    _lex_words,
    _read_word,
    _typed,
    weight_enumerator,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class MatrixModZq:
    """Generator or parity-check matrix with entries mod q."""

    q: int
    rows: tuple[tuple[int, ...], ...]
    role: str = "generator"

    def __post_init__(self):
        if self.role not in ("generator", "parity"):
            raise ValueError("role must be 'generator' or 'parity'")
        q = _integer(self.q, "modulus")
        object.__setattr__(self, "q", q)
        if q < 2:
            raise ValueError("q must be >= 2")
        rows = tuple(tuple(_integer(x, "matrix entry") % q for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        if self.role == "parity":
            for j in range(self.ncols):
                if all(r[j] == 0 for r in rows):
                    raise ValueError(f"parity-check column {j} is all zero")
        # hashed once: every decode_concat call looks its plan up by H
        object.__setattr__(self, "_hash", hash((q, rows)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def to_text(self) -> str:
        head = f"{self.q} {self.nrows} {self.ncols} {self.role}"
        body = "\n".join(" ".join(str(x) for x in r) for r in self.rows)
        return head + ("\n" + body if body else "") + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MatrixModZq":
        # imported here, so that importing the package skips io and json
        from .io import _numbered, parse_ints
        lines = _numbered(text)
        header_line, header = next(lines, (0, None))
        if header is None:
            raise ValueError("empty matrix text")
        try:
            q, r, ncols, role = header.split()
            q, r, ncols = parse_ints((q, r, ncols))
        except ValueError as e:
            raise ValueError(
                f"line {header_line}: bad matrix header {text.splitlines()[header_line - 1]!r}"
            ) from e
        rows = []
        for lineno, ln in lines:
            try:
                row = tuple(parse_ints(ln.split()))
                if len(row) != ncols:
                    raise ValueError(f"row {len(rows)} has {len(row)} entries, expected {ncols}")
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from e
            rows.append(row)
        if len(rows) != r:
            raise ValueError(f"expected {r} rows, found {len(rows)}")
        return cls(q, tuple(rows), role)


def _rref(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the field Z_q (q prime)."""
    mat = [r[:] for r in rows]
    pivots = []
    lead = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(lead, len(mat)) if mat[i][col] % q), None)
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        inv = pow(mat[lead][col], -1, q)
        mat[lead] = [(x * inv) % q for x in mat[lead]]
        for i in range(len(mat)):
            if i != lead and mat[i][col] % q:
                f = mat[i][col]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat[:lead], pivots


def rank(M: MatrixModZq) -> int:
    if not _is_prime(M.q):
        raise ValueError("rank over Z_q needs q prime")
    return len(_rref([list(r) for r in M.rows], M.q)[0])


def _null_rows(red: list[list[int]], pivots: list[int], n: int, q: int) -> tuple:
    """Basis rows of the null space of a length-n row space, read from its
    reduced row echelon form `red` with `pivots`, as `_rref` returns them."""
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * n
        vec[j] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-red[i][j]) % q
        basis.append(tuple(vec))
    return tuple(basis)


def nullspace(M: MatrixModZq) -> MatrixModZq:
    """Basis of {x : M x^T = 0} as a generator matrix (q prime)."""
    if not _is_prime(M.q):
        raise ValueError("nullspace over Z_q needs q prime")
    red, pivots = _rref([list(r) for r in M.rows], M.q)
    return MatrixModZq(M.q, _null_rows(red, pivots, M.ncols, M.q), "generator")


def _leading_columns(q: int, r: int, top: int, full: bool) -> MatrixModZq:
    """Parity check of the length-r columns over Z_q whose first nonzero entry
    lies in 1..top, in lex order; full=False drops those whose first entry is 0."""
    words = _lex_words(q, r, "column vectors")
    first = words[np.arange(len(words)), (words != 0).argmax(axis=1)]
    keep = (first >= 1) & (first <= top) & ((words[:, 0] != 0) | full)
    return MatrixModZq(q, tuple(map(tuple, words[keep].T.tolist())), "parity")


def hamming_parity_check(q: int, r: int) -> MatrixModZq:
    """Parity check whose columns are all nonzero vectors with leading 1,
    in lexicographic order: (q^r - 1)/(q - 1) columns, distance 3."""
    if not _is_prime(_integer(q, "q")):
        raise ValueError("q must be prime")
    r = _at_least(r, 2, "r")
    return _leading_columns(q, r, 1, True)


def lee_parity_check(q: int, r: int, full: bool = True) -> MatrixModZq:
    """Parity check for single +-1 errors: columns are the vectors whose
    first nonzero entry lies in {1..(q-1)/2}, lexicographic.

    full=True keeps all (q^r - 1)/2 such columns; full=False drops the
    (q^(r-1) - 1)/2 of them whose first entry is 0.
    """
    q = _integer(q, "q")
    if not _is_prime(q) or q % 2 == 0:
        raise ValueError("q must be an odd prime")
    r = _at_least(r, 1, "r")
    return _leading_columns(q, r, (q - 1) // 2, full)


def is_single_rq_correcting(H: MatrixModZq) -> bool:
    """True iff every +-1 single-symbol error has a distinct nonzero syndrome:
    no zero column, no column equal to plus or minus another, 2*col != 0."""
    if H.role != "parity":
        raise ValueError("expected a parity-check matrix")
    if H.nrows == 0:
        return False
    q = H.q
    seen = set()
    for j in range(H.ncols):
        col = H.column(j)
        if not any(col):
            return False
        neg = tuple((-x) % q for x in col)
        if col == neg:
            return False
        if col in seen or neg in seen:
            return False
        seen.add(col)
        seen.add(neg)
    return True


def codewords_of(M: MatrixModZq, name: str = "") -> CodeBook:
    """Explicit enumeration of the linear code M defines (span or kernel):
    every coefficient vector times the generator in one product.  Words of
    a generator with dependent rows repeat; they collapse to one each.  The
    length is M's: an empty null space lists the one zero word."""
    gen = nullspace(M) if _typed(M, MatrixModZq, "M").role == "parity" else M
    q, n, k = M.q, M.ncols, gen.nrows
    coefs = _lex_words(q, k, "codewords")
    rows = np.unique(coefs @ np.array(gen.rows, dtype=np.int64).reshape(k, n) % q, axis=0)
    return CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows, name=name)


def min_hamming_distance(M: MatrixModZq) -> int:
    """Minimum nonzero Hamming weight of the linear code: the smallest
    w >= 1 with A_w > 0 in its weight enumerator (exhaustive)."""
    counts = weight_enumerator(codewords_of(M)).counts
    for w in range(1, len(counts)):
        if counts[w]:
            return w
    raise ValueError("code has no nonzero codeword")


@dataclass(frozen=True)
class ConcatCode:
    """Paired-coordinate concatenated code with its outer parity check."""

    q: int
    m: int
    k: int
    generator: MatrixModZq
    outer_check: MatrixModZq
    shortened: bool

    @property
    def length(self) -> int:
        return 2 * self.m - (1 if self.shortened else 0)

    @property
    def dimension(self) -> int:
        return self.m + self.k - (1 if self.shortened else 0)

    def codebook(self) -> CodeBook:
        label = f"concat-[{self.length},{self.dimension}]_{self.q}"
        return codewords_of(self.generator, name=label)


def concat_code(
    outer_gen: MatrixModZq, shorten_to_odd: bool = False, check: bool = True
) -> ConcatCode:
    """Concatenate an outer [m, k]_q code into a [2m, m+k]_q decrement code.

    Generator rows: for each pair j a row with 1 at both pair positions
    (the free inner symbol), plus each row of the outer reduced basis on
    the second position of every pair.  With shorten_to_odd, the first free
    symbol is fixed to zero and its coordinate dropped: [2m-1, m+k-1]_q.
    The zero outer code [m, 0]_q is valid: its check is the identity.
    """
    if _typed(outer_gen, MatrixModZq, "outer_gen").role != "generator":
        raise ValueError("outer code must be given by a generator matrix")
    q, m = outer_gen.q, outer_gen.ncols
    if not _is_prime(q):
        raise ValueError("q must be prime")
    basis, pivots = _rref([list(r) for r in outer_gen.rows], q)
    k = len(basis)
    if k == m:
        raise ValueError("outer code is the full space; it corrects nothing")
    # the outer check is the null space of that one reduction
    H = MatrixModZq(q, _null_rows(basis, pivots, m, q), "parity")
    if check and not is_single_rq_correcting(H):
        raise ValueError("outer code does not correct a single +-1 symbol error")
    if shorten_to_odd and m + k == 1:
        raise ValueError("shortening the zero outer code of length 1 leaves no generator row")
    rows = np.zeros((m + k, 2 * m), dtype=np.int64)
    rows[:m] = np.repeat(np.eye(m, dtype=np.int64), 2, axis=1)
    rows[m:, 1::2] = np.reshape(basis, (k, m))
    rows = rows[1:, 1:] if shorten_to_odd else rows
    gen = MatrixModZq(q, tuple(map(tuple, rows.tolist())), "generator")
    return ConcatCode(q, m, k, gen, H, shorten_to_odd)


def double_code(c: CodeBook) -> CodeBook:
    """Repeat every symbol twice in place; doubles the asymmetric distance."""
    sizes = tuple(q for q in c.alphabet.sizes for _ in (0, 1))
    name = f"double({c.name})" if c.name else ""
    return CodeBook.from_symbols(AlphabetSpec(sizes), np.repeat(c._symbol_array, 2, axis=1), name=name)


@functools.lru_cache(maxsize=16)
def _syndrome_plan(H_outer: MatrixModZq, shortened: bool) -> tuple:
    """The syndrome map of the concatenated code, precomposed and packed:
    (coef, shifts, mask, table, alphabet).

    The syndrome is linear in the received word y: s = H D y mod q, with D
    the in-pair differences (d_j = y_2j+1 - y_2j, or for the shortened code
    d_0 = y_0 and d_j = y_2j - y_2j-1).  Row k of H D, reduced into 0..q-1,
    sits in `coef` from bit shifts[k] on, in a field as wide as `mask`
    that holds n (q-1)^2, the most a row's sum can reach, so
    sum(coef_i * y_i) carries every row's sum in its own field.

    `table` maps a syndrome to the coordinate a single decrement hit, or
    None where it would be the coordinate the shortened code drops.  Column
    j's syndrome col_j and then -col_j are entered for j ascending, and the
    first entry for a syndrome wins, so repeated columns and q = 2
    (col = -col) resolve to the lowest position, the first-of-pair one.
    `alphabet` is the code's, 0..q-1 on each of the n coordinates.
    """
    q, m = H_outer.q, H_outer.ncols
    n = 2 * m - 1 if shortened else 2 * m
    hd = [[0] * n for _ in range(H_outer.nrows)]  # the rows of H D
    table: dict[tuple[int, ...], int | None] = {}
    for j in range(m):
        # d_j = y[second] - y[first], and the shortened pair 0 is y_0 alone:
        # a decrement of y[first] adds col_j to the syndrome, one of
        # y[second] subtracts it
        if shortened:
            first, second = (None, 0) if j == 0 else (2 * j - 1, 2 * j)
        else:
            first, second = 2 * j, 2 * j + 1
        col = H_outer.column(j)
        for row, x in zip(hd, col):
            row[second] = x
            if first is not None:
                row[first] = -x % q
        table.setdefault(col, first)
        table.setdefault(tuple((-x) % q for x in col), second)
    width = (n * (q - 1) ** 2).bit_length()
    shifts = tuple(k * width for k in range(len(hd)))
    coef = tuple(sum(row[i] << s for row, s in zip(hd, shifts)) for i in range(n))
    return coef, shifts, (1 << width) - 1, table, AlphabetSpec.uniform(q, n)


def decode_concat(H_outer: MatrixModZq, received, shortened: bool = False) -> tuple[int, ...]:
    """Correct at most one decrement error in a concatenated codeword.

    The syndrome of the outer word (the in-pair differences) is one packed
    product with the received word, precomposed per (H_outer, shortened);
    the single +-1 outer error it names is looked up in a table cached with
    it, and the one decremented coordinate is bumped back up mod q, so
    wrap-around decrements (0 -> q-1) are corrected too.  Returns plain
    ints.  The received word is read by `_read_word` against the code's
    alphabet: AlphabetMismatch for a wrong length or a Word over another
    alphabet, ValueError for a symbol that is not an integer (ints, bools
    and numpy integers are) or lies outside 0..q-1.  Raises DecodeFailure,
    naming the syndrome, when no single decrement explains it.
    """
    if _typed(H_outer, MatrixModZq, "H_outer").role != "parity":
        raise ValueError("expected the outer parity-check matrix")
    q = H_outer.q
    coef, shifts, mask, table, alphabet = _syndrome_plan(H_outer, shortened)
    y = _read_word(received, alphabet)
    v = sum(map(operator.mul, coef, y))
    syndrome = tuple((v >> s & mask) % q for s in shifts)
    if not any(syndrome):
        return y
    if syndrome not in table:
        raise DecodeFailure(f"syndrome {syndrome} matches no single +-1 outer error")
    pos = table[syndrome]
    if pos is None:
        raise DecodeFailure(
            f"syndrome {syndrome} matches only a decrement of the dropped coordinate"
        )
    y = list(y)
    y[pos] = (y[pos] + 1) % q
    return tuple(y)
