"""Binary<->ternary concatenation: the two-bits-to-one-trit squeeze and back.

The squeeze map sends a bit pair to a trit (00, 11 -> 0; 01 -> 1; 10 -> 2);
its one-to-many inverse expands a trit to bit pairs (0 -> {00, 11};
1 -> {01}; 2 -> {10}).  Expanding a code that corrects one error on the
induced ternary channel yields a binary code correcting one decrement
error; the constructors here verify that precondition with the channel
oracle before expanding.
"""

from __future__ import annotations

import numpy as np

from .channels import ProductChannel, ball_overlap, make_channel
from .groups import Pairing
from .words import AlphabetSpec, CodeBook, _typed, check_cap

SQUEEZE = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 2}
EXPANSIONS = {0: ((0, 0), (1, 1)), 1: ((0, 1),), 2: ((1, 0),)}
# The two maps as lookup tables: _SQUEEZE[a, b] is the trit of bits ab, and
# _EXPAND[s, j] the bit pair of trit s for choice j (only 0 has two).
_SQUEEZE = np.array([[SQUEEZE[a, b] for b in (0, 1)] for a in (0, 1)], dtype=np.uint8)
_EXPAND = np.array([[e[j % len(e)] for j in (0, 1)] for e in EXPANSIONS.values()], dtype=np.uint8)


def _require_binary(c: CodeBook):
    if any(q != 2 for q in _typed(c, CodeBook, "c").alphabet.sizes):
        raise ValueError("fold input must be a binary code")


def fold_to_ternary(c: CodeBook, p: Pairing) -> CodeBook:
    """Squeeze a binary code through a pairing; duplicates collapse.

    Output layout: the singleton bit (if any) first, then one trit per
    pair in pairing order.
    """
    _require_binary(c)
    _typed(p, Pairing, "p").check_covers(c.n)
    sizes = ((2,) if p.singleton is not None else ()) + (3,) * len(p.pairs)
    bits = c._symbol_array
    a, b = (bits[:, [pair[k] for pair in p.pairs]] for k in (0, 1))
    trits = _SQUEEZE[a, b]
    if p.singleton is not None:
        trits = np.hstack([bits[:, [p.singleton]], trits])
    name = f"fold({c.name})" if c.name else ""
    return CodeBook.from_symbols(AlphabetSpec(sizes), np.unique(trits, axis=0), name=name)


def _expand(c: CodeBook, targets: list[tuple[int, ...]], name: str = "") -> CodeBook:
    """The one expansion of bits and trits into a binary code.

    targets[i] lists the output positions of input coordinate i: one for
    a bit, which copies through, and two for a trit, which expands by
    EXPANSIONS (0 to 00 or 11, 1 to 01, 2 to 10).  A codeword with z zero
    trits gives 2^z words; the k-th of them takes bit j of k for the pair
    of its j-th zero trit.  The total, the sum of 2^z (W(2,1) of
    `weight_enumerator` on a pure ternary code), is counted in exact
    integers and checked against the cap before the listing is allocated.
    """
    mat = c._symbol_array
    zero = (mat == 0) & (np.array([len(t) for t in targets]) == 2)
    zeros = zero.sum(axis=1)
    check_cap(sum(1 << z for z in zeros.tolist()), "binary image words")
    counts = 1 << zeros
    # output word o is the k-th expansion of codeword source[o]
    source = np.repeat(np.arange(len(mat)), counts)
    k = np.arange(len(source)) - np.repeat(np.cumsum(counts) - counts, counts)
    # zero trits before each coordinate: the bit of k that coordinate reads
    shift = np.cumsum(zero, axis=1) - zero
    out = np.empty((len(source), sum(len(t) for t in targets)), dtype=np.uint8)
    for i, t in enumerate(targets):
        s = mat[source, i]
        if len(t) == 1:
            out[:, t[0]] = s
        else:
            out[:, list(t)] = _EXPAND[s, (k >> shift[source, i]) & 1]
    return CodeBook.from_symbols(AlphabetSpec.uniform(2, out.shape[1]), out, name=name)


def expand_to_binary(c: CodeBook, p: Pairing) -> CodeBook:
    """Expand a folded code back to binary words under the same pairing.

    Input layout must match fold_to_ternary's output: optional leading bit
    for the singleton, then one trit per pair.
    """
    has_single = _typed(p, Pairing, "p").singleton is not None
    expected = ((2,) if has_single else ()) + (3,) * len(p.pairs)
    if _typed(c, CodeBook, "c").alphabet.sizes != expected:
        raise ValueError("code layout does not match the pairing")
    return _expand(c, ([(p.singleton,)] if has_single else []) + list(p.pairs))


def image_channel(sizes: tuple[int, ...]) -> ProductChannel:
    """The product channel of a bit/trit code: Z on every bit, T on every
    trit.  A code that corrects one error on it expands to a binary 1-code."""
    return ProductChannel(tuple(make_channel("Z" if q == 2 else "T", q) for q in sizes))


def _image(c: CodeBook, check: bool, label: str) -> CodeBook:
    """Check that c corrects one error on its product channel (a failure
    names the received word two error balls share), then expand each trit
    into an adjacent bit pair and pass each bit through, in position order."""
    sizes = c.alphabet.sizes
    if check and (overlap := ball_overlap(c, image_channel(sizes), 1)):
        received, x, y = overlap
        raise ValueError("input does not correct one error on its product channel: "
                         f"{received} lies in the radius-1 error balls of {x} and {y}")
    widths = [2 if q == 3 else 1 for q in sizes]
    ends = np.cumsum(widths).tolist()
    targets = [tuple(range(e - w, e)) for w, e in zip(widths, ends)]
    return _expand(c, targets, name=f"{label}({c.name})" if c.name else "")


def construct_even(c: CodeBook, check: bool = True) -> CodeBook:
    """Binary length-2m code from a ternary code that corrects one error on
    the 0<->1 / 0<->2 channel.  Size equals the weight enumerator at (2, 1)."""
    if any(q != 3 for q in _typed(c, CodeBook, "c").alphabet.sizes):
        raise ValueError("construct_even expects a pure ternary code")
    return _image(c, check, "even")


def construct_odd_mixed(c: CodeBook, check: bool = True) -> CodeBook:
    """Binary code from a mixed bit/trit code that corrects one error on the
    corresponding product channel; bits copy, trits expand."""
    if any(q not in (2, 3) for q in _typed(c, CodeBook, "c").alphabet.sizes):
        raise ValueError("coordinates must be binary or ternary")
    return _image(c, check, "mixed")


def prefix_parts(c0: CodeBook, c1: CodeBook) -> CodeBook:
    """Two ternary parts behind a literal bit: part 0 prefixed with 0,
    part 1 with 1, one code over bit x trit^m."""
    sizes = _typed(c0, CodeBook, "c0").alphabet.sizes
    if _typed(c1, CodeBook, "c1").alphabet.sizes != sizes or any(q != 3 for q in sizes):
        raise ValueError("parts must be ternary codes over the same length")
    alpha = AlphabetSpec((2,) + sizes)
    parts = [np.insert(part._symbol_array, 0, bit, axis=1) for bit, part in enumerate((c0, c1))]
    return CodeBook.from_symbols(alpha, np.vstack(parts))


def construct_extended(c0: CodeBook, c1: CodeBook, check: bool = True) -> CodeBook:
    """Binary length-(2m+1) code from two ternary parts behind a literal bit.

    The prefixed code (`prefix_parts`) must correct one error on the
    bit x trit^m product channel, which encodes both the per-part
    condition and the cross-part separation.
    """
    return construct_odd_mixed(prefix_parts(c0, c1), check=check)


def is_ternary_code(c: CodeBook, p: Pairing) -> bool:
    """True iff squeezing through p and expanding back reproduces c exactly."""
    return expand_to_binary(fold_to_ternary(c, p), p) == c


def _pair_is_foldable(rows: frozenset[tuple[int, ...]], a: int, b: int) -> bool:
    # The pair may fold iff flipping a 00 <-> 11 on (a, b) maps codewords
    # to codewords.
    for w in rows:
        if w[a] == w[b]:
            flipped = list(w)
            flipped[a] = 1 - w[a]
            flipped[b] = 1 - w[b]
            if tuple(flipped) not in rows:
                return False
    return True


def find_pairing(c: CodeBook) -> Pairing | None:
    """Search for a pairing witnessing that c is a (generalized) ternary code.

    Backtracks over perfect matchings built greedily from the smallest
    uncovered coordinate, trying partners in ascending order; for odd
    lengths one coordinate may be left as a bit (tried after all partners).
    Returns the first pairing found, or None.
    """
    _require_binary(c)
    n = c.n
    rows = c.symbol_set
    good = {a: [b for b in range(a + 1, n) if _pair_is_foldable(rows, a, b)] for a in range(n)}

    def rec(uncovered: list[int], single: int | None) -> Pairing | None:
        if not uncovered:
            return Pairing((), singleton=single)
        a, rest = uncovered[0], uncovered[1:]
        for b in good[a]:
            if b in rest:
                got = rec([x for x in rest if x != b], single)
                if got is not None:
                    return Pairing(((a, b),) + got.pairs, got.singleton)
        if n % 2 and single is None:
            return rec(rest, a)
        return None

    return rec(list(range(n)), None)
