"""Binary<->ternary concatenation: the two-bits-to-one-trit squeeze and back.

The squeeze map sends a bit pair to a trit (00, 11 -> 0; 01 -> 1; 10 -> 2);
its one-to-many inverse expands a trit to bit pairs (0 -> {00, 11};
1 -> {01}; 2 -> {10}).  Expanding a code that corrects one error on the
induced ternary channel yields a binary code correcting one decrement
error; the constructors here verify that precondition with the channel
oracle before expanding.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channels import ProductChannel, corrects_t_errors, make_channel
from .groups import Pairing
from .words import DEFAULT_ENUM_CAP, AlphabetSpec, CodeBook, check_cap

SQUEEZE = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 2}
EXPANSIONS = {0: ((0, 0), (1, 1)), 1: ((0, 1),), 2: ((1, 0),)}


def _require_binary(c: CodeBook):
    if any(q != 2 for q in c.alphabet.sizes):
        raise ValueError("fold input must be a binary code")


def fold_to_ternary(c: CodeBook, p: Pairing) -> CodeBook:
    """Squeeze a binary code through a pairing; duplicates collapse.

    Output layout: the singleton bit (if any) first, then one trit per
    pair in pairing order.
    """
    _require_binary(c)
    p.check_covers(c.n)
    sizes = ((2,) if p.singleton is not None else ()) + (3,) * len(p.pairs)
    out_alpha = AlphabetSpec(sizes)
    rows = set()
    for w in c.symbol_rows:
        head = (w[p.singleton],) if p.singleton is not None else ()
        rows.add(head + tuple(SQUEEZE[(w[a], w[b])] for a, b in p.pairs))
    return CodeBook.from_symbols(out_alpha, sorted(rows), name=f"fold({c.name})" if c.name else "")


def expand_to_binary(c: CodeBook, p: Pairing) -> CodeBook:
    """Expand a folded code back to binary words under the same pairing.

    Input layout must match fold_to_ternary's output: optional leading bit
    for the singleton, then one trit per pair.
    """
    has_single = p.singleton is not None
    expected = ((2,) if has_single else ()) + (3,) * len(p.pairs)
    if c.alphabet.sizes != expected:
        raise ValueError("code layout does not match the pairing")
    n = p.n
    rows = set()
    for w in c.symbol_rows:
        head = w[0] if has_single else None
        trits = w[1:] if has_single else w
        for combo in itertools.product(*[EXPANSIONS[t] for t in trits]):
            word = [0] * n
            if has_single:
                word[p.singleton] = head
            for (a, b), bits in zip(p.pairs, combo):
                word[a], word[b] = bits
            rows.add(tuple(word))
    return CodeBook.from_symbols(AlphabetSpec.uniform(2, n), sorted(rows))


def _expansion_size(c: CodeBook) -> int:
    """Words `_expand_in_place` makes: sum over codewords of 2^(zero trits).

    On a pure ternary code this is W(2,1) of `weight_enumerator`.  A zero
    bit copies through without doubling, so mixed codes count trits only.
    """
    trit = np.array(c.alphabet.sizes) == 3
    zeros = ((c.matrix() == 0) & trit).sum(axis=1)
    return sum(1 << z for z in zeros.tolist())


def _expand_in_place(c: CodeBook, name: str) -> CodeBook:
    """Expand each ternary coordinate into an adjacent bit pair; binary
    coordinates pass through in position order."""
    check_cap(_expansion_size(c), DEFAULT_ENUM_CAP, "binary image words")
    n_out = sum(2 if q == 3 else 1 for q in c.alphabet.sizes)
    rows = set()
    for w in c.symbol_rows:
        parts = []
        for s, q in zip(w, c.alphabet.sizes):
            parts.append(EXPANSIONS[s] if q == 3 else ((s,),))
        for combo in itertools.product(*parts):
            rows.add(tuple(b for piece in combo for b in piece))
    return CodeBook.from_symbols(AlphabetSpec.uniform(2, n_out), sorted(rows), name=name)


def _mixed_channel(alphabet: AlphabetSpec) -> ProductChannel:
    graphs = []
    for q in alphabet.sizes:
        if q == 2:
            graphs.append(make_channel("Z", 2))
        elif q == 3:
            graphs.append(make_channel("T", 3))
        else:
            raise ValueError("constructions accept only binary and ternary coordinates")
    return ProductChannel(tuple(graphs))


def construct_even(c: CodeBook, check: bool = True) -> CodeBook:
    """Binary length-2m code from a ternary code that corrects one error on
    the 0<->1 / 0<->2 channel.  Size equals the weight enumerator at (2, 1)."""
    if any(q != 3 for q in c.alphabet.sizes):
        raise ValueError("construct_even expects a pure ternary code")
    if check and not corrects_t_errors(c, _mixed_channel(c.alphabet), 1):
        raise ValueError("input does not correct one error on the ternary channel")
    return _expand_in_place(c, name=f"even({c.name})" if c.name else "")


def construct_odd_mixed(c: CodeBook, check: bool = True) -> CodeBook:
    """Binary code from a mixed bit/trit code that corrects one error on the
    corresponding product channel; bits copy, trits expand."""
    if any(q not in (2, 3) for q in c.alphabet.sizes):
        raise ValueError("coordinates must be binary or ternary")
    if check and not corrects_t_errors(c, _mixed_channel(c.alphabet), 1):
        raise ValueError("input does not correct one error on its product channel")
    return _expand_in_place(c, name=f"mixed({c.name})" if c.name else "")


def construct_extended(c0: CodeBook, c1: CodeBook, check: bool = True) -> CodeBook:
    """Binary length-(2m+1) code from two ternary parts behind a literal bit.

    Part 0 is prefixed with 0, part 1 with 1; the combined prefixed code
    must correct one error on the bit x trit^m product channel, which
    encodes both the per-part condition and the cross-part separation.
    """
    if c0.alphabet != c1.alphabet or any(q != 3 for q in c0.alphabet.sizes):
        raise ValueError("parts must be ternary codes over the same length")
    m = c0.n
    alpha = AlphabetSpec((2,) + (3,) * m)
    rows = [(0,) + w for w in c0.symbol_rows] + [(1,) + w for w in c1.symbol_rows]
    prefixed = CodeBook.from_symbols(alpha, rows)
    return construct_odd_mixed(prefixed, check=check)


def is_ternary_code(c: CodeBook, p: Pairing) -> bool:
    """True iff squeezing through p and expanding back reproduces c exactly."""
    _require_binary(c)
    p.check_covers(c.n)
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
    good = {}
    for a in range(n):
        for b in range(a + 1, n):
            if _pair_is_foldable(rows, a, b):
                good.setdefault(a, []).append(b)

    allow_single = n % 2 == 1

    def rec(uncovered: list[int], single_used: bool, acc: list[tuple[int, int]]):
        if not uncovered:
            last = acc_single[0] if single_used else None
            return Pairing(tuple(acc), singleton=last)
        a = uncovered[0]
        rest = uncovered[1:]
        for b in good.get(a, ()):
            if b in rest:
                acc.append((a, b))
                got = rec([x for x in rest if x != b], single_used, acc)
                if got is not None:
                    return got
                acc.pop()
        if allow_single and not single_used:
            acc_single[0] = a
            got = rec(rest, True, acc)
            if got is not None:
                return got
            acc_single[0] = None
        return None

    acc_single: list[int | None] = [None]
    return rec(list(range(n)), False, [])
