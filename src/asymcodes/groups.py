"""Finite abelian groups, group-checksum codes, and coordinate pairings.

The codes built here fix an abelian group G of order n+1, assign the n
non-identity elements (in lexicographic component order) as coordinate
coefficients, and keep the words whose weighted element sum hits a chosen
target.  Cyclic G gives the classic checksum codes on {1..n}; the general
construction allows any abelian group and, with the element-order
condition, nonbinary symbols.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

import numpy as np

from .linearq import _is_prime
from .words import (AlphabetSpec, CodeBook, _at_least, _integer, _lex_words, _named, _shown,
                    _typed, check_cap)

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups Z_d1 + ... + Z_dk."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(_integer(d, "cyclic factor") for d in self.factors)
        object.__setattr__(self, "factors", factors)
        if any(d < 2 for d in self.factors):
            raise ValueError("cyclic factors must be >= 2")
        if self.order < 2:
            raise ValueError("group order must be >= 2")

    @classmethod
    def cyclic(cls, m: int) -> "AbelianGroup":
        return cls((m,))

    @classmethod
    def parse(cls, text: str) -> "AbelianGroup":
        """Parse '7' or '3x3' or '2x2x3' into a group."""
        from .io import parse_ints  # here, so that importing the package skips io and json
        return cls(tuple(parse_ints(text.lower().split("x"))))

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def identity(self) -> GroupElement:
        return (0,) * len(self.factors)

    def contains(self, g: GroupElement) -> bool:
        return len(g) == len(self.factors) and all(
            0 <= x < d for x, d in zip(g, self.factors)
        )

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def neg(self, a: GroupElement) -> GroupElement:
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def element_order(self, a: GroupElement) -> int:
        out = 1
        for x, d in zip(a, self.factors):
            o = d // gcd(x, d)
            out = out * o // gcd(out, o)
        return out

    @cached_property
    def nonidentity_elements(self) -> tuple[GroupElement, ...]:
        """All non-identity elements in lexicographic component order, their
        count checked against the enumeration cap first."""
        check_cap(self.order - 1, f"non-identity elements of group {self}")
        ranges = [range(d) for d in self.factors]
        return tuple(e for e in itertools.product(*ranges) if any(e))

    def __str__(self) -> str:
        return "x".join(map(_shown, self.factors))


def best_cr_group(n: int) -> AbelianGroup:
    """The order-(n+1) group, elementary abelian per prime, that maximizes
    the size of the zero-sum checksum code of length n."""
    n = _integer(n, "length")
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 1
    factors = []
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return AbelianGroup(tuple(sorted(factors)))


def cr_code(
    G: AbelianGroup,
    g: GroupElement | None = None,
    q: int = 2,
    name: str = "",
) -> CodeBook:
    """Checksum code over G: words x in {0..q-1}^n with sum x_i * g_i = g.

    g_i runs over the non-identity elements of G in lexicographic order,
    so n = |G| - 1.  For q > 2 every non-identity element must have order
    at least q; groups violating that are rejected.  The code is listed by
    meet in the middle: every word of the first n // 2 coordinates joins
    the words of the other ceil(n / 2) whose weighted sum completes it to
    g, so only the two half-tables and the code itself are allocated, each
    checked against the enumeration cap first.
    """
    _typed(G, AbelianGroup, "group")
    if g is None:
        g = G.identity
    elif not isinstance(g, Iterable):
        raise ValueError(f"target {_named(g)} is not a tuple of group components")
    else:
        g = tuple(_integer(x, "target component") for x in g)
    if not G.contains(g):
        shown = ", ".join(map(_shown, g)) + ("," if len(g) == 1 else "")
        raise ValueError(f"target ({shown}) is not an element of {G}")
    q = _at_least(q, 2, "q")
    n = G.order - 1
    label = name or f"cr-{G}-g{''.join(map(_shown, g))}-q{_shown(q)}"
    coeffs = G.nonidentity_elements
    if q > 2:
        low = [e for e in coeffs if G.element_order(e) < q]
        if low:
            raise ValueError(
                f"group {G} has elements of order < q={_shown(q)} (e.g. {low[0]}); "
                "the nonbinary construction requires order >= q"
            )
    h = n // 2
    # every suffix (length n - h) and prefix (length h) in lex order, larger first
    suffixes, prefixes = (_lex_words(q, k, "half-words") for k in (n - h, h))
    # a suffix's weighted sum, and the sum a prefix needs from its suffix,
    # as mixed-radix indices of group elements
    have = np.zeros(len(suffixes), dtype=np.int64)
    need = np.zeros(len(prefixes), dtype=np.int64)
    for j, d in enumerate(G.factors):
        comp = np.array([e[j] for e in coeffs], dtype=np.int64)
        have = have * d + (suffixes @ comp[h:]) % d
        need = need * d + (g[j] - prefixes @ comp[:h]) % d
    # suffixes grouped by sum, lex order kept within each group
    order = np.argsort(have, kind="stable")
    bucket = np.bincount(have, minlength=G.order)
    counts = bucket[need]
    size = int(counts.sum())
    check_cap(size, f"checksum code {label}")

    # prefix i, then each suffix of its bucket: the code in lex order.
    # Codeword r's suffix sits as far into its bucket as r sits into its
    # prefix's run of codewords.
    shift = (np.cumsum(bucket) - bucket)[need] - (np.cumsum(counts) - counts)
    owner = np.repeat(np.arange(len(prefixes)), counts)
    picked = order[np.arange(size) + shift[owner]]
    rows = np.concatenate([prefixes[owner], suffixes[picked]], axis=1)
    return CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows, name=label)


def vt_code(n: int, g: int = 0, q: int = 2) -> CodeBook:
    """Cyclic-group checksum code: sum of i * x_i = g mod n+1, coefficients 1..n."""
    n, g = _integer(n, "length"), _integer(g, "target")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= g <= n:
        raise ValueError("g must satisfy 0 <= g <= n")
    label = f"vt-{_shown(n)}-g{_shown(g)}-q{_shown(_integer(q, 'q'))}"
    return cr_code(AbelianGroup.cyclic(n + 1), (g,), q, name=label)


@dataclass(frozen=True)
class Pairing:
    """Disjoint ordered coordinate pairs, optionally one leftover coordinate.

    Coordinates are 0-based.  Each pair (a, b) is read in that order when
    two bits are squeezed into one trit.  The singleton, present only for
    odd lengths, passes through unchanged.
    """

    pairs: tuple[tuple[int, int], ...]
    singleton: int | None = None

    def __post_init__(self):
        pairs = tuple((_integer(a, "coordinate"), _integer(b, "coordinate")) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if self.singleton is not None:
            object.__setattr__(self, "singleton", _integer(self.singleton, "coordinate"))
        seen = set()
        for a, b in self.pairs:
            if a == b:
                raise ValueError("a pair must join two distinct coordinates")
            for c in (a, b):
                if c in seen:
                    raise ValueError(f"coordinate {c} appears twice")
                seen.add(c)
        if self.singleton is not None and self.singleton in seen:
            raise ValueError("singleton coordinate also appears in a pair")

    @property
    def n(self) -> int:
        return 2 * len(self.pairs) + (1 if self.singleton is not None else 0)

    def covered(self) -> frozenset[int]:
        out = {c for p in self.pairs for c in p}
        if self.singleton is not None:
            out.add(self.singleton)
        return frozenset(out)

    def check_covers(self, n: int):
        if self.covered() != frozenset(range(n)) or self.n != n:
            raise ValueError(f"pairing does not cover coordinates 0..{n - 1} exactly")


def canonical_pairing(arg: AbelianGroup | int, mode: str = "inverse") -> Pairing:
    """The two stock pairings.

    mode='inverse': arg is a group (or a length n, read as the cyclic group
    of order n+1); coordinate of element h is paired with the coordinate of
    -h.  Requires odd group order so no element is self-inverse.  When G is
    cyclic of prime order p = 3 (mod 4), -1 is a quadratic non-residue, so
    each pair (h, -h) holds exactly one residue, and the pair is read with
    the residue's coordinate first.  Multiplying the coordinates by any
    residue r then sends each pair (h, -h) to (rh, -rh) with the same
    orientation, so the fold of a checksum code is invariant under the
    residue multipliers acting as a plain permutation of its trits (for
    length 6 the fold of vt_code(6, 0) is exactly {000, 111, 222}).  Every
    other odd-order group reads each pair lower index first.  Orientation
    never changes what is_ternary_code answers: flipping a pair composes
    fold and expand with the same 1<->2 trit swap.
    mode='vt-odd': arg is an odd length n; pair coordinate i with n-1-i
    (0-based) and leave the middle coordinate as a bit.
    """
    if mode == "inverse":
        G = arg
        if not isinstance(G, AbelianGroup):
            G = AbelianGroup.cyclic(_integer(arg, "length") + 1)
        if G.order % 2 == 0:
            raise ValueError(
                f"group {G} has even order; some element is self-inverse"
            )
        p = G.order
        residue_first = len(G.factors) == 1 and p % 4 == 3 and _is_prime(p)
        elems = G.nonidentity_elements
        index = {e: i for i, e in enumerate(elems)}
        pairs = []
        used = set()
        for i, h in enumerate(elems):
            if i in used:
                continue
            j = index[G.neg(h)]
            used.update((i, j))
            if residue_first and pow(h[0], (p - 1) // 2, p) != 1:
                i, j = j, i
            pairs.append((i, j))
        return Pairing(tuple(pairs))
    if mode == "vt-odd":
        n = _integer(arg, "length")
        if n % 2 == 0:
            raise ValueError("vt-odd pairing requires odd length")
        pairs = tuple((i, n - 1 - i) for i in range((n - 1) // 2))
        return Pairing(pairs, singleton=(n - 1) // 2)
    raise ValueError(f"unknown pairing mode {mode!r}")
