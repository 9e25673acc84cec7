"""Directed single-step transition graphs and the brute-force channel oracle.

A ChannelGraph lists which one-step symbol transitions an error may cause
on one coordinate; a ProductChannel is one graph per coordinate.  The
generic oracle `corrects_t_errors` checks that error balls of radius t
around distinct codewords are pairwise disjoint, which is the uniform
correctability criterion used to validate every construction in this
package; `ball_overlap` names a received word two balls share.  One ball
enumerator, `_balls`, lists the balls for the oracle, `error_ball`, the
decoding table of `simulate_channel` and the search graphs of `cyclic`,
sorted by word and then by owner, so the balls that share a word sit
next to each other; only this module builds, compares or reads the word
indices.  It reads only the channel graphs, never the distance metrics
of `words`, so the oracle and the metric path check each other.
"""

from __future__ import annotations

import math
import numbers
import random
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .words import (
    AlphabetMismatch,
    AlphabetSpec,
    CodeBook,
    Word,
    _at_least,
    _integer,
    _read_word,
    _shown,
    _trusted_word,
    _typed,
    check_cap,
)

CHANNEL_KINDS = ("Z", "T", "Rq", "chain", "L1-wrap")


@dataclass(frozen=True)
class ChannelGraph:
    """Single-coordinate error graph: edge (a, b) means one step may turn a into b."""

    q: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        q = _integer(self.q, "alphabet size")
        edges = frozenset((_integer(a, "edge end"), _integer(b, "edge end")) for a, b in self.edges)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "edges", edges)
        if self.q < 2:
            raise ValueError("alphabet size must be >= 2")
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (0 <= a < self.q and 0 <= b < self.q):
                raise ValueError(f"edge ({a},{b}) outside alphabet 0..{self.q - 1}")

    @cached_property
    def out_map(self) -> tuple[tuple[int, ...], ...]:
        outs = [[] for _ in range(self.q)]
        for a, b in self.edges:
            outs[a].append(b)
        return tuple(tuple(sorted(o)) for o in outs)

    @cached_property
    def step_distances(self) -> tuple[tuple[int | None, ...], ...]:
        """Directed BFS distance between symbols; None means unreachable."""
        table = []
        for src in range(self.q):
            dist: list[int | None] = [None] * self.q
            dist[src] = 0
            queue = deque([src])
            while queue:
                a = queue.popleft()
                for b in self.out_map[a]:
                    if dist[b] is None:
                        dist[b] = dist[a] + 1
                        queue.append(b)
            table.append(tuple(dist))
        return tuple(table)


def make_channel(kind: str, q: int) -> ChannelGraph:
    """Build one of the standard single-coordinate channels.

    Z (q=2): 1->0 only.  T (q=3): 0<->1 and 0<->2, no 1<->2.  Rq: steps
    between cyclically adjacent symbols in both directions.  chain: i->i-1
    with no wrap.  L1-wrap: i->i-1 mod q, including 0->q-1.
    """
    q = _integer(q, "q")
    if kind == "Z":
        if q != 2:
            raise ValueError("Z channel requires q=2")
        edges = {(1, 0)}
    elif kind == "T":
        if q != 3:
            raise ValueError("T channel requires q=3")
        edges = {(0, 1), (0, 2), (1, 0), (2, 0)}
    elif kind == "Rq":
        edges = set()
        for i in range(q):
            edges.add((i, (i + 1) % q))
            edges.add((i, (i - 1) % q))
    elif kind == "chain":
        edges = {(i, i - 1) for i in range(1, q)}
    elif kind == "L1-wrap":
        edges = {(i, (i - 1) % q) for i in range(q)}
    else:
        raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")
    return ChannelGraph(q, frozenset(edges))


@dataclass(frozen=True)
class ProductChannel:
    """One channel graph per coordinate; mixed alphabets allowed."""

    coordinates: tuple[ChannelGraph, ...]

    def __post_init__(self):
        if len(self.coordinates) < 1:
            raise ValueError("need at least one coordinate")

    @classmethod
    def power(cls, graph: ChannelGraph, n: int) -> "ProductChannel":
        return cls((graph,) * _integer(n, "n"))

    @classmethod
    def mixed(cls, graphs: Iterable[ChannelGraph]) -> "ProductChannel":
        return cls(tuple(graphs))

    @property
    def alphabet(self) -> AlphabetSpec:
        return AlphabetSpec(tuple(g.q for g in self.coordinates))

    @property
    def n(self) -> int:
        return len(self.coordinates)


def _check_compatible(alphabet: AlphabetSpec, ch: ProductChannel):
    if alphabet.sizes != tuple(g.q for g in ch.coordinates):
        raise AlphabetMismatch("alphabet profile does not match the channel")


def _moves(g: ChannelGraph, counting: str, coord_radius: int,
           radius: int) -> list[list[tuple[int, int]]]:
    """The one counting rule: per symbol of g, each move it can make as
    (target, cost out of the error budget), for the moves that cost at most
    `radius`.  Staying is free and not listed."""
    if counting == "magnitude":
        # Steps commute across coordinates, so a symbol costs its BFS distance.
        return [[(s, d) for s, d in enumerate(dist) if d and d <= radius]
                for dist in g.step_distances]
    # A move of up to coord_radius steps costs one.
    reach = coord_radius if radius else 0
    return [[(s, 1) for s, d in enumerate(dist) if d and d <= reach]
            for dist in g.step_distances]


def _slots(moves: list, budget: int, dtype) -> list[tuple[np.ndarray, np.ndarray]]:
    """One graph's moves as slots of (steps, costs) in `dtype`, each indexed
    by the codeword's symbol: what moving that symbol adds to it (target
    minus symbol) and what the move costs.  Unused slots cost budget + 1,
    which no budget affords."""
    slots = []
    for k in range(max(map(len, moves))):
        picked = [m[k] if k < len(m) else (a, budget + 1) for a, m in enumerate(moves)]
        targets, costs = np.array(picked, dtype=dtype).T
        slots.append((targets - np.arange(len(moves), dtype=dtype), costs))
    return slots


def _ways(moves: list) -> list[tuple[int, np.ndarray]]:
    """One graph's costs, each with how many moves of that cost each
    symbol has."""
    counts = [Counter(c for _, c in m) for m in moves]
    return [(c, np.array([n[c] for n in counts])) for c in sorted(set().union(*counts))]


def _limbs_of(sizes: tuple[int, ...]) -> list[range]:
    """Coordinate ranges of a word's mixed-radix index, one per int64 limb:
    each limb's digits span fewer than 2^63 values.

    Coordinate 0 is the most significant digit, so sorting words by their
    limbs, first limb first, sorts them lexicographically.
    """
    limbs, start, span = [], 0, 1
    for i, q in enumerate(sizes):
        if span * q >= 2**63:
            limbs.append(range(start, i))
            start, span = i, 1
        span *= q
    limbs.append(range(start, len(sizes)))
    return limbs


def _ball_count(cols: np.ndarray, ways: list, radius: int) -> int | float:
    """Total size of the balls around the codewords, without listing them,
    from each coordinate's `_ways`.

    left[b, r] counts the prefixes of row r's ball that leave budget b.
    float64 is exact below 2^53 and overflows to inf, which still compares
    as over any cap.  Every prefix extends to a word (staying is free), so
    no partial count exceeds the total.
    """
    left = np.zeros((radius + 1, cols.shape[1]))
    left[radius] = 1
    for col, by_cost in zip(cols, ways):
        nxt = left.copy()
        for c, count in by_cost:
            nxt[: radius + 1 - c] += left[c:] * count.take(col)
        left = nxt
    total = float(left.sum())
    return int(total) if math.isfinite(total) else total


def _index_of(rows: np.ndarray, sizes: tuple[int, ...], dtype=np.int64) -> list[np.ndarray]:
    """Limb indices of words given one row per word: the inverse of
    `_symbols_of`, in `dtype`, which must hold every index."""
    out = []
    for limb in _limbs_of(sizes):
        index = np.zeros(len(rows), dtype=dtype)
        for i in limb:
            index = index * sizes[i] + rows[:, i]
        out.append(index)
    return out


def _expand(cols: np.ndarray, slots: list, radius: int, sizes: tuple[int, ...], total: int,
            dtype):
    """Every codeword's ball at once: (owner, limb indices), one entry per word.

    A word of the ball is its codeword with some coordinates moved, at a
    total cost within the radius; `slots` holds each coordinate's `_slots`.
    One pass over the coordinates gives every live entry each move it can
    afford at that coordinate; the moved entries are listed, and those
    with budget left join the live ones for later coordinates.  A word is
    one choice per coordinate, so each ball lists each of its words once.
    The entries are written in place into arrays of `total`, the count
    `_ball_count` gives.  Owners, limb indices, place values and budgets
    are in `dtype`, which holds every owner and limb index, as are the
    steps and costs of the slots; gathered symbols keep the dtype of `cols`.
    """
    # place[j][i]: the place value of coordinate i in limb j, 0 outside it
    place = _index_of(np.eye(len(sizes), dtype=np.uint8), sizes, dtype)
    live = [np.arange(cols.shape[1], dtype=dtype), *_index_of(cols.T, sizes, dtype)]
    left = np.full(cols.shape[1], radius, dtype=dtype)
    out = [np.empty(total, dtype=dtype) for _ in live]
    for o, x in zip(out, live):
        o[: len(x)] = x
    end = len(left)
    for i, here in enumerate(slots):
        # until an entry keeps budget past a move, the live entries are the rows
        a = cols[i] if len(left) == len(cols[i]) else cols[i][live[0]]
        grown = []
        for steps, costs in here:
            # take casts narrow symbols to native indices in one pass; fancy
            # indexing by them is about twice as slow
            budget = left - costs.take(a)
            k = np.flatnonzero(budget >= 0)
            start, end = end, end + len(k)
            moved = [o[start:end] for o in out]
            np.take(live[0], k, out=moved[0], mode="clip")
            ak = a[k]
            for x, p, m in zip(live[1:], place, moved[1:]):
                np.take(x, k, out=m, mode="clip")
                if p[i]:
                    m += (steps * p[i]).take(ak)
            rest = np.flatnonzero(budget[k])
            if len(rest):
                grown.append((budget[k][rest], [m[rest] for m in moved]))
        if grown:
            left = np.concatenate([left] + [g[0] for g in grown])
            live = [np.concatenate(parts) for parts in zip(live, *(g[1] for g in grown))]
    assert end == total, "the ball count disagrees with the listing"
    owner, *index = out
    return owner, index


def _balls(
    rows: np.ndarray,
    ch: ProductChannel,
    radius: int,
    counting: str,
    coord_radius: int,
):
    """The one ball enumerator: owners (row indices) and limb indices of
    every word in the radius balls around `rows`, sorted by word, then by
    owner, after checking their total size against the cap.

    The listing's one dtype follows the packed key, index * rows + owner,
    of a one-limb word: int32 while the word count times the row count
    stays below 2^31, and int64 while it stays below 2^63; either way the
    key is sorted in place.  Longer words take int64 limbs and lexsort
    (limbs..., owner).  Each distinct graph's `_moves` table, listed once
    per call with the moves the radius affords, gives its dearest cost, its
    `_slots` in that dtype and its `_ways`."""
    if counting not in ("magnitude", "coordinates"):
        raise ValueError("counting must be 'magnitude' or 'coordinates'")
    coord_radius = _at_least(coord_radius, 0, "coord_radius")
    table = {g: _moves(g, counting, coord_radius, radius) for g in set(ch.coordinates)}
    # No word spends more than the dearest listed move of every coordinate,
    # so a larger radius lists the same balls.  Each listed move costs at
    # most the radius and at most that sum, so the clamped budget affords
    # every one.
    dearest = {g: max((c for m in moves for _, c in m), default=0) for g, moves in table.items()}
    budget = min(radius, sum(dearest[g] for g in ch.coordinates))
    sizes = ch.alphabet.sizes
    count = len(rows)
    keys = math.prod(sizes) * count
    dtype = np.int32 if keys < 2**31 else np.int64
    per_graph = {g: (_slots(moves, budget, dtype), _ways(moves))
                 for g, moves in table.items()}
    slots, ways = zip(*(per_graph[g] for g in ch.coordinates))
    cols = rows.T
    total = _ball_count(cols, ways, budget)
    check_cap(total, f"radius-{_shown(radius)} error balls")
    owner, limbs = _expand(cols, slots, budget, sizes, total, dtype)
    if keys >= 2**63:  # several limbs, or a key past int64
        order = np.lexsort((owner, *limbs[::-1]))
        return owner[order], [index[order] for index in limbs]
    (index,) = limbs
    index *= count
    index += owner
    index.sort()
    np.remainder(index, count, out=owner)
    index //= count
    return owner, limbs


def _same_word(limbs: list[np.ndarray], d: int) -> np.ndarray:
    """Entry k of a word-sorted listing, for k below its length minus d:
    True iff its word equals the word d entries on."""
    return np.logical_and.reduce([index[d:] == index[:-d] for index in limbs])


def _word_keys(limbs: list[np.ndarray]) -> np.ndarray:
    """One fixed-width byte string per entry of limb indices, ordered as
    the words are: the limbs, first limb first, written big-endian, compare
    byte by byte as the (never negative) indices do."""
    rows = np.stack(limbs, axis=1).astype(limbs[0].dtype.newbyteorder(">"))
    return rows.view(f"S{rows.shape[1] * rows.itemsize}")[:, 0]


def _symbols_of(limbs: list[np.ndarray], sizes: tuple[int, ...]) -> np.ndarray:
    """Words back from their limb indices, one row per entry."""
    out = np.empty((len(limbs[0]), len(sizes)), dtype=np.int64)
    for index, limb in zip(limbs, _limbs_of(sizes)):
        index = index.copy()
        for i in reversed(limb):
            index, out[:, i] = np.divmod(index, sizes[i])
    return out


def error_ball(
    x: Word | Sequence[int],
    ch: ProductChannel,
    radius: int,
    counting: str = "magnitude",
    coord_radius: int = 1,
) -> frozenset[Word]:
    """All words reachable from x by channel errors within the given budget.

    x is any word operand, read against the channel's alphabet by
    `words._read_word`.  magnitude counting: at most `radius` single-step
    transitions in total (several steps may hit the same coordinate).
    coordinate counting: at most `radius` coordinates move, each along at
    most `coord_radius` steps.
    """
    radius = _at_least(radius, 0, "radius")
    alphabet = ch.alphabet
    rows = np.array([_read_word(x, alphabet)], dtype=np.int64)
    _, limbs = _balls(rows, ch, radius, counting, coord_radius)
    found = _symbols_of(limbs, alphabet.sizes).tolist()
    # every listed word lies inside the alphabet: no second check
    return frozenset(_trusted_word(tuple(s), alphabet) for s in found)


class BallOverlap(NamedTuple):
    """A word lying in the error balls of two distinct codewords x < y."""

    received: Word
    x: Word
    y: Word


def ball_overlap(
    c: CodeBook,
    ch: ProductChannel,
    t: int,
    counting: str = "magnitude",
    coord_radius: int = 1,
) -> BallOverlap | None:
    """None iff radius-t error balls around distinct codewords are disjoint.

    Otherwise the witness: the lexicographically first received word that
    two balls share, and the first two codewords whose balls hold it.
    Every ball is listed once, sorted by word, then by owner: the first two
    adjacent entries that share a word are the witness.  The total ball
    size is counted, and checked against the cap, before anything is listed.
    """
    t = _at_least(t, 0, "t")
    _check_compatible(_typed(c, CodeBook, "c").alphabet, _typed(ch, ProductChannel, "ch"))
    owner, limbs = _balls(c._symbol_array, ch, t, counting, coord_radius)
    shared = np.flatnonzero(_same_word(limbs, 1))
    if not len(shared):
        return None
    k = shared[0]
    received = _symbols_of([index[k : k + 1] for index in limbs], c.alphabet.sizes)[0]
    return BallOverlap(Word(received.tolist(), c.alphabet), c.word(owner[k]), c.word(owner[k + 1]))


def corrects_t_errors(
    c: CodeBook,
    ch: ProductChannel,
    t: int,
    counting: str = "magnitude",
    coord_radius: int = 1,
) -> bool:
    """True iff radius-t error balls around distinct codewords are disjoint."""
    return ball_overlap(c, ch, t, counting, coord_radius) is None


@dataclass(frozen=True)
class SimulationResult:
    trials: int
    failures: int
    seed: int
    t: int
    p: float | None
    force_errors: int | None
    decoder: str

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


def simulate_channel(
    c: CodeBook,
    ch: ProductChannel,
    trials: int,
    seed: int,
    t: int = 1,
    p: float | None = None,
    force_errors: int | None = None,
) -> SimulationResult:
    """Monte Carlo exercise of the channel model.

    Each trial sends a uniformly random codeword.  Give exactly one of p and
    force_errors.  With p, every coordinate independently takes one outgoing
    step with probability p (at most one step per coordinate); with
    force_errors, exactly that many distinct coordinates (among those that
    can err) take one step.  Where fewer can err, every one that can takes
    a step, so any force_errors of n or more draws as n does.  Every channel
    decodes through the sorted listing of the radius-t balls (magnitude
    counting): a received word decodes to the codeword whose ball alone
    contains it, found as a run of one entry between its left and right
    `searchsorted` positions.  On pure-Z products this is the decrement
    decoder's rule, the unique codeword at or above the received word
    within t decrements.  A word in no ball or in several counts as a
    failure, as does a wrong codeword.  The trials' received words, trials
    times n symbols, are checked against the enumeration cap before
    anything is listed.  Deterministic for a fixed seed.
    """
    if (p is None) == (force_errors is None):
        raise ValueError("provide exactly one of p and force_errors")
    if p is not None and not (isinstance(p, numbers.Real) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be a number in [0, 1], got {p!r}")
    if force_errors is not None:
        force_errors = _at_least(force_errors, 0, "force_errors")
    trials, seed, t = _at_least(trials, 0, "trials"), _integer(seed, "seed"), _at_least(t, 0, "t")
    _check_compatible(c.alphabet, ch)
    if len(c) == 0:
        raise ValueError("cannot simulate an empty code")
    check_cap(trials * c.n, f"{_shown(trials)} trials of {c.n} symbols")
    rows = c._symbol_array.tolist()
    owner, limbs = _balls(c._symbol_array, ch, t, "magnitude", 1)
    sizes = c.alphabet.sizes
    sent = np.empty(trials, dtype=np.int64)
    heard = np.empty((trials, c.n), dtype=c._symbol_array.dtype)
    rng = random.Random(seed)
    for trial in range(trials):
        k = rng.randrange(len(rows))
        received = list(rows[k])
        if force_errors is not None:
            errable = [i for i in range(len(received)) if ch.coordinates[i].out_map[received[i]]]
            rng.shuffle(errable)
            for i in errable[:force_errors]:
                received[i] = rng.choice(ch.coordinates[i].out_map[received[i]])
        else:
            for i in range(len(received)):
                outs = ch.coordinates[i].out_map[received[i]]
                if outs and rng.random() < p:
                    received[i] = rng.choice(outs)
        sent[trial], heard[trial] = k, received
    # a received word listed once decodes to that entry's owner; in no ball,
    # or in several, it fails
    keys = _word_keys(limbs)
    wanted = _word_keys(_index_of(heard, sizes, limbs[0].dtype))
    at = np.searchsorted(keys, wanted)
    alone = np.searchsorted(keys, wanted, side="right") - at == 1
    failures = int(np.count_nonzero(np.where(alone, owner.take(at, mode="clip"), -1) != sent))
    return SimulationResult(trials, failures, seed, t, p, force_errors, "ball-lookup")
