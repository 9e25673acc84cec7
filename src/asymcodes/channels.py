"""Directed single-step transition graphs and the brute-force channel oracle.

A ChannelGraph lists which one-step symbol transitions an error may cause
on one coordinate; a ProductChannel is one graph per coordinate.  The
generic oracle `corrects_t_errors` checks that error balls of radius t
around distinct codewords are pairwise disjoint, which is the uniform
correctability criterion used to validate every construction in this
package.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .words import (
    AlphabetMismatch,
    AlphabetSpec,
    CodeBook,
    EnumerationCapExceeded,
    Word,
)

CHANNEL_KINDS = ("Z", "T", "Rq", "chain", "L1-wrap")

DEFAULT_BALL_CAP = 10**7


@dataclass(frozen=True)
class ChannelGraph:
    """Single-coordinate error graph: edge (a, b) means one step may turn a into b."""

    q: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
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
        return cls((graph,) * n)

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


def _ball_symbols(
    x: tuple[int, ...],
    ch: ProductChannel,
    radius: int,
    counting: str,
    coord_radius: int,
    cap: int,
) -> set[tuple[int, ...]]:
    if counting not in ("magnitude", "coordinates"):
        raise ValueError("counting must be 'magnitude' or 'coordinates'")
    # Each coordinate offers (symbol, cost) options; a word is in the ball iff
    # its per-coordinate costs sum to <= radius.
    options = []
    for a, g in zip(x, ch.coordinates):
        dist = g.step_distances[a]
        if counting == "magnitude":
            # Steps commute across coordinates, so a symbol costs its BFS distance.
            options.append([(s, d) for s, d in enumerate(dist) if d is not None and d <= radius])
        else:
            # Staying is free; a move of up to coord_radius steps costs one.
            options.append([(a, 0)] + [
                (s, 1) for s, d in enumerate(dist) if d is not None and 0 < d <= coord_radius
            ])
    n = len(x)
    out: set[tuple[int, ...]] = set()

    def rec(i, budget, prefix):
        if len(out) > cap:
            raise EnumerationCapExceeded(f"error ball exceeds cap {cap}")
        if i == n:
            out.add(tuple(prefix))
            return
        for s, d in options[i]:
            if d <= budget:
                prefix.append(s)
                rec(i + 1, budget - d, prefix)
                prefix.pop()

    rec(0, radius, [])
    return out


def error_ball(
    x: Word,
    ch: ProductChannel,
    radius: int,
    counting: str = "magnitude",
    coord_radius: int = 1,
    cap: int = DEFAULT_BALL_CAP,
) -> frozenset[Word]:
    """All words reachable from x by channel errors within the given budget.

    magnitude counting: at most `radius` single-step transitions in total
    (several steps may hit the same coordinate).  coordinate counting: at
    most `radius` coordinates move, each along at most `coord_radius` steps.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    _check_compatible(x.alphabet, ch)
    raw = _ball_symbols(x.symbols, ch, radius, counting, coord_radius, cap)
    return frozenset(Word(s, x.alphabet) for s in raw)


def corrects_t_errors(
    c: CodeBook,
    ch: ProductChannel,
    t: int,
    counting: str = "magnitude",
    coord_radius: int = 1,
    cap: int = DEFAULT_BALL_CAP,
) -> bool:
    """True iff radius-t error balls around distinct codewords are disjoint."""
    if t < 0:
        raise ValueError("t must be >= 0")
    _check_compatible(c.alphabet, ch)
    covered: dict[tuple[int, ...], int] = {}
    for idx, word in enumerate(c.symbol_rows):
        for y in _ball_symbols(word, ch, t, counting, coord_radius, cap):
            prev = covered.get(y)
            if prev is not None and prev != idx:
                return False
            covered[y] = idx
        if len(covered) > cap:
            raise EnumerationCapExceeded(f"coverage map exceeds cap {cap}")
    return True


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
    cap: int = DEFAULT_BALL_CAP,
) -> SimulationResult:
    """Monte Carlo exercise of the channel model.

    Each trial sends a uniformly random codeword.  Give exactly one of p and
    force_errors.  With p, every coordinate independently takes one outgoing
    step with probability p (at most one step per coordinate); with
    force_errors, exactly that many distinct coordinates (among those that
    can err) take one step.  Every channel decodes through one coverage
    table built from the radius-t balls (magnitude counting): a received
    word decodes to the codeword whose ball alone contains it.  On pure-Z
    products this is the decrement decoder's rule, the unique codeword at
    or above the received word within t decrements.  A word in no ball or
    in several counts as a failure, as does a wrong codeword.
    Deterministic for a fixed seed.
    """
    if (p is None) == (force_errors is None):
        raise ValueError("provide exactly one of p and force_errors")
    if p is not None and not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if force_errors is not None and force_errors < 0:
        raise ValueError("force_errors must be >= 0")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    _check_compatible(c.alphabet, ch)
    if len(c) == 0:
        raise ValueError("cannot simulate an empty code")
    rows = c.symbol_rows
    # word -> codeword index, or -1 where two balls overlap
    coverage: dict[tuple[int, ...], int] = {}
    for idx, word in enumerate(rows):
        for y in _ball_symbols(word, ch, t, "magnitude", 1, cap):
            coverage[y] = idx if coverage.get(y, idx) == idx else -1
        if len(coverage) > cap:
            raise EnumerationCapExceeded(f"coverage map exceeds cap {cap}")

    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        sent = rng.randrange(len(rows))
        received = list(rows[sent])
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
        if coverage.get(tuple(received), -1) != sent:
            failures += 1
    return SimulationResult(trials, failures, seed, t, p, force_errors, "ball-lookup")
