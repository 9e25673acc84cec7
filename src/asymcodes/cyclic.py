"""Shift-orbit machinery and a max-weight-clique search for shift-closed
ternary codes whose binary images are large.

Vertices of the plain search graph are rotation orbits that survive the
radius-1 ball test on the 0<->1 / 0<->2 ternary channel; two orbits are
adjacent when their union still survives it.  The split graph (odd binary
lengths) holds every orbit twice, behind a literal bit 0 and bit 1; one
builder and one search body serve both.  An orbit's weight is the size of
its binary image, sum over members of 2^(m - hamming weight).  Only the
enumeration cap and the exact strategy's node budget bound a search.
The bundled generator tables are known good orbit representatives with
verified image sizes, kept as regression data for the reports.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import _balls, _same_word
from .ternary import image_channel
from .words import AlphabetSpec, CodeBook, _integer, _lex_words, _named, _shown

# T-channel one-step moves per symbol
_T_STEPS = {0: (1, 2), 1: (0,), 2: (0,)}

# the search strategies, the default first
STRATEGIES = ("exact-clique", "greedy", "randomized-restart")

# the search-budget rule, per unit of `SearchConfig.time_budget`
NODES_PER_UNIT, NODE_FLOOR = 50_000, 10_000
RESTARTS_PER_UNIT, RESTART_CEILING = 2_000, 20_000


@dataclass(frozen=True)
class Orbit:
    """A rotation class of ternary words of length m."""

    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.representative)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def hamming_weight(self) -> int:
        return sum(1 for s in self.representative if s)

    @property
    def weight_score(self) -> int:
        """Binary image size contributed by the whole orbit."""
        return self.size * 2 ** (self.m - self.hamming_weight)


@dataclass(frozen=True)
class SearchConfig:
    """Options of `search_cyclic` and `search_extended`.

    `time_budget` is a node budget, not seconds (`_counts`): the exact
    strategy counts at most NODES_PER_UNIT nodes per unit (at least
    NODE_FLOOR), and randomized-restart runs budget * RESTARTS_PER_UNIT / V
    restarts on V vertices, rounded down and clamped to [1, RESTART_CEILING].
    A budget whose counts overflow (1e308) is refused.  The exact strategy
    is the Russian-doll search of `_max_weight_clique`: each doll root and
    each child made counts as one node.  An exhausted budget returns at least
    the greedy seed, usually the seed itself, with proven_optimal "no";
    meta["dolls"] = "k/V" says how many of the V dolls it finished.
    Split m = 6 is proven at 612 in 166 462 528 nodes (time_budget 3400).
    Every strategy returns the least clique it finds by `_rank`: the
    heaviest, then the one with the smallest sorted keys.  `strategy` is
    one of `STRATEGIES`, the first by default.
    """

    seed: int = 0
    time_budget: float = 60.0
    strategy: str = STRATEGIES[0]

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        budget = self.time_budget
        # compared, not math.isfinite: an int past float range is finite
        if not (isinstance(budget, numbers.Real) and 0 < budget < math.inf):
            raise ValueError(f"time budget must be a positive finite number, got {_named(budget)}")
        try:
            self._counts(1)
        except OverflowError:
            raise ValueError(
                f"time budget {_named(budget)} overflows its node or restart count") from None
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def _counts(self, V: int) -> tuple[int, int]:
        """The one budget rule: the node count, and the restart count on V vertices."""
        budget = self.time_budget
        return (max(NODE_FLOOR, int(budget * NODES_PER_UNIT)),
                max(1, min(RESTART_CEILING, int(budget * RESTARTS_PER_UNIT / max(1, V)))))


def _rotations(w: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted({w[i:] + w[:i] for i in range(len(w))}))


def orbit_of(w: tuple[int, ...]) -> Orbit:
    members = _rotations(w)
    return Orbit(members[0], members)


def _orbit_rows(m: int) -> tuple[np.ndarray, list[int]]:
    """The rows of `_lex_words(3, m)` grouped by rotation orbit, and each
    orbit's end: orbits by representative, members in lex order within each.

    Words are their base-3 indices, which sort as the words do.  Turning
    index i left by one place is (i mod 3^(m-1)) * 3 + i // 3^(m-1); a
    word's representative is the least of its m turns, so numbering the
    distinct representatives numbers the orbits in their order."""
    m = _integer(m, "m")
    if m < 1:
        raise ValueError("orbit enumeration needs m >= 1")
    words = _lex_words(3, m, "words")
    top = 3 ** (m - 1)
    turned = np.arange(3**m, dtype=np.int64)
    rep = turned.copy()
    for _ in range(m - 1):
        turned = turned % top * 3 + turned // top
        np.minimum(rep, turned, out=rep)
    _, orbit = np.unique(rep, return_inverse=True)
    index = np.argsort(orbit, kind="stable")  # by orbit, then by word
    return words[index], np.cumsum(np.bincount(orbit)).tolist()


def enumerate_orbits(m: int) -> tuple[Orbit, ...]:
    """All rotation classes of ternary length-m words, representatives in
    lexicographic order, members in lexicographic order within each."""
    rows, ends = _orbit_rows(m)
    words = list(zip(*rows.T.tolist()))
    return tuple(Orbit(words[s], tuple(words[s:e])) for s, e in zip([0] + ends[:-1], ends))


def _ball1(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Radius-1 ball of w on the ternary channel, as a set of words.

    Kept on purpose, with `_balls_disjoint` and `orbits_compatible`: this
    set-based definition is the reference that the tests check the search
    graphs (`_instance`) against.
    """
    out = {w}
    for i, s in enumerate(w):
        for b in _T_STEPS[s]:
            out.add(w[:i] + (b,) + w[i + 1 :])
    return out


def _balls_disjoint(words) -> bool:
    """True iff the words have pairwise disjoint radius-1 balls.
    Kept on purpose as part of the set-based reference; see `_ball1`."""
    covered = {}
    for w in words:
        for y in _ball1(w):
            if covered.get(y, w) != w:
                return False
            covered[y] = w
    return True


def orbits_compatible(o1: Orbit, o2: Orbit) -> bool:
    """True iff the union of the two orbits still has disjoint radius-1 balls
    on the ternary channel (o1 == o2 checks the orbit against itself).

    The search graphs come from the ball enumerator of `channels` instead.
    This set-based definition is kept on purpose as the independent
    reference that the tests check them against, as the ball oracle and
    the metric path check each other.
    """
    if o1.m != o2.m:
        raise ValueError("orbits have different lengths")
    return _balls_disjoint(o1.members if o1 == o2 else o1.members + o2.members)


@dataclass(frozen=True)
class _Instance:
    """One search graph and all that the strategies read of it.  Orbit i's
    words are rows[starts[i]:starts[i + 1]] in lex order, its representative
    first.  Per vertex: the binary image size (`Orbit.weight_score`), a key
    (the representative's base-3 index plus part * 3^m, which sorts as
    (part, representative) does) and the mask of the vertices it does not
    conflict with."""

    rows: np.ndarray
    starts: tuple[int, ...]
    weights: tuple[int, ...]
    keys: tuple[int, ...]
    adj: tuple[int, ...]


@lru_cache(maxsize=8)
def _instance(m: int, split: bool) -> _Instance:
    """The search instance on the kept orbits of one `_orbit_rows(m)` listing.

    The plain graph has vertex i for orbit i on T^m; the split graph has
    vertex 2i + b for orbit i's members behind literal bit b, on the
    bit x trit^m channel that `construct_extended` checks.  The radius-1
    balls come from `channels._balls`, sorted by word, then by row; rows
    of one vertex are consecutive, so each word's entries stay grouped by
    vertex once rows are mapped to vertices.  A vertex is kept iff none of
    its (word, vertex) pairs is listed twice: its own balls are disjoint.
    A literal bit never makes an orbit's own balls meet, so both parts of
    an orbit are kept, or neither is.  Two kept vertices conflict iff one
    word lies in both their balls.  The vertex labels, the kept entries
    and their compact labels stay in the listing's dtype: int32 up to
    m = 9, plain or split.
    """
    rows, ends = _orbit_rows(m)
    sizes = np.diff(ends, prepend=0)
    parts = (0, 1) if split else (0,)
    listed = np.vstack([np.insert(rows, 0, bit, axis=1) for bit in parts]) if split else rows
    holder, words = _balls(listed, image_channel((2,) * split + (3,) * m), 1, "magnitude", 1)
    # vertex labels in the listing's dtype; indexing by int32 owners
    # allocates only the result, where np.take would first copy them to int64
    vertex = np.repeat(np.arange(len(ends), dtype=holder.dtype), sizes)
    holder = np.concatenate([len(parts) * vertex + part for part in parts])[holder]
    keep = np.ones(len(parts) * len(ends), dtype=bool)
    keep[holder[1:][_same_word(words, 1) & (holder[1:] == holder[:-1])]] = False
    held = keep[holder]
    words = [index[held] for index in words]
    label = (np.cumsum(keep, dtype=holder.dtype) - 1)[holder[held]]
    del holder, held
    adj = np.ones((int(keep.sum()),) * 2, dtype=bool)
    np.fill_diagonal(adj, False)
    # a word's holders sit together: pair every entry with the one d places
    # on while any such pair shares its word
    for d in range(1, len(label)):
        same = _same_word(words, d)
        if not same.any():
            break
        x, y = label[:-d][same], label[d:][same]
        adj[x, y] = adj[y, x] = False
    adj = tuple(int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(adj, axis=1, bitorder="little"))
    kept = keep[:: len(parts)]
    rows, sizes = rows[kept[vertex]], sizes[kept].tolist()
    rows.flags.writeable = False
    starts = (0, *itertools.accumulate(sizes))
    reps = rows[list(starts[:-1])]
    zeros = (reps == 0).sum(axis=1).tolist()
    index = (reps @ 3 ** np.arange(m - 1, -1, -1)).tolist()
    return _Instance(rows, starts, tuple(s << z for s, z in zip(sizes, zeros) for _ in parts),
                     tuple(i + part * 3**m for i in index for part in parts), adj)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rank(keys: list, weight: int, mask: int) -> tuple:
    """The one order of cliques, least first: heavier first, then the
    smallest sorted keys of the mask's vertices.  Every strategy returns
    the least clique it finds."""
    return -weight, sorted(keys[i] for i in _bits(mask))


def _vertex_order(weights: list[int], keys: list) -> list[int]:
    """The vertices by the rank of each alone: heaviest first, then by key."""
    return sorted(range(len(weights)), key=lambda v: _rank(keys, weights[v], 1 << v))


def _permute_bits(masks: list[int], order: list[int]) -> list[int]:
    """The one relabelling of vertex masks, in one array pass: bit q of
    each result is bit order[q] of its mask.  `order` permutes range(V);
    every mask must lie below 2**V."""
    width = (len(order) + 7) // 8
    raw = np.frombuffer(b"".join(a.to_bytes(width, "little") for a in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, bitorder="little")
    packed = np.packbits(bits[:, order], axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _max_weight_clique(
    weights: list[int],
    adj: list[int],
    keys: list,
    node_budget: int,
    seed_solution: tuple[int, int] | None = None,
):
    """Russian-doll branch-and-bound over adjacency bitsets (no self-loops).

    Returns (best_weight, best_mask, proven_optimal, nodes, dolls) for the
    least clique by `_rank`: among cliques of equal weight, the one with
    the smallest sorted keys, so results do not depend on the vertex
    order.  Vertices are relabelled by `_vertex_order`, so that the first
    vertex is the highest bit (`_permute_bits` moves the adjacency, the
    seed and the answer); weights then never fall as the bit rises.  Doll
    b is the set of bits <= b.  The dolls are solved from bit 0 (the light
    end) upward: doll b searches the cliques whose highest bit is b, and
    c[b] keeps the best weight found once it is done, the heaviest clique
    inside doll b.

    A node walks its candidates from the highest bit p down, and stops once
    cur_w + c[p] < best_w: every clique it can still make lies in doll p.
    The test is strict, so a clique that can only tie the best is still
    reached and the tie rule holds.  A parent bounds each child before it
    recurses, by min(c[top], w[top] * candidates), top being the child's
    highest candidate.  Each doll root and each child made counts as one
    node, a child that fails its bound or has no candidates included; the
    node past `node_budget` stops the search unproven.  `dolls` is the
    number of dolls finished.  The seed is considered after the dolls, so
    that it does not weaken c, and an exhausted search returns at least
    the seed: since the heavy vertices come last, usually the seed itself.
    Masks go back to the caller's labels only on return.
    """
    V = len(weights)
    order = _vertex_order(weights, keys)[::-1]
    w = [weights[v] for v in order]
    nbr = _permute_bits([adj[v] for v in order], order)
    sorted_keys = [keys[v] for v in order]
    below = [(1 << b) - 1 for b in range(V)]
    c = [0] * V

    best_w, best_mask, best_rank = 0, 0, _rank(sorted_keys, 0, 0)  # the empty clique
    nodes = 0
    exhausted = False

    def consider(cur_w, mask):
        nonlocal best_w, best_mask, best_rank
        if cur_w >= best_w:
            rank = _rank(sorted_keys, cur_w, mask)
            if rank < best_rank:
                best_w, best_mask, best_rank = cur_w, mask, rank

    def branch(cand, cur_w, cur_mask):
        """Count and settle each child of a node that passed its bound, while
        the doll bound lets it reach best_w; the node is considered itself
        after its last child."""
        nonlocal nodes, exhausted
        while cand:
            p = cand.bit_length() - 1
            if cur_w + c[p] < best_w:
                break
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return
            child = cand & nbr[p]
            child_w = cur_w + w[p]
            if child:
                top = child.bit_length() - 1
                bound = w[top] * child.bit_count()
                if child_w + (bound if bound < c[top] else c[top]) >= best_w:
                    branch(child, child_w, cur_mask | 1 << p)
                    if exhausted:
                        return
            elif child_w >= best_w:
                consider(child_w, cur_mask | 1 << p)
            cand &= below[p]
        if cur_w >= best_w:
            consider(cur_w, cur_mask)

    dolls = 0
    for b in range(V):
        # the doll root {b}, bounded and settled as a child is
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            break
        child = nbr[b] & below[b]
        if child:
            top = child.bit_length() - 1
            bound = w[top] * child.bit_count()
            if w[b] + (bound if bound < c[top] else c[top]) >= best_w:
                branch(child, w[b], 1 << b)
                if exhausted:
                    break
        elif w[b] >= best_w:
            consider(w[b], 1 << b)
        c[b] = best_w
        dolls += 1
    if seed_solution is not None:
        consider(seed_solution[0], _permute_bits([seed_solution[1]], order)[0])
    best_mask = _permute_bits([best_mask], np.argsort(order))[0]
    return best_w, best_mask, not exhausted, nodes, dolls


def _greedy(weights, adj, order):
    mask = 0
    total = 0
    allowed = (1 << len(weights)) - 1
    for v in order:
        bit = 1 << v
        if allowed & bit:
            mask |= bit
            total += weights[v]
            allowed &= adj[v]  # no self-loops: this drops v too
    return total, mask


def _run_search(inst: _Instance, cfg: SearchConfig):
    """Dispatch on strategy; returns the search meta and the chosen mask.
    Every strategy starts from the greedy clique in `_vertex_order`."""
    weights, adj, keys = inst.weights, inst.adj, inst.keys
    V = len(weights)
    best_w, best_mask = _greedy(weights, adj, _vertex_order(weights, keys))
    optimal, counted = False, {}
    node_budget, restarts = cfg._counts(V)
    if cfg.strategy == "exact-clique":
        best_w, best_mask, optimal, nodes, dolls = _max_weight_clique(
            weights, adj, keys, node_budget, (best_w, best_mask))
        counted = {"nodes": str(nodes), "dolls": f"{dolls}/{V}"}
    elif cfg.strategy == "randomized-restart":
        rng = random.Random(cfg.seed)
        scale = [max(wt, 1) for wt in weights]
        cliques = [(best_w, best_mask)]
        for _ in range(restarts):
            r = [rng.random() / s for s in scale]
            cliques.append(_greedy(weights, adj, sorted(range(V), key=r.__getitem__)))
        best_w, best_mask = min(cliques, key=lambda clique: _rank(keys, *clique))
    meta = {"score": str(best_w), "strategy": cfg.strategy, "seed": str(cfg.seed),
            "proven_optimal": "yes" if optimal else "no"}
    return meta | counted, best_mask


def _search(m: int, split: bool, cfg: SearchConfig | None) -> tuple[CodeBook, ...]:
    """The search behind both entry points: one code book per part of the
    chosen vertices (the plain search has one part)."""
    m = _integer(m, "m")  # before the cache: 3.0 == 3 would find m = 3's instance
    cfg = cfg or SearchConfig()
    inst = _instance(m, split)
    meta, mask = _run_search(inst, cfg)
    parts = (0, 1) if split else (0,)
    sizes = np.diff(inst.starts)
    books = []
    for part in parts:
        # vertex len(parts) * i + part is orbit i in that part
        chosen = [bool(mask >> (len(parts) * i + part) & 1) for i in range(len(sizes))]
        name = f"extended-search-m{m}-part{part}" if split else f"cyclic-search-m{m}"
        books.append(CodeBook.from_symbols(AlphabetSpec.uniform(3, m),
                                           inst.rows[np.repeat(chosen, sizes)], name=name, meta=meta))
    return tuple(books)


def search_cyclic(m: int, cfg: SearchConfig | None = None) -> CodeBook:
    """Search for a shift-closed ternary code maximizing the binary image size.

    Deterministic for a fixed seed.  The result passes the
    radius-1 channel oracle by construction; metadata records the score and
    whether the exact strategy proved optimality within its budget, and the
    exact strategy adds the nodes it counted and the dolls it finished.
    """
    return _search(m, False, cfg)[0]


def search_extended(m: int, cfg: SearchConfig | None = None) -> tuple[CodeBook, CodeBook]:
    """Search for the two shift-closed parts of the odd-length construction,
    maximizing the total binary image size."""
    return _search(m, True, cfg)


# Bundled orbit-representative tables: shift-closed ternary codes with
# verified binary image sizes 12, 29, 98, 336, 1200, 3952 (even lengths
# 6..16) and split two-part codes with sizes 16, 53, 154, 612, 2144 (odd
# lengths 7..15).

BUILTIN_PLAIN: dict[int, tuple[str, ...]] = {
    3: ("000", "111", "122"),
    4: ("0000", "0112", "1222", "1111"),
    5: ("00000", "10012", "20110", "12210", "11202", "11111", "22122"),
    6: (
        "000000", "100021", "122000", "010101", "120102", "101101", "201102",
        "101202", "102012", "222102", "202020", "112011", "220220",
    ),
    7: (
        "0000000", "0000121", "1100022", "0022020", "1110100", "1020100",
        "1002001", "0021021", "2001011", "1200211", "2021200", "0201220",
        "1022200", "1221010", "1012020", "1021201", "1022121", "2221020",
        "0112122", "1111121", "1112221", "1122112", "2121211", "2221212",
        "2222222",
    ),
    8: (
        "00000201", "00010112", "00011010", "00021200", "00101210", "00110011",
        "00121111", "00222110", "01011102", "01212210", "02021002", "02112201",
        "02211101", "02211210", "02211222", "10001122", "10010210", "10122021",
        "10122111", "10202002", "11021220", "11100200", "11111111", "11111210",
        "11120002", "11222011", "12001200", "12100120", "12102200", "12111211",
        "12112022", "12121212", "20010200", "20102201", "20121212", "20210101",
        "20222011", "20222200", "21100210", "21120111", "21120120", "21200221",
        "21212110", "22000012", "22000100", "22020201", "22022000", "22101102",
        "22101222", "22102210", "22120110", "22221221", "22222222",
    ),
}

BUILTIN_EXTENDED: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {
    3: (("000", "111", "222"), ("210",)),
    4: (("0000", "0221", "1211", "2222"), ("1010", "2020", "1220")),
    5: (
        ("00000", "10021", "12102", "20111", "22201", "11111", "22222"),
        ("02210", "01020", "01212"),
    ),
    6: (
        (
            "100021", "122000", "100100", "200200", "010101", "222010",
            "110201", "101202", "202020", "111111", "221211", "212211",
            "222222",
        ),
        (
            "022100", "112000", "001002", "120102", "101101", "012111",
            "102012", "220220", "122202", "211112", "211222", "121212",
        ),
    ),
    7: (
        (
            "1100002", "0200100", "1200010", "0202200", "0112200", "1002120",
            "1001011", "1210020", "1222100", "0022202", "1221200", "0101121",
            "0210201", "1102220", "1020111", "1012211", "2021210", "0122221",
            "1112021", "1202221", "1111111", "1122112", "2222222",
        ),
        (
            "0221000", "0102000", "0001101", "2000120", "2101100", "1100120",
            "1002202", "1200220", "1200211", "0012112", "1021210", "2201022",
            "1110220", "0111211", "1212210", "0202122", "0211212", "2202212",
            "1221221",
        ),
    ),
}


def _closure(gens: tuple[str, ...], m: int, name: str) -> CodeBook:
    """Every rotation of every generator; generators that share an orbit
    give each word once."""
    rows = {w for g in gens for w in _rotations(tuple(map(int, g)))}
    return CodeBook.from_symbols(AlphabetSpec.uniform(3, m), rows, name=name)


def builtin_table_generators(m: int, extended: bool = False):
    """Orbit closure of the bundled generators: a shift-closed CodeBook for
    even-length plain codes, or a (part0, part1) pair for the split ones."""
    m = _integer(m, "m")  # 3.0 == 3 would find m = 3's generators
    if extended:
        if m not in BUILTIN_EXTENDED:
            raise ValueError(f"no bundled extended generators for m={_shown(m)}")
        g0, g1 = BUILTIN_EXTENDED[m]
        return (
            _closure(g0, m, f"builtin-extended-m{m}-part0"),
            _closure(g1, m, f"builtin-extended-m{m}-part1"),
        )
    if m not in BUILTIN_PLAIN:
        raise ValueError(f"no bundled generators for m={_shown(m)}")
    return _closure(BUILTIN_PLAIN[m], m, f"builtin-cyclic-m{m}")
