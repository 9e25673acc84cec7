from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymcodes import (
    AlphabetSpec,
    ChannelGraph,
    CodeBook,
    ProductChannel,
    Word,
    ball_overlap,
    construct_extended,
    corrects_t_errors,
    decode_asymmetric,
    error_ball,
    is_lm_code,
    is_t_code,
    make_channel,
    simulate_channel,
    vt_code,
)
from asymcodes import channels, cyclic, words
from asymcodes.words import AlphabetMismatch, DecodingError, EnumerationCapExceeded

from conftest import book_from_strings


class TestMakeChannel:
    def test_t_channel(self):
        t = make_channel("T", 3)
        assert t.edges == frozenset({(0, 1), (0, 2), (1, 0), (2, 0)})

    def test_r4(self):
        r4 = make_channel("Rq", 4)
        assert len(r4.edges) == 8
        assert (0, 3) in r4.edges and (3, 0) in r4.edges

    def test_l1_wrap(self):
        l5 = make_channel("L1-wrap", 5)
        assert l5.edges == frozenset({(1, 0), (2, 1), (3, 2), (4, 3), (0, 4)})

    def test_z_channel(self):
        assert make_channel("Z", 2).edges == frozenset({(1, 0)})

    def test_graph_numbers_follow_the_integer_rule(self):
        # a float q used to pass and then break out_map with a TypeError
        with pytest.raises(ValueError, match=r"alphabet size 2\.0 is not an integer"):
            ChannelGraph(2.0, frozenset({(1, 0)}))
        with pytest.raises(ValueError, match=r"edge end 1\.0 is not an integer"):
            ChannelGraph(2, frozenset({(1.0, 0)}))
        g = ChannelGraph(np.int64(2), {(np.int8(1), False)})
        assert g == make_channel("Z", 2) and g.out_map == ((), (0,))
        assert {type(g.q), *(type(x) for e in g.edges for x in e)} == {int}

    def test_bad_combinations(self):
        with pytest.raises(ValueError):
            make_channel("Z", 3)
        with pytest.raises(ValueError):
            make_channel("T", 4)
        with pytest.raises(ValueError):
            make_channel("nope", 2)


class TestErrorBall:
    def test_t_square_ball(self):
        ch = ProductChannel.power(make_channel("T", 3), 2)
        x = Word((1, 1), AlphabetSpec.uniform(3, 2))
        ball = {w.symbols for w in error_ball(x, ch, 1)}
        assert ball == {(1, 1), (0, 1), (1, 0)}

    def test_radius_zero(self):
        ch = ProductChannel.power(make_channel("Z", 2), 2)
        x = Word((1, 0), AlphabetSpec.uniform(2, 2))
        assert {w.symbols for w in error_ball(x, ch, 0)} == {(1, 0)}

    def test_z_square_ball(self):
        ch = ProductChannel.power(make_channel("Z", 2), 2)
        x = Word((1, 1), AlphabetSpec.uniform(2, 2))
        assert {w.symbols for w in error_ball(x, ch, 1)} == {(1, 1), (0, 1), (1, 0)}

    def test_magnitude_allows_multi_step_on_one_coordinate(self):
        # two steps 1 -> 0 -> 2 on a single ternary coordinate
        ch = ProductChannel.power(make_channel("T", 3), 1)
        x = Word((1,), AlphabetSpec.uniform(3, 1))
        ball = {w.symbols for w in error_ball(x, ch, 2)}
        assert ball == {(1,), (0,), (2,)}

    def test_monotone_in_radius(self):
        rng = random.Random(11)
        ch = ProductChannel.mixed(
            [make_channel("T", 3), make_channel("Rq", 4), make_channel("Z", 2)]
        )
        a = ch.alphabet
        for _ in range(20):
            x = Word(tuple(rng.randrange(q) for q in a.sizes), a)
            b1 = error_ball(x, ch, 1)
            b2 = error_ball(x, ch, 2)
            assert x in b1
            assert b1 <= b2

    def test_coordinate_counting(self):
        ch = ProductChannel.power(make_channel("L1-wrap", 5), 3)
        x = Word((0, 0, 0), AlphabetSpec.uniform(5, 3))
        ball = {w.symbols for w in error_ball(x, ch, 2, counting="coordinates")}
        # up to two coordinates each move one wrap-step down
        expected = {(0, 0, 0)}
        for i in range(3):
            moved = [0, 0, 0]
            moved[i] = 4
            expected.add(tuple(moved))
        for i, j in itertools.combinations(range(3), 2):
            moved = [0, 0, 0]
            moved[i] = moved[j] = 4
            expected.add(tuple(moved))
        assert ball == expected

    def test_cap_enforced(self, monkeypatch):
        ch = ProductChannel.power(make_channel("Rq", 5), 6)
        x = Word((2,) * 6, AlphabetSpec.uniform(5, 6))
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10)
        with pytest.raises(EnumerationCapExceeded):
            error_ball(x, ch, 4)

    def test_alphabet_mismatch(self):
        ch = ProductChannel.power(make_channel("Z", 2), 2)
        x = Word((1, 1, 1), AlphabetSpec.uniform(2, 3))
        with pytest.raises(AlphabetMismatch):
            error_ball(x, ch, 1)


def _brute_force_ball(x, ch, radius, counting, coord_radius):
    """Words reached from x by sequences of single steps.

    magnitude: at most `radius` steps in total, on any coordinates.
    coordinates: at most `radius` coordinates, each taking 1..coord_radius
    steps of its own.
    """
    def walks(a, g, steps):
        reached, frontier = {a}, {a}
        for _ in range(steps):
            frontier = {b for s in frontier for b in g.out_map[s]}
            reached |= frontier
        return reached

    if counting == "magnitude":
        reached, frontier = {x}, {x}
        for _ in range(radius):
            frontier = {
                w[:i] + (b,) + w[i + 1:]
                for w in frontier
                for i, g in enumerate(ch.coordinates)
                for b in g.out_map[w[i]]
            }
            reached |= frontier
        return reached
    reached = set()
    for k in range(min(radius, len(x)) + 1):
        for moved in itertools.combinations(range(len(x)), k):
            choices = [
                walks(a, ch.coordinates[i], coord_radius) if i in moved else {a}
                for i, a in enumerate(x)
            ]
            reached.update(itertools.product(*choices))
    return reached


@st.composite
def small_products(draw):
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["Z", "T", "chain", "Rq", "L1-wrap"]))
        q = {"Z": 2, "T": 3}.get(kind) or draw(st.integers(2 if kind == "chain" else 3, 5))
        graphs.append(make_channel(kind, q))
    ch = ProductChannel.mixed(graphs)
    x = tuple(draw(st.integers(0, g.q - 1)) for g in graphs)
    return ch, Word(x, ch.alphabet)


class TestErrorBallBruteForce:
    @settings(max_examples=300)
    @given(small_products(), st.integers(0, 3), st.sampled_from(["magnitude", "coordinates"]),
           st.sampled_from([1, 2]))
    def test_equals_step_sequences(self, case, radius, counting, coord_radius):
        ch, x = case
        ball = error_ball(x, ch, radius, counting=counting, coord_radius=coord_radius)
        expected = _brute_force_ball(x.symbols, ch, radius, counting, coord_radius)
        assert {w.symbols for w in ball} == expected


def _reference_ball(x, ch, radius, counting, coord_radius):
    """The former recursive ball enumerator: per-coordinate (symbol, cost)
    options, combined depth first while the budget lasts."""
    options = []
    for a, g in zip(x, ch.coordinates):
        dist = g.step_distances[a]
        if counting == "magnitude":
            options.append([(s, d) for s, d in enumerate(dist) if d is not None and d <= radius])
        else:
            options.append([(a, 0)] + [
                (s, 1) for s, d in enumerate(dist) if d is not None and 0 < d <= coord_radius
            ])
    out = set()

    def rec(i, budget, prefix):
        if i == len(x):
            out.add(tuple(prefix))
            return
        for s, d in options[i]:
            if d <= budget:
                prefix.append(s)
                rec(i + 1, budget - d, prefix)
                prefix.pop()

    rec(0, radius, [])
    return out


def reference_overlap(c, ch, t, counting="magnitude", coord_radius=1):
    """The former dict-loop oracle: True iff two balls share a word."""
    covered = {}
    for idx, word in enumerate(c.symbol_rows):
        for y in _reference_ball(word, ch, t, counting, coord_radius):
            if covered.get(y, idx) != idx:
                return True
            covered[y] = idx
    return False


def reference_witness(c, ch, t, counting="magnitude", coord_radius=1):
    """The lexicographically first word two balls share and the first two
    codewords whose balls hold it, found by listing every ball as a set."""
    holders = {}
    for word in c.symbol_rows:
        for y in _reference_ball(word, ch, t, counting, coord_radius):
            holders.setdefault(y, []).append(word)
    shared = min((y for y, h in holders.items() if len(h) > 1), default=None)
    return None if shared is None else (shared, *holders[shared][:2])


def _check_against_reference(c, ch, t, counting, coord_radius):
    # the cap admits exactly the total size of the balls
    total = sum(len(_reference_ball(w, ch, t, counting, coord_radius)) for w in c.symbol_rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "DEFAULT_ENUM_CAP", total - 1)
        with pytest.raises(EnumerationCapExceeded):
            ball_overlap(c, ch, t, counting, coord_radius)
        mp.setattr(words, "DEFAULT_ENUM_CAP", total)
        got = ball_overlap(c, ch, t, counting=counting, coord_radius=coord_radius)
    assert (got is not None) == reference_overlap(c, ch, t, counting, coord_radius)
    assert corrects_t_errors(c, ch, t, counting=counting, coord_radius=coord_radius) == (got is None)
    if got is not None:
        assert got.x in c and got.y in c and got.x.symbols < got.y.symbols
        for w in (got.x, got.y):
            assert got.received.symbols in _reference_ball(w.symbols, ch, t, counting, coord_radius)
        witness = (got.received.symbols, got.x.symbols, got.y.symbols)
        assert witness == reference_witness(c, ch, t, counting, coord_radius)
    return got


@st.composite
def codes_near_a_word(draw, long_words):
    """A product channel and a code of words that differ from one base word
    in a few coordinates, so that their balls often meet.  With long_words
    the word indices need more than one int64 (product of q_i >= 2^63)."""
    kinds = draw(st.lists(st.sampled_from(["Z", "T", "chain", "Rq", "L1-wrap"]),
                          min_size=1, max_size=3))
    graphs = []
    for kind in kinds:
        q = {"Z": 2, "T": 3}.get(kind) or draw(st.integers(2 if kind == "chain" else 3, 5))
        graphs.append(make_channel(kind, q))
    if long_words:
        block = 1
        for g in graphs:
            block *= g.q
        reps = 1
        while block**reps < 2**63:
            reps += 1
        graphs = graphs * reps
    ch = ProductChannel.mixed(graphs)
    n = len(graphs)
    base = [draw(st.integers(0, g.q - 1)) for g in graphs]
    rows = set()
    for _ in range(draw(st.integers(1, 5))):
        word = list(base)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            word[i] = draw(st.integers(0, graphs[i].q - 1))
        rows.add(tuple(word))
    return ch, CodeBook.from_symbols(ch.alphabet, sorted(rows))


class TestBallOverlap:
    @settings(max_examples=300, deadline=None)
    @given(codes_near_a_word(long_words=False), st.integers(0, 3) | st.just(10**9),
           st.sampled_from(["magnitude", "coordinates"]), st.sampled_from([0, 1, 2]))
    def test_equals_reference(self, case, t, counting, coord_radius):
        ch, c = case
        _check_against_reference(c, ch, t, counting, coord_radius)

    @settings(max_examples=100, deadline=None)
    @given(codes_near_a_word(long_words=True), st.integers(0, 2),
           st.sampled_from(["magnitude", "coordinates"]), st.sampled_from([1, 2]))
    def test_equals_reference_past_one_limb(self, case, t, counting, coord_radius):
        ch, c = case
        assert len(channels._limbs_of(ch.alphabet.sizes)) >= 2
        _check_against_reference(c, ch, t, counting, coord_radius)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(2, 9), min_size=1, max_size=40), st.data())
    def test_word_index_round_trip(self, sizes, data):
        # up to 9^40 words: several limbs
        sizes = tuple(sizes)
        rows = np.array([[data.draw(st.integers(0, q - 1)) for q in sizes] for _ in range(4)])
        limbs = channels._index_of(rows, sizes)
        assert len(limbs) == len(channels._limbs_of(sizes))
        assert (channels._symbols_of(limbs, sizes) == rows).all()

    def test_move_table_lists_only_what_the_radius_affords(self):
        # L1-wrap q=128 reaches every symbol; radius 1 lists one move each
        g = make_channel("L1-wrap", 128)
        moves = channels._moves(g, "magnitude", 1, 1)
        assert moves[0] == [(127, 1)] and all(m == [(a - 1, 1)] for a, m in enumerate(moves) if a)
        assert list(map(len, channels._moves(g, "magnitude", 1, 3))) == [3] * 128
        assert list(map(len, channels._moves(g, "coordinates", 2, 5))) == [2] * 128
        assert channels._moves(g, "coordinates", 2, 0) == [[]] * 128
        ((steps, costs),) = channels._slots(moves, 1, np.int32)
        assert steps.tolist() == [127] + [-1] * 127 and costs.tolist() == [1] * 128
        ((cost, count),) = channels._ways(moves)
        assert cost == 1 and count.tolist() == [1] * 128

    def test_coordinate_without_moves(self):
        # an edgeless coordinate, and coordinate counting that allows no step
        ch = ProductChannel.mixed([ChannelGraph(3, frozenset()), make_channel("Z", 2)])
        x = Word((2, 1), ch.alphabet)
        assert {w.symbols for w in error_ball(x, ch, 2)} == {(2, 1), (2, 0)}
        ball = error_ball(x, ch, 2, counting="coordinates", coord_radius=0)
        assert {w.symbols for w in ball} == {(2, 1)}

    def test_witness_is_first_shared_word(self):
        # 0000 and 0100 share 0000; the first word two balls share is 0000,
        # held by codewords 0000 and 0100 (1000 holds it too, but later)
        c = book_from_strings(["0000", "0100", "1000", "1111"])
        ch = ProductChannel.power(make_channel("Z", 2), 4)
        got = ball_overlap(c, ch, 1)
        assert [str(w) for w in got] == ["0000", "0000", "0100"]
        assert (got.received, got.x, got.y) == tuple(got)

    def test_no_builds_only_its_witness_words(self):
        # the split m=7 image (2 144 words of length 15) and its last word
        # with its first 1 dropped: a "no" makes no Word of the other words
        part0, part1 = cyclic.builtin_table_generators(7, extended=True)
        image = construct_extended(part0, part1)
        rows = image.matrix()
        x = rows[-1].copy()
        x[np.flatnonzero(x)[0]] = 0
        c = CodeBook.from_symbols(image.alphabet, np.vstack([rows, x]))
        got = ball_overlap(c, ProductChannel.power(make_channel("Z", 2), 15), 1)
        assert "words" not in vars(c)
        assert [str(w) for w in got] == ["001111111101001", "001111111111001", "011111111101001"]

    def test_long_binary_words(self):
        # 70 bits: the word index takes two int64 limbs
        a = AlphabetSpec.uniform(2, 70)
        ch = ProductChannel.power(make_channel("Z", 2), 70)
        x = (1,) * 35 + (0,) * 35
        y = (1,) * 34 + (0,) * 36
        far = (0,) * 35 + (1,) * 35
        assert channels._limbs_of(a.sizes) == [range(0, 62), range(62, 70)]
        good = CodeBook.from_symbols(a, [x, far])
        assert ball_overlap(good, ch, 1) is None
        got = ball_overlap(CodeBook.from_symbols(a, [x, y, far]), ch, 1)
        assert (got.received.symbols, got.x.symbols, got.y.symbols) == (y, y, x)
        # far and far with its last 1 dropped share a word that sorts first
        near = far[:-1] + (0,)
        c = CodeBook.from_symbols(a, [x, y, far, near])
        got = ball_overlap(c, ch, 1)
        assert (got.received.symbols, got.x.symbols, got.y.symbols) == (near, near, far)
        assert reference_witness(c, ch, 1) == (near, near, far)
        ball = error_ball(Word(x, a), ch, 2)
        assert {w.symbols for w in ball} == _reference_ball(x, ch, 2, "magnitude", 1)

    @pytest.mark.parametrize("counting", ["magnitude", "coordinates"])
    def test_radius_past_every_move(self, counting):
        # no word here spends more than 1 + 1 + 3 + 2 = 7 steps, or moves
        # more than 4 coordinates: larger radii list the same balls at once
        ch = ProductChannel.mixed([make_channel("Z", 2)] * 2
                                  + [make_channel("chain", 4), make_channel("T", 3)])
        c = CodeBook.from_symbols(ch.alphabet, [(0, 1, 0, 0), (1, 1, 3, 2)])
        x = c.words[1]
        full = error_ball(x, ch, 7, counting)
        # magnitude: 2 * 2 * 4 * 3 words; coordinates, one step each: 2^4
        assert len(full) == (48 if counting == "magnitude" else 16)
        for big in (10**9, 2**70):
            assert error_ball(x, ch, big, counting) == full
            assert ball_overlap(c, ch, big, counting) == ball_overlap(c, ch, 7, counting)
            assert corrects_t_errors(c, ch, big, counting) is (counting == "coordinates")
        if counting == "magnitude":
            run = lambda t: simulate_channel(c, ch, trials=50, seed=3, t=t, p=0.5)
            assert run(10**9).failures == run(7).failures

    @pytest.mark.parametrize("call", ["ball_overlap", "error_ball", "simulate_channel"])
    def test_cap_checked_before_expansion(self, monkeypatch, call):
        expanded = []
        real = channels._expand

        def spy(*args):
            expanded.append(1)
            return real(*args)

        monkeypatch.setattr(channels, "_expand", spy)
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        ch = ProductChannel.power(make_channel("Z", 2), 4)
        # balls of sizes 1, 3, 3, 5 at t=1: 12 words; one ball of 5 for error_ball.
        # Two trials of 4 symbols fit under both caps, so the balls are refused.
        size = 5 if call == "error_ball" else 12
        run = {
            "ball_overlap": lambda: ball_overlap(c, ch, 1),
            "error_ball": lambda: error_ball(c.words[-1], ch, 1),
            "simulate_channel": lambda: simulate_channel(c, ch, trials=2, seed=1, p=0.1),
        }[call]
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", size - 1)
        with pytest.raises(EnumerationCapExceeded):
            run()
        assert expanded == []
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", size)
        run()
        assert expanded == [1]

    def test_listing_stays_near_its_output(self):
        # the m = 8 plain search graph's balls: 76 545 entries listed in
        # place, peaking at most 1.5 times the arrays returned
        import tracemalloc

        from asymcodes import cyclic
        from asymcodes.ternary import image_channel

        rows, _ = cyclic._orbit_rows(8)
        ch = image_channel((3,) * 8)
        tracemalloc.start()
        try:
            owner, limbs = channels._balls(rows, ch, 1, "magnitude", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(owner) == 76545
        assert peak <= 1.5 * (owner.nbytes + sum(index.nbytes for index in limbs))
        words_listed = channels._symbols_of(limbs, ch.alphabet.sizes).tolist()
        got = list(zip(owner.tolist(), map(tuple, words_listed)))
        expected = {(r, w) for r, x in enumerate(rows.tolist())
                    for w in _reference_ball(x, ch, 1, "magnitude", 1)}
        assert len(set(got)) == len(got) and set(got) == expected


def _listing(rows, ch, t, counting="magnitude", coord_radius=1):
    """`channels._balls` as (word, owner) pairs, in the order it returns them."""
    owner, limbs = channels._balls(np.array(rows, dtype=np.int64), ch, t, counting, coord_radius)
    found = channels._symbols_of(limbs, ch.alphabet.sizes).tolist()
    return list(zip(map(tuple, found), owner.tolist()))


def _reference_listing(rows, ch, t, counting="magnitude", coord_radius=1):
    """Every (word, owner) pair of the rows' balls, sorted by word, then owner."""
    return sorted((y, r) for r, x in enumerate(rows)
                  for y in _reference_ball(tuple(x), ch, t, counting, coord_radius))


class TestSortedListing:
    """`channels._balls` returns its listing sorted by word, then owner."""

    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(codes_near_a_word), st.integers(0, 2),
           st.sampled_from(["magnitude", "coordinates"]), st.sampled_from([0, 1, 2]), st.randoms())
    def test_equals_sorted_reference(self, case, t, counting, coord_radius, rng):
        # the rows in any order: owners are row indices, not word ranks
        ch, c = case
        rows = list(c.symbol_rows)
        rng.shuffle(rows)
        assert _listing(rows, ch, t, counting, coord_radius) == \
            _reference_listing(rows, ch, t, counting, coord_radius)

    @pytest.mark.parametrize("n, rows, lexsorted", [
        (62, 1, False),  # 2^62 words * 1 row: one packed key
        (62, 2, True),   # 2^62 * 2 reaches 2^63
        (70, 3, True),   # two limbs
    ])
    def test_packed_key_or_lexsort(self, monkeypatch, n, rows, lexsorted):
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
        ch = ProductChannel.power(make_channel("Z", 2), n)
        code = [(0,) * n, (1,) * (n - 1) + (0,), (1,) * (n // 2) + (0,) * (n - n // 2)][-rows:]
        for t in (1, 2):
            assert _listing(code, ch, t) == _reference_listing(code, ch, t)
        assert bool(calls) is lexsorted

    def test_oracle_and_simulation_sort_nothing_more(self, monkeypatch):
        # the listing comes sorted: neither the witness nor the coverage
        # table sorts it again
        c = vt_code(8)
        c.matrix(), c.symbol_rows, c.words
        ch = ProductChannel.power(make_channel("Z", 2), 8)
        for name in ("lexsort", "argsort", "sort", "unique"):
            monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail("sorted again"))
        assert ball_overlap(c, ch, 1) is None
        got = ball_overlap(c, ch, 2)
        assert (got.received.symbols, got.x.symbols, got.y.symbols) == reference_witness(c, ch, 2)
        assert simulate_channel(c, ch, trials=20, seed=1, p=0.1).trials == 20


class TestListingDtype:
    """The listing is int32 while its packed key, index * rows + owner,
    stays below 2^31, and int64 from there.  On binary n = 24 codes the
    bound falls between 127 rows (2^24 * 127 < 2^31) and 129."""

    ch = ProductChannel.power(make_channel("Z", 2), 24)

    @staticmethod
    def code(rows: int) -> CodeBook:
        """`rows` distinct seeded words; every fourth is planted next to the
        one before it (one 1 moved to a 0), so balls of radius 1 meet."""
        rng = random.Random(rows)
        found = {}
        while len(found) < rows:
            x = rng.getrandbits(24)
            if len(found) % 4 == 3:
                last = next(reversed(found))
                ones = [i for i in range(24) if last >> i & 1]
                zeros = [i for i in range(24) if not last >> i & 1]
                x = last ^ (1 << rng.choice(ones)) ^ (1 << rng.choice(zeros))
            found.setdefault(x, None)
        return CodeBook.from_symbols(AlphabetSpec.uniform(2, 24),
                                     [[x >> (23 - i) & 1 for i in range(24)] for x in found])

    def answers(self, c: CodeBook) -> tuple:
        balls = tuple(error_ball(c.words[k], self.ch, 2) for k in (0, 50, 126))
        runs = tuple(simulate_channel(c, self.ch, trials=400, seed=9, t=t, p=p)
                     for t, p in ((1, 0.03), (2, 0.08)))
        return ball_overlap(c, self.ch, 1), ball_overlap(c, self.ch, 2), balls, runs

    @pytest.mark.parametrize("rows, dtype", [(127, np.int32), (129, np.int64)])
    def test_each_side_of_the_bound(self, monkeypatch, rows, dtype):
        c = self.code(rows)
        assert len(c) == rows
        for t in (1, 2):
            owner, limbs = channels._balls(c._symbol_array, self.ch, t, "magnitude", 1)
            assert owner.dtype == limbs[0].dtype == dtype and len(limbs) == 1
            found = channels._symbols_of(limbs, c.alphabet.sizes).tolist()
            assert list(zip(map(tuple, found), owner.tolist())) == \
                _reference_listing(c.symbol_rows, self.ch, t)
        got = self.answers(c)
        witness = got[0]
        assert (witness.received.symbols, witness.x.symbols, witness.y.symbols) == \
            reference_witness(c, self.ch, 1)
        # the same answers from an int64 listing
        real, dtypes = channels._expand, set()
        monkeypatch.setattr(channels, "_expand",
                            lambda *args: dtypes.add(args[-1]) or real(*args[:-1], np.int64))
        assert self.answers(c) == got
        assert dtypes == {dtype, np.int32}  # error_ball lists one row


class TestIntegerRule:
    """Radii, budgets, trial counts and seeds follow `words._integer`: a
    value that is not an integer raises ValueError naming the argument."""

    c = vt_code(6)
    ch = ProductChannel.power(make_channel("Z", 2), 6)

    @pytest.mark.parametrize("call, message", [
        (lambda c, ch: is_t_code(c, 1.5), "t 1.5 is not an integer"),
        (lambda c, ch: is_lm_code(c, 1.5, 1), "t_tilde 1.5 is not an integer"),
        (lambda c, ch: is_lm_code(c, 1, 2.0), "ell 2.0 is not an integer"),
        (lambda c, ch: words.d_ell_distance((1, 0), (0, 0), 1.5), "ell 1.5 is not an integer"),
        (lambda c, ch: decode_asymmetric(c, c.words[0], 1.0), "t 1.0 is not an integer"),
        (lambda c, ch: corrects_t_errors(c, ch, 1.0), "t 1.0 is not an integer"),
        (lambda c, ch: ball_overlap(c, ch, 1, "coordinates", 1.5),
         "coord_radius 1.5 is not an integer"),
        # a negative coord_radius made every ball one word, so any code passed
        (lambda c, ch: corrects_t_errors(c, ch, 1, "coordinates", -1), "coord_radius must be >= 0"),
        (lambda c, ch: error_ball(c.words[0], ch, "1"), "radius '1' is not an integer"),
        (lambda c, ch: simulate_channel(c, ch, trials=5.0, seed=1, p=0.1),
         "trials 5.0 is not an integer"),
        (lambda c, ch: simulate_channel(c, ch, trials=5, seed=1.5, p=0.1),
         "seed 1.5 is not an integer"),
        (lambda c, ch: simulate_channel(c, ch, trials=5, seed="x", p=0.1),
         "seed 'x' is not an integer"),
        (lambda c, ch: simulate_channel(c, ch, trials=5, seed=1, t=1.0, p=0.1),
         "t 1.0 is not an integer"),
        (lambda c, ch: simulate_channel(c, ch, trials=5, seed=1, force_errors=1.0),
         "force_errors 1.0 is not an integer"),
    ])
    def test_bad_values_are_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(self.c, self.ch)

    @pytest.mark.parametrize("call, message", [
        (lambda c, ch: make_channel("Rq", 3.0), "q 3.0 is not an integer"),
        (lambda c, ch: make_channel("Z", 2.0), "q 2.0 is not an integer"),
        (lambda c, ch: ProductChannel.power(make_channel("Z", 2), 2.0), "n 2.0 is not an integer"),
        (lambda c, ch: simulate_channel(c, ch, 5, 1, p="0.1"),
         "p must be a number in [0, 1], got '0.1'"),
        (lambda c, ch: simulate_channel(c, ch, 5, 1, p=float("nan")),
         "p must be a number in [0, 1], got nan"),
        (lambda c, ch: cyclic.SearchConfig(time_budget="5"),
         "time budget must be a positive finite number, got '5'"),
    ])
    def test_channel_arguments_and_budgets_are_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(self.c, self.ch)

    def test_numpy_integers_are_read_as_ints(self):
        c, ch = self.c, self.ch
        got = simulate_channel(c, ch, trials=np.int64(30), seed=np.int32(4), t=np.int8(1),
                               force_errors=np.uint8(1))
        assert got == simulate_channel(c, ch, trials=30, seed=4, t=1, force_errors=1)
        assert {type(got.trials), type(got.seed), type(got.t), type(got.force_errors)} == {int}
        assert is_t_code(c, np.int64(1)) and is_lm_code(c, np.int16(1), np.int16(1))
        assert corrects_t_errors(c, ch, np.int64(1), "coordinates", np.int64(1))


class TestOracle:
    def test_decodable_pair(self):
        ch = ProductChannel.power(make_channel("T", 3), 2)
        good = book_from_strings(["01", "22"], q=3)
        assert corrects_t_errors(good, ch, 1)

    def test_conflicting_pair(self):
        ch = ProductChannel.power(make_channel("T", 3), 2)
        bad = book_from_strings(["11", "12"], q=3)
        assert not corrects_t_errors(bad, ch, 1)

    def test_negative_radius_rejected(self):
        # with t=-1 every ball is empty, so any code would "pass"
        ch = ProductChannel.power(make_channel("Z", 2), 2)
        bad = book_from_strings(["00", "01"])
        with pytest.raises(ValueError, match="t must be >= 0"):
            corrects_t_errors(bad, ch, -1)

    def test_mixed_example(self):
        rows = [(0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2),
                (1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1)]
        c = CodeBook.from_symbols(AlphabetSpec((2, 3, 3, 3)), rows)
        ch = ProductChannel.mixed([make_channel("Z", 2)] + [make_channel("T", 3)] * 3)
        assert corrects_t_errors(c, ch, 1)

    def test_oracle_equals_metric_on_chain(self):
        rng = random.Random(5)
        cases = 0
        for _ in range(120):
            q = rng.randrange(2, 5)
            n = rng.randrange(2, 7)
            size = rng.randrange(2, 12)
            pool = list(itertools.product(range(q), repeat=n))
            rows = rng.sample(pool, min(size, len(pool)))
            c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
            ch = ProductChannel.power(make_channel("chain", q), n)
            for t in (1, 2):
                assert corrects_t_errors(c, ch, t) == is_t_code(c, t)
                cases += 1
        assert cases >= 200

    def test_wrap_oracle_equals_lm_metric(self):
        rng = random.Random(6)
        for _ in range(60):
            q = rng.choice([3, 4, 5])
            n = rng.randrange(2, 5)
            pool = list(itertools.product(range(q), repeat=n))
            rows = rng.sample(pool, rng.randrange(2, 9))
            c = CodeBook.from_symbols(AlphabetSpec.uniform(q, n), rows)
            ch = ProductChannel.power(make_channel("L1-wrap", q), n)
            for t in (1, 2):
                oracle = corrects_t_errors(c, ch, t, counting="coordinates")
                assert oracle == is_lm_code(c, t, 1, wrap=True)


class TestSimulate:
    def test_zero_noise(self):
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        ch = ProductChannel.power(make_channel("Z", 2), 4)
        res = simulate_channel(c, ch, trials=500, seed=1, t=1, p=0.0)
        assert res.failures == 0

    def test_forced_single_error_on_one_code(self):
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        ch = ProductChannel.power(make_channel("Z", 2), 4)
        res = simulate_channel(c, ch, trials=2000, seed=2, t=1, force_errors=1)
        assert res.failures == 0

    def test_forced_error_on_non_code(self):
        c = book_from_strings(["00", "01"])
        ch = ProductChannel.power(make_channel("Z", 2), 2)
        res = simulate_channel(c, ch, trials=2000, seed=3, t=1, force_errors=1)
        assert res.failure_rate > 0

    def test_deterministic(self):
        c = book_from_strings(["000", "111", "122", "212", "221"], q=3)
        ch = ProductChannel.power(make_channel("T", 3), 3)
        a = simulate_channel(c, ch, trials=300, seed=9, t=1, p=0.05)
        b = simulate_channel(c, ch, trials=300, seed=9, t=1, p=0.05)
        assert a == b

    def test_verified_code_survives_forced_errors(self):
        from asymcodes import concat_code, hamming_parity_check
        from asymcodes.linearq import nullspace

        book = concat_code(nullspace(hamming_parity_check(3, 2))).codebook()
        ch = ProductChannel.power(make_channel("chain", 3), 8)
        res = simulate_channel(book, ch, trials=10_000, seed=4, t=1, force_errors=1)
        assert res.failures == 0
        assert res.decoder == "ball-lookup"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"p": 0.1, "force_errors": 1}, "exactly one"),
            ({"trials": -5, "p": 0.1}, "trials"),
            ({"t": -1, "p": 0.1}, "t must"),
            ({"force_errors": -3}, "force_errors"),
        ],
    )
    def test_rejects_bad_inputs(self, kwargs, message):
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        ch = ProductChannel.power(make_channel("Z", 2), 4)
        args = {"trials": 10, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=message):
            simulate_channel(c, ch, **args)

    def test_trials_are_checked_against_the_cap_first(self, monkeypatch):
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        ch = ProductChannel.power(make_channel("Z", 2), 4)
        bits = (4 * 10**30).bit_length() - 1
        with pytest.raises(EnumerationCapExceeded,
                           match=rf"^{10**30} trials of 4 symbols: at least 2\^{bits} exceeds"):
            simulate_channel(c, ch, trials=10**30, seed=1, p=0.1)
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 40)
        assert simulate_channel(c, ch, trials=10, seed=1, p=0.1).trials == 10
        with pytest.raises(EnumerationCapExceeded,
                           match="^11 trials of 4 symbols: 44 exceeds enumeration cap 40$"):
            simulate_channel(c, ch, trials=11, seed=1, p=0.1)

    def test_force_errors_past_the_errable_count_errs_every_one(self):
        # a count above the coordinates that can err moves each of them:
        # any force_errors of n or more draws as n does
        c = book_from_strings(["0000", "1100", "0011", "1111"])
        ch = ProductChannel.power(make_channel("Z", 2), 4)
        runs = [simulate_channel(c, ch, trials=300, seed=6, t=1, force_errors=k)
                for k in (4, 5, 10**30)]
        assert [(r.failures, r.force_errors) for r in runs] == [(222, 4), (222, 5), (222, 10**30)]
        assert simulate_channel(c, ch, trials=300, seed=6, t=1, force_errors=3).failures == 216


def _book(strings, sizes):
    return CodeBook.from_symbols(AlphabetSpec(sizes), [tuple(int(s) for s in w) for w in strings])


FIVE_Q5 = ["0000", "1240", "3311", "2222", "0303"]


class TestSimulationPinned:
    """Failure counts of the former dict-based coverage table, pinned: the
    ball enumerator must decode every trial the same way."""

    @pytest.mark.parametrize(
        "code, kinds, noise, t, failures",
        [
            (vt_code(8, 0, 2), ["Z"] * 8, {"p": 0.1}, 1, 183),
            (vt_code(8, 0, 2), ["Z"] * 8, {"force_errors": 2}, 2, 2685),
            (_book(["000", "111", "122", "212", "221"], (3,) * 3), ["T"] * 3, {"p": 0.2}, 1, 349),
            (_book(["0000", "1230", "3311", "2222", "0303"], (4,) * 4), ["chain"] * 4,
             {"p": 0.15}, 2, 48),
            (_book(FIVE_Q5, (5,) * 4), ["Rq"] * 4, {"p": 0.25}, 1, 821),
            (_book(FIVE_Q5, (5,) * 4), ["L1-wrap"] * 4, {"p": 0.3}, 1, 1041),
            (_book(["0000", "0111", "0222", "1012", "1120", "1201"], (2, 3, 3, 3)),
             ["Z", "T", "T", "T"], {"p": 0.1}, 1, 152),
            (_book(["00000", "00001", "00111", "01111", "11000"], (2,) * 5), ["Z"] * 5,
             {"force_errors": 1}, 1, 1386),
        ],
        ids=["Z p", "Z force t2", "T", "chain t2", "Rq", "L1-wrap", "mixed", "overlapping Z"],
    )
    def test_failures_match_former_table(self, code, kinds, noise, t, failures):
        ch = ProductChannel(tuple(make_channel(k, q) for k, q in zip(kinds, code.alphabet.sizes)))
        res = simulate_channel(code, ch, trials=3000, seed=23, t=t, **noise)
        assert res == channels.SimulationResult(
            3000, failures, 23, t, noise.get("p"), noise.get("force_errors"), "ball-lookup")


def _replay_pure_z(c, ch, trials, seed, t, p=None, force_errors=None):
    """Failure count of the former pure-Z simulation: the same random draws,
    decoded by the decrement decoder."""
    rng = random.Random(seed)
    rows = c.symbol_rows
    failures = 0
    for _ in range(trials):
        sent = rows[rng.randrange(len(rows))]
        received = list(sent)
        if force_errors is not None:
            errable = [i for i in range(len(sent)) if ch.coordinates[i].out_map[received[i]]]
            rng.shuffle(errable)
            for i in errable[:force_errors]:
                received[i] = rng.choice(ch.coordinates[i].out_map[received[i]])
        else:
            for i in range(len(sent)):
                outs = ch.coordinates[i].out_map[received[i]]
                if outs and rng.random() < p:
                    received[i] = rng.choice(outs)
        try:
            got = decode_asymmetric(c, tuple(received), t).symbols
        except DecodingError:
            got = None
        if got != sent:
            failures += 1
    return failures


# Not a 1-code: at t=1, 00000 lies in the balls of both 00000 and 00001.
OVERLAPPING_Z = ["00000", "00001", "00111", "01111", "11000"]
# 70 bits, so word indices take two limbs; 1^34 0^36 lies in the balls of
# both 1^34 0^36 and 1^35 0^35.
LONG_OVERLAPPING_Z = ["1" * 35 + "0" * 35, "1" * 34 + "0" * 36, "0" * 35 + "1" * 35]


class TestPureZMatchesDecrementDecoder:
    @pytest.mark.parametrize(
        "c", [vt_code(8, 0, 2), book_from_strings(OVERLAPPING_Z),
              book_from_strings(LONG_OVERLAPPING_Z)],
        ids=["vt n=8", "overlapping non-code", "70-bit overlapping non-code"],
    )
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("noise", [{"p": 0.1}, {"force_errors": 1}], ids=["p", "force"])
    def test_failures_equal_replay(self, c, t, noise):
        ch = ProductChannel.power(make_channel("Z", 2), c.n)
        res = simulate_channel(c, ch, trials=400, seed=17, t=t, **noise)
        assert res.failures == _replay_pure_z(c, ch, 400, 17, t, **noise)
        assert res.decoder == "ball-lookup"

    def test_overlapping_balls_fail(self):
        c = book_from_strings(OVERLAPPING_Z)
        ch = ProductChannel.power(make_channel("Z", 2), c.n)
        assert not corrects_t_errors(c, ch, 1)
        res = simulate_channel(c, ch, trials=400, seed=17, t=1, force_errors=1)
        assert res.failures > 0
