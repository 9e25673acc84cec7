from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from asymcodes import (
    AlphabetSpec,
    CodeBook,
    ProductChannel,
    Word,
    corrects_t_errors,
    decode_asymmetric,
    error_ball,
    is_lm_code,
    is_t_code,
    make_channel,
    simulate_channel,
    vt_code,
)
from asymcodes.words import AlphabetMismatch, DecodingError

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

    def test_cap_enforced(self):
        from asymcodes.words import EnumerationCapExceeded

        ch = ProductChannel.power(make_channel("Rq", 5), 6)
        x = Word((2,) * 6, AlphabetSpec.uniform(5, 6))
        with pytest.raises(EnumerationCapExceeded):
            error_ball(x, ch, 4, cap=10)

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


def _replay_pure_z(c, ch, trials, seed, t, p=None, force_errors=None):
    """Failure count of the former pure-Z simulation: the same random draws,
    decoded by the exhaustive decrement decoder."""
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


class TestPureZMatchesDecrementDecoder:
    @pytest.mark.parametrize(
        "c", [vt_code(8, 0, 2), book_from_strings(OVERLAPPING_Z)],
        ids=["vt n=8", "overlapping non-code"],
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
