from __future__ import annotations

import hashlib
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymcodes import (
    ProductChannel,
    SearchConfig,
    builtin_table_generators,
    construct_even,
    construct_extended,
    corrects_t_errors,
    enumerate_orbits,
    is_t_code,
    make_channel,
    orbits_compatible,
    search_cyclic,
    search_extended,
    weight_enumerator,
)
from asymcodes import cyclic, words
from asymcodes.cyclic import (
    BUILTIN_EXTENDED,
    BUILTIN_PLAIN,
    _ball1,
    _greedy,
    _instance,
    _max_weight_clique,
    _permute_bits,
    _run_search,
    orbit_of,
)
from asymcodes.words import EnumerationCapExceeded


def t_channel(m):
    return ProductChannel.power(make_channel("T", 3), m)


def necklace_count(m):
    # Burnside: (1/m) * sum over d | m of phi(d) * 3^(m/d)
    def phi(k):
        return sum(1 for i in range(1, k + 1) if __import__("math").gcd(i, k) == 1)

    return sum(phi(d) * 3 ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


class TestOrbits:
    def test_counts(self):
        assert len(enumerate_orbits(1)) == 3
        assert len(enumerate_orbits(4)) == 24
        for m in range(1, 8):
            assert len(enumerate_orbits(m)) == necklace_count(m)

    def test_members(self):
        o = orbit_of((0, 1, 1, 2))
        assert set(o.members) == {(0, 1, 1, 2), (2, 0, 1, 1), (1, 2, 0, 1), (1, 1, 2, 0)}
        assert o.representative == min(o.members)

    def test_weight_score(self):
        o = orbit_of((0, 1, 1, 2))
        assert o.weight_score == 4 * 2 ** (4 - 3)
        assert orbit_of((0, 0, 0)).weight_score == 8

    def test_representatives_sorted(self):
        reps = [o.representative for o in enumerate_orbits(5)]
        assert reps == sorted(reps)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_the_word_by_word_loop(self, m):
        # the orbits as first listed: every word in lex order, a new orbit
        # at each word no earlier orbit holds
        expected, seen = [], set()
        for v in range(3**m):
            word = tuple((v // 3 ** (m - 1 - i)) % 3 for i in range(m))
            if word not in seen:
                expected.append(orbit_of(word))
                seen.update(expected[-1].members)
        assert enumerate_orbits(m) == tuple(expected)


class TestCompatibility:
    def test_constant_orbits_compatible(self):
        assert orbits_compatible(orbit_of((0, 0, 0)), orbit_of((1, 1, 1)))

    def test_example_code_orbits(self):
        assert orbits_compatible(orbit_of((1, 1, 1)), orbit_of((1, 2, 2)))

    def test_conflicting_orbits(self):
        assert not orbits_compatible(orbit_of((1, 1)), orbit_of((1, 2)))

    def test_self_compatibility(self):
        assert not orbits_compatible(orbit_of((0, 0, 1)), orbit_of((0, 0, 1)))
        assert orbits_compatible(orbit_of((0, 1, 2)), orbit_of((0, 1, 2)))

    def test_matches_oracle_on_pairs(self):
        orbits = enumerate_orbits(3)
        ch = t_channel(3)
        selfok = {o.representative: orbits_compatible(o, o) for o in orbits}
        for o1, o2 in itertools.combinations(orbits, 2):
            if not (selfok[o1.representative] and selfok[o2.representative]):
                continue
            union = set(o1.members) | set(o2.members)
            from asymcodes import AlphabetSpec, CodeBook

            book = CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), union)
            assert orbits_compatible(o1, o2) == corrects_t_errors(book, ch, 1)


class TestSearch:
    def test_exact_m3_certified(self):
        code = search_cyclic(3)
        assert int(code.meta["score"]) == 12
        assert code.meta["proven_optimal"] == "yes"
        assert weight_enumerator(code).evaluate(2, 1) == 12
        assert corrects_t_errors(code, t_channel(3), 1)

    def test_exact_m3_matches_brute_force(self):
        # certify the certified maximum against full subset enumeration
        orbits = [o for o in enumerate_orbits(3) if orbits_compatible(o, o)]
        best = 0
        for mask in range(1 << len(orbits)):
            chosen = [o for i, o in enumerate(orbits) if mask >> i & 1]
            if all(
                orbits_compatible(a, b) for a, b in itertools.combinations(chosen, 2)
            ):
                from asymcodes import AlphabetSpec, CodeBook

                rows = [w for o in chosen for w in o.members]
                if rows and not corrects_t_errors(
                    CodeBook.from_symbols(AlphabetSpec.uniform(3, 3), rows), t_channel(3), 1
                ):
                    continue
                best = max(best, sum(o.weight_score for o in chosen))
        assert best == 12

    def test_exact_m4(self):
        code = search_cyclic(4)
        assert int(code.meta["score"]) >= 29
        assert code.meta["proven_optimal"] == "yes"
        assert corrects_t_errors(code, t_channel(4), 1)

    def test_exact_m5_certifies_bundled_score(self):
        code = search_cyclic(5, SearchConfig(time_budget=60.0))
        assert int(code.meta["score"]) == 98
        assert code.meta["proven_optimal"] == "yes"

    def test_budget_exhaustion_is_flagged_not_invalid(self):
        # the minimum node budget cannot finish m=7 exactly; the result must
        # carry the flag, still verify, and be at least as good as greedy
        cfg = SearchConfig(time_budget=0.001)
        code = search_cyclic(7, cfg)
        assert code.meta["proven_optimal"] == "no"
        assert corrects_t_errors(code, t_channel(7), 1)
        greedy = search_cyclic(7, SearchConfig(strategy="greedy"))
        assert int(code.meta["score"]) >= int(greedy.meta["score"])

    def test_shift_closure(self):
        code = search_cyclic(4)
        rows = code.symbol_set
        for w in rows:
            assert all(rot in rows for rot in orbit_of(w).members)

    def test_deterministic(self):
        cfg = SearchConfig(seed=5, strategy="randomized-restart", time_budget=2.0)
        a = search_cyclic(4, cfg)
        b = search_cyclic(4, cfg)
        assert a == b and a.meta == b.meta

    def test_strategies_all_valid(self):
        for strategy in ("exact-clique", "greedy", "randomized-restart"):
            for m in (3, 4, 5):
                cfg = SearchConfig(seed=1, strategy=strategy, time_budget=1.0)
                code = search_cyclic(m, cfg)
                assert corrects_t_errors(code, t_channel(m), 1), (strategy, m)
                image = construct_even(code, check=False)
                assert is_t_code(image, 1)

    def test_extended_m3(self):
        part0, part1 = search_extended(3)
        assert int(part0.meta["score"]) == 16
        assert part0.meta["proven_optimal"] == "yes"
        image = construct_extended(part0, part1)
        assert len(image) == 16 and is_t_code(image, 1)

    def test_extended_m4(self):
        cfg = SearchConfig(time_budget=20.0)
        part0, part1 = search_extended(4, cfg)
        assert int(part0.meta["score"]) >= 53
        image = construct_extended(part0, part1)
        assert is_t_code(image, 1)

    def test_seed_follows_the_integer_rule(self):
        with pytest.raises(ValueError, match=r"seed 1\.5 is not an integer"):
            SearchConfig(seed=1.5)
        cfg = SearchConfig(seed=np.int64(3), strategy="randomized-restart", time_budget=1)
        assert type(cfg.seed) is int
        assert search_cyclic(4, cfg) == search_cyclic(4, SearchConfig(
            seed=3, strategy="randomized-restart", time_budget=1))

    def test_rejects_an_unknown_strategy(self):
        with pytest.raises(ValueError, match=r"^unknown strategy 'bogus'$"):
            SearchConfig(strategy="bogus")

    @pytest.mark.parametrize("budget", [float("inf"), float("nan"), 0.0, -1.0])
    def test_rejects_budgets_that_are_not_positive_and_finite(self, budget):
        with pytest.raises(ValueError, match="positive finite"):
            SearchConfig(time_budget=budget)

    @pytest.mark.parametrize("budget, shown", [
        (1e308, "1e+308"),  # its node count, 5e312, overflows a float
        (10**400, str(10**400)),  # its restart count overflows a float
        (10**5000, "at least 2^16609"),  # past str()'s 4300-digit limit
    ], ids=["float", "int", "huge-int"])
    def test_rejects_budgets_whose_counts_overflow(self, budget, shown):
        with pytest.raises(ValueError, match=(
                f"^time budget {re.escape(shown)} overflows its node or restart count$")):
            SearchConfig(time_budget=budget)

    @pytest.mark.parametrize("budget", [0.001, 0.2, 0.3, 1, 5, 20, 60.0, 3400,
                                        Fraction(7, 3), True, 3.5e303, 10**300])
    def test_budgets_keep_their_node_and_restart_counts(self, budget):
        cfg = SearchConfig(time_budget=budget)
        for V in (0, 1, 7, 754, 10**6):
            assert cfg._counts(V) == (
                max(10_000, int(budget * 50_000)),
                max(1, min(20_000, int(budget * 2_000 / max(1, V)))))


@st.composite
def weighted_graphs(draw):
    """Random simple graphs on at most 10 vertices with tie-prone weights
    and distinct keys."""
    V = draw(st.integers(0, 10))
    weights = draw(st.lists(st.sampled_from([0, 1, 2, 3, 5]), min_size=V, max_size=V))
    adj = [0] * V
    for i, j in itertools.combinations(range(V), 2):
        if draw(st.booleans()):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    keys = draw(st.permutations(range(V)))
    return weights, adj, keys


def brute_force_clique(weights, adj, keys):
    """(best weight, sorted keys of the lexicographically smallest best
    clique) over every vertex subset."""
    V = len(weights)
    best = None
    for mask in range(1 << V):
        chosen = [i for i in range(V) if mask >> i & 1]
        if all(adj[a] >> b & 1 for a, b in itertools.combinations(chosen, 2)):
            cand = (-sum(weights[i] for i in chosen), tuple(sorted(keys[i] for i in chosen)))
            if best is None or cand < best:
                best = cand
    return -best[0], best[1]


def reference_clique(weights, adj, keys, node_budget, seed_solution=None):
    """The branch-and-bound as first written: caller labels, a scan over
    branch positions and the bound summed vertex by vertex.  A finished
    engine search must return its weight, mask and proof."""
    V = len(weights)
    order = sorted(range(V), key=lambda i: (-weights[i], keys[i]))
    best = {"w": -1, "mask": 0, "key": None}
    nodes = {"n": 0, "exhausted": False}

    def members(mask):
        return [i for i in range(V) if mask >> i & 1]

    def consider(w, mask):
        if w < best["w"]:
            return
        key = tuple(sorted(keys[i] for i in members(mask)))
        if w > best["w"] or best["key"] is None or key < best["key"]:
            best["w"], best["mask"], best["key"] = w, mask, key

    def expand(pos, cand, cur_w, cur_mask):
        nodes["n"] += 1
        if nodes["n"] > node_budget:
            nodes["exhausted"] = True
            return
        if not cand:
            consider(cur_w, cur_mask)
            return
        remaining = sum(weights[i] for i in members(cand))
        if cur_w + remaining < best["w"]:
            return
        progressed = False
        for p in range(pos, V):
            v = order[p]
            if not cand >> v & 1:
                continue
            if cur_w + remaining < best["w"]:
                break
            progressed = True
            expand(p + 1, cand & adj[v], cur_w + weights[v], cur_mask | 1 << v)
            if nodes["exhausted"]:
                return
            cand &= ~(1 << v)
            remaining -= weights[v]
        if not progressed or not cand:
            consider(cur_w, cur_mask)

    consider(0, 0)
    if seed_solution is not None:
        consider(*seed_solution)
    for p in range(V):
        v = order[p]
        cand = adj[v]
        for earlier in range(p):
            cand &= ~(1 << order[earlier])
        expand(p + 1, cand, weights[v], 1 << v)
        if nodes["exhausted"]:
            break
    return best["w"], best["mask"], not nodes["exhausted"], nodes["n"]


def reference_restarts(weights, adj, keys, cfg):
    """The randomized-restart loop and its greedy as first written: one
    rng.random() call per sort key, and a tie key built after every
    restart.  The engine must draw the same orders and keep the same best
    clique."""
    V = len(weights)

    def greedy(order):
        mask = total = 0
        allowed = (1 << V) - 1
        for v in order:
            bit = 1 << v
            if allowed & bit:
                mask |= bit
                total += weights[v]
                allowed &= adj[v] | bit
                allowed &= ~bit
        return total, mask

    base_order = sorted(range(V), key=lambda i: (-weights[i], keys[i]))
    rng = random.Random(cfg.seed)
    restarts = max(1, min(20_000, int(cfg.time_budget * 2_000 / max(1, V))))
    best_w, best_mask = greedy(base_order)
    best_key = tuple(sorted(keys[i] for i in range(V) if best_mask >> i & 1))
    for _ in range(restarts):
        order = sorted(range(V), key=lambda i: rng.random() / max(weights[i], 1))
        w, mask = greedy(order)
        key = tuple(sorted(keys[i] for i in range(V) if mask >> i & 1))
        if w > best_w or (w == best_w and key < best_key):
            best_w, best_mask, best_key = w, mask, key
    return best_w, best_mask


def kept_orbits(m):
    """The orbits of the set-based reference whose own balls are disjoint."""
    return [o for o in enumerate_orbits(m) if orbits_compatible(o, o)]


def instance_members(inst):
    """Each orbit's words in the instance, as the tuples of `Orbit.members`."""
    return [tuple(map(tuple, inst.rows[s:e].tolist())) for s, e in zip(inst.starts, inst.starts[1:])]


def greedy_seed(weights, adj, keys):
    """The greedy clique in (-weight, key) order, as `_run_search` seeds it."""
    return _greedy(weights, adj, sorted(range(len(weights)), key=lambda i: (-weights[i], keys[i])))


def assert_answers_as_the_reference(weights, adj, keys, budget, seed):
    """A finished search returns the reference's (weight, mask, proven); an
    exhausted one has counted the node past its budget and returns a
    clique of its weight, at least as heavy as the seed."""
    w, mask, proven, nodes, dolls = _max_weight_clique(weights, adj, keys, budget, seed)
    V = len(weights)
    chosen = [i for i in range(V) if mask >> i & 1]
    assert all(adj[a] >> b & 1 for a, b in itertools.combinations(chosen, 2))
    assert sum(weights[i] for i in chosen) == w
    if proven:
        assert nodes <= budget and dolls == V
        assert (w, mask, proven) == reference_clique(weights, adj, keys, 10**9, seed)[:3]
    else:
        assert nodes == budget + 1 and dolls < V
        assert w >= (seed[0] if seed else 0)


@st.composite
def tie_prone_graphs(draw):
    """Graphs on up to 120 vertices with tie-prone weights, zero included,
    so that weight classes run long and some steps are zero; the edges are
    drawn at a drawn density."""
    weights = draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 7, 224]), max_size=120))
    V = len(weights)
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 0.95]))
    adj = [0] * V
    for i, j in itertools.combinations(range(V), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    keys = draw(st.permutations(range(V)))
    return weights, adj, keys


@st.composite
def permutation_cases(draw):
    """Masks below 2**V and a permutation of range(V), for V at and around
    the byte and word boundaries or drawn up to 300."""
    V = draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]) | st.integers(0, 300))
    masks = draw(st.lists(st.integers(0, (1 << V) - 1), min_size=V, max_size=V))
    order = draw(st.permutations(range(V)))
    return masks, order


# SHA-256 of each search graph: its representatives, one byte per trit,
# then its adjacency masks, (V + 7) // 8 little-endian bytes each
GRAPH_DIGESTS = {
    (6, False): "f672264352da264de3da5453a045f9846c67295fb174b2c2bf0ecd381e2d8ac1",
    (7, False): "035dad7df6b8d70d5deedaa662732e324a47f997cbd14429d4c28c8902f25814",
    (8, False): "380c018473c42ede1793eca94fb33417a529559f7f7b783ae68a3e9fdca4d0cb",
    (9, False): "e5f66f39e302b9674fa48e8ae83e8237ae915f0f3e408e5977235b3810723c99",
    (5, True): "f97c0a7bb9614c993a04edf542760265ae56e7bc97b14fd7d9007dc10f5b47ad",
    (6, True): "ba36e3b7749b4b8525517df77c4aa9152b3d4427177876213c3d3e555dda347b",
    (7, True): "2f16aba317fa33cd0e34225aa58be904ca348a9cad6e9ef9edbf26d46831e40e",
    (8, True): "bf2648b473ee392d8dceef28725eee268be4535f0f6e5f57d66b2da58dac87fc",
}


class TestCliqueEngine:
    @given(tie_prone_graphs(), st.sampled_from([1, 7, 40, 20_000]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tie_prone_graphs_answer_as_the_reference(self, graph, budget, seeded):
        # long weight classes and zero weights test the strict doll bound:
        # a clique that can only tie the best must still be reached
        weights, adj, keys = graph
        seed = greedy_seed(weights, adj, keys) if seeded else None
        assert_answers_as_the_reference(weights, adj, keys, budget, seed)

    @given(permutation_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_relabelled_in_one_pass(self, case):
        masks, order = case
        # bit q of each result is bit order[q] of its mask
        expected = [sum((mask >> v & 1) << q for q, v in enumerate(order)) for mask in masks]
        assert _permute_bits(masks, order) == expected

    @given(weighted_graphs(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_subset_enumeration(self, graph, seeded):
        weights, adj, keys = graph
        V = len(weights)
        seed = greedy_seed(weights, adj, keys) if seeded else None
        w, mask, proven, nodes, dolls = _max_weight_clique(weights, adj, keys, 10**6, seed)
        chosen = [i for i in range(V) if mask >> i & 1]
        assert proven and dolls == V
        assert (nodes == 0) == (V == 0)
        assert sum(weights[i] for i in chosen) == w
        assert (w, tuple(sorted(keys[i] for i in chosen))) == brute_force_clique(weights, adj, keys)

    @given(weighted_graphs(), st.integers(1, 40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_small_budgets_answer_as_the_reference(self, graph, budget, seeded):
        # small budgets make many runs stop early: those must still return
        # a clique no lighter than the seed
        weights, adj, keys = graph
        seed = greedy_seed(weights, adj, keys) if seeded else None
        assert_answers_as_the_reference(weights, adj, keys, budget, seed)

    @pytest.mark.parametrize("m, budget", [(5, 10**6), (5, 300), (6, 2_000), (6, 10**6)])
    def test_search_graphs_answer_as_the_reference(self, m, budget):
        inst = _instance(m, False)
        weights, adj, keys = inst.weights, list(inst.adj), inst.keys
        assert_answers_as_the_reference(weights, adj, keys, budget, greedy_seed(weights, adj, keys))

    @pytest.mark.parametrize("m, budget", [(5, 10**6), (6, 2_000)])
    def test_split_graphs_answer_as_the_reference(self, m, budget):
        inst = _instance(m, True)
        weights, adj, keys = inst.weights, list(inst.adj), inst.keys
        assert_answers_as_the_reference(weights, adj, keys, budget, greedy_seed(weights, adj, keys))

    def test_proof_node_counts_pinned(self):
        # counts are pinned, not bounded by the reference's: the doll bound
        # takes more (cheaper) nodes than the reference on plain m = 6
        cfg = SearchConfig(time_budget=60.0)
        code = search_cyclic(6, cfg)
        assert (code.meta["score"], code.meta["proven_optimal"]) == ("336", "yes")
        assert (code.meta["nodes"], code.meta["dolls"]) == ("96877", "98/98")
        part0, _ = search_extended(5, cfg)
        assert (part0.meta["score"], part0.meta["proven_optimal"]) == ("154", "yes")
        assert (part0.meta["nodes"], part0.meta["dolls"]) == ("18024", "78/78")

    @pytest.mark.parametrize(
        "m, split",
        [(6, False), (7, False), (8, False), (5, True), (6, True)],
        ids=["plain_instance-6", "plain_instance-7", "plain_instance-8",
             "split_instance-5", "split_instance-6"],
    )
    def test_restarts_equal_the_reference_loop(self, m, split):
        inst = _instance(m, split)
        for seed in range(5):
            cfg = SearchConfig(seed=seed, strategy="randomized-restart")
            best_w, best_mask = reference_restarts(inst.weights, list(inst.adj), inst.keys, cfg)
            expected = {"score": str(best_w), "strategy": "randomized-restart",
                        "seed": str(seed), "proven_optimal": "no"}
            meta, mask = _run_search(inst, cfg)
            assert (meta, mask) == (expected, best_mask), seed
            assert list(meta) == list(expected)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_plain_graph_equals_pairwise_compatibility(self, m):
        inst, orbits = _instance(m, False), kept_orbits(m)
        assert instance_members(inst) == [o.members for o in orbits]
        adj, V = inst.adj, len(orbits)
        for i, j in itertools.product(range(V), repeat=2):
            expected = i != j and orbits_compatible(orbits[i], orbits[j])
            assert bool(adj[i] >> j & 1) == expected, (m, i, j)
        assert all(a >> V == 0 for a in adj)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_extended_graph_equals_definition(self, m):
        inst, orbits = _instance(m, True), kept_orbits(m)
        plain = _instance(m, False)
        assert inst.starts == plain.starts and np.array_equal(inst.rows, plain.rows)
        assert instance_members(inst) == [o.members for o in orbits]
        ext = inst.adj
        balls = [set().union(*(_ball1(w) for w in o.members)) for o in orbits]
        members = [set(o.members) for o in orbits]
        V = len(orbits)
        assert len(ext) == 2 * V
        for i, j in itertools.product(range(V), repeat=2):
            same = i != j and balls[i].isdisjoint(balls[j])
            # part-0 orbit i next to part-1 orbit j
            cross = i != j and balls[i].isdisjoint(members[j])
            assert bool(ext[2 * i] >> (2 * j) & 1) == same
            assert bool(ext[2 * i + 1] >> (2 * j + 1) & 1) == same
            assert bool(ext[2 * i] >> (2 * j + 1) & 1) == cross
            assert bool(ext[2 * j + 1] >> (2 * i) & 1) == cross
        assert all(e >> (2 * V) == 0 for e in ext)

    @pytest.mark.parametrize("m, split", sorted(GRAPH_DIGESTS))
    def test_graph_bytes_pinned(self, m, split):
        # the set-based reference is too slow past m = 6 (plain) and 5
        # (split); these digests are of the graphs the lexsort-based
        # builder gave, so every later builder must give them byte for byte
        inst = _instance(m, split)
        digest = hashlib.sha256()
        for start in inst.starts[:-1]:
            digest.update(bytes(inst.rows[start]))
        width = (len(inst.adj) + 7) // 8
        for a in inst.adj:
            digest.update(a.to_bytes(width, "little"))
        assert digest.hexdigest() == GRAPH_DIGESTS[m, split]

    def test_plain_m8_build_stays_small(self):
        # the listing and the vertex labels are int32 at m = 8: the build's
        # traced peak was 3.60 MiB with int64 ones
        import tracemalloc

        tracemalloc.start()
        try:
            _instance.__wrapped__(8, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_budget_exhausted_results_pinned(self):
        # 5 units of node budget are 250 000 nodes; the node that runs out
        # is counted too; `dolls` says how far the proof got
        code = search_cyclic(7, SearchConfig(time_budget=5.0))
        assert code.meta["score"] == "863"
        assert code.meta["proven_optimal"] == "no"
        assert (code.meta["nodes"], code.meta["dolls"]) == ("250001", "68/287")
        part0, part1 = search_extended(6, SearchConfig(time_budget=5.0))
        assert part0.meta["score"] == "507"
        assert part0.meta["proven_optimal"] == "no"
        assert (part0.meta["nodes"], part0.meta["dolls"]) == ("250001", "66/196")

    def test_largest_graph_budget_result_pinned(self):
        # the m=8 plain graph has 754 vertices; one unit of budget is
        # 50 000 nodes
        assert len(_instance(8, False).weights) == 754
        code = search_cyclic(8, SearchConfig(time_budget=1.0))
        assert code.meta["score"] == "3190"
        assert code.meta["proven_optimal"] == "no"
        assert code.meta["nodes"] == "50001"

    def test_budget_is_the_only_exact_bound(self):
        # no limit on m but the cap: plain m=9 (2123 vertices) and split
        # m=8 (1508 vertices) stop at one unit of node budget
        code = search_cyclic(9, SearchConfig(time_budget=1.0))
        assert (code.meta["score"], code.meta["proven_optimal"]) == ("12053", "no")
        assert code.meta["nodes"] == "50001"
        assert len(construct_even(code, check=True)) == 12053
        part0, part1 = search_extended(8, SearchConfig(time_budget=1.0))
        assert (part0.meta["score"], part0.meta["proven_optimal"]) == ("6094", "no")
        assert part0.meta["nodes"] == "50001"
        assert len(construct_extended(part0, part1, check=True)) == 6094

    @pytest.mark.parametrize("m, split, budget", [(7, False, 5.0), (6, True, 5.0),
                                                  (8, False, 1.0), (9, False, 1.0),
                                                  (8, True, 1.0)])
    def test_budgeted_scores_are_the_greedy_seeds(self, m, split, budget):
        # the dolls reach the heavy vertices last: each pinned budgeted
        # score above is its greedy seed
        search = search_extended if split else search_cyclic
        exact = search(m, SearchConfig(time_budget=budget))
        greedy = search(m, SearchConfig(strategy="greedy"))
        exact, greedy = (exact[0], greedy[0]) if split else (exact, greedy)
        assert exact.meta["score"] == greedy.meta["score"]

    def test_node_count_is_exact_strategy_only(self):
        nodes = search_cyclic(5).meta["nodes"]
        assert int(nodes) > 0
        assert search_cyclic(5).meta["nodes"] == nodes
        greedy = search_cyclic(5, SearchConfig(strategy="greedy")).meta
        assert "nodes" not in greedy and "dolls" not in greedy

    def test_enumeration_cap_checked_before_building(self, monkeypatch):
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 3**6 - 1)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_orbits(6)
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 3**6)
        assert len(enumerate_orbits(6)) == necklace_count(6)

    def test_graph_balls_are_checked_against_the_cap(self, monkeypatch):
        # the m=6 radius-1 balls hold 729 + 6 * (243 * 2 + 486) = 6561 words,
        # though its 729 words fit under the cap
        _instance.cache_clear()
        try:
            monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 3**6)
            with pytest.raises(EnumerationCapExceeded,
                               match="radius-1 error balls: 6561 exceeds enumeration cap 729"):
                _instance(6, False)
            monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 6561)
            assert len(_instance(6, False).weights) == 98
        finally:
            _instance.cache_clear()

    def test_the_cap_is_the_only_size_bound(self, monkeypatch):
        # 3^14 words exceed the cap; no second bound on m answers first
        monkeypatch.setattr(words, "DEFAULT_ENUM_CAP", 10**6)
        with pytest.raises(EnumerationCapExceeded, match="3\\^14 words: 4782969 exceeds"):
            enumerate_orbits(14)
        with pytest.raises(ValueError, match="m >= 1"):
            enumerate_orbits(0)

    def test_graph_caches_are_bounded(self):
        assert _instance.cache_info().maxsize == 8


INSTANCE_CASES = [(m, False) for m in range(1, 7)] + [(m, True) for m in range(1, 6)]


class TestInstance:
    """The search instance against the Orbit reference."""

    @pytest.mark.parametrize("m, split", INSTANCE_CASES)
    def test_weights_are_the_orbit_weight_scores(self, m, split):
        parts = 2 if split else 1
        weights = _instance(m, split).weights
        assert weights == tuple(o.weight_score for o in kept_orbits(m) for _ in range(parts))
        assert all(type(w) is int for w in weights)

    @pytest.mark.parametrize("m, split", INSTANCE_CASES)
    def test_keys_sort_as_part_and_representative(self, m, split):
        parts = 2 if split else 1
        keys, orbits = _instance(m, split).keys, kept_orbits(m)
        assert len(keys) == parts * len(orbits) and all(type(k) is int for k in keys)
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        assert by_key == sorted(range(len(keys)), key=lambda v: (v % parts, orbits[v // parts].representative))

    @pytest.mark.parametrize("m, split", INSTANCE_CASES)
    def test_rows_hold_each_orbit_s_members(self, m, split):
        inst = _instance(m, split)
        assert instance_members(inst) == [o.members for o in kept_orbits(m)]
        assert inst.starts[0] == 0 and inst.starts[-1] == len(inst.rows)
        assert not inst.rows.flags.writeable

    @pytest.mark.parametrize("split", [False, True])
    def test_one_orbit_listing_per_build(self, monkeypatch, split):
        listings = []
        orbit_rows = cyclic._orbit_rows

        def counted(m):
            listings.append(m)
            return orbit_rows(m)

        def unused(m):
            raise AssertionError("the search built Orbit tuples")

        monkeypatch.setattr(cyclic, "_orbit_rows", counted)
        monkeypatch.setattr(cyclic, "enumerate_orbits", unused)
        _instance.cache_clear()
        try:
            search = search_extended if split else search_cyclic
            search(5, SearchConfig(strategy="greedy"))
            search(5, SearchConfig(strategy="greedy"))
        finally:
            _instance.cache_clear()
        assert listings == [5]


class TestIntegerLength:
    """m follows the integer rule at every entry point, before any cache
    could take 3.0 for 3."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("m", [3.0, "3", 3.5])
    @pytest.mark.parametrize(
        "call",
        [search_cyclic, search_extended, enumerate_orbits, builtin_table_generators,
         lambda m: builtin_table_generators(m, extended=True)],
        ids=["search_cyclic", "search_extended", "enumerate_orbits", "builtin_plain",
             "builtin_extended"],
    )
    def test_m_that_is_not_an_integer_is_refused(self, call, m, warm):
        _instance.cache_clear()
        try:
            if warm:
                call(3)
            with pytest.raises(ValueError, match=f"^{re.escape(f'm {m!r} is not an integer')}$"):
                call(m)
        finally:
            _instance.cache_clear()

    def test_integer_types_are_read_as_ints(self):
        assert search_cyclic(np.int64(4)) == search_cyclic(4)
        assert enumerate_orbits(np.uint8(3)) == enumerate_orbits(3)
        assert builtin_table_generators(np.int32(4)) == builtin_table_generators(4)


EXPECTED_PLAIN = {3: 12, 4: 29, 5: 98, 6: 336, 7: 1200, 8: 3952}
EXPECTED_EXTENDED = {3: 16, 4: 53, 5: 154, 6: 612, 7: 2144}


class TestBuiltinTables:
    @pytest.mark.parametrize("m", sorted(BUILTIN_PLAIN))
    def test_plain_closures(self, m):
        closure = builtin_table_generators(m)
        assert corrects_t_errors(closure, t_channel(m), 1)
        assert weight_enumerator(closure).evaluate(2, 1) == EXPECTED_PLAIN[m]

    @pytest.mark.parametrize("m", sorted(BUILTIN_EXTENDED))
    def test_extended_closures(self, m):
        part0, part1 = builtin_table_generators(m, extended=True)
        image = construct_extended(part0, part1)
        assert len(image) == EXPECTED_EXTENDED[m]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            builtin_table_generators(9)
        with pytest.raises(ValueError):
            builtin_table_generators(8, extended=True)

    def test_generator_lengths(self):
        for m, gens in BUILTIN_PLAIN.items():
            assert all(len(g) == m for g in gens)
        for m, (g0, g1) in BUILTIN_EXTENDED.items():
            assert all(len(g) == m for g in g0 + g1)
