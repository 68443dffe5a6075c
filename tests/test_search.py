from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from itertools import combinations
from random import Random

import pytest

from diotuples import search
from diotuples.quad_ring import QuadInt, _iter_half, elem_key, format_elem, is_squarefree, make_ring
from diotuples.search import (
    SearchConfig,
    brute_force_tuples,
    build_graph,
    clamp_workers,
    enum_elements,
    field_cost,
    find_cliques,
    run_campaign,
)
from diotuples.tuples import make_tuple, verify_tuple
from helpers import adjacency_masks, box_elements

R1 = make_ring(1)
R3 = make_ring(3)
M1 = QuadInt(R1, -1, 0)


def q1(x, y=0):
    return QuadInt(R1, x, y)


class TestEnumElements:
    def test_unit_counts(self):
        assert len(enum_elements(R1, 1)) == 4
        assert len(enum_elements(R3, 1)) == 6

    def test_far_half_ring(self):
        got = enum_elements(make_ring(163), 40)
        assert sorted(format_elem(e) for e in got) == sorted(
            str(s) for k in range(1, 7) for s in (k, -k)
        )

    def test_matches_box_oracle(self):
        rng = Random(21)
        for _ in range(12):
            D = rng.choice([1, 2, 3, 5, 7, 11, 15, 19])
            max_norm = rng.randrange(1, 80)
            ring = make_ring(D)
            got = enum_elements(ring, max_norm)
            assert got == sorted(box_elements(ring, max_norm), key=elem_key)
            assert len(set(got)) == len(got)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enum_elements(R1, 0)


class TestBuildGraph:
    def test_complete_on_quadruple(self):
        g = build_graph([q1(1), q1(2), q1(5), q1(-24)], M1)
        assert g.edge_count == 6

    def test_adjacency_pinned_d1_576(self):
        # adjacency recorded from the object-arithmetic build, before the integer kernel
        g = build_graph(enum_elements(R1, 576), M1)
        assert (len(g.vertices), g.edge_count) == (1792, 8937)
        assert adjacency_digest(g) == "fd8f5760a8a2c12c71c49ef885f511d1628312b90f1bc226b09203af378ef1f4"

    def test_sign_class_pairs(self):
        # {1, -1}: 1*(-1) + 1 = 0 is a square; {a, -a} edges need both signs present
        g = build_graph([q1(1), q1(-1), q1(3)], QuadInt(R1, 1, 0))
        assert {frozenset(e) for e in g.edges()} == {frozenset((q1(1), q1(-1))), frozenset((q1(1), q1(3)))}

    def test_no_edge(self):
        g = build_graph([q1(1), q1(3)], M1)
        assert g.edge_count == 0

    def test_empty(self):
        g = build_graph([], M1)
        assert g.edge_count == 0 and g.vertices == []

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            build_graph([q1(0), q1(1)], M1)
        with pytest.raises(ValueError):
            build_graph([q1(1), q1(1)], M1)

    def test_edges_match_pairwise_definition(self):
        elems = enum_elements(R1, 20)
        g = build_graph(elems, M1)
        edge_set = {frozenset(e) for e in g.edges()}
        from diotuples.tuples import pair_witness

        want = {
            frozenset((a, b))
            for a, b in combinations(elems, 2)
            if pair_witness(a, b, M1) is not None
        }
        assert edge_set == want


def adjacency_digest(g) -> str:
    return hashlib.sha256(",".join(map(str, adjacency_masks(g))).encode()).hexdigest()


def pairwise_edges(elems, n) -> set[frozenset]:
    from diotuples.tuples import pair_witness

    return {frozenset((a, b)) for a, b in combinations(elems, 2) if pair_witness(a, b, n) is not None}


class TestDivisorKernel:
    # the digests were recorded from the all-pairs build, before the divisor kernel
    @pytest.mark.parametrize(
        "D, max_norm, size, digest",
        [
            (1, 2000, (6292, 38291), "0e050adbc3ba3fccc0c16ed38b5a4ad49cdc87bad3220a5e2bc9ef1ee9067301"),
            (3, 1000, (3642, 3110), "c7102d66a4b91715e42b11bbc381e11e55e9f2bd829d4cc9b8178e4f5c4b1c6d"),
        ],
        ids=["D1-N2000", "D3-N1000"],
    )
    def test_adjacency_pinned_large(self, D, max_norm, size, digest):
        ring = make_ring(D)
        g = build_graph(enum_elements(ring, max_norm), QuadInt(ring, -1, 0))
        assert (len(g.vertices), g.edge_count) == size
        assert adjacency_digest(g) == digest

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_zero_shift(self, D):
        # n = 0: w = x**2 - n vanishes at x = 0, and {a, b} is an edge iff a*b is a square
        ring = make_ring(D)
        n = QuadInt(ring, 0, 0)
        elems = enum_elements(ring, 40)
        g = build_graph(elems, n)
        assert g.edge_count > 0
        assert {frozenset(e) for e in g.edges()} == pairwise_edges(elems, n)

    @pytest.mark.parametrize("D", [3, 7, 11])
    def test_half_mode_non_real_shift(self, D):
        # n = omega = (1+sqrt(-D))/2 and n = 2 - omega have odd half-coordinates
        ring = make_ring(D)
        elems = enum_elements(ring, 60)
        for n in (QuadInt(ring, 0, 1), QuadInt(ring, 2, -1)):
            g = build_graph(elems, n)
            assert g.edge_count > 0
            assert {frozenset(e) for e in g.edges()} == pairwise_edges(elems, n)

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_pairs_not_closed_under_negation(self, D):
        # one division per pair {a, -a}: a list of lower-half-plane elements has no vertex in
        # _iter_half's half-plane, and in the mixed lists some a lack -a, on either side
        ring = make_ring(D)
        rng = Random(D)
        ball = enum_elements(ring, 40)
        upper = [e for e in ball if e.half_coords() > (0, 0)]
        lower = [e for e in ball if e.half_coords() < (0, 0)]
        lists = {
            "lower": lower,
            "upper, some lower": upper + rng.sample(lower, len(lower) // 2),
            "lower, some upper": lower + rng.sample(upper, len(upper) // 2),
        }
        for n in (QuadInt(ring, -1, 0), QuadInt(ring, 0, 1)):  # -1 and omega, which is not real
            for name, elems in lists.items():
                want = pairwise_edges(elems, n)
                assert want, (name, n)
                assert {frozenset(e) for e in build_graph(elems, n).edges()} == want, (name, n)

    def test_sparse_list_with_high_norm(self):
        # not a norm ball: the x range follows the two largest norms, b is looked up by membership
        elems = [q1(1), q1(2), q1(5), q1(-24), q1(100)]  # -24*100 - 1 = (49i)**2
        g = build_graph(elems, M1)
        want = pairwise_edges(elems, M1)
        assert frozenset((q1(-24), q1(100))) in want and len(want) == 7
        assert {frozenset(e) for e in g.edges()} == want

    def test_large_shift_widens_witness_range(self):
        # 1*2 + 23 = 5**2: norm(x) = 25 is far above norm(1)*norm(2), so the range needs the norm(n) term
        g = build_graph([q1(1), q1(2)], q1(23))
        assert g.edge_count == 1
        # (-6-6i)(-3-i) + 4+6i = (5+3i)**2 with norm 34 = isqrt(720) + isqrt(52) + 1: the bound is tight
        g = build_graph([q1(-6, -6), q1(-3, -1)], q1(4, 6))
        assert g.edge_count == 1

    def test_norm_window_ends(self):
        # the window of m = norm(a) is ceil(M/N1) <= m <= isqrt(M), with M = norm(a*b)
        # (1+i)(1-i) - 1 = 1**2: equal norms, m*m = M, the top end
        # 1*(-24) - 1 = (5i)**2: norm(-24) = N1, m = M/N1, the bottom end
        elems = [q1(1), q1(1, 1), q1(1, -1), q1(-24)]
        g = build_graph(elems, M1)
        want = pairwise_edges(elems, M1)
        assert {frozenset((q1(1, 1), q1(1, -1))), frozenset((q1(1), q1(-24)))} <= want
        assert {frozenset(e) for e in g.edges()} == want

    def test_witness_zero(self):
        # x = 0 is a witness: i*(-i) - 1 = 0
        g = build_graph([q1(0, 1), q1(0, -1), q1(2)], M1)
        assert {frozenset(e) for e in g.edges()} == {frozenset((q1(0, 1), q1(0, -1)))}


class TestFindCliques:
    def test_k4(self):
        g = build_graph([q1(1), q1(2), q1(5), q1(-24)], M1)
        cliques = find_cliques(g, 4)
        assert len(cliques) == 1
        assert sorted(format_elem(e) for e in cliques[0]) == ["-24", "1", "2", "5"]

    def test_k2_is_edge_list(self):
        elems = enum_elements(R1, 30)
        g = build_graph(elems, M1)
        cliques = {frozenset(c) for c in find_cliques(g, 2)}
        assert cliques == {frozenset(e) for e in g.edges()}

    def test_k_too_small(self):
        g = build_graph([q1(1)], M1)
        with pytest.raises(ValueError):
            find_cliques(g, 1)

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 11])
    def test_oracle_equivalence_sampled(self, D):
        ring = make_ring(D)
        n = QuadInt(ring, -1, 0)
        rng = Random(100 + D)
        for _ in range(4):
            max_norm = rng.randrange(5, 61)
            elems = enum_elements(ring, max_norm)
            g = build_graph(elems, n)
            for k in (3, 4):
                got = find_cliques(g, k)
                want = brute_force_tuples(elems, k, n)
                assert len(got) == len(set(got)) and set(got) == set(want)

    def test_literal_subset_filter_small(self):
        # on a tiny instance, compare against filtering every k-subset literally
        elems = enum_elements(R1, 12)
        g = build_graph(elems, M1)
        for k in (2, 3):
            literal = [
                tuple(sub)
                for sub in combinations(elems, k)
                if verify_tuple(make_tuple(R1, M1, sub)).ok
            ]
            assert set(find_cliques(g, k)) == set(literal)
            assert set(brute_force_tuples(elems, k, M1)) == set(literal)

    # recorded from the bitmask DFS; _group_orbits takes its representatives in this order
    @pytest.mark.parametrize(
        "D, max_norm, count, digest",
        [
            (1, 576, 2398, "214f9eb7e6329d99d11d1bc87112f9fd873fe7fa5c77dc2dab599b9c90f1ae2e"),
            (3, 600, 698, "8e1ab5b4a570e6dffaa427eca9731610640093c9c273d697a4f136622c64738f"),
        ],
        ids=["D1-N576", "D3-N600"],
    )
    def test_clique_order_pinned(self, D, max_norm, count, digest):
        ring = make_ring(D)
        g = build_graph(enum_elements(ring, max_norm), QuadInt(ring, -1, 0))
        cliques = find_cliques(g, 3)
        blob = json.dumps([[[e.x, e.y] for e in c] for c in cliques]).encode()
        assert len(cliques) == count
        assert hashlib.sha256(blob).hexdigest() == digest


class TestBruteForce:
    def test_k_exceeds_elements(self):
        assert brute_force_tuples([q1(1), q1(2)], 3, M1) == []

    def test_k2_matches_edges(self):
        elems = enum_elements(R1, 25)
        g = build_graph(elems, M1)
        assert {frozenset(c) for c in brute_force_tuples(elems, 2, M1)} == {
            frozenset(e) for e in g.edges()
        }


class TestQuadrupleProducts:
    def test_no_pair_product_is_square_in_found_quadruples(self):
        # in any D(-1) quadruple, no pairwise product can be a square
        from diotuples.quad_ring import sqrt_exact
        from helpers import chain_quadruples_zi

        cfg = SearchConfig(D_list=[1], max_norm=576, k=4, n="-1")
        quads = list(run_campaign(cfg).all_clique_sets()[1])
        quads += [frozenset(q) for q in chain_quadruples_zi(R1)]
        assert len(quads) >= 10
        for s in quads:
            elems = sorted(s, key=elem_key)
            for a, b in combinations(elems, 2):
                assert sqrt_exact(a * b) is None, (a, b)


class TestMonotonicity:
    def test_growing_norm_keeps_cliques(self):
        n = M1
        small = {frozenset(c) for c in find_cliques(build_graph(enum_elements(R1, 40), n), 3)}
        large = {frozenset(c) for c in find_cliques(build_graph(enum_elements(R1, 90), n), 3)}
        assert small <= large


class TestCampaign:
    def test_finds_example_quadruple(self, tmp_path):
        cfg = SearchConfig(D_list=[1], max_norm=576, k=4, n="-1")
        report = run_campaign(cfg)
        sets = report.all_clique_sets()[1]
        assert frozenset({q1(1), q1(2), q1(5), q1(-24)}) in sets
        assert report.total_cliques > 0
        # every reported clique re-verifies
        for s in sets:
            assert verify_tuple(make_tuple(R1, M1, s)).ok

    def test_symmetry_prune_equivalence(self):
        for D in (1, 3):
            base = dict(D_list=[D], max_norm=120, k=3, n="-1")
            on = run_campaign(SearchConfig(**base, symmetry_prune=True))
            off = run_campaign(SearchConfig(**base, symmetry_prune=False))
            assert on.all_clique_sets() == off.all_clique_sets()
            assert on.total_cliques == off.total_cliques

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        cfg = SearchConfig(D_list=[1, 2, 3], max_norm=60, k=3, n="-1", checkpoint_path=path)
        first = run_campaign(cfg)
        with open(path) as f:
            saved = json.load(f)
        assert sorted(saved["completed"]) == ["1", "2", "3"]
        # drop one field and resume: the rest must be reused, results identical
        del saved["completed"]["2"]
        with open(path, "w") as f:
            json.dump(saved, f)
        second = run_campaign(cfg)
        assert first.all_clique_sets() == second.all_clique_sets()
        assert [r.to_json() for r in first.results][0] == [r.to_json() for r in second.results][0]

    def test_checkpoint_config_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        run_campaign(SearchConfig(D_list=[1], max_norm=30, k=3, n="-1", checkpoint_path=path))
        other = SearchConfig(D_list=[1], max_norm=31, k=3, n="-1", checkpoint_path=path)
        with pytest.raises(ValueError, match="different configuration"):
            run_campaign(other)

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)  # run the pool even on one CPU
        base = dict(D_list=[1, 2, 5, 13], max_norm=80, k=3, n="-1")
        serial = run_campaign(SearchConfig(**base, jobs=1))
        parallel = run_campaign(SearchConfig(**base, jobs=2))
        assert serial.all_clique_sets() == parallel.all_clique_sets()
        assert [r.D for r in parallel.results] == [1, 2, 5, 13]
        # 38 fields in 8 chunks: several fields per chunk, and the merge is still by D
        many = dict(D_list=SQUAREFREE_60, max_norm=40, k=3, n="-1")
        serial = run_campaign(SearchConfig(**many, jobs=1))
        parallel = run_campaign(SearchConfig(**many, jobs=2))
        assert [r.D for r in parallel.results] == SQUAREFREE_60
        assert [without_wall_time(r) for r in parallel.results] == [without_wall_time(r) for r in serial.results]

    def test_large_D_supported(self):
        # fields beyond D = 226 stay searchable; for D = 895 (3 mod 4) the ring
        # still has non-real elements of norm <= 224, e.g. (1+sqrt(-895))/2
        ring = make_ring(895)
        elems = enum_elements(ring, 224)
        assert any(e.y != 0 for e in elems)
        report = run_campaign(SearchConfig(D_list=[895], max_norm=224, k=5, n="-1"))
        assert report.total_cliques == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_campaign(SearchConfig(D_list=[4], max_norm=10, k=3))
        with pytest.raises(ValueError):
            SearchConfig(D_list=[1], max_norm=0, k=3).validate()
        with pytest.raises(ValueError):
            SearchConfig(D_list=[1], max_norm=10, k=1).validate()

    def test_validate_parses_n_in_every_ring(self, tmp_path):
        # (1+sqrt(-D))/2 is in O_K for D = 3 but not for D = 5
        path = tmp_path / "ck.json"
        cfg = SearchConfig(D_list=[3, 5], max_norm=10, k=3, n="(1+1*s)/2", checkpoint_path=str(path))
        with pytest.raises(ValueError, match="D=5"):
            cfg.validate()
        with pytest.raises(ValueError):
            run_campaign(cfg)
        assert not path.exists()

    def test_config_hash_canonical_n(self):
        base = dict(D_list=[1, 2, 3], max_norm=60, k=3)
        hashes = {SearchConfig(**base, n=t).config_hash() for t in ("-1", "-1+0*w", " -1 ")}
        # the digest of n="-1" predates canonical hashing: old checkpoints still load
        assert hashes == {"17cefd20396b1d82befd0c04cb9dd8e39cf4ed47b29b5e91a87018b14a24d440"}
        # 1+w is (2+2*s)/2 for D = 1, 2 but (3+s)/2 for D = 3
        assert SearchConfig(**base, n="1+1*w").config_hash() != SearchConfig(**base, n="(2+2*s)/2").config_hash()
        one_mode = dict(D_list=[1, 2], max_norm=60, k=3)
        assert SearchConfig(**one_mode, n="1+1*w").config_hash() == SearchConfig(**one_mode, n="(2+2*s)/2").config_hash()

    def test_schema1_checkpoint_resumes(self, tmp_path):
        # a checkpoint as written before canonical hashing, with a marker result for D = 1
        path = tmp_path / "ck.json"
        marker = {"D": 1, "vertex_count": 0, "edge_count": 0, "cliques": [], "wall_time": 12.5}
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "version": "0.1.0",
                    "config_hash": "17cefd20396b1d82befd0c04cb9dd8e39cf4ed47b29b5e91a87018b14a24d440",
                    "config": {"D_list": [1, 2, 3], "max_norm": 60, "k": 3, "n": "-1", "symmetry_prune": True},
                    "completed": {"1": marker},
                }
            )
        )
        cfg = SearchConfig(D_list=[1, 2, 3], max_norm=60, k=3, n="-1", checkpoint_path=str(path))
        report = run_campaign(cfg)
        assert report.results[0].to_json() == marker
        assert [r.D for r in report.results] == [1, 2, 3]
        assert sorted(json.loads(path.read_text())["completed"]) == ["1", "2", "3"]

    def test_config_hash_once_per_campaign(self, tmp_path, monkeypatch):
        calls = []
        real = SearchConfig.config_hash

        def counted(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(SearchConfig, "config_hash", counted)
        path = tmp_path / "ck.json"
        cfg = SearchConfig(D_list=[1, 2, 3, 5], max_norm=30, k=3, n="-1", checkpoint_path=str(path))
        run_campaign(cfg)
        assert len(calls) == 1
        # the checkpoint is compact JSON, and it holds every field
        text = path.read_text()
        assert "\n" not in text and ": " not in text
        assert sorted(json.loads(text)["completed"]) == ["1", "2", "3", "5"]
        assert not (tmp_path / "ck.json.tmp").exists()

    def test_reverification_failure_raises(self, monkeypatch):
        # an explicit raise, not an assert, so the check also runs under python -O
        from diotuples import search

        class Failed:
            ok = False

        monkeypatch.setattr(search, "verify_tuple", lambda t: Failed())
        with pytest.raises(RuntimeError, match="re-verification"):
            search._run_field(1, 30, 3, "-1", True)
        with pytest.raises(RuntimeError, match="verify_tuple"):
            brute_force_tuples(enum_elements(R1, 30), 3, M1)

    def test_report_json_roundtrip(self, tmp_path):
        from diotuples.search import load_report, write_report

        cfg = SearchConfig(D_list=[1], max_norm=576, k=4, n="-1")
        report = run_campaign(cfg)
        path = str(tmp_path / "report.json")
        write_report(report, path)
        payload = load_report(path)
        assert payload["schema"] == 1
        assert payload["total_cliques"] == report.total_cliques
        ring = R1
        rebuilt = {
            frozenset(parse_many(group, ring))
            for rec in payload["results"][0]["cliques"]
            for group in rec.get("orbit", [rec["elems"]])
        }
        assert rebuilt == report.all_clique_sets()[1]


class TestClampWorkers:
    # the clamp is a pure function, so no test here starts a worker process
    def test_smallest_bound_wins(self):
        assert clamp_workers(2, 139, 2) == 2  # the campaign-scan benchmark on 2 CPUs
        assert clamp_workers(8, 139, 2) == 2
        assert clamp_workers(4, 3, 16) == 3
        assert clamp_workers(1, 139, 16) == 1

    def test_at_least_one(self):
        assert clamp_workers(4, 0, 2) == 1  # everything already checkpointed
        assert clamp_workers(4, 5, 0) == 1

    def test_campaign_runs_serially_when_clamped(self, monkeypatch):
        from diotuples import search

        def no_pool(*args, **kwargs):
            raise AssertionError("a single usable CPU must not start a worker pool")

        monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        report = run_campaign(SearchConfig(D_list=[1, 2], max_norm=30, k=3, n="-1", jobs=2))
        assert [r.D for r in report.results] == [1, 2]


SQUAREFREE_60 = [D for D in range(1, 61) if is_squarefree(D)]
SQUAREFREE_225 = [D for D in range(1, 226) if is_squarefree(D)]


def without_wall_time(result) -> dict:
    return {**result.to_json(), "wall_time": None}


def tasks_of(cfg: SearchConfig) -> list[tuple]:
    """The _run_field tasks of a campaign with nothing checkpointed, as run_campaign forms them."""
    return [(D, cfg.max_norm, cfg.k, cfg.n, cfg.symmetry_prune) for D in sorted(set(cfg.D_list))]


class Boom(Exception):
    pass


class TestChunks:
    # _chunks and field_cost are pure, so no test here starts a worker process
    TASKS = tasks_of(SearchConfig(D_list=SQUAREFREE_225, max_norm=224, k=5))

    def test_field_cost_counts_iter_half_rows(self):
        for D, max_norm in [(1, 224), (2, 30), (3, 224), (7, 1), (163, 40), (895, 224)]:
            assert field_cost(D, max_norm) == search._FIELD_BASE_COST + 1 + len(list(_iter_half(D, max_norm)))
        # the two slowest fields of the quintuple scan are the two predicted costliest
        assert sorted(SQUAREFREE_225, key=lambda D: -field_cost(D, 224))[:2] == [3, 1]

    @pytest.mark.parametrize("workers", [1, 2, 3, 40])
    def test_invariants(self, workers):
        chunks = search._chunks(self.TASKS, workers)
        assert len(chunks) == min(len(self.TASKS), 4 * workers)
        flat = [t for c in chunks for t in c]
        assert len(flat) == len(set(flat)) == len(self.TASKS) and set(flat) == set(self.TASKS)
        # deterministic, whatever the order of the tasks
        assert search._chunks(self.TASKS[::-1], workers) == chunks
        costs = [field_cost(D, max_norm) for D, max_norm, *_ in self.TASKS]
        loads = [sum(field_cost(D, max_norm) for D, max_norm, *_ in c) for c in chunks]
        assert min(loads) > 0 and max(loads) - min(loads) <= max(costs)

    def test_fewer_tasks_than_chunks(self):
        tasks = self.TASKS[:3]
        assert sorted(search._chunks(tasks, 2)) == sorted([t] for t in tasks)
        assert search._chunks([], 2) == []


class TestChunkedCampaign:
    def cfg(self, path=None, **kw) -> SearchConfig:
        return SearchConfig(D_list=SQUAREFREE_60[:20], max_norm=30, k=3, n="-1", checkpoint_path=path, **kw)

    def test_one_checkpoint_write_per_chunk(self, tmp_path, monkeypatch):
        writes = []
        real = search._atomic_write_json

        def counted(path, *args, **kwargs):
            writes.append(path)
            real(path, *args, **kwargs)

        monkeypatch.setattr(search, "_atomic_write_json", counted)
        cfg = self.cfg(str(tmp_path / "ck.json"))
        report = run_campaign(cfg)
        assert len(report.results) == 20
        assert 1 <= len(writes) <= 4  # 4 chunks for one worker, not one write per field
        assert sorted(json.loads((tmp_path / "ck.json").read_text())["completed"], key=int) == [
            str(D) for D in SQUAREFREE_60[:20]
        ]

    def test_crash_between_chunks_resumes(self, tmp_path):
        path = tmp_path / "ck.json"
        cfg = self.cfg(str(path))
        seen = []

        def crash(res):
            seen.append(res["D"])
            raise Boom

        with pytest.raises(Boom):
            run_campaign(cfg, progress=crash)
        first = search._chunks(tasks_of(cfg), 1)[0]
        assert seen == [first[0][0]]
        assert sorted(map(int, json.loads(path.read_text())["completed"])) == sorted(t[0] for t in first)
        resumed = run_campaign(cfg)
        whole = run_campaign(self.cfg())
        assert [r.D for r in resumed.results] == SQUAREFREE_60[:20]
        assert [without_wall_time(r) for r in resumed.results] == [without_wall_time(r) for r in whole.results]

    def test_all_fields_checkpointed(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        cfg = self.cfg(str(path))
        first = run_campaign(cfg)
        text = path.read_text()

        def no_field(*task):
            raise AssertionError("every field is checkpointed")

        monkeypatch.setattr(search, "_run_field", no_field)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_field)
        again = run_campaign(self.cfg(str(path), jobs=2))
        assert [r.to_json() for r in again.results] == [r.to_json() for r in first.results]
        assert path.read_text() == text  # nothing new, so no rewrite

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="only forked workers inherit the patched _run_field"
    )
    @pytest.mark.parametrize("failure", ["progress", "checkpoint", "worker"])
    def test_early_exit_cancels_pending_chunks(self, failure, tmp_path, monkeypatch):
        # 20 fields in 8 chunks on 2 workers; each field sleeps, so the first chunk is done
        # long before the last ones start, and the campaign fails right after it
        log = tmp_path / "ran.txt"
        path = tmp_path / "ck.json"
        cfg = self.cfg(str(path), jobs=2)
        chunks = search._chunks(tasks_of(cfg), 2)
        real = search._run_field

        def logged(*task):
            if failure == "worker" and task == chunks[0][0]:
                raise Boom
            time.sleep(0.05)
            with open(log, "a") as f:
                f.write(f"{task[0]}\n")
            return real(*task)

        def bad_write(*args, **kwargs):
            raise OSError("disk full")

        seen = []

        def crash(res):
            seen.append(res["D"])
            raise Boom

        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(search, "_run_field", logged)
        if failure == "checkpoint":
            monkeypatch.setattr(search, "_atomic_write_json", bad_write)
        with pytest.raises(OSError if failure == "checkpoint" else Boom):
            run_campaign(cfg, progress=crash)
        # the pool is gone when the error leaves run_campaign, and the chunks not yet started never ran
        assert multiprocessing.active_children() == []
        ran = log.read_text().split() if log.exists() else []
        assert len(ran) == len(set(ran)) < 20
        if failure == "progress":
            done = next(c for c in chunks if seen[0] in [t[0] for t in c])
            assert sorted(map(int, json.loads(path.read_text())["completed"])) == sorted(t[0] for t in done)
        if failure == "checkpoint":
            assert not path.exists()


def parse_many(group, ring):
    from diotuples.quad_ring import elem_from_json

    return [elem_from_json(e, ring) for e in group]


class TestLayout:
    FIELD_KEYS = ["D", "vertex_count", "edge_count", "cliques", "wall_time"]

    def test_report_and_checkpoint_key_order(self, tmp_path):
        from diotuples.search import write_report

        ck = tmp_path / "ck.json"
        cfg = SearchConfig(D_list=[1, 3], max_norm=60, k=3, n="-1", checkpoint_path=str(ck))
        report = run_campaign(cfg)
        out = tmp_path / "report.json"
        write_report(report, str(out))
        payload = json.loads(out.read_text())
        assert list(payload) == ["schema", "version", "config", "results", "total_cliques", "wall_time"]
        assert payload["schema"] == 1
        assert [list(r) for r in payload["results"]] == [self.FIELD_KEYS] * 2
        saved = json.loads(ck.read_text())
        assert list(saved) == ["schema", "version", "config_hash", "config", "completed"]
        assert saved["schema"] == 1
        assert [list(r) for r in saved["completed"].values()] == [self.FIELD_KEYS] * 2

    def test_sorted_cliques(self):
        report = run_campaign(SearchConfig(D_list=[3, 1], max_norm=60, k=3, n="-1"))
        listed = report.sorted_cliques()
        assert len(listed) == report.total_cliques > 0
        keys = [(D, [elem_key(e) for e in elems]) for D, elems in listed]
        assert keys == sorted(keys)
        for D, elems in listed:
            assert list(elems) == sorted(elems, key=elem_key)
        by_field = {D: {frozenset(elems) for d, elems in listed if d == D} for D in (1, 3)}
        assert by_field == report.all_clique_sets()
