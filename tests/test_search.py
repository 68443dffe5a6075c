from __future__ import annotations

import hashlib
import json
from itertools import combinations
from random import Random

import pytest

from diotuples.quad_ring import QuadInt, elem_key, format_elem, make_ring
from diotuples.search import (
    SearchConfig,
    brute_force_tuples,
    build_graph,
    clamp_workers,
    enum_elements,
    find_cliques,
    run_campaign,
)
from diotuples.tuples import make_tuple, verify_tuple
from helpers import box_elements

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
        digest = hashlib.sha256(",".join(map(str, g.adj)).encode()).hexdigest()
        assert (len(g.vertices), g.edge_count) == (1792, 8937)
        assert digest == "fd8f5760a8a2c12c71c49ef885f511d1628312b90f1bc226b09203af378ef1f4"

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
    return hashlib.sha256(",".join(map(str, g.adj)).encode()).hexdigest()


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

    def test_parallel_matches_serial(self):
        base = dict(D_list=[1, 2, 5, 13], max_norm=80, k=3, n="-1")
        serial = run_campaign(SearchConfig(**base, jobs=1))
        parallel = run_campaign(SearchConfig(**base, jobs=2))
        assert serial.all_clique_sets() == parallel.all_clique_sets()
        assert [r.D for r in parallel.results] == [1, 2, 5, 13]

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


def parse_many(group, ring):
    from diotuples.quad_ring import elem_from_json

    return [elem_from_json(e, ring) for e in group]
