from __future__ import annotations

import json
from pathlib import Path

import pytest

from diotuples import search
from diotuples.cli import main
from helpers import fibonacci

DATA = Path(__file__).parent / "data"


def fib_quadruple_text(k: int) -> str:
    """i*{F_2k, F_2k+2, F_2k+4, 4 F_2k+1 F_2k+2 F_2k+3}, a D(-1) quadruple in Z[i]."""
    f = fibonacci(2 * k + 4)
    vals = (f[2 * k], f[2 * k + 2], f[2 * k + 4], 4 * f[2 * k + 1] * f[2 * k + 2] * f[2 * k + 3])
    return ",".join(f"0+{v}*w" for v in vals)


class TestVerifyCommand:
    def test_pass(self, capsys):
        assert main(["verify", "--D", "1", "--n", "-1", "--elems", "1,2,5,-24"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_fail_with_pair(self, capsys):
        assert main(["verify", "--D", "1", "--n", "-1", "--elems", "1,2,3"]) == 1
        out = capsys.readouterr().out
        assert "failing pair" in out

    def test_usage_error_bad_D(self):
        assert main(["verify", "--D", "4", "--n", "-1", "--elems", "1,2"]) == 2

    def test_usage_error_bad_elem(self):
        assert main(["verify", "--D", "1", "--n", "-1", "--elems", "1,zork"]) == 2

    def test_json_roundtrip(self, capsys):
        assert main(["verify", "--D", "1", "--n", "-1", "--elems", "1,2,5,-24", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["tuple"]["D"] == 1
        assert len(payload["pairs"]) == 6

    @pytest.mark.parametrize(
        ("elems", "code", "recorded"),
        [
            (fib_quadruple_text(150), 0, "verify_fib150.json"),  # products of about 840 bits
            ("1,2,5,145", 1, "verify_1_2_5_145.json"),  # 5*145 - 1 = 724 is not a square
        ],
    )
    def test_json_matches_recorded_output(self, capsys, elems, code, recorded):
        # recorded from the QuadInt-arithmetic implementation; must stay byte-identical
        assert main(["verify", "--D", "1", "--n", "-1", "--elems", elems, "--json"]) == code
        assert capsys.readouterr().out == (DATA / recorded).read_text()

    def test_half_ring_elements(self, capsys):
        code = main(
            ["verify", "--D", "3", "--n", "-1", "--elems", "(1+1*s)/2,(1-1*s)/2,1"]
        )
        assert code == 0


class TestSearchCommand:
    def test_finds_quadruple(self, capsys, tmp_path):
        out = str(tmp_path / "report.json")
        code = main(
            ["search", "--D-list", "1", "--max-norm", "576", "--k", "4", "--n", "-1", "--out", out]
        )
        assert code == 1  # cliques found
        with open(out) as f:
            payload = json.load(f)
        assert payload["schema"] == 1
        assert payload["total_cliques"] > 0

    def test_zero_cliques_exit_zero(self):
        assert main(["search", "--D-list", "1", "--max-norm", "100", "--k", "5"]) == 0

    def test_k_too_small(self):
        assert main(["search", "--D-list", "1", "--max-norm", "10", "--k", "1"]) == 2

    def test_non_squarefree_list(self):
        assert main(["search", "--D-list", "4", "--max-norm", "10", "--k", "3"]) == 2

    def test_range_filters_squarefree(self, capsys):
        assert main(["search", "--D-range", "8..9", "--max-norm", "5", "--k", "3"]) == 2

    @pytest.mark.parametrize("bad", ["5", "..5", "1..", "a..b", "1..2..3", "1-5"])
    def test_malformed_range(self, bad, capsys):
        assert main(["search", "--D-range", bad, "--max-norm", "5", "--k", "3"]) == 2
        assert "a..b" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1,,2", "1,x", "x", "1,2,"])
    def test_malformed_list(self, bad, capsys):
        assert main(["search", "--D-list", bad, "--max-norm", "5", "--k", "3"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape",
        [
            "list",
            "completed-list",
            "entry-list",
            "missing-key",
            "extra-key",
            "non-integer-key",
            "D-mismatch",
            "vertex-count-text",
            "edge-count-float",
            "cliques-null",
            "clique-not-object",
            "clique-without-elems",
            "wall-time-text",
        ],
    )
    def test_malformed_checkpoint(self, shape, tmp_path, capsys, monkeypatch):
        ck = tmp_path / "ck.json"
        args = ["search", "--D-list", "1,2", "--max-norm", "10", "--k", "3", "--checkpoint", str(ck)]
        assert main(args) == 1
        saved = json.loads(ck.read_text())
        entry = saved["completed"].pop("1")  # schema and config hash still match; D=2 stays done
        if shape == "list":
            saved = [1, 2]
        elif shape == "completed-list":
            saved["completed"] = [1]
        elif shape == "entry-list":
            saved["completed"]["1"] = [1]
        elif shape == "missing-key":
            del entry["wall_time"]
            saved["completed"]["1"] = entry
        elif shape == "extra-key":
            saved["completed"]["1"] = {**entry, "note": 0}
        elif shape == "non-integer-key":
            saved["completed"]["one"] = entry
        elif shape == "D-mismatch":
            saved["completed"]["1"] = {**entry, "D": 2}
        else:
            # keys intact, one value of the wrong type
            bad = {
                "vertex-count-text": {"vertex_count": str(entry["vertex_count"])},
                "edge-count-float": {"edge_count": float(entry["edge_count"])},
                "cliques-null": {"cliques": None},
                "clique-not-object": {"cliques": [1]},
                "clique-without-elems": {"cliques": [{"orbit": []}]},
                "wall-time-text": {"wall_time": "1.0"},
            }[shape]
            saved["completed"]["1"] = {**entry, **bad}
        ck.write_text(json.dumps(saved))
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        capsys.readouterr()
        assert main(args + ["--resume"]) == 2
        assert str(ck) in capsys.readouterr().err
        assert ran == []  # rejected before any field ran

    def test_csv_export(self, tmp_path):
        csv_path = str(tmp_path / "cliques.csv")
        code = main(
            ["search", "--D-list", "1", "--max-norm", "576", "--k", "4", "--csv", csv_path]
        )
        assert code == 1
        rows = Path(csv_path).read_text().strip().splitlines()
        assert rows[0] == "D,k,elems"
        assert any("-24" in r for r in rows[1:])

    def test_csv_and_summary_list_the_same_cliques(self, capsys, tmp_path):
        csv_path = tmp_path / "cliques.csv"
        code = main(["search", "--D-list", "3,1", "--max-norm", "60", "--k", "3", "--csv", str(csv_path)])
        assert code == 1
        summary = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  D=")
        ]
        rows = csv_path.read_text().strip().splitlines()[1:]
        from_csv = []
        for row in rows:
            D, k, *elems = row.split(",")
            assert int(k) == len(elems)
            from_csv.append(f"D={D}: {{{', '.join(elems)}}}")
        assert summary and summary == from_csv

    def test_unwritable_out(self):
        code = main(
            ["search", "--D-list", "1", "--max-norm", "5", "--k", "3",
             "--out", "/nonexistent-dir/report.json"]
        )
        assert code == 2

    def test_checkpoint_requires_resume(self, tmp_path):
        ck = str(tmp_path / "ck.json")
        args = ["search", "--D-list", "1", "--max-norm", "30", "--k", "5", "--checkpoint", ck]
        assert main(args) == 0
        assert main(args) == 2  # existing checkpoint without --resume
        assert main(args + ["--resume"]) == 0

    def test_resume_requires_checkpoint(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        assert main(["search", "--D-list", "1", "--max-norm", "10", "--k", "3", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert ran == []  # rejected before any field ran


class TestExtendCommand:
    def test_golden(self, capsys):
        code = main(["extend", "--D", "1", "--triple", "1,2,5", "--z-norm-bound", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d = -24" in out
        assert "regular" in out  # {1,2,5} flagged regular

    def test_non_triple(self, capsys):
        code = main(["extend", "--D", "1", "--triple", "1,2,3", "--z-norm-bound", "100"])
        assert code == 1

    def test_zero_bound(self, capsys):
        code = main(["extend", "--D", "1", "--triple", "1,2,5", "--z-norm-bound", "0"])
        assert code == 0
        assert "no extension" in capsys.readouterr().out

    def test_negative_bound_is_usage_error(self, capsys):
        code = main(["extend", "--D", "1", "--triple", "1,2,5", "--z-norm-bound", "-5"])
        assert code == 2
        assert "--z-norm-bound" in capsys.readouterr().err

    def test_json(self, capsys):
        code = main(
            ["extend", "--D", "1", "--triple", "1,2,5", "--z-norm-bound", "200", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triple_regular"] is True
        assert any(e["d"] == "-24" for e in payload["extensions"])
        assert all(e["abd_regular"] is False for e in payload["extensions"] if e["d"] == "-24")


class TestBoundsCommand:
    def test_chain(self, capsys):
        assert main(["bounds", "chain"]) == 0
        assert "CONFIRMED" in capsys.readouterr().out

    def test_chain_json(self, capsys):
        assert main(["bounds", "chain", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["confirmed"] is True

    def test_threshold(self, capsys):
        assert main(["bounds", "threshold"]) == 0
        out = capsys.readouterr().out
        assert "17012676" in out

    def test_jz(self, capsys):
        assert main(["bounds", "jz", "--a1", "1", "--a2", "-1", "--T", "100"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out

    def test_jz_hypothesis_failure(self, capsys):
        assert main(["bounds", "jz", "--a1", "3", "--a2", "-3", "--T", "4"]) == 1
        assert "hypothesis failure" in capsys.readouterr().err

    def test_jz_exact_L_equal_1_is_hypothesis_failure(self, capsys):
        # D=2: L = 27*96/(16*162) = 1 exactly, decided on integers
        argv = ["bounds", "jz", "--D", "2", "--a1=-2-1*w", "--a2=-1+1*w", "--T=-10-5*w"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "hypothesis failure: L <= 1" in err
        assert "Traceback" not in err

    def test_zero_precision_is_usage_error(self, capsys):
        argv = ["bounds", "jz", "--a1", "1", "--a2", "-1", "--T", "3", "--precision-bits", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "precision_bits" in captured.err
        assert captured.out == ""

    def test_malformed_precision_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DIO_PRECISION_BITS", "lots")
        assert main(["bounds", "jz", "--a1", "1", "--a2", "-1", "--T", "100"]) == 2
        captured = capsys.readouterr()
        assert "DIO_PRECISION_BITS" in captured.err
        assert captured.out == ""

    def test_jz_precision_flag(self, capsys):
        code = main(
            ["bounds", "jz", "--a1", "1", "--a2", "-1", "--T", "100", "--precision-bits", "192"]
        )
        assert code == 0
        assert "192 bits" in capsys.readouterr().out


class TestReproduceCommand:
    def test_example_quadruple(self, capsys):
        assert main(["reproduce", "example-quadruple"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_d3_triples(self, capsys):
        assert main(["reproduce", "d3-triples"]) == 0
        out = capsys.readouterr().out
        assert out.count("verifies=True") == 2

    def test_unknown_target(self):
        assert main(["reproduce", "nonsense"]) == 2


def test_version_flag():
    assert main(["--version"]) == 0
