from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from diotuples import __version__, cli, search
from diotuples.cli import main
from helpers import CHECKPOINT_SHAPES, UNPARSABLE_CHECKPOINTS, break_checkpoint, fibonacci

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

    def test_parses_n_once_per_ring(self, monkeypatch):
        # building the SearchConfig parses n once in the ring of every D; the campaign reads those parses
        parsed, parse_elem = [], search.parse_elem
        monkeypatch.setattr(search, "parse_elem", lambda text, ring: parsed.append(ring.D) or parse_elem(text, ring))
        assert main(["search", "--D-list", "1,2,3", "--max-norm", "10", "--k", "5"]) == 0
        assert parsed == [1, 2, 3]

    def test_range_filters_squarefree(self, capsys):
        assert main(["search", "--D-range", "8..9", "--max-norm", "5", "--k", "3"]) == 2
        assert "--D-range 8..9 holds no squarefree D" in capsys.readouterr().err

    @pytest.mark.parametrize("rng", ["4..4", "0..0"])
    def test_range_without_squarefree_d(self, rng, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        assert main(["search", "--D-range", rng, "--max-norm", "5", "--k", "3"]) == 2
        err = capsys.readouterr().err
        assert f"--D-range {rng}" in err and "D_list" not in err
        assert ran == []  # rejected before any field ran

    def test_range_with_negative_start(self, tmp_path):
        # "--D-range -5..3" must not be read as an option; it means the same as "--D-range=-5..3", and
        # so does an unambiguous prefix of the flag, which argparse also takes
        reports = []
        spellings = (["--D-range", "-5..3"], ["--D-range=-5..3"], ["--D-ran", "-5..3"], ["--D-r", "-5..3"])
        for i, spelling in enumerate(spellings):
            out = tmp_path / f"r{i}.json"
            assert main(["search", *spelling, "--max-norm", "30", "--k", "3", "--out", str(out)]) == 1
            report = json.loads(out.read_text())
            for rec in (report, *report["results"]):
                rec.pop("wall_time")
            reports.append(report)
        assert all(r == reports[0] for r in reports)
        assert reports[0]["config"]["D_list"] == [1, 2, 3]

    @pytest.mark.parametrize("bad", ["5", "..5", "1..", "a..b", "1..2..3", "1-5"])
    def test_malformed_range(self, bad, capsys):
        assert main(["search", "--D-range", bad, "--max-norm", "5", "--k", "3"]) == 2
        assert "a..b" in capsys.readouterr().err

    def test_empty_range(self, capsys):
        assert main(["search", "--D-range", "5..3", "--max-norm", "5", "--k", "3"]) == 2
        assert "empty D range 5..3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1,,2", "1,x", "x", "1,2,"])
    def test_malformed_list(self, bad, capsys):
        assert main(["search", "--D-list", bad, "--max-norm", "5", "--k", "3"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", CHECKPOINT_SHAPES)
    def test_malformed_checkpoint(self, shape, tmp_path, capsys, monkeypatch):
        ck = tmp_path / "ck.json"
        # D=1 at max_norm 30 has a 3-clique, so the element shapes have a record to break
        args = ["search", "--D-list", "1,2", "--max-norm", "30", "--k", "3", "--checkpoint", str(ck)]
        assert main(args) == 1
        ck.write_bytes(break_checkpoint(json.loads(ck.read_text()), shape))
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        capsys.readouterr()
        assert main(args + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert str(ck) in err
        if shape in UNPARSABLE_CHECKPOINTS:
            assert f"checkpoint {ck}: not valid JSON" in err
        if shape == "schema-next":
            assert f"checkpoint {ck}: unsupported schema {search.SCHEMA_VERSION + 1}" in err
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

    @pytest.mark.parametrize("flag", ["--out", "--csv", "--checkpoint"])
    def test_output_in_missing_directory(self, flag, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        path = str(tmp_path / "missing" / "file")
        assert main(["search", "--D-list", "1", "--max-norm", "10", "--k", "3", flag, path]) == 2
        assert f"{flag} {path}" in capsys.readouterr().err
        assert ran == []  # rejected before any field ran

    @pytest.mark.parametrize(
        "flags",
        [["--out"], ["--csv"], ["--checkpoint"], ["--resume", "--checkpoint"]],
        ids=["out", "csv", "checkpoint", "resume-checkpoint"],
    )
    def test_output_is_directory(self, flags, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        path = tmp_path / "dir"
        path.mkdir()
        assert main(["search", "--D-list", "1,2", "--max-norm", "30", "--k", "3", *flags, str(path)]) == 2
        assert f"{flags[-1]} {path}: is a directory" in capsys.readouterr().err
        assert ran == []  # rejected before any field ran
        assert list(tmp_path.iterdir()) == [path]  # no dir.tmp left behind

    @pytest.mark.parametrize(
        "first, second",
        [("--out", "--csv"), ("--out", "--checkpoint"), ("--csv", "--checkpoint")],
    )
    def test_two_flags_name_one_path(self, first, second, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        path = tmp_path / "same.json"
        argv = ["search", "--D-list", "1,2", "--max-norm", "30", "--k", "3", first, str(path)]
        assert main([*argv, second, f"{tmp_path}/./same.json"]) == 2  # compared by real path
        assert f"{first} and {second} name one file" in capsys.readouterr().err
        assert ran == []  # rejected before any field ran
        assert list(tmp_path.iterdir()) == []

    def test_resume_with_out_on_checkpoint(self, tmp_path, capsys):
        # the report would overwrite the checkpoint, and a later --resume would reject it
        ck = tmp_path / "same.json"
        argv = ["search", "--D-list", "1,2", "--max-norm", "30", "--k", "3", "--checkpoint", str(ck)]
        assert main(argv) == 1
        saved = ck.read_bytes()
        assert main([*argv, "--resume", "--out", str(ck)]) == 2
        assert "--out and --checkpoint name one file" in capsys.readouterr().err
        assert ck.read_bytes() == saved
        assert main([*argv, "--resume"]) == 1

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
        assert "not extendable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "triple, message",
        [
            ("1,2,0", "must be nonzero"),
            ("1,1,2", "must be pairwise distinct"),
            ("1,2", "exactly three"),
            ("1,2,5,13", "exactly three"),
        ],
    )
    def test_malformed_triple_is_usage_error(self, triple, message, capsys):
        # as for verify: a zero or repeated element, or a count other than three, is not a triple at all,
        # so it is no "not extendable"
        code = main(["extend", "--D", "1", "--triple", triple, "--z-norm-bound", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "not extendable" not in err

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
        minus_24 = {"x": "-24", "y": "0"}  # elements are written as elem_to_json writes them
        assert payload["schema"] == 2
        assert payload["triple"] == [{"x": "1", "y": "0"}, {"x": "2", "y": "0"}, {"x": "5", "y": "0"}]
        assert any(e["d"] == minus_24 for e in payload["extensions"])
        assert all(e["abd_regular"] is False for e in payload["extensions"] if e["d"] == minus_24)

    @pytest.mark.parametrize(
        "bound, scan, line",
        [
            (
                10**4,
                {"root_classes": 4, "z_scanned": 2500, "sieve_passed": 42, "accepted": 1},
                "scan: 4 root classes, 2500 z scanned, 42 passed the sieve, 1 accepted",
            ),
            (
                10,
                {"root_classes": None, "z_scanned": 18, "sieve_passed": 18, "accepted": 0},
                "scan: whole ball, 18 z scanned, 18 passed the sieve, 0 accepted",
            ),
        ],
    )
    def test_scan_counts(self, bound, scan, line, capsys):
        # norm(5) = 25 is above the 18 z of the half-ball at bound 10, so that bound scans the ball;
        # 18 z are too few for even the table of 3, so all of them pass to the exact tests
        argv = ["extend", "--D", "1", "--triple", "1,2,5", "--z-norm-bound", str(bound)]
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["scan"] == scan
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line


class TestBoundsCommand:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["bounds", "chain", "--json"], "53959c0d5985af7bb53bbfcb7c7ac0527869d01c2441b3110cb1d9859987577f"),
            (["bounds", "chain"], "64583c0d69dcbb8a19ffd0a48be2b95c4ea82c9d799f985224dfe9d1f32ec0e5"),
            (
                ["bounds", "jz", "--a1", "1", "--a2", "-1", "--T", "100"],
                "ea46de154f181fe5f64a4641c0d855fa9fa6e29f2759874a670c140a6f6419da",
            ),
        ],
    )
    def test_output_pinned(self, argv, digest, capsys):
        # sha256 of stdout, byte for byte; jz runs at the default precision
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

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

    def test_no_jobs_flag(self, capsys, monkeypatch):
        # both scans run in one process whatever jobs says, so reproduce has no --jobs
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        assert main(["reproduce", "quadruple-min", "--jobs", "4"]) == 2
        assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err
        assert ran == []

    def test_out_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        path = str(tmp_path / "missing" / "r.json")
        assert main(["reproduce", "quadruple-min", "--out", path]) == 2
        assert f"--out {path}" in capsys.readouterr().err
        assert ran == []  # rejected before any field ran

    def test_out_is_directory(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        assert main(["reproduce", "quadruple-min", "--out", str(tmp_path)]) == 2
        assert f"--out {tmp_path}: is a directory" in capsys.readouterr().err
        assert ran == []  # rejected before any field ran

    def test_scan_reports_as_search_does(self, tmp_path, monkeypatch):
        # a reproduce scan is the search campaign of its fields, run by the same runner
        runs, real = [], cli._run_search
        monkeypatch.setattr(cli, "_run_search", lambda cfg, *rest: runs.append(cfg) or real(cfg, *rest))
        reports = []
        for argv in (
            ["reproduce", "quadruple-min"],
            ["search", "--D-range", "1..225", "--max-norm", "143", "--k", "4", "--n", "-1"],
        ):
            out = tmp_path / f"{argv[0]}.json"
            assert main([*argv, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            for rec in (report, *report["results"]):
                rec["wall_time"] = None
            reports.append(report)
        assert reports[0] == reports[1] and len(reports[0]["results"]) == 139
        assert len(runs) == 2 and runs[0] == runs[1]

    @pytest.mark.parametrize("target", ["example-quadruple", "d3-triples"])
    def test_out_needs_a_scan_target(self, target, tmp_path, capsys, monkeypatch):
        # only the scan targets declare --out, so argparse rejects it here before any tuple is verified
        ran = []
        monkeypatch.setattr(cli, "verify_tuple", lambda t: ran.append(t))
        path = tmp_path / "r.json"
        assert main(["reproduce", target, "--out", str(path)]) == 2
        assert f"unrecognized arguments: --out {path}" in capsys.readouterr().err
        assert ran == [] and not path.exists()

    def test_out_follows_the_target(self, tmp_path, capsys, monkeypatch):
        # --out belongs to the scan target's parser, so before the target name it is a usage error
        ran = []
        monkeypatch.setattr(search, "_run_field", lambda *task: ran.append(task))
        path = tmp_path / "r.json"
        assert main(["reproduce", "--out", str(path), "quadruple-min"]) == 2
        assert "error: argument target: invalid choice" in capsys.readouterr().err
        assert ran == [] and not path.exists()

    def test_example_quadruple_mismatch(self, capsys, monkeypatch):
        # a witness negated still verifies the pair, but the list differs from the expected one
        real = cli.verify_tuple

        def one_negated(t):
            report = real(t)
            report.pairs[0].witness = -report.pairs[0].witness
            return report

        monkeypatch.setattr(cli, "verify_tuple", one_negated)
        assert main(["reproduce", "example-quadruple"]) == 1
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "witnesses: -1, 2, 0+5*w" in out
        assert out.endswith("MISMATCH against the expected witness list\n")


def test_version_flag():
    assert main(["--version"]) == 0


def test_version_is_single_sourced():
    # pyproject.toml writes no version of its own: setuptools reads diotuples.__version__
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" not in meta["project"] and meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "diotuples.__version__"}


def test_python_m_runs_the_cli():
    # `python -m diotuples` runs the same front end as the installed `diotuples` script
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "diotuples", "--version"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"diotuples {__version__}"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["reproduce", "quadruple-min"], 0),
        (["reproduce", "example-quadruple"], 0),
        (["verify", "--D", "1", "--elems", "1,2,3"], 1),
        (["extend", "--D", "1", "--triple", "1,2,5", "--z-norm-bound", "10000"], 0),
        (["extend", "--D", "1", "--triple", "1,2,5", "--z-norm-bound", "10000", "--json"], 0),
        (["bounds", "chain", "--json"], 0),
    ],
    ids=["quadruple-min", "example-quadruple", "verify-fail", "extend", "extend-json", "bounds-chain-json"],
)
def test_python_O_gives_the_same_answers(argv, code):
    # invariant checks raise rather than assert, so `python -O` strips none of them: each run
    # exits and prints as without -O (wall times, which differ run to run, are masked)
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "diotuples", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        outs.append(re.sub(r"\d+\.\d+s\b", "<t>s", proc.stdout))
    assert outs[0] == outs[1]
    assert outs[0]


def readme_cli_commands() -> list[tuple[list[str], int]]:
    """(argv, documented exit code) of each `diotuples ...` line in the first code block under README's ## CLI."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1]
    commands = []
    for line in block.splitlines():
        if line.startswith("diotuples "):
            argv = shlex.split(line, comments=True)[1:]
            commands.append((argv, 1 if "# exit 1" in line else 0))
    return commands


def test_readme_cli_examples_exit_as_documented(tmp_path, monkeypatch):
    # `--out report.json` writes into the working directory, so the commands run in a fresh one
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) == 11
    assert sum(code for _, code in commands) == 1
    for argv, code in commands:
        assert main(argv) == code, argv
