"""The JSON outputs against the schemas in schemas/, where their shapes are stated once.

Each schema must accept the real output of its producer, run through the
CLI, and reject a copy with a key missing, a value of the wrong type or an
element text that the package never writes.  The "schema" version each
writer puts in its output must be the const of its schema, and the
checkpoint schema must agree with the checkpoint loader on every shape of
test_cli's test_malformed_checkpoint.
"""

from __future__ import annotations

import ast
import copy
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from diotuples import search
from diotuples.cli import main
from diotuples.quad_ring import elem_to_json, make_ring, parse_elem
from helpers import CHECKPOINT_SHAPES, UNPARSABLE_CHECKPOINTS, break_checkpoint

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
SCHEMAS = {p.name: json.loads(p.read_text()) for p in sorted((ROOT / "schemas").glob("*.schema.json"))}
# the schemas refer to each other by file name
REGISTRY = Registry().with_resources((name, Resource.from_contents(schema)) for name, schema in SCHEMAS.items())
# JSON Schema's "integer" admits 8.0 too; the package writes counts without a fraction and the loader
# rejects 8.0, so "integer" is read as Python's json reads a number written without fraction or exponent
Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda _, x: type(x) is int),
)
# the package functions whose output carries a "schema" version, and the schema file of that output
WRITERS = {
    "tuples.VerifyReport.to_json": "verify.schema.json",
    "search.SearchReport.to_json": "search-report.schema.json",
    "search._save_checkpoint": "checkpoint.schema.json",
    "cli._cmd_extend": "extend.schema.json",
    "bounds.ChainTrace.to_json": "chain.schema.json",
}


def validator(name: str) -> jsonschema.protocols.Validator:
    return Validator(SCHEMAS[name], registry=REGISTRY)


def cli_json(argv: list[str], code: int):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == code, argv
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, list]:
    """Schema file -> the outputs of its producer, from the README's CLI examples and a few more."""
    tmp = tmp_path_factory.mktemp("outputs")
    report, ck, reproduced = tmp / "report.json", tmp / "ck.json", tmp / "reproduced.json"
    search_args = ["search", "--D-list", "1", "--max-norm", "576", "--k", "4", "--n", "-1"]
    printed = cli_json([*search_args, "--out", str(report), "--checkpoint", str(ck), "--json"], 1)
    with redirect_stdout(io.StringIO()):
        assert main(["reproduce", "quadruple-min", "--out", str(reproduced)]) == 0
    verify = ["verify", "--D", "1", "--n", "-1", "--json", "--elems"]
    extend = ["extend", "--D", "1", "--triple", "1,2,5", "--json", "--z-norm-bound"]
    return {
        "element.schema.json": [elem_to_json(parse_elem(t, make_ring(1))) for t in ("0", "-24", "3-7*w")],
        "verify.schema.json": [
            cli_json([*verify, "1,2,5,-24"], 0),
            cli_json([*verify, "1,2,5,145"], 1),
            json.loads((DATA / "verify_fib150.json").read_text()),
        ],
        "search-report.schema.json": [printed, json.loads(report.read_text()), json.loads(reproduced.read_text())],
        "checkpoint.schema.json": [json.loads(ck.read_text())],
        # at bound 10 the half-ball holds fewer z than norm(5) = 25 classes: the whole ball is scanned
        "extend.schema.json": [cli_json([*extend, "200"], 0), cli_json([*extend, "10"], 0)],
        "chain.schema.json": [cli_json(["bounds", "chain", "--json"], 0)],
    }


@pytest.mark.parametrize("name", SCHEMAS)
def test_schema_is_valid(name):
    Validator.check_schema(SCHEMAS[name])


def test_every_schema_has_a_producer(outputs):
    assert set(SCHEMAS) == set(outputs) == {"element.schema.json", *WRITERS.values()}


@pytest.mark.parametrize("name", SCHEMAS)
def test_outputs_match_schema(name, outputs):
    for doc in outputs[name]:
        validator(name).validate(doc)


def test_outputs_cover_both_verdicts_and_both_scans(outputs):
    assert [doc["pass"] for doc in outputs["verify.schema.json"]] == [True, False, True]
    assert [doc["scan"]["root_classes"] for doc in outputs["extend.schema.json"]] == [4, None]
    assert [(doc["config"]["max_norm"], doc["config"]["k"]) for doc in outputs["search-report.schema.json"]] == [
        (576, 4),
        (576, 4),
        (143, 4),  # reproduce quadruple-min --out
    ]


DELETE = object()
# schema file -> kind -> (path into its first output, value there; DELETE removes the key)
CORRUPTIONS = {
    "element.schema.json": {
        "missing-key": (("y",), DELETE),
        "wrong-type": (("x",), 0),
        "non-canonical-text": (("x",), "1_0"),
    },
    "verify.schema.json": {
        "missing-key": (("failing_pair",), DELETE),
        "wrong-type": (("pass",), "true"),
        "non-canonical-text": (("tuple", "elems", 0, "x"), "01"),
    },
    "search-report.schema.json": {
        "missing-key": (("results", 0, "edge_count"), DELETE),
        "wrong-type": (("total_cliques",), "16"),
        "non-canonical-text": (("results", 0, "cliques", 0, "orbit", 0, 0, "y"), "-0"),
    },
    "checkpoint.schema.json": {
        "missing-key": (("config_hash",), DELETE),
        "wrong-type": (("completed", "1", "vertex_count"), 1792.0),
        "non-canonical-text": (("completed", "1", "cliques", 0, "elems", 0, "x"), " 1"),
    },
    "extend.schema.json": {
        "missing-key": (("scan", "z_scanned"), DELETE),
        "wrong-type": (("scan", "root_classes"), "4"),
        "non-canonical-text": (("extensions", 0, "d", "y"), "+0"),
        "format-elem-text": (("extensions", 0, "d"), "-24"),  # the element format of schema 1
    },
    "chain.schema.json": {
        "missing-key": (("steps", 0, "margin"), DELETE),
        "wrong-type": (("steps", 0, "holds"), 1),
        "non-canonical-text": (("steps", 0, "lhs"), "+2340"),
    },
}


@pytest.mark.parametrize(
    ("name", "kind"), [(name, kind) for name, kinds in CORRUPTIONS.items() for kind in kinds]
)
def test_corrupted_output_fails_schema(name, kind, outputs):
    doc = copy.deepcopy(outputs[name][0])
    (*keys, last), value = CORRUPTIONS[name][kind]
    parent = doc
    for key in keys:
        parent = parent[key]
    assert last in parent  # the corruption replaces a value of the real output
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    assert not validator(name).is_valid(doc)


def _schema_writers() -> set[str]:
    """module.function (module.Class.method) of every package function that builds a dict with a "schema" key."""
    found = set()
    for path in sorted((ROOT / "src" / "diotuples").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(f"{path.stem}.{node.name}", node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            scopes += [(f"{path.stem}.{cls.name}.{f.name}", f) for f in cls.body if isinstance(f, ast.FunctionDef)]
        for name, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "schema" for k in node.keys
                ):
                    found.add(name)
    return found


def test_schema_versions_in_step(outputs):
    # a new schema version changes the writer and its schema file together, and a new writer needs a schema
    assert _schema_writers() == set(WRITERS)
    for name in WRITERS.values():
        const = SCHEMAS[name]["properties"]["schema"]["const"]
        assert [doc["schema"] for doc in outputs[name]] == [const] * len(outputs[name]), name
    assert search.SCHEMA_VERSION == SCHEMAS["search-report.schema.json"]["properties"]["schema"]["const"]
    assert search.SCHEMA_VERSION == SCHEMAS["checkpoint.schema.json"]["properties"]["schema"]["const"]


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory) -> str:
    """A checkpoint of D = 1, 2, as test_malformed_checkpoint writes it."""
    ck = tmp_path_factory.mktemp("checkpoint") / "ck.json"
    with redirect_stdout(io.StringIO()):
        assert main(["search", "--D-list", "1,2", "--max-norm", "30", "--k", "3", "--checkpoint", str(ck)]) == 1
    return ck.read_text()


@pytest.mark.parametrize("shape", ["intact", *(s for s in CHECKPOINT_SHAPES if s not in UNPARSABLE_CHECKPOINTS)])
def test_checkpoint_schema_agrees_with_loader(shape, checkpoint_text, tmp_path):
    saved = json.loads(checkpoint_text)
    config_hash = saved["config_hash"]
    data = checkpoint_text.encode() if shape == "intact" else break_checkpoint(saved, shape)
    path = tmp_path / "ck.json"
    path.write_bytes(data)
    cfg = search.SearchConfig(D_list=[1, 2], max_norm=30, k=3, checkpoint_path=str(path))
    try:
        search._load_checkpoint(cfg, config_hash)
        loaded = True
    except ValueError:
        loaded = False
    schema_ok = validator("checkpoint.schema.json").is_valid(json.loads(data))
    assert loaded == (shape == "intact")
    if shape in ("D-mismatch", "tampered-element", "orbit-member-dropped", "D-outside-config", "config-other-max-norm"):
        # no JSON Schema keyword relates a key to a value below it, decides D(n) membership, closes an
        # orbit or reads the config's fields: the loader sees these by rebuilding the entry, or by
        # comparing the stored config with the one it resumes under
        assert schema_ok
    else:
        assert schema_ok == loaded
