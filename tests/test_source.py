"""Source checks: invariant checks in the package must survive `python -O`, the
omega rule is stated once, in quad_ring, the package imports only the stdlib
and its declared dependency, reads no environment variable and sets no global
mpmath precision, every exported name exists and, like every public method,
has a caller in the package or the benchmark, the package names the benchmark
uses exist, importing the CLI stays cheap, the reference oracles in
tests/helpers.py share no kernel with the package, the package holds one
clique DFS behind find_cliques(g, k), a campaign's settings stay the
SearchConfig fields and run_campaign's parameters, the bounds kernels convert
no integer literal to an interval per call, and the package's docs and the
README name only code that exists."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "diotuples"
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert is stripped under python -O; raise instead: {found}"


def test_omega_convention_stays_in_quad_ring():
    # the ring is its D: the omega rule (omega = (1 + sqrt(-D))/2 when D = 3 mod 4) is stated once,
    # in quad_ring, and the integer kernels need only the integrality rule, so no other module reads
    # the ring's derived omega_p; basis conversion lives in quad_ring alone
    rule = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "% 4 == 3" in line
    ]
    assert len(rule) == 1 and rule[0].startswith("quad_ring.py:"), f"the omega rule is not stated once: {rule}"
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "quad_ring.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "omega_p"
    ]
    assert not readers, f"the omega convention is read outside quad_ring.py: {readers}"


def test_package_imports_only_declared_dependencies():
    # mpmath is the one declared dependency; numpy and others may be installed but are not
    allowed = set(sys.stdlib_module_names) | {"mpmath", "diotuples"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the stdlib and mpmath: {found}"


def test_package_reads_no_environment():
    # every setting is a command-line option or a parameter, so no knob hides in the environment
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} os.{name}" for name in names if name in readers]
    assert not found, f"the package reads the process environment: {found}"


def test_package_sets_no_global_precision():
    # every interval operation is given its precision, so no module writes mpmath's process-wide
    # precision (iv.prec, mp.prec, mp.dps) or scopes it with workprec, workdps or extraprec
    scoped = {"workprec", "workdps", "extraprec"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [
                    f"{path.name}:{node.lineno} {ast.unparse(t)}"
                    for t in targets
                    if isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")
                ]
            elif isinstance(node, ast.Attribute) and node.attr in scoped:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.Name) and node.id in scoped:
                found.append(f"{path.name}:{node.lineno} {node.id}")
            elif isinstance(node, ast.alias) and node.name in scoped:
                found.append(f"{path.name} imports {node.name}")
    assert not found, f"the package sets mpmath's global precision: {found}"


def test_cli_import_leaves_heavy_modules_unloaded():
    # mpmath (through bounds) and the process pool load only when a command needs them
    heavy = ("mpmath", "diotuples.bounds", "concurrent.futures.process")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import diotuples.cli; "
        f"print(*(name for name in {heavy!r} if name in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE_DIR.parent)], capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.split() == [], f"import diotuples.cli loads {proc.stdout.split()}"


def test_exported_names_resolve():
    # a name left in __all__ after its definition is deleted breaks `from module import *`
    missing, count = [], 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            module = importlib.import_module("diotuples")
            tree = ast.parse(path.read_text(), filename=str(path))
            names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
        else:
            module = importlib.import_module(f"diotuples.{path.stem}")
            names = getattr(module, "__all__", [])
        count += len(names)
        missing += [f"{module.__name__}.{name}" for name in names if not hasattr(module, name)]
    assert count > 0
    assert not missing, f"exported names that do not resolve: {missing}"


# the names of bench/tracing.py's patch plan that the package no longer has; instrument skips a missing
# name, so they trace nothing.  They wait for the next change to the benchmark (see CHANGES.md)
TRACED_NAMES_GONE = {
    "tuples.sqrt_exact",
    "tuples.exact_div",
    "tuples.iter_elements",
    "search.sqrt_exact",
    "search.iter_elements",
}


def test_benchmark_calls_resolve():
    # a rename in the package fails here before it fails a benchmark run.  bench/tracing.py also names
    # the functions it patches as (module, "name") pairs, read here too: instrument skips a missing
    # name silently, so a rename would drop its span with nothing failing
    names = ("search", "tuples", "quad_ring", "bounds")
    modules = {name: importlib.import_module(f"diotuples.{name}") for name in names}
    missing, gone, count = [], set(), 0
    for path in (BENCH_DIR / "workloads.py", BENCH_DIR / "run.py", BENCH_DIR / "tracing.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                count += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                module, attr = node.elts[:2]
                if (
                    isinstance(module, ast.Name)
                    and module.id in modules
                    and isinstance(attr, ast.Constant)
                    and not hasattr(modules[module.id], attr.value)
                ):
                    gone.add(f"{module.id}.{attr.value}")
    assert count > 0
    assert not missing, f"the benchmark uses package names that do not exist: {missing}"
    assert gone == TRACED_NAMES_GONE, f"bench/tracing.py patches names that the package lacks: {gone}"


def test_oracles_share_no_kernel():
    # the references check the package's kernels, so none may reach them: no reference, nor a helper
    # it calls, may name a private name of the package.  Squares and quotients come from
    # reference_sqrt and reference_div on QuadInt arithmetic instead, and the gap-lemma oracle
    # forms its Z[sqrt(m)] powers with its own loop.  The interval references use mpmath.iv's
    # operators, never the raw interval kernel (mpmath.libmp) that the package calls
    path = Path(__file__).resolve().parent / "helpers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    package_names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "diotuples"
        for alias in node.names
    }
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    roots = [
        "brute_force_tuples",
        "reference_verify_tuple",
        "reference_c_plus_minus",
        "reference_extend",
        "reference_gap_lemma_checks",
        "iv_jz_reference",
        "iv_theta_reference",
    ]
    assert "libmp" not in path.read_text(), "helpers.py reaches mpmath's raw interval kernel"
    for root in roots:
        found, todo, seen = [], [root], set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Name):
                    used, private = node.id, node.id in package_names and node.id.startswith("_")
                    if used in functions:
                        todo.append(used)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in package_names
                ):
                    used, private = node.attr, node.attr.startswith("_")  # a package module's attribute
                else:
                    continue
                if private:
                    found.append(f"helpers.py:{node.lineno} {name} uses {used}")
        assert not found, f"{root} shares the code it checks: {found}"
        if root == "brute_force_tuples":
            assert "box_elements" in seen, "the clique oracle no longer reaches its root table"
        elif root == "reference_gap_lemma_checks":
            body = list(ast.walk(functions[root]))
            nested = {node.name for node in body if isinstance(node, ast.FunctionDef)}
            called = {node.func.id for node in body if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert "power" in nested & called, "the gap-lemma oracle no longer forms its powers with its own loop"
        elif root.startswith("iv_"):
            assert "iv_precision" in seen, f"{root} no longer runs at a test-side iv.prec"
        else:
            assert "reference_sqrt" in seen, f"{root} no longer decides squares with reference_sqrt"


# Exported names that no program calls yet, each kept for a stated reason.
UNCALLED_EXPORTS = {
    "find_cliques": "the README's public full clique listing; a search field lists from its orbit roots",
    "pell_residuals": "pinned by tests/test_bounds.py; the planned certificate checker decides its fate",
    "check_gap_hypotheses": "pinned by tests/test_bounds.py; the planned certificate checker decides its fate",
    "upper_bound_d": "pinned by tests/test_bounds.py; the planned certificate checker decides its fate",
    "lower_bound_d": "pinned by tests/test_bounds.py; the planned certificate checker decides its fate",
}


def _references(path: Path) -> tuple[set[str], set[str]]:
    """The package names path uses, and the attribute names it reads, outside definitions of the same name.

    A bare name counts when path imports it from the package or, for a package
    module, defines it at top level, and so does an attribute whose object is
    a name bound to a package module; the second set holds every attribute
    name read, on any object.  A use inside the definition of the same name
    does not count.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    submodules = {p.stem for p in PACKAGE_DIR.glob("*.py")}
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name.startswith("diotuples")
            }
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "diotuples"):
            from_package = node.module in (None, "diotuples")  # from . import x, from diotuples import x
            for alias in node.names:
                (modules if from_package and alias.name in submodules else names).add(alias.asname or alias.name)
    if path.parent == PACKAGE_DIR:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    used, attrs = set(), set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id in names and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used, attrs


PROGRAMS = [*sorted(PACKAGE_DIR.glob("*.py")), BENCH_DIR / "workloads.py", BENCH_DIR / "run.py"]


def test_exported_names_have_callers():
    # a public name that nothing but tests calls is code to delete: every name in a module's
    # __all__ or re-exported by __init__ is used in the package or the benchmark's programs
    exported = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem == "__init__":
            exported |= {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
        else:
            exported |= set(getattr(importlib.import_module(f"diotuples.{path.stem}"), "__all__", []))
    used = set().union(*(_references(path)[0] for path in PROGRAMS))
    assert "run_campaign" in used and "make_ring" in used
    wrong = sorted((exported - used) ^ set(UNCALLED_EXPORTS))
    assert not wrong, f"exported without a caller, or listed in UNCALLED_EXPORTS with one: {wrong}"


# Public methods and properties that no program calls yet, each kept for a stated reason.
UNCALLED_METHODS = {
    "CompatGraph.edges": "the tests' observable edge set",
    "HypothesisReport.failing": "pinned by tests/test_bounds.py",
}


def test_public_methods_have_callers():
    # the same rule for the package's classes: a public method or property is read, as an
    # attribute of any object, in the package or the benchmark's programs.  Attribute names are
    # matched without types, so a method counts as called when any object's attribute of its name is
    methods = {
        f"{node.name}.{item.name}": item.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    attrs = set().union(*(_references(path)[1] for path in PROGRAMS))
    assert "SearchConfig.config_hash" in methods and "config_hash" in attrs
    uncalled = {qualified for qualified, name in methods.items() if name not in attrs}
    wrong = sorted(uncalled ^ set(UNCALLED_METHODS))
    assert not wrong, f"public methods without a caller, or listed in UNCALLED_METHODS with one: {wrong}"


def test_one_clique_dfs():
    # find_cliques(g, k) is the full listing, and a search field grows the same DFS from its orbit
    # roots, so the orbit listing is neither an option of find_cliques nor a second search
    from diotuples.search import find_cliques

    params = inspect.signature(find_cliques).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("g", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("k", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
    ]
    # every candidate intersection fwd[...] & ... in the package: the one DFS has the only one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.left, ast.Subscript)
        and isinstance(node.left.value, ast.Name)
        and node.left.value.id == "fwd"
    ]
    assert len(found) == 1 and found[0].startswith("search.py:"), f"not one clique DFS: {found}"


def test_campaign_settings_stay_fixed():
    # the worker cost floor (search._WORKER_COST) and the chunking are constants, not settings: a
    # campaign is set only by these config fields and parameters, so a new knob must change this test
    from dataclasses import fields

    from diotuples.search import SearchConfig, run_campaign

    assert [f.name for f in fields(SearchConfig)] == ["D_list", "max_norm", "k", "n", "jobs", "checkpoint_path"]
    params = inspect.signature(run_campaign).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("cfg", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("progress", inspect.Parameter.POSITIONAL_OR_KEYWORD, None),
    ]


def test_bounds_converts_no_literal_per_call():
    # an exact small-integer interval is a module constant of bounds (_IV_2, ...), built once; a
    # call _iv_int(2, prec) would build the same pair again on every call of a kernel
    def is_int_literal(node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, int)

    tree = ast.parse((PACKAGE_DIR / "bounds.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_iv_int"
    ]
    assert calls
    found = [node.lineno for node in calls if node.args and is_int_literal(node.args[0])]
    assert not found, f"bounds.py converts an integer literal per call at lines {found}"


def test_docs_name_existing_code():
    # a private name in a package docstring or comment, or in the README, is code that exists: it
    # occurs in the package's code as a name or as a one-word string literal (such as "_n_by_D"),
    # and a module attribute the README names resolves.  bench/ is left out
    private = re.compile(r"(?<![A-Za-z0-9_])_[A-Za-z]\w*")
    code, named = set(), {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        docs = [
            ast.get_docstring(node, clean=False) or ""
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for doc in docs + [tok.string for tok in tokens if tok.type == tokenize.COMMENT]:
            for name in private.findall(doc):
                named.setdefault(name, path.name)
        code |= {tok.string for tok in tokens if tok.type == tokenize.NAME}
        code |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
        }
    readme = README.read_text()
    for name in private.findall(readme):
        named.setdefault(name, README.name)
    assert "_sqrt_half" in named and "_WORKER_COST" in named
    missing = sorted(f"{where}: {name}" for name, where in named.items() if name not in code)
    assert not missing, f"the docs name code that does not exist: {missing}"
    attrs = re.findall(r"\b(search|tuples|quad_ring|bounds|cli)\.([A-Za-z_]\w*)", readme)
    assert attrs
    unresolved = sorted(
        {f"{module}.{attr}" for module, attr in attrs if not hasattr(importlib.import_module(f"diotuples.{module}"), attr)}
    )
    assert not unresolved, f"README.md names module attributes that do not exist: {unresolved}"
