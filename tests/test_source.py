"""Source checks: invariant checks in the package must survive `python -O`, and
the omega convention stays inside quad_ring."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "diotuples"


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
    # the integer kernels need only the integrality rule; the omega convention
    # belongs to basis conversion, which lives in quad_ring alone
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "quad_ring.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "OmegaMode" in line or "omega_mode" in line
    ]
    assert not found, f"the omega convention is named outside quad_ring.py: {found}"
