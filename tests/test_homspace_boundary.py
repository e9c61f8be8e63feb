"""The layout of hom-space coordinates is `posetrep`'s alone.

A `HomSpace` holds its spanning maps as one coordinate matrix: flattened
morphisms, or only their `*` blocks into a subspace representation, with
the other vertices lifted by f_v = L_v f_* X_v.  Every other module of
`src/subrep` reads hom spaces through the `HomSpace` methods, so none of
them calls the accessors that expose that matrix or imports the helpers
that read, reshape or lift it.  Which form a hom space holds is
`posetrep`'s decision too, so no other module asks `.is_subspace_rep`
but `cli`, which reports the form to the user.  This test scans their
syntax trees.  Tests may still use these names.
"""

import ast
from pathlib import Path

import subrep

FORBIDDEN_CALLS = {"star_block", "basis_matrix", "_held", "is_subspace_rep"}
FORM_READERS = {"cli.py"}
FORBIDDEN_NAMES = {"_lift", "_flat_rows", "_flat_size", "morphism_from_flat"}
PACKAGE = Path(subrep.__file__).resolve().parent


def _violations(tree):
    """(line, what) for each forbidden call, import or module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in FORBIDDEN_CALLS:
                yield node.lineno, f"call of .{node.func.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in FORBIDDEN_NAMES:
                    yield node.lineno, f"import of {alias.name}"
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES:
            yield node.lineno, f"use of .{node.attr}"


def test_no_module_outside_posetrep_reads_hom_coordinates():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "posetrep.py")
    assert len(modules) > 5  # the scan sees the package
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _violations(ast.parse(path.read_text(), filename=str(path)))
        if not (path.name in FORM_READERS and what == "call of .is_subspace_rep")
    ]
    assert not found, "\n".join(found)


def test_the_scan_flags_each_forbidden_form():
    source = """
from .posetrep import HomSpace, _lift, morphism_from_flat
a = homs.star_block()
b = homs.basis_matrix().a
c = homs._held()
d = posetrep._flat_rows(x, y)
e = homs.dim
f = rep.is_subspace_rep()
"""
    got = sorted(what for _, what in _violations(ast.parse(source)))
    assert got == [
        "call of ._held",
        "call of .basis_matrix",
        "call of .is_subspace_rep",
        "call of .star_block",
        "import of _lift",
        "import of morphism_from_flat",
        "use of ._flat_rows",
    ]
