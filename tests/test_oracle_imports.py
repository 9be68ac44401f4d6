"""What the oracle modules take from the package, as an explicit allow-list.

An oracle holds a copy of the code a package route replaced, so that a
test compares the new route with the old one.  If an oracle imported the
package function it is meant to stand in for, a later rewrite of that
function would turn the comparison into new against new without any test
noticing.  The oracle modules are ``tests/dense_ops.py`` and every
``tests/*_oracle.py`` that is not itself a test module; each may import
from ``splitlie2`` exactly the names listed here, and a new oracle module
must be listed too.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent

ALLOWED = {
    "bracket_oracle.py": {
        "splitlie2.gradedpoly": {"Chart", "ChartMismatchError", "KIND_DEGREE", "P", "Poly", "TH",
                                 "THD", "X", "XI", "XID", "mono_degree", "mono_from_sequence"},
    },
    "decode_oracle.py": {
        "splitlie2.bracket": {"derived_bracket", "poisson_bracket"},
        "splitlie2.gradedpoly": {"Chart", "P", "Poly", "TH", "THD", "XI", "XID", "mono_tridegree",
                                 "p_", "th_dn", "th_up", "x_", "xi_dn", "xi_up"},
        "splitlie2.multivectors": {"MCElement", "SAlgebra", "section1", "section2"},
        "splitlie2.report": {"CheckReport"},
        "splitlie2.structures": {"GAMMA_TRIDEGREES", "Lie2Structure"},
        "splitlie2.twisting": {"BialgebroidPair"},
    },
    "dense_ops.py": {
        "splitlie2.gradedpoly": {"Poly"},
        "splitlie2.lwx": {"LWXStructure"},
        "splitlie2.structures": {"d_dx"},
    },
    "leibniz_oracle.py": {
        "splitlie2.gradedpoly": {"Chart", "Poly", "x_"},
        "splitlie2.lwx": {"LWXOps", "LWXStructure", "Subbundle"},
        "splitlie2.multivectors": {"SAlgebra"},
        "splitlie2.report": {"CheckReport"},
        "splitlie2.structures": {"Lie2Ops", "Lie2Structure", "MorphismData", "ShapeError",
                                 "basis_vector", "vec_add", "vec_scale", "vec_sub"},
        "splitlie2.twisting": {"BialgebroidPair", "check_bialgebroid"},
    },
}


def oracle_modules():
    paths = [p for p in TESTS.glob("*_oracle.py") if not p.name.startswith("test_")]
    return sorted(paths + [TESTS / "dense_ops.py"])


def package_imports(path):
    """{module: set of names} of every import of splitlie2 in a file; a plain
    ``import splitlie2...`` counts as importing the whole module ("*")."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "splitlie2":
            out.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "splitlie2":
                    out.setdefault(alias.name, set()).add("*")
    return out


def test_every_oracle_module_is_listed():
    assert [p.name for p in oracle_modules()] == sorted(ALLOWED)


def test_oracle_modules_import_only_the_listed_package_names():
    for path in oracle_modules():
        assert package_imports(path) == ALLOWED[path.name], path.name
