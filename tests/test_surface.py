"""The library's surface: every definition in src/ has a caller there, or a
reason outside it to stay; every import is used; the README stays scannable.

The scan is by name, with stdlib ``ast``: a definition counts as referenced
when its name appears as a name or an attribute anywhere in src/ outside its
own body.  Dunder methods are called by the interpreter and are not scanned.
"""
import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopfpath"

# definitions with no reference in src/, each with the file or directory
# outside src/ that needs it and the text there that shows it
ALLOWED = {
    "hopf_core.shuffle_permutations": ("tests/test_acceptance.py", "shuffle_permutations"),
    "linalg.pair_tensor": ("tests/test_acceptance.py", "pair_tensor"),
    "model_rde.Model.gamma_st": ("tests/test_acceptance.py", "gamma_st"),
    "roughpath.PiecewiseLinearPath.position": ("tests/test_acceptance.py", "position"),
    "series.trunc_mul": ("tests/test_acceptance.py", "trunc_mul"),
    "series.group_inverse": ("tests/test_acceptance.py", "group_inverse"),
    "series.is_primitive": ("tests/test_acceptance.py", "is_primitive"),
    "series.primitive_basis": ("perfbench", "primitive_basis"),
    "series.dynkin": ("tests/test_acceptance.py", "dynkin"),
    "series.geo_norm_constants": ("tests/test_acceptance.py", "geo_norm_constants"),
    "series.branched_norm_constants": ("tests/test_acceptance.py", "branched_norm_constants"),
    "symbols.multi_indices_up_to": ("tests/test_acceptance.py", "multi_indices_up_to"),
    # the convolution algebra of the feature list: S * T, its unit and identity
    "hopf_core.convolution": ("README.md", "with convolution"),
    "hopf_core.identity_map": ("README.md", "with convolution"),
    "hopf_core.unit_counit_map": ("README.md", "with convolution"),
    "model_rde.Model.pi": ("README.md", "evaluation/translation pairs"),
    "model_rde.Model.gamma_st_model": ("README.md", "noise comodule"),
    "model_rde.abstract_integration": ("README.md", "abstract integration"),
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _definitions(node, prefix: str):
    """(qualified name, node) for every function, class and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, prefix)


def _names(node) -> collections.Counter:
    """How often each name or attribute name is used under node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unreferenced() -> dict:
    modules = _modules()
    used = sum((_names(t) for t in modules.values()), collections.Counter())
    out = {}
    for module, tree in modules.items():
        for qualname, node in _definitions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if used[node.name] == _names(node)[node.name]:  # only in its own body
                out[qualname] = node
    return out


def test_every_definition_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    unexplained = sorted(set(unreferenced) - set(ALLOWED))
    assert not unexplained, f"defined in src/ but referenced only outside it: {unexplained}"
    stale = sorted(set(ALLOWED) - set(unreferenced))
    assert not stale, f"allowlisted but referenced in src/ (or gone): {stale}"


def test_each_reason_holds():
    # in code the name must be used as a name or attribute; in the README the
    # text must occur as words
    for qualname, (where, text) in ALLOWED.items():
        path = ROOT / where
        files = sorted(path.glob("*.py")) if path.is_dir() else [path]
        found = any(
            text in _names(ast.parse(source)) if f.suffix == ".py"
            else re.search(rf"\b{re.escape(text)}\b", source)
            for f in files
            for source in [f.read_text(encoding="utf-8")]
        )
        assert found, f"{qualname}: {text!r} does not occur in {where}"


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, f"imported but never used: {unused}"


def test_readme_lines_are_short():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    long = [(i, len(line)) for i, line in enumerate(lines, 1) if len(line) > 400]
    assert not long, f"README lines longer than 400 characters (line, length): {long}"
