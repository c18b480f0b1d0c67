"""The library's surface: every definition in src/ has a caller there, or a
reason outside it to stay; every import is used; the README stays scannable.

The scan is by name, with stdlib ``ast``: a definition counts as referenced
when its name appears as a name or an attribute anywhere in src/ outside its
own body.  A name that src/ defines more than once cannot tell its
definitions apart, so each of those is listed with a use of its own.  Dunder
methods are called by the interpreter and are not scanned.
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


# the definitions whose name src/ defines more than once, each with the file
# that uses it and a line of that use, outside the definition itself
SHARED = {
    # how a combination's terms sort and print
    "linalg.LinComb._label": ("src/hopfpath/linalg.py", 'x._label(key, " (x) ")'),
    "linalg.TensorComb._label": ("src/hopfpath/linalg.py", 'x._label(key, " (x) ")'),
    "linalg.LinComb._order": ("src/hopfpath/linalg.py", "key=self._order"),
    "linalg.TensorComb._order": ("src/hopfpath/linalg.py", "key=self._order"),
    "hopf_ck.TreeWord.sort_key": ("src/hopfpath/linalg.py", "bc[0].sort_key()"),
    "model_rde.DottedForest.sort_key": ("src/hopfpath/linalg.py", "bc[0].sort_key()"),
    "symbols.MultiIndex.sort_key": ("src/hopfpath/linalg.py", "bc[0].sort_key()"),
    "symbols.Word.sort_key": ("src/hopfpath/linalg.py", "bc[0].sort_key()"),
    "symbols.Tree.sort_key": ("src/hopfpath/linalg.py", "bc[0].sort_key()"),
    "symbols.Forest.sort_key": ("src/hopfpath/linalg.py", "bc[0].sort_key()"),
    "hopf_core._row": ("src/hopfpath/hopf_core.py", "return _row(out.items())"),
    "roughpath._LiftTable._row": ("src/hopfpath/roughpath.py", "self._row(p, fit)"),
    "linalg.LinComb.term": ("src/hopfpath/cli.py", "LinComb.term(phi_hat(w))"),
    "linalg.TensorComb.term": ("src/hopfpath/hopf_core.py", "TensorComb.term(unit, unit)"),
    "hopf_ck.psi.term": ("src/hopfpath/hopf_ck.py", "ck_coproduct(tree.children).fold(term)"),
    "linalg.LinComb.coeff": ("src/hopfpath/hopf_core.py", "x.coeff(unit)"),
    "linalg.TensorComb.coeff": ("tests/test_acceptance.py", "grouped.coeff(W(2), W(1, 2, 1))"),
    "roughpath.RoughLift.coeff": ("src/hopfpath/roughpath.py", "lift.coeff(s, t, phi_hat(w))"),
    "series.TruncatedElement.coeff": ("src/hopfpath/roughpath.py",
                                      "self.eval(s, t).coeff(basis)"),
    "linalg.TensorComb.of": ("src/hopfpath/hopf_core.py", "TensorComb.of(self.one(), x)"),
    "symbols.Forest.of": ("src/hopfpath/symbols.py", "return Forest.of(*acc)"),
    "linalg.pair": ("src/hopfpath/cli.py", "value = pair(_parse(args, args.x)"),
    "hopf_core.check_axioms.pair": ("src/hopfpath/hopf_core.py", "pair(unit, b)"),
    # the algebras' structure maps and their words and forests
    "hopf_core.HopfInstance.product": ("src/hopfpath/cli.py", "inst.product(_parse(args"),
    "hopf_core.HopfInstance.antipode_row.product": ("src/hopfpath/hopf_core.py",
                                                    "product(l, r, side)"),
    "hopf_core.check_axioms.product": ("src/hopfpath/hopf_core.py",
                                       "product(product(x, y), z)"),
    "roughpath._LiftTable.product": ("src/hopfpath/roughpath.py",
                                     "table.product(P[i][j], P[j][k])"),
    "hopf_core.HopfInstance.antipode": ("src/hopfpath/cli.py", "inst.antipode(x)"),
    "hopf_core.poly_instance.antipode": ("src/hopfpath/hopf_core.py",
                                         "antipode_closed_basis=antipode"),
    "series.TruncatedElement.antipode": ("src/hopfpath/series.py", "g.antipode()"),
    "hopf_core.HopfInstance.counit": ("src/hopfpath/hopf_core.py", "instance.counit(unit)"),
    "series.TruncatedElement.counit": ("src/hopfpath/series.py", "g.counit() != 1"),
    "series.TruncatedElement.make": ("src/hopfpath/cli.py", "TruncatedElement.make(x, args"),
    "series.TruncatedElement.mul": ("src/hopfpath/series.py", "a.mul(b)"),
    "symbols.Forest.mul": ("src/hopfpath/hopf_ck.py", "l1.mul(l2)"),
    "symbols.Word.concat": ("src/hopfpath/hopf_core.py", "u.concat(v)"),
    "hopf_ck.TreeWord.concat": ("src/hopfpath/hopf_ck.py", "w.concat(letter)"),
    "symbols.Forest.trees": ("src/hopfpath/symbols.py", "self.trees()"),
    "symbols.trees": ("src/hopfpath/model_rde.py", "trees(d, g)"),
    # checks, lifts, models and fields
    "hopf_core.check_axioms.grading_failures": ("src/hopfpath/hopf_core.py",
                                                'report.run("grading", grading_failures())'),
    "model_rde.check_model.grading_failures": (
        "src/hopfpath/model_rde.py", 'report.run("grade-lowering", grading_failures())'),
    "roughpath.RoughPathConfig.make": ("src/hopfpath/cli.py", "RoughPathConfig.make(_gamma"),
    "roughpath._lift_factory.evaluate": ("src/hopfpath/roughpath.py",
                                         "RoughLift(flavor, d, level, evaluate, walk=walk)"),
    "roughpath.geo_to_branched.evaluate": ("src/hopfpath/roughpath.py",
                                           'RoughLift("branched", d, level, evaluate)'),
    "roughpath.branched_to_geo.evaluate": ("src/hopfpath/roughpath.py",
                                           'RoughLift("geometric", d, level, evaluate)'),
    "roughpath.PiecewiseLinearPath.dim": ("src/hopfpath/cli.py", "path.dim"),
    "model_rde.Model.character": ("src/hopfpath/model_rde.py", "self.character(t, s)"),
    "model_rde._gamma_table.character": ("src/hopfpath/model_rde.py", "g = character(j, i)"),
    "model_rde._polynomial_plan.mul": ("src/hopfpath/model_rde.py", "c = mul(c, c_child)"),
    "model_rde.VectorField.dim": ("src/hopfpath/model_rde.py", "_step_plan(field.dim, level)"),
    "model_rde.constant_field.deriv": ("src/hopfpath/model_rde.py",
                                       'ScalarField(deriv, name=f"const:{c}"'),
    "model_rde.identity_field.deriv": ("src/hopfpath/model_rde.py",
                                       'ScalarField(deriv, name="linear"'),
    "model_rde.polynomial_field.deriv": ("src/hopfpath/model_rde.py",
                                         'ScalarField(deriv, name="poly:"'),
    "model_rde.sine_field.deriv": ("src/hopfpath/model_rde.py", 'ScalarField(deriv, name="sin")'),
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


def test_each_shared_name_is_listed_per_definition():
    by_name = collections.defaultdict(list)
    for module, tree in _modules().items():
        for qualname, node in _definitions(tree, module):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                by_name[node.name].append(qualname)
    shared = {q for qualnames in by_name.values() if len(qualnames) > 1 for q in qualnames}
    unexplained = sorted(shared - set(SHARED))
    assert not unexplained, f"a name defined more than once in src/, unlisted: {unexplained}"
    stale = sorted(set(SHARED) - shared)
    assert not stale, f"listed as shared but defined once in src/ (or gone): {stale}"


def test_each_shared_use_holds():
    # the line names the definition and occurs in the file, outside the
    # definition's own lines
    definitions = {q: (module, node) for module, tree in _modules().items()
                   for q, node in _definitions(tree, module)}
    for qualname, (where, text) in SHARED.items():
        module, node = definitions[qualname]
        assert node.name in text, f"{qualname}: {text!r} does not name it"
        own = (range(node.lineno, node.end_lineno + 1) if where == f"src/hopfpath/{module}.py"
               else range(0))
        lines = (ROOT / where).read_text(encoding="utf-8").splitlines()
        assert any(text in line for i, line in enumerate(lines, 1) if i not in own), (
            f"{qualname}: {text!r} does not occur in {where} outside it")


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
