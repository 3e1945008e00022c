"""Every name defined in the package is used somewhere else, and no
module binds a mutable container.

A top-level function or class, or a public method, of a module in
src/raag must occur as an identifier in src/ or tests/ outside its own
definition; a name that occurs nowhere else is dead code.  A word
in a string literal or a comment is not an identifier.  This holds for
private helpers (`_name`) at the top level as well.

A public name must also have a consumer: it occurs in src/, perfbench/ or
the acceptance criteria, not only in its own unit tests.
The names kept for the library alone are listed in `LIBRARY_ONLY`, each
with its reason.

Every `__slots__` field of a class in src/raag is read as an attribute
(`x.field` in a load) somewhere in src/ or tests/: a table that is filled
but read nowhere is dead weight.

The private names (`_name`) that one module of src/raag imports from
another are listed in `PRIVATE_IMPORTS`, and the list may only shrink: a
new one couples two modules through a helper that neither exports.  The
list is exact, so an import that goes leaves it too.

No module binds a mutable container at its top level or in a class body:
a memo there would outlive the call, and the graph, it was built for.  A
cache is local to one call, or an `lru_cache` keyed by the graph.

A test module uses every name it imports (`from __future__` aside), and
no function in src/raag imports: each module imports at its top level.

No code in src/raag calls `json.dump` or passes `indent=`: both run the
pure-Python encoder, and every answer is one line from `json.dumps`.  Only
`cli` shapes an answer: no other module defines a `to_json...` function or
method, and the Lie ranks are plain tuples, with no record type.

Importing `raag.cli` in a fresh interpreter loads none of `dataclasses`,
`inspect`, `ast`, `dis` or `tokenize`: every CLI call pays its imports,
and the records are `NamedTuple`s, which need none of them.
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "raag"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


USERS = ("src/**/*.py", "tests/**/*.py")
CONSUMERS = ("src/**/*.py", "perfbench/*.py", "tests/test_acceptance.py")

# public names that no consumer reaches, kept for the library's users
LIBRARY_ONLY = {
    "graph.py: Graph.to_dict":
        "the inverse of Graph.from_dict, for writing graph JSON",
    "series.py: PCSeries.from_terms":
        "builds a series from letter sequences that need not be canonical",
}


# (importing module: module.name) for each private name imported across
# modules of src/raag
PRIVATE_IMPORTS = frozenset({
    "koszul.py: raag.words._concat",
    "lie.py: raag.words._concat",
    "lie.py: raag.words._slot",
    "magnus.py: raag.words._concat",
    "series.py: raag.words._concat",
    "verify.py: raag.growth._poly_mul",
    "verify.py: raag.koszul._resolution_reports",
    "verify.py: raag.lie._lyndon",
    "verify.py: raag.magnus._image",
})


def _files(patterns) -> list[Path]:
    return sorted({p for pattern in patterns for p in ROOT.glob(pattern)})


def _identifiers(patterns) -> dict[Path, list[tuple[int, str]]]:
    """The (line, identifier) of each NAME token in each file: a word
    inside a string literal or a comment is not a use."""
    out = {}
    for p in _files(patterns):
        tokens = tokenize.generate_tokens(
            io.StringIO(p.read_text(encoding="utf-8")).readline)
        out[p] = [(t.start[0], t.string) for t in tokens
                  if t.type == tokenize.NAME]
    return out


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public
    top-level function or class and each public method."""
    for node in tree.body:
        if not isinstance(node, DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _private_definitions(tree: ast.Module):
    """The same for each private top-level function or class."""
    for node in tree.body:
        if isinstance(node, DEFS) and node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno


def _unused(definitions, patterns=USERS) -> list[str]:
    """The definitions whose name is an identifier in no file matching
    `patterns`, outside the definition itself."""
    sources = _identifiers(patterns)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, first, last in definitions(
                ast.parse(path.read_text(encoding="utf-8"))):
            used = any(
                word == name
                for p, names in sources.items()
                for i, word in names
                if not (p == path and first <= i <= last)
            )
            if not used:
                dead.append(f"{path.name}: {qualname}")
    return dead


def test_every_public_name_is_used():
    assert _unused(_public_definitions) == []


def test_every_private_helper_is_used():
    assert _unused(_private_definitions) == []


def test_every_public_name_has_a_consumer():
    assert sorted(_unused(_public_definitions, CONSUMERS)) == sorted(LIBRARY_ONLY)


def _slot_fields():
    """(class and field, field) for each `__slots__` entry of a class in
    src/raag."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.Assign)
                        and [ast.unparse(t) for t in item.targets]
                        == ["__slots__"]):
                    for field in ast.literal_eval(item.value):
                        yield f"{path.name}: {node.name}.{field}", field


def test_every_slot_is_read():
    read = {node.attr for p in _files(USERS)
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = dict(_slot_fields())
    assert "koszul.py: _Basis.fronts" in fields
    assert [name for name, field in fields.items() if field not in read] == []


def test_private_imports_only_shrink():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.split(".")[0] == "raag")):
                found |= {f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")}
    assert found == PRIVATE_IMPORTS


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict"}


def _is_container(value) -> bool:
    if isinstance(value, CONTAINERS):
        return True
    if isinstance(value, ast.Call):
        f = value.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        return name in CONTAINER_CALLS
    return False


def _bindings(body):
    """The assignments run at import: those in `body`, in class bodies and
    in compound statements, but not in function bodies."""
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _bindings(getattr(node, field, []))


def test_no_module_binds_a_mutable_container():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _bindings(ast.parse(path.read_text(encoding="utf-8")).body):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if [ast.unparse(t) for t in targets] == ["__all__"]:
                continue
            if node.value is not None and _is_container(node.value):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_tests_import_only_names_they_use():
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # `import a.b` binds a
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}"
                       for name in bound if name not in used]
    assert unused == []


def test_no_import_inside_a_function():
    # an import hidden in a function body is how an import cycle gets
    # papered over; every module imports at its top level
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno}: {ast.unparse(inner)}"
                          for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_json_is_written_by_the_c_encoder():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "dump" or any(k.arg == "indent" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_only_cli_shapes_answers():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cli.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{node.lineno}: {node.name}"
                      for node in ast.walk(tree) if isinstance(node, DEFS)
                      and (node.name.startswith("to_json")
                           or (path.name, node.name) == ("lie.py", "RankTable"))]
    assert found == []


HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_heavy_module():
    # a child process: pytest itself has loaded these modules here
    code = ("import sys, raag.cli; "
            f"print(sorted(set(sys.modules) & set({HEAVY_MODULES!r})))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
