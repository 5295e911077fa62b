"""Every function and class in the library is reached from the library.

A definition whose name appears nowhere in ``src/`` outside its own body
(as a name, an attribute or a string constant) serves only callers outside
the package, such as the tests; it belongs in the tests, or nowhere.  The
scan is by name alone, so a definition that shares its name with another
use passes unseen.

Likewise every annotated class field is read somewhere in ``src/`` (as a
loaded name or attribute, or a string constant); a field that is only
written, say as a keyword argument of the constructor, carries nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pwproj"

# qualified name -> why it stays although nothing in src/ names it
ALLOWED = {
    "config_act": "the group action on configurations; the products benchmark "
    "and acceptance criterion 2 check the cocycle identity through it",
    "PiecewiseProjectiveMap.from_text": "the input path for maps given as text",
}


def _definitions(tree):
    """(qualified name, node) of every def and class, at any depth."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                out.append((name, child))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _spelling(node):
    """The identifier a node spells: a name, an attribute or a string constant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]


def unreached_definitions():
    """Qualified names of non-dunder definitions that src/ never names."""
    trees = _trees()
    uses = {}  # spelling -> ids of the nodes that spell it
    for tree in trees:
        for node in ast.walk(tree):
            text = _spelling(node)
            if text is not None:
                uses.setdefault(text, set()).add(id(node))
    unreached = []
    for tree in trees:
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not uses.get(name, set()) - inside:
                unreached.append(qualname)
    return sorted(unreached)


def unread_fields():
    """Qualified names of annotated class fields that src/ never reads."""
    trees = _trees()
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            text = _spelling(node)
            if text is not None and isinstance(getattr(node, "ctx", ast.Load()), ast.Load):
                reads.add(text)
    unread = []
    for tree in trees:
        for qualname, node in _definitions(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in reads:
                        unread.append(f"{qualname}.{stmt.target.id}")
    return sorted(unread)


def test_every_definition_is_reached_from_the_library():
    assert unreached_definitions() == sorted(ALLOWED)


def test_every_class_field_is_read_in_the_library():
    assert unread_fields() == []
