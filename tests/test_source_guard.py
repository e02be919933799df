"""Every function, class and method in ``src/stripflow`` has a caller in the
program or in the benchmark, and every field of its dataclasses a reader
there, so code that only the tests reach does not settle in ``src/``, and no
result is computed and then dropped.  A test-only identity belongs in the
test module that checks it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "stripflow").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Definitions kept in src/ without a caller there, each with its reason.
ALLOWLIST = {
    "io.load_snapshot": "the read half of save_snapshot, for users of the snapshot files",
}

# Dataclass fields kept in src/ without an attribute read there, each with its reason.
FIELD_ALLOWLIST = {
    "diagnostics.EnergyReport.E_low": "a part of E_s, checked by tests/test_diagnostics.py",
    "diagnostics.EnergyReport.alinhac_terms": "a part of E_s, checked by tests/test_diagnostics.py",
    "diagnostics.EnergyReport.surface_term": "a part of E_s, checked by tests/test_diagnostics.py",
    "diagnostics.EnergyReport.vort_norm": "a part of E_s, bounded uniformly in mu by criterion 3",
}


def _referenced_names(names: bool = True) -> Counter:
    """Every identifier that src/ and perfbench/ use: names (unless ``names``
    is false), attributes, and the dotted words of string constants (the
    tracer names its spans so)."""
    refs = Counter()
    for path in SRC + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id] += names
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.update(node.value.replace(".", " ").split())
    return refs


def _definitions():
    """(qualified name, bare name) of each top-level function or class and
    each method, dunder methods excepted (Python calls those)."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_definition_has_a_caller_outside_the_tests():
    refs = _referenced_names()
    unused = sorted(q for q, name in _definitions() if refs[name] == 0 and q not in ALLOWLIST)
    assert unused == [], f"reached only from tests (move them there, or allowlist with a reason): {unused}"


def test_allowlist_is_current():
    defined = {q for q, _ in _definitions()}
    refs = _referenced_names()
    stale = sorted(q for q in ALLOWLIST if q not in defined or refs[q.rsplit(".", 1)[1]] > 0)
    assert stale == [], f"allowlisted but gone or now called: {stale}"


def _fields():
    """(qualified name, bare name) of each field of a src/ dataclass."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_is_read_outside_the_tests():
    # a local variable of the same name is not a read of the field
    refs = _referenced_names(names=False)
    unread = sorted(q for q, name in _fields() if refs[name] == 0 and q not in FIELD_ALLOWLIST)
    assert unread == [], f"stored and never read outside the tests (stop computing them, or allowlist): {unread}"


def test_field_allowlist_is_current():
    defined = {q for q, _ in _fields()}
    refs = _referenced_names(names=False)
    stale = sorted(q for q in FIELD_ALLOWLIST if q not in defined or refs[q.rsplit(".", 1)[1]] > 0)
    assert stale == [], f"allowlisted but gone or now read: {stale}"
