"""Every function, class and method in ``src/stripflow`` has a caller in the
program or in the benchmark, so code that only the tests reach does not
settle in ``src/``.  A test-only identity belongs in the test module that
checks it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "stripflow").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Definitions kept in src/ without a caller there, each with its reason.
ALLOWLIST = {
    "diagnostics.equivalence_checks": "paper diagnostic; waits to become a telemetry column (ROADMAP item 6)",
    "pressure.taylor_time_derivative": "paper diagnostic; waits to become a telemetry column (ROADMAP item 6)",
    "diagnostics.gronwall_slope": "energy-growth slope of criterion 7; waits for the run telemetry (ROADMAP item 6)",
    "geometry.PhysParams.growth_scale": "slope scale of criterion 7; waits for the run telemetry (ROADMAP item 6)",
    "io.load_snapshot": "the read half of save_snapshot, for users of the snapshot files",
}


def _referenced_names() -> Counter:
    """Every identifier that src/ and perfbench/ use: names, attributes, and
    the dotted words of string constants (the tracer names its spans so)."""
    refs = Counter()
    for path in SRC + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
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
