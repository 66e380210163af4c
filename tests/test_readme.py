"""The README's test references resolve.

Each backticked `test_*.py::Class::test_name` in README.md must name a file
under tests/ and, in it, each class and function of the path.  The files are
read with ast, not collected, so nothing is imported or run.
"""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")
# a file and the names after it; a parametrized id in brackets is dropped
REFERENCE = re.compile(r"`(test_\w+\.py)((?:::\w+)+)(?:\[[^\]`]*\])?`")
_DEFS = (ast.ClassDef, ast.FunctionDef)


def _missing(file, names):
    """The first part of the reference `file::names` that does not exist, or None."""
    path = TESTS / file
    if not path.is_file():
        return f"tests/{file}"
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for i, name in enumerate(names):
        node = next((n for n in body if isinstance(n, _DEFS) and n.name == name), None)
        if node is None:
            return "::".join([file, *names[: i + 1]])
        body = node.body
    if not isinstance(node, ast.FunctionDef):
        return f"{file}::{'::'.join(names)} (a class, not a test)"
    return None


def test_every_test_reference_resolves():
    references = [(m.group(1), m.group(2)[2:].split("::")) for m in REFERENCE.finditer(README)]
    assert len(references) >= 30  # the pattern still finds the Model section's references
    missing = [gone for file, names in references if (gone := _missing(file, names))]
    assert missing == []


def test_every_model_rule_names_a_test():
    # a bullet names a test, says "(no test)", or sits under a lead paragraph that names its tests
    model = README.split("\n## Model\n", 1)[1].split("\n## ", 1)[0]
    unpinned = []
    for section in model.split("\n### ")[1:]:
        lead, *bullets = re.split(r"\n- ", section)
        if REFERENCE.search(lead):
            continue
        unpinned += [b.split("\n")[0] for b in bullets if not REFERENCE.search(b) and "(no test)" not in b]
    assert unpinned == []
