"""Every public top-level function and class under src/podselect has a reader
in program code: src/podselect or the perfbench harness, tests left out.

A name is read when it appears as a name token anywhere but its own
definition; strings and comments do not count. A name whose only readers are
tests is code that no run executes, and goes.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "podselect"

# rouge_n is the ROUGE-1/2 kernel that the per-episode scores file is to be
# written with; it is kept for that file, which has not landed yet
NOT_YET_READ = {("rouge", "rouge_n")}


def program_files():
    yield from PACKAGE.rglob("*.py")
    yield from (path for path in (ROOT / "perfbench").rglob("*.py")
                if "tests" not in path.relative_to(ROOT / "perfbench").parts)


def name_tokens(path):
    """How often each name token occurs in the file; strings and comments hold none."""
    source = io.StringIO(path.read_text("utf-8"))
    return Counter(token.string for token in tokenize.generate_tokens(source.readline)
                   if token.type == tokenize.NAME)


def public_definitions(path):
    """The public functions and classes defined at the top level of a module."""
    tree = ast.parse(path.read_text("utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unread_definitions():
    """(module, name) of each public definition with no program reader."""
    counts = Counter()
    for path in program_files():
        counts.update(name_tokens(path))
    return {(path.stem, name) for path in PACKAGE.rglob("*.py")
            for name in public_definitions(path) if counts[name] < 2}


def test_every_public_name_has_a_program_reader():
    assert sorted(unread_definitions() - NOT_YET_READ) == []


def test_every_exemption_is_still_unread():
    # a reader or a deletion ends an exemption, and the entry goes with it
    assert unread_definitions() >= NOT_YET_READ
