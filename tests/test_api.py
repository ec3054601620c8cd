"""The package holds no code that only the tests read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eulerdd"

# public names that no code in the package reads, each kept for the ROADMAP
# item that gives it a reader or moves it out of the package
PARKED = [
    "analysis.fault_fidelity_comparison",  # item 4
    "io.fault_from_doc",                   # item 4
    "io.import_schedule",                  # item 17
    "pulses.ControlSchedule.stroboscopic_frames",  # item 11
]


def unread_public_names(src: Path) -> list:
    """The public module-level functions and classes, and the public methods
    of module-level classes, of the modules in ``src`` (``__init__.py``
    excluded) whose name no code there reads as an ``ast.Name`` or
    ``ast.Attribute``, as ``module.name`` or ``module.Class.method``."""
    defined, read = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend((path.stem, f"{node.name}.{item.name}")
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name.rsplit(".", 1)[-1] not in read)


def test_every_public_name_has_a_reader_in_the_package():
    assert unread_public_names(SRC) == PARKED
