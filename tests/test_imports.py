"""Every module-level import in the package and its tests is read, and so is
every module-level function and class of the package.

Parsed with the standard library's ``ast``, nothing imported or executed: a
name bound by a module-level ``import`` must be read somewhere in its module.
``from __future__`` imports and names listed in ``__all__`` are exempt, and a
name read only inside a string annotation counts as read.  A function or
class defined at the top of a package module must be read, as a name, an
attribute or an imported name, somewhere in the package, its tests or the
benchmark harness, outside its own definition.  And a package module opens
a file for writing, by ``open`` or ``os.fdopen``, only in the two functions
that are meant to: ``cli._replace_file``, the atomic writer behind every
``--out``, and ``workers.run_sweep``, whose record stream is read, cut and
written on one handle; a sweep worker writes its pipe with ``os.write``.
No package module reads JSON: a record line is read back only when its
writer writes the record read from it back byte for byte, and nothing else
reads JSON.  And no
package module imports ``io``: each text format has one writer that returns
its text as a ``str``, so no text is built up in a stream buffer.  Nor does
one import ``multiprocessing``, ``concurrent`` or ``threading``: the sweep
forks its workers itself.  Nor does one import ``fractions``, ``decimal`` or
``numbers`` at module level: a Fraction is built only where it is printed
or compared, and the sweep builds none.  Outside a
class body, no package code reads or writes a single-underscore attribute
of an object: a class's private state is known only to the class.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "crossint").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _module_imports(tree: ast.Module):
    """(bound name, line) for each import statement in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    read = _read_names(tree) | _exported(tree)
    return [(name, line) for name, line in _module_imports(tree) if name not in read]


def test_no_unused_module_level_imports() -> None:
    assert SOURCES
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_unused_import_rule() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Iterable, Sequence\n"
        "from math import comb\n"
        "from . import kept\n"
        "__all__ = ['kept']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("j", 3), ("Iterable", 4), ("comb", 5)]


def _reads(node: ast.AST) -> Counter[str]:
    """How often each name is read under node: a loaded name, a loaded
    attribute, or a name imported from a module."""
    reads: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def unread_definitions(source: str, reads: Counter[str]) -> list[tuple[str, int]]:
    """(name, line) of each module-level function or class in source that
    reads, counted over every source, holds only inside its own definition."""
    return [
        (node.name, node.lineno)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and reads[node.name] <= _reads(node)[node.name]
    ]


def test_no_unread_package_definitions() -> None:
    reads: Counter[str] = Counter()
    for path in PROGRAM:
        reads += _reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in PACKAGE
        for name, line in unread_definitions(path.read_text(encoding="utf-8"), reads)
    ]
    assert unread == []


def test_unread_definition_rule() -> None:
    source = (
        "def called():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Imported:\n"
        "    def copy(self):\n"
        "        return Imported()\n"
        "class ByAttribute:\n"
        "    pass\n"
        "def rebound():\n"
        "    pass\n"
        "rebound = called()\n"
    )
    other = "from pkg.mod import Imported\nimport pkg.mod as m\nm.ByAttribute()\n"
    reads = _reads(ast.parse(source)) + _reads(ast.parse(other))
    assert unread_definitions(source, reads) == [("recursive", 3), ("rebound", 10)]


#: (module file, top-level function) of each place in the package that may
#: open a file to write.
WRITE_OPENERS = {("cli.py", "_replace_file"), ("workers.py", "run_sweep")}


def _opener(func: ast.expr) -> bool:
    """Whether a call of func opens a file: ``open``, or ``fdopen`` by name
    or as ``os.fdopen``, whose mode is the second argument of both."""
    if isinstance(func, ast.Name):
        return func.id in ("open", "fdopen")
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "fdopen"
        and isinstance(func.value, ast.Name)
        and func.value.id == "os"
    )


def write_opens(source: str) -> list[tuple[str, int]]:
    """(enclosing top-level definition or "<module>", line) of each ``open``
    or ``os.fdopen`` call in source whose mode may write: a mode that is not
    a string constant, or one holding w, a, x or +."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and _opener(node.func)):
                continue
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(
                not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                or set(mode.value) & set("wax+")
                for mode in modes
            ):
                found.append((where, node.lineno))
    return found


def test_files_are_opened_to_write_only_where_allowed() -> None:
    writes = sorted(
        (path.name, where, line)
        for path in PACKAGE
        for where, line in write_opens(path.read_text(encoding="utf-8"))
    )
    assert {(name, where) for name, where, _ in writes} == WRITE_OPENERS, writes


def test_write_open_rule() -> None:
    source = (
        "def reader(p):\n"
        "    return open(p), open(p, 'rb'), open(p, mode='r')\n"
        "def writer(p, m):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='ab')\n"
        "    open(p, 'r+b')\n"
        "    open(p, m)\n"
        "fh = open('x', 'x')\n"
        "def piped(r, w):\n"
        "    return os.fdopen(r, 'rb'), os.fdopen(w, 'wb'), fdopen(w, mode='a')\n"
        "def other(w):\n"
        "    return pipes.fdopen(w, 'w'), os.write(w, b'')\n"
    )
    assert write_opens(source) == [
        ("writer", 4),
        ("writer", 5),
        ("writer", 6),
        ("writer", 7),
        ("<module>", 8),
        ("piped", 10),
        ("piped", 10),
    ]


def json_reads(source: str) -> list[int]:
    """Line of each ``json.load`` or ``json.loads`` read in source, through
    the module under any name it is imported as, or imported from it."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("load", "loads")
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(alias.name in ("load", "loads") for alias in node.names)
        )
    )


def test_package_reads_no_json() -> None:
    reads = [
        f"{path.name}:{line}"
        for path in PACKAGE
        for line in json_reads(path.read_text(encoding="utf-8"))
    ]
    assert reads == []


def test_json_read_rule() -> None:
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dumps, loads\n"
        "json.dumps({})\n"
        "json.loads('{}')\n"
        "reader = j.load\n"
        "other.loads('{}')\n"
        "def f(fh):\n"
        "    return json.load(fh)\n"
    )
    assert json_reads(source) == [3, 5, 6, 9]


def module_imports(module: str, source: str) -> list[int]:
    """Line of each import of the top-level module ``module``, of one of its
    submodules or of a name from either, anywhere in source."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == module for alias in node.names)
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == module
        )
    )


def test_package_imports_no_io() -> None:
    imports = [
        f"{path.name}:{line}"
        for path in PACKAGE
        for line in module_imports("io", path.read_text(encoding="utf-8"))
    ]
    assert imports == []


def test_io_import_rule() -> None:
    source = (
        "import io\n"
        "import os, io as stream\n"
        "from io import StringIO\n"
        "import iox\n"
        "from . import io\n"
        "from iox import StringIO\n"
        "def f():\n"
        "    import io\n"
        "    return io.StringIO()\n"
    )
    assert module_imports("io", source) == [1, 2, 3, 8]


def test_package_imports_no_dataclasses() -> None:
    imports = [
        f"{path.name}:{line}"
        for path in PACKAGE
        for line in module_imports("dataclasses", path.read_text(encoding="utf-8"))
    ]
    assert imports == []


def test_dataclasses_import_rule() -> None:
    source = (
        "from dataclasses import dataclass, field\n"
        "import dataclasses as dc\n"
        "import typing, dataclasses\n"
        "from typing import NamedTuple\n"
        "from .records import dataclasses\n"
        "import dataclasses_json\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "    return replace\n"
    )
    assert module_imports("dataclasses", source) == [1, 2, 3, 8]


#: Modules no package module imports at module level: importing fractions
#: imports decimal and numbers too, about 0.5 MB of a sweep's peak resident
#: set, for the few places that build a Fraction (frankl's threshold, the
#: reference API's ratios), which each import it where they use it.
EXACT_NUMBER_MODULES = ("fractions", "decimal", "numbers")


def module_level_imports(module: str, source: str) -> list[int]:
    """Line of each import of module_imports that runs when source is
    imported: outside every function body and every ``if TYPE_CHECKING:``
    body (its ``else`` runs)."""
    deferred = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            deferred.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.If) and (
            getattr(node.test, "id", None) == "TYPE_CHECKING"
            or getattr(node.test, "attr", None) == "TYPE_CHECKING"
        ):
            deferred.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return [line for line in module_imports(module, source) if line not in deferred]


def test_package_imports_no_exact_number_module_at_module_level() -> None:
    imports = [
        f"{path.name}:{line}: {module}"
        for path in PACKAGE
        for module in EXACT_NUMBER_MODULES
        for line in module_level_imports(module, path.read_text(encoding="utf-8"))
    ]
    assert imports == []


def test_exact_number_import_rule() -> None:
    source = (
        "from fractions import Fraction\n"
        "import numbers, decimal\n"
        "import typing\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "else:\n"
        "    import fractions\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    return Fraction(1, 2)\n"
        "class C:\n"
        "    import fractions\n"
        "    def g(self):\n"
        "        import decimal\n"
        "try:\n"
        "    import decimal\n"
        "except ImportError:\n"
        "    pass\n"
        "import fractionsx\n"
        "if typing.TYPE_CHECKING:\n"
        "    import numbers\n"
    )
    found = {module: module_level_imports(module, source) for module in EXACT_NUMBER_MODULES}
    assert found == {"fractions": [1, 7, 12], "decimal": [2, 16], "numbers": [2]}


#: Modules no package module imports: the sweep forks its workers with
#: os.fork and talks to them over pipes.  After `import crossint.cli`,
#: importing multiprocessing adds 0.6 MB to the peak resident set, and
#: multiprocessing.pool with concurrent.futures 1.6 MB, against the 5%
#: (about 0.9 MB) that the benchmark lets the sweep's peak rise.
CONCURRENCY_MODULES = ("multiprocessing", "concurrent", "threading")


def test_package_imports_no_concurrency_module() -> None:
    imports = [
        f"{path.name}:{line}: {module}"
        for path in PACKAGE
        for module in CONCURRENCY_MODULES
        for line in module_imports(module, path.read_text(encoding="utf-8"))
    ]
    assert imports == []


def test_concurrency_import_rule() -> None:
    source = (
        "import multiprocessing\n"
        "from multiprocessing.pool import Pool\n"
        "import os, concurrent.futures as cf\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import threadingx\n"
        "from . import threading\n"
        "def f():\n"
        "    import threading\n"
        "    return threading.Lock()\n"
    )
    found = {module: module_imports(module, source) for module in CONCURRENCY_MODULES}
    assert found == {"multiprocessing": [1, 2], "concurrent": [3, 4], "threading": [8]}


#: The public methods of a NamedTuple, underscored only to keep clear of its
#: field names.
NAMEDTUPLE_METHODS = {"_make", "_asdict", "_fields", "_replace"}


def _public_os_function(node: ast.Attribute) -> bool:
    """Whether node is ``os._exit``, a public function of the standard
    library underscored only to set it apart from ``sys.exit``: the exit of
    a forked process, which runs no handler of its parent's."""
    return node.attr == "_exit" and isinstance(node.value, ast.Name) and node.value.id == "os"


def private_accesses(source: str) -> list[tuple[str, int, str]]:
    """(enclosing top-level definition or "<module>", line, attribute) of
    each read or write of a single-underscore attribute in source outside
    every class body, NamedTuple's methods and ``os._exit`` aside."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, ast.ClassDef):
            return
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and node.attr not in NAMEDTUPLE_METHODS
            and not _public_os_function(node)
        ):
            found.append((where, node.lineno, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for top in ast.parse(source).body:
        visit(top, getattr(top, "name", "<module>"))
    return found


def test_package_keeps_out_of_private_state() -> None:
    accesses = [
        f"{path.name}:{line}: {where} reaches {attr}"
        for path in PACKAGE
        for where, line, attr in private_accesses(path.read_text(encoding="utf-8"))
    ]
    assert accesses == []


def test_private_access_rule() -> None:
    source = (
        "class Frozen:\n"
        "    def __eq__(self, other):\n"
        "        return self._key() == other._key()\n"
        "def dump(digest, record):\n"
        "    digest._last = record._replace(n=1)\n"
        "    return digest._by_checks, record._asdict(), type(record).__name__\n"
        "def outer():\n"
        "    class Inner:\n"
        "        def f(self, other):\n"
        "            return other._state\n"
        "    return Inner()._state\n"
        "value = Frozen()._key\n"
        "def child(worker):\n"
        "    os._exit(worker._exit)\n"
    )
    assert private_accesses(source) == [
        ("dump", 5, "_last"),
        ("dump", 6, "_by_checks"),
        ("outer", 11, "_state"),
        ("<module>", 12, "_key"),
        ("child", 14, "_exit"),
    ]
