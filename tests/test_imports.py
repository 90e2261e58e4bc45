"""Every import in the package, the tools and the test suite is used,
every public export is used, and sessions are set up on one path.

A stdlib stand-in for a linter's unused-import rule. Package __init__
modules are skipped, since their imports are the public re-exports, and
so are __future__ imports.

A name in the public __all__ lists must be read, as a name, an attribute
or an import, somewhere in the package, the tests, the tools or the
benchmark other than those lists, so an export nothing calls is removed
rather than kept for no caller.

The protocol set-up functions are used only by the protocol modules and
by Endpoint, so every caller in the package (the game, the bench, the demo)
sets sessions up through Endpoint and that path cannot quietly fork again.

Every byte layout in the package is a wire._Run, so no module but wire
imports struct; within wire, only _Run.read unpacks.

Every HMAC in the package goes through crypto_suite's keyed pads, so no
module calls the stdlib's hmac.digest or hmac.new; compare_digest is fine.

Instrumentation has one path, crypto_suite's process-wide scope list: no
module in the package imports threading, and no module but crypto_suite
names the list, so a per-object or per-thread hook cannot come back.

Every attack report is built by attacks._report, the one place that picks
the freshness predicate, so no script can judge its stage by another.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "letterseal").rglob("*.py"))
FILES = sorted(
    p for p in [*PACKAGE, *(ROOT / "tools").rglob("*.py"),
                *(ROOT / "tests").rglob("*.py")]
    if p.name != "__init__.py")
EXPORTERS = ("letterseal", "letterseal.mske")
EXPORT_LISTS = {ROOT / "src" / Path(*m.split(".")) / "__init__.py"
                for m in EXPORTERS}
READERS = sorted(
    p for d in ("src", "tests", "tools", "perfbench")
    for p in (ROOT / d).rglob("*.py") if p not in EXPORT_LISTS)
SETUP = {"v1_establish", "v2_establish", "vdr_init_sender",
         "vdr_lazy_init_receiver"}
SETUP_USERS = sorted(
    p for p in PACKAGE
    if not (p.name.startswith("linev") or p.name == "endpoint.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for name, line
            in sorted(imported.items(), key=lambda item: (item[1], item[0]))
            if name not in used]


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from a.b import c, d as e\n"
              "print(os, e)\n")
    assert unused_imports(source) == ["2: osp", "3: c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def read_names(source: str) -> set[str]:
    """Names the source reads or imports; a definition is not a read."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def test_read_detector_skips_definitions():
    source = ("import a.b\n"
              "from c import d\n"
              "X = 1\n"
              "def f(): return g.h\n"
              "k.m = X\n")
    assert read_names(source) == {"a", "b", "c", "d", "g", "h", "k", "X"}


@pytest.mark.parametrize("module", EXPORTERS)
def test_every_export_is_read_somewhere(module):
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    exports = importlib.import_module(module).__all__
    assert sorted(set(exports) - read) == []


def setup_uses(source: str) -> list[str]:
    """Each use of a set-up function by name, as a call or as a value."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in SETUP:
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_setup_detector_sees_calls_and_values():
    source = ("from .linev2 import v2_establish\n"
              "st = v2_establish(a, b)\n"
              "table = {'vdr': linevdr.vdr_init_sender}\n")
    assert setup_uses(source) == ["2: v2_establish", "3: vdr_init_sender"]


@pytest.mark.parametrize("path", SETUP_USERS,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_sessions_are_set_up_only_by_protocols_and_endpoint(path):
    assert setup_uses(path.read_text()) == []


UNPACK = {"unpack", "unpack_from", "iter_unpack"}
UNPACK_HOME = (ROOT / "src" / "letterseal" / "wire.py", "_Run.read")


def scoped_nodes(source: str):
    """(dotted path of the enclosing classes and functions, node) pairs."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            found.append((scope, child))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def unpack_uses(source: str) -> list[str]:
    """Each read of a struct unpack function, as a name or an attribute."""
    found = []
    for scope, node in scoped_nodes(source):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in UNPACK and not isinstance(node.ctx, ast.Store):
            found.append(f"{node.lineno}: {scope or '<module>'} {name}")
    return found


def test_unpack_detector_sees_calls_aliases_and_scopes():
    source = ("import struct\n"
              "from struct import unpack\n"
              "class R:\n"
              "    def read(self, b):\n"
              "        return self.s.unpack_from(b, 0)\n"
              "f = struct.iter_unpack\n"
              "def g(b): return unpack('>I', b)\n")
    assert unpack_uses(source) == ["5: R.read unpack_from",
                                   "6: <module> iter_unpack",
                                   "7: g unpack"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_bytes_are_unpacked_only_by_wire_run_read(path):
    uses = unpack_uses(path.read_text())
    if path == UNPACK_HOME[0]:
        uses = [u for u in uses if u.split()[1] != UNPACK_HOME[1]]
    assert uses == []


STRUCT_HOME = ROOT / "src" / "letterseal" / "wire.py"


def struct_imports(source: str) -> list[str]:
    """Each import of the struct module or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {alias.name}"
                      for alias in node.names if alias.name == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            found.append(f"{node.lineno}: from struct import")
    return found


def test_struct_detector_sees_every_import_form():
    # the first two lines are the parent linevdr's AD and nonce packing
    source = ("import struct\n"
              "ad = struct.pack('>IIBB', 1, 2, 3, 4)\n"
              "import os, struct as s\n"
              "from struct import pack, Struct\n"
              "from .wire import _Run\n"
              "import structlog\n")
    assert struct_imports(source) == ["1: import struct", "3: import struct",
                                      "4: from struct import"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p != STRUCT_HOME],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_wire_imports_struct(path):
    assert struct_imports(path.read_text()) == []


HMAC_CALLS = {"digest", "new"}


def hmac_uses(source: str) -> list[str]:
    """Each import or read of hmac.digest or hmac.new, through any alias;
    hmac.compare_digest is not one."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "hmac")
        elif isinstance(node, ast.ImportFrom) and node.module == "hmac":
            found += [(node.lineno, f"from hmac import {alias.name}")
                      for alias in node.names if alias.name in HMAC_CALLS]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in HMAC_CALLS
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{line}: {use}" for line, use in sorted(found)]


def test_hmac_detector_sees_aliases_and_allows_compare_digest():
    # the first four lines are the parent crypto_suite's HMAC code
    source = ("import hmac as _hmac\n"
              "def kdf_chain(ck):\n"
              "    mk = _hmac.digest(ck, b'\\x01', 'sha256')\n"
              "    return mk, _hmac.digest(ck, b'\\x02', 'sha256')\n"
              "from hmac import compare_digest, new as make\n"
              "import hashlib, hmac\n"
              "h = hashlib.new('sha256')\n"
              "ok = hmac.compare_digest(a, b) and hmac.new(k)\n")
    assert hmac_uses(source) == ["3: _hmac.digest", "4: _hmac.digest",
                                 "5: from hmac import new", "8: hmac.new"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_computes_no_hmac_through_the_stdlib(path):
    assert hmac_uses(path.read_text()) == []


def function_level_imports(source: str) -> list[str]:
    """Each import statement inside a function body, nested ones included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{inner.lineno}: {node.name}"
                      for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return found


def test_function_import_detector_skips_module_imports():
    source = ("import os\n"
              "def f():\n"
              "    import secrets\n"
              "    if os:\n"
              "        from .wire import _Reader\n")
    assert function_level_imports(source) == ["3: f", "5: f"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_imports_inside_functions(path):
    assert function_level_imports(path.read_text()) == []


SCOPE_LIST = "_scopes"
SCOPE_HOME = ROOT / "src" / "letterseal" / "crypto_suite.py"


def scope_hooks(source: str, home: bool = False) -> list[str]:
    """Each import of threading, and, outside the list's home module, each
    use of the scope list as a name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name.split(".")[0] == "threading"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "threading":
                found.append((node.lineno, "from threading import"))
            elif not home:
                found += [(node.lineno, f"import {alias.name}")
                          for alias in node.names
                          if alias.name == SCOPE_LIST]
        elif not home:
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name == SCOPE_LIST:
                found.append((node.lineno, name))
    return [f"{line}: {use}" for line, use in sorted(found)]


def test_scope_detector_flags_threads_and_foreign_scope_lists():
    # the first four lines are the thread-local scopes of an earlier
    # crypto_suite, flagged even in the list's home module
    source = ("import threading\n"
              "_counter_scopes = threading.local()\n"
              "_gate_lock = threading.Lock()\n"
              "from threading import local\n"
              "from .crypto_suite import _scopes as s\n"
              "cs._scopes.append(recorder)\n"
              "_scopes = []\n")
    assert scope_hooks(source, home=True) == [
        "1: import threading", "4: from threading import"]
    assert scope_hooks(source) == [
        "1: import threading", "4: from threading import",
        "5: import _scopes", "6: _scopes", "7: _scopes"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_instrumentation_has_one_unthreaded_scope_list(path):
    assert scope_hooks(path.read_text(), home=path == SCOPE_HOME) == []


REPORT_HOME = (ROOT / "src" / "letterseal" / "mske" / "attacks.py", "_report")


def report_builds(source: str) -> list[str]:
    """Each call that constructs an AttackReport, by name or attribute."""
    found = []
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "AttackReport":
                found.append(f"{node.lineno}: {scope or '<module>'}")
    return found


def test_report_detector_flags_every_construction():
    # the first eight lines are from an earlier attacks.py, where each
    # script built its own report and picked its own predicate
    source = ("def attack_replay_vdr(seed: int) -> AttackReport:\n"
              "    return AttackReport(\n"
              "        name='replay_vdr',\n"
              "        succeeded=dup_accepted,\n"
              "        violated_freshness=not fresh_vdr(g, (B, 1, (0, 0))),\n"
              "        trace=g.trace.export())\n"
              "def attack_fs_v2(seed):\n"
              "    return AttackReport(name='fs_v2', succeeded=True)\n"
              "def _report(name, g, succeeded, tested, details):\n"
              "    return AttackReport(name, succeeded, False, '', details)\n"
              "rep = mske.AttackReport('x', True, False, '')\n")
    assert report_builds(source) == ["2: attack_replay_vdr", "8: attack_fs_v2",
                                     "10: _report", "11: <module>"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_attack_reports_are_built_only_by_report(path):
    builds = report_builds(path.read_text())
    if path == REPORT_HOME[0]:
        builds = [b for b in builds if b.split()[1] != REPORT_HOME[1]]
    assert builds == []
