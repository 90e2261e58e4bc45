"""The package's design rules, each checked on one walk of each source.

Imports are used (bar the re-exports in package __init__ modules), public
exports are read, and the package imports only at module level and takes
only compare_digest from hmac. Every other rule is a row of RULES; README's
"Design rules" says what each protects. SAMPLES holds code to judge."""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

from letterseal.linevdr import RatchetState

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "letterseal"
# paths from the root, as the test ids show them
PACKAGE = sorted(p.relative_to(ROOT) for p in SRC.rglob("*.py"))
FILES = sorted(p.relative_to(ROOT) for d in ("src", "tools", "tests")
               for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
EXPORTERS = ("letterseal", "letterseal.mske")
EXPORT_LISTS = {SRC / "__init__.py", SRC / "mske" / "__init__.py"}
SCANNED = sorted(p.relative_to(ROOT) for d in ("src", "tests", "tools",
                                               "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
READERS = [p for p in SCANNED if ROOT / p not in EXPORT_LISTS]
# dict methods that change the dict they are called on
MUTATORS = {"update", "pop", "popitem", "clear", "setdefault"}

ANY = {"import", "load", "store"}
# rule: (names, kinds of mention that count, homes); a home is a file
# under src/letterseal and its enclosing scope, "" for the whole file
RULES = {
    "setup": ({"v1_establish", "v2_establish", "vdr_init_sender",
               "vdr_lazy_init_receiver"}, {"load", "store"},
              [(f, "") for f in ("linev1.py", "linev2.py", "linevdr.py",
                                 "endpoint.py")]),
    "unpack": ({"unpack", "unpack_from", "iter_unpack"}, {"import", "load"},
               [("wire.py", "_Run.read")]),
    "struct": ({"struct"}, {"module", "from"}, [("wire.py", "")]),
    "crypto_library": ({"cryptography", "hashlib"}, {"module", "from"},
                       [("crypto_suite.py", "")]),
    "threading": ({"threading"}, {"module", "from"}, []),
    "scope_list": ({"_counting", "_recording"}, ANY,
                   [("crypto_suite.py", "")]),
    "recorders": ({"Recorder"}, ANY,
                  [("crypto_suite.py", ""), ("mske/game.py", "")]),
    "report": ({"AttackReport"}, {"call"}, [("mske/attacks.py", "_report")]),
    "parties": ({"parties"}, ANY, [("mske/game.py", "")]),
    "knowledge": ({"learn_scalar", "learn_snapshot", "learn_chain"}, {"call"},
                  [("mske/game.py", "")]),
    "closure": ({"KeyClosure"}, {"call"}, [("mske/game.py", "Game.closure")]),
    "key_pair": ({"KeyPair"}, {"call"}, [("crypto_suite.py", "")]),
    # every call of the key schedule: exchange, derivation, nonce, AD and
    # each cipher, v1's CBC included
    "exchange": ({"dh", "kdf_root", "kdf_chain", "digest_kdf",
                  "_digest_kdf_raw", "aead_seal", "aead_open", "aes_cbc",
                  "cbc_encrypt", "ecb_encrypt_block", "v1_derive",
                  "v2_derive_key", "v2_build_nonce", "build_ad_v2",
                  "build_ad_vdr"}, {"call"},
                 [(f, "") for f in ("crypto_suite.py", "linev1.py",
                                    "linev2.py", "linevdr.py", "kat.py",
                                    "bench.py", "endpoint.py")]
                 + [("mske/game.py", f"KeyClosure.{f}")
                    for f in ("_static", "run")]),
    "unchecked": ({"unchecked"}, ANY,
                  [(f, "") for f in ("crypto_suite.py", "linev1.py",
                                     "linev2.py", "linevdr.py")]),
    # a protocol name or table as a comparison operand; a string constant
    # is named by its repr
    "dispatch": ({"'v1'", "'v2'", "'vdr'", "PROTO_V1", "PROTO_V2",
                  "PROTO_VDR", "DESIGNS", "_PROTOCOLS"}, {"compare"},
                 [("endpoint.py", "")]),
    # a field of a built ratchet state written, so its rules go unchecked;
    # scanned in every file of SCANNED
    "state_writes": (set(RatchetState.__slots__), {"write"},
                     [("linevdr.py", "")]),
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def operands(node):
    """The names and string constants (by repr) of a comparison operand."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield repr(node.value)
    elif isinstance(node, ast.Tuple | ast.List | ast.Set):
        for element in node.elts:
            yield from operands(element)
    elif isinstance(node, ast.Name | ast.Attribute):
        yield from (name for _, name in named(node))


def named(node):
    """(kind, name) for each name one node mentions; see mentions()."""
    if isinstance(node, ast.Name | ast.Attribute):
        kind = "store" if isinstance(node.ctx, ast.Store) else "load"
        yield kind, node.id if isinstance(node, ast.Name) else "." + node.attr
        if isinstance(node, ast.Attribute) and not isinstance(
                node.ctx, ast.Load):
            yield "write", "." + node.attr
    elif isinstance(node, ast.Subscript):
        if isinstance(node.value, ast.Attribute) and not isinstance(
                node.ctx, ast.Load):
            yield "write", "." + node.value.attr
    elif isinstance(node, ast.Compare):
        for operand in (node.left, *node.comparators):
            yield from (("compare", name) for name in operands(operand))
    elif isinstance(node, ast.Call):
        yield from (("call", name) for _, name in named(node.func))
        if isinstance(node.func, ast.Attribute) and (
                node.func.attr in MUTATORS) and isinstance(
                node.func.value, ast.Attribute):
            yield "write", "." + node.func.value.attr
        if isinstance(node.func, ast.Attribute) and (
                node.func.attr == "startswith"):
            yield from (("compare", name) for arg in node.args
                        for name in operands(arg))
    elif isinstance(node, DEFS):
        yield "store", node.name
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield from (("module", part) for part in alias.name.split("."))
            yield "bind", alias.asname or alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom):
        yield from (("from", part) for part in (node.module or "").split("."))
        for alias in node.names:
            yield "import", f"{node.module or ''}.{alias.name}"
            if node.module != "__future__":  # a directive, not a binding
                yield "bind", alias.asname or alias.name


@cache
def mentions(source: str) -> tuple[tuple[int, str, str, str], ...]:
    """(line, scope, kind, name) for each name a source mentions, parsed once
    per source. scope is the dotted path of the enclosing classes and
    functions ("" at module level). kind is "module" or "from" for each part
    of an imported module's path, "import" for a name a from-import takes
    (as "module.name"), "bind" for the name an import binds, "call" for a
    callee, "compare" for an operand of a comparison or a startswith
    argument (see operands()), "load" or "store" for a name, an attribute
    (".attr") or a definition, and "write" for an attribute assigned,
    augmented or deleted, one an item is written or deleted through, or one
    a MUTATORS method is called on."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            found.extend((child.lineno, scope, *pair) for pair in named(child))
            visit(child, f"{scope}.{child.name}".lstrip(".")
                  if isinstance(child, DEFS) else scope)

    visit(ast.parse(source), "")
    return tuple(sorted(found))


def breaks(path: Path, found) -> list[str]:
    """'line: rule' for each mention a file may not make; a file outside
    the package is home to no rule."""
    full = ROOT / path
    where = full.relative_to(SRC if full.is_relative_to(SRC) else ROOT)
    where = where.as_posix()
    out = []
    for line, scope, kind, name in found:
        out += [f"{line}: {rule}"
                for rule, (names, kinds, homes) in RULES.items()
                if kind in kinds and name.rsplit(".", 1)[-1] in names
                and not any(where == f and s in ("", scope) for f, s in homes)]
        if kind == "bind" and scope:
            out.append(f"{line}: nested_import")
        if (kind, name) == ("module", "hmac") or kind == "import" and (
                name.startswith("hmac.") and name != "hmac.compare_digest"):
            out.append(f"{line}: hmac")
    return list(dict.fromkeys(out))


def unused_imports(path: Path, found) -> list[str]:
    used = {name for _, _, kind, name in found if kind == "load"}
    return [f"{line}: {name}" for line, _, kind, name in found
            if kind == "bind" and name not in used]


def reads(path: Path, found) -> list[str]:
    """Names the source reads or imports; a definition is not a read."""
    return sorted({name.rsplit(".", 1)[-1] for _, _, kind, name in found
                   if kind in ("module", "from", "import", "load")})


@pytest.mark.parametrize("path", FILES, ids=str)
def test_no_unused_imports(path):
    assert unused_imports(path, mentions((ROOT / path).read_text())) == []


@pytest.mark.parametrize("module", EXPORTERS)
def test_every_export_is_read_somewhere(module):
    read = set().union(*(reads(p, mentions((ROOT / p).read_text()))
                         for p in READERS))
    assert sorted(set(importlib.import_module(module).__all__) - read) == []


def rule_test(*rules, paths=PACKAGE):
    @pytest.mark.parametrize("path", paths, ids=str)
    def test(path):
        assert [b for b in breaks(path, mentions((ROOT / path).read_text()))
                if b.split(": ", 1)[1] in rules] == []
    return test


# one test name per group of rules, so a failure names what it breaks
test_sessions_are_set_up_only_by_protocols_and_endpoint = rule_test("setup")
test_bytes_are_unpacked_only_by_wire_run_read = rule_test("unpack")
test_only_wire_imports_struct = rule_test("struct")
test_only_crypto_suite_imports_a_crypto_library = rule_test("crypto_library")
test_instrumentation_has_one_unthreaded_scope_list = rule_test(
    "threading", "scope_list")
test_attack_reports_are_built_only_by_report = rule_test("report")
test_key_bytes_reach_only_the_game = rule_test("recorders")
test_attacks_get_secrets_only_from_oracles = rule_test("parties")
test_only_the_game_turns_answers_into_knowledge = rule_test("knowledge")
test_only_game_closure_builds_a_closure = rule_test("closure")
test_only_crypto_suite_assembles_a_key_pair = rule_test("key_pair")
test_attacks_run_no_exchange_of_their_own = rule_test("exchange")
test_only_protocols_build_values_unchecked = rule_test("unchecked")
test_package_computes_no_hmac_through_the_stdlib = rule_test("hmac")
test_no_imports_inside_functions = rule_test("nested_import")
test_only_endpoint_tells_protocols_apart = rule_test("dispatch")
test_only_linevdr_writes_a_ratchet_state = rule_test("state_writes",
                                                     paths=SCANNED)


@pytest.mark.parametrize("rule", [r for r in RULES if RULES[r][2]])
def test_every_home_still_mentions_its_rule(rule):
    """A renamed name or home would leave its rule guarding nothing."""
    names, _, homes = RULES[rule]
    for file, scope in homes:
        found = mentions((SRC / file).read_text())
        assert any(name.rsplit(".", 1)[-1] in names and scope in ("", s)
                   for _, s, _, name in found), (file, scope)


# name: (check, source, {file it stands in: what the check returns}); most
# sources are code from earlier trees of this package
SAMPLES = {
    "unused_imports": (unused_imports, (
        "from __future__ import annotations\nimport os, os.path as osp\n"
        "from a.b import c, d as e\nprint(os, e)\n"),
        {"kat.py": ["2: osp", "3: c"]}),
    "reads": (reads, (
        "import a.b\nfrom c import d\nX = 1\ndef f(): return g.h\n"
        "k.m = X\n"), {"kat.py": ["X", "a", "b", "c", "d", "g", "h", "k"]}),
    "setup": (breaks, (
        "from .linev2 import v2_establish\nst = v2_establish(a, b)\n"
        "table = {'vdr': linevdr.vdr_init_sender}\n"),
        {"bench.py": ["2: setup", "3: setup"]}),
    "unpack": (breaks, (
        "import struct\nfrom struct import unpack\nclass R:\n"
        "    def read(self, b):\n        return self.s.unpack_from(b, 0)\n"
        "f = struct.iter_unpack\ndef g(b): return unpack('>I', b)\n"),
        {"wire.py": ["2: unpack", "5: unpack", "6: unpack", "7: unpack"]}),
    "struct": (breaks, (
        "import struct\nad = struct.pack('>IIBB', 1, 2, 3, 4)\n"
        "import os, struct as s\nfrom struct import pack, Struct\n"
        "from .wire import _Run\nimport structlog\n"),
        {"linevdr.py": ["1: struct", "3: struct", "4: struct"]}),
    "crypto_library": (breaks, (
        "import hashlib\nfrom hmac import compare_digest\n"
        "from cryptography.hazmat.primitives.ciphers import Cipher\n"
        "from cryptography.hazmat.primitives.ciphers.algorithms import AES\n"
        "from cryptography.hazmat.primitives.ciphers.modes import CBC\n"
        "from . import crypto_suite as cs\n"
        "def _digest(data): return hashlib.sha256(data).hexdigest()[:16]\n"
        "import os, cryptography.x509 as x\nfrom hashlib import sha256\n"
        "import hashlib_extras\nh = cs.hash(data).hex()[:16]\n"),
        {"crypto_suite.py": [],
         "linev1.py": [f"{n}: crypto_library" for n in (1, 3, 4, 5, 8, 9)],
         "mske/game.py": [f"{n}: crypto_library"
                          for n in (1, 3, 4, 5, 8, 9)]}),
    "hmac": (breaks, (
        "import hmac as _hmac\ndef kdf_chain(ck):\n"
        "    mk = _hmac.digest(ck, b'\\x01', 'sha256')\n"
        "    return mk, _hmac.digest(ck, b'\\x02', 'sha256')\n"
        "from hmac import compare_digest, new as make\n"
        "import hashlib, hmac\nh = hashlib.new('sha256')\n"
        "ok = hmac.compare_digest(a, b) and hmac.new(k)\n"),
        {"crypto_suite.py": ["1: hmac", "5: hmac", "6: hmac"]}),
    "nested_import": (breaks, (
        "import os\ndef f():\n    import secrets\n    if os:\n"
        "        from .wire import _Reader\n"),
        {"kat.py": ["3: nested_import", "5: nested_import"]}),
    "scope_list": (breaks, (
        "import threading\n_counter_scopes = threading.local()\n"
        "_gate_lock = threading.Lock()\nfrom threading import local\n"
        "from .crypto_suite import _scopes as s\n"
        "cs._scopes.append(recorder)\n_scopes = []\n"
        "from .crypto_suite import _counting as c\n"
        "cs._recording.append(recorder)\n_recording = []\n"),
        {"crypto_suite.py": ["1: threading", "4: threading"],
         "mske/game.py": ["1: threading", "4: threading", "8: scope_list",
                          "9: scope_list", "10: scope_list"]}),
    "report": (breaks, (
        "def attack_replay_vdr(seed: int) -> AttackReport:\n"
        "    return AttackReport(\n        name='replay_vdr',\n"
        "        succeeded=dup_accepted,\n"
        "        violated_freshness=not fresh_vdr(g, (B, 1, (0, 0))),\n"
        "        trace=g.trace.export())\ndef attack_fs_v2(seed):\n"
        "    return AttackReport(name='fs_v2', succeeded=True)\n"
        "def _report(name, g, succeeded, tested, details):\n"
        "    return AttackReport(name, succeeded, False, '', details)\n"
        "rep = mske.AttackReport('x', True, False, '')\n"),
        {"mske/attacks.py": ["2: report", "8: report", "11: report"],
         "mske/game.py": ["2: report", "8: report", "10: report",
                          "11: report"]}),
    "key_sinks": (breaks, (
        "seen = cs.Recorder()\nwith cs.Recorder() as seen:\n"
        "    pt = ep.open(env)\nopener = cs.Recorder\n"
        "from .crypto_suite import Recorder, count_ops\n"
        "with count_ops() as counts:\n    ep.seal(pt)\n"),
        {"mske/game.py": [], "mske/attacks.py": [
            "1: recorders", "2: recorders", "4: recorders", "5: recorders"]}),
    "parties": (breaks, (
        "pk_a = g.parties[A][1]\nsid, rid = f'party-{A}', f'party-{B}'\n"
        "return KeyClosure(g.parties[A][1], g.parties[B][1], envs)\n"
        "closure.learn_scalar(g.parties[B][0])\n"
        "pk = g.directory.lookup(g.kids[A])\nfor parties in pairs: pass\n"
        "ss = cs.dh(g.parties[A][0], pk)\n"),
        {"mske/game.py": ["3: closure", "7: exchange"], "mske/attacks.py": [
            "1: parties", "3: closure", "3: parties", "4: knowledge",
            "4: parties", "6: parties", "7: exchange", "7: parties"]}),
    "knowledge": (breaks, (
        "closure.learn_scalar(g.oracle_rev_ltk(B))  # the revealed ltk\n"
        "closure.learn_snapshot(snap)\nclosure = g.closure()\n"
        "learn = closure.learn_chain\n"),
        {"mske/game.py": [], "mske/attacks.py": ["1: knowledge",
                                                 "2: knowledge"]}),
    "key_pair": (breaks, (
        "eph = cs.KeyPair(sk, cs.dh_to_public(sk), cs.dh_private_key(sk))\n"
        "eph = cs.key_pair(sk)\nst.self_eph: cs.KeyPair | None = None\n"
        "from .crypto_suite import KeyPair\nst.self_eph = KeyPair(*parts)\n"),
        {"crypto_suite.py": ["3: state_writes", "5: state_writes"],
         "linevdr.py": ["1: key_pair", "5: key_pair"],
         "mske/game.py": ["1: key_pair", "3: state_writes", "5: key_pair",
                          "5: state_writes"]}),
    "exchange": (breaks, (
        "pms = cs.dh(sk_b, pk_a)  # the victim's secret recreates the pms\n"
        "pms = g.closure().pms\nrun = cs.dh\nshared = dh(key, peer)\n"
        "k_e = v2_derive_key(pms, salt)\n"
        "nonce, material = v2_build_nonce(0, adv.token(4))\n"
        "ad = build_ad_v2(honest.rid, honest.sid, honest.kid_sender,\n"
        "                 honest.kid_receiver, honest.vers, honest.ctype)\n"
        "forged = replace(honest, salt=salt, nonce_material=material,\n"
        "                 ciphertext=cs.aead_seal(k_e, nonce, forged_pt, ad))\n"
        "forged = v2_encrypt(as_peer, honest.ctype, forged_pt, rng)\n"
        "cbc = cs.aes_cbc(cs._digest_kdf_raw(pms, salt, b'Key'), iv)\n"),
        {"linev2.py": [], "endpoint.py": [],
         "mske/game.py": [f"{n}: exchange" for n in (1, 4, 5, 6, 7, 10, 12)],
         "mske/attacks.py": [f"{n}: exchange"
                             for n in (1, 4, 5, 6, 7, 10, 12)]}),
    "unchecked": (breaks, (
        "key = cs.SymmetricKey.unchecked(raw)\n"
        "rk = cs.SymmetricKey(rk)\nmake = AeadNonce.unchecked\n"
        "from .crypto_suite import unchecked\n"),
        {"linev2.py": [], "kat.py": ["1: unchecked", "3: unchecked",
                                     "4: unchecked"]}),
    "dispatch": (breaks, (
        "alice_sends = protocol != 'vdr' or (k // 2) % 2 == 0\n"
        "if protocol == 'vdr':\n    pass\nelif protocol == 'v2':\n    pass\n"
        "kdf_unit = units['KDF-digest'] if scenario.startswith('v2') \\\n"
        "    else units['KDF-chain']\n"
        "fresh = fresh_v2 if g.protocol == PROTO_V2 else fresh_vdr\n"
        "if protocol not in _PROTOCOLS:\n    raise ValueError(protocol)\n"
        "static = protocol in ('v1', 'v2')\nrow = DESIGNS[protocol]\n"
        "first = scenario == 'vdr-init'\nx = mske.PROTO_VDR\n"),
        {"endpoint.py": [], "cli.py": [
            "1: dispatch", "2: dispatch", "4: dispatch", "6: dispatch",
            "8: dispatch", "9: dispatch", "11: dispatch"]}),
    "state_writes": (breaks, (
        "sta.j_s = 0xFFFFFFFE  # the last index that can be sent\n"
        "st.j_s += 1\ndel st.rk\nst.skipped[(i, j)] = mk\n"
        "del st.skipped[stage]\nst.skipped.update(cache)\n"
        "mk = st.skipped.pop(stage)\nst.skipped.popitem()\n"
        "st.skipped.clear()\nst.skipped.setdefault(stage, mk)\n"
        "rk, ck = derive(rk, shared)\ni_r = st.i_r + 1\n"
        "mk = st.skipped.get(stage)\n"
        "last = dataclasses.replace(st, i_r=1)\n"),
        {"linevdr.py": [], "mske/game.py": [f"{n}: state_writes"
                                            for n in range(1, 11)]}),
}


@pytest.mark.parametrize("sample", SAMPLES)
def test_sample(sample):
    check, source, verdicts = SAMPLES[sample]
    assert {f: check(SRC / f, mentions(source)) for f in verdicts} == verdicts
