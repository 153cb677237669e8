"""Guard against test-only library code.

A public function or method in ``src/`` whose name appears nowhere else
in ``src/`` (outside its own ``def``), nor in ``benchmarks/``,
``examples/`` or ``perfbench/``, has no caller but the tests. Such code
either grows a production caller or goes; the few that stay are listed
in :data:`KEPT` with the reason. A name counts as used when it appears
as an identifier, an attribute, an imported name or a word inside a
string literal (docstrings included, so a cross-reference counts).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Tuple

ROOT = Path(__file__).resolve().parent.parent

KEPT: Dict[str, str] = {
    "InternetModel.select_server": "docs/API.md documents it as library surface",
    "Simulator.schedule_batch": "docs/API.md documents it next to at_batch",
    "StreamRollup.bank_digests": "the CI digest check and the telemetry roadmap item read it",
    "TcpEndpoint.abort": "the only sender of an RST; its test covers the receive path's RST handling",
    "FiveTuple.direction_of": "repro.net packet primitive; only its own unit tests read it",
    "Packet.reply_template": "repro.net packet primitive; only its own unit tests read it",
    "IPv4Network.hosts": "repro.net address primitive; only its own unit test reads it",
    "InternetModel.site_of_ip": "inverse of server_ip; the tests check server addresses are site-scoped with it",
    "ResolverCatalog.by_address": "inverse of the resolver address plan; only its own unit test reads it",
    "FlowMeter.active_flows": "flow-table size; the meter tests observe expiry and eviction through it",
    "Simulator.events_processed": "event counter of the packet engine; only its own unit test reads it",
    "RainFadeProcess.mean_clear_duration_s": "stationary clear-sky sojourn; its test pins the fade chain's balance",
    "SatelliteGeometry.is_covered": "elevation-mask predicate; only its own unit test reads it",
    "Population.count_by_type": "population summary; only its own unit test reads it",
}


def _uses(path: Path) -> Iterator[Tuple[str, int]]:
    """(name, line) for every name the file mentions."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield word, node.lineno


def _public_defs(path: Path) -> Iterator[Tuple[str, str, int, int]]:
    """(qualified name, bare name, first line, last line) per public
    module-level function and class method."""

    def walk(node: ast.AST, owner: str) -> Iterator[Tuple[str, str, int, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield f"{owner}{child.name}", child.name, first, child.end_lineno
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{child.name}.")

    yield from walk(ast.parse(path.read_text()), "")


def test_only_test_code_is_listed():
    src_files = sorted((ROOT / "src").rglob("*.py"))
    src_uses: Dict[str, list] = {}
    for path in src_files:
        for name, line in _uses(path):
            src_uses.setdefault(name, []).append((path, line))
    elsewhere = {
        name
        for folder in ("benchmarks", "examples", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        for name, _ in _uses(path)
    }
    test_only = set()
    for path in src_files:
        for qualified, name, first, last in _public_defs(path):
            used = any(
                not (where == path and first <= line <= last)
                for where, line in src_uses.get(name, ())
            )
            if not used and name not in elsewhere:
                test_only.add(qualified)
    assert test_only == set(KEPT), (
        "new test-only functions (give them a production caller or delete them): "
        f"{sorted(test_only - set(KEPT))}; "
        f"listed but now used or gone (drop them from KEPT): {sorted(set(KEPT) - test_only)}"
    )
