"""The ``pinned-path`` rule: bitwise-pinned numeric code cannot drift.

The fast Sinkhorn kernels, the lockstep portfolio update and the fused
contraction core carry a bitwise contract: serial, batched and
threaded solves must produce bit-for-bit identical iterates, and the
benchmark baselines are calibrated against these exact instruction
sequences.  The project rule (ROADMAP item 5) is therefore *never
mutate a pinned path in place* — a divergent numeric variant registers
under a new solver-backend name instead.

Enforcement: a definition marked with ``#: pinned`` on its header
line::

    def sinkhorn_log_kernel_fast(...):  #: pinned

is fingerprinted by a **normalized AST hash** — docstrings stripped,
comments and formatting irrelevant by construction — and the hash is
committed to ``src/repro/analysis/pins.json``.  Lint fails when

* a marked definition's hash differs from its committed pin (the
  edit must either be reverted, moved to a new backend, or explicitly
  re-pinned with ``repro lint --update-pins``),
* a marked definition has no committed pin (new pins must be
  committed consciously), or
* ``pins.json`` carries an entry whose marked definition no longer
  exists (stale pins would silently stop guarding anything).

Doc-only and formatting-only edits never trip the rule; any semantic
edit does.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from pathlib import Path

from repro.analysis.core import (
    Finding,
    Module,
    Rule,
    iter_modules,
    qualname_walk,
)

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def _strip_docstrings(node: ast.AST) -> ast.AST:
    """Remove docstring statements everywhere under ``node`` (copied)."""
    node = copy.deepcopy(node)
    for child in ast.walk(node):
        body = getattr(child, "body", None)
        if (
            isinstance(
                child,
                (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            )
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            child.body = body[1:] or [ast.Pass()]
    return node


def fingerprint(node: ast.AST) -> str:
    """Normalized-AST SHA-256 of one definition.

    ``ast.dump`` without attributes erases line/column info, so moving
    a function or reformatting it keeps the fingerprint; changing any
    statement, operand or constant changes it.
    """
    normalized = _strip_docstrings(node)
    dump = ast.dump(normalized, annotate_fields=True, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def collect_pinned(modules) -> dict[str, tuple[str, int, str]]:
    """``qualname -> (hash, line, path)`` for every ``#: pinned`` marker.

    Qualnames are ``<rel-path>::<dotted name>``, e.g.
    ``ot/sinkhorn.py::sinkhorn_log_kernel_fast``.
    """
    pinned: dict[str, tuple[str, int, str]] = {}
    for module in modules:
        for qual, node in qualname_walk(module.tree):
            if module.marker(node, "pinned") is not None:
                key = f"{module.rel}::{qual}"
                pinned[key] = (fingerprint(node), node.lineno, module.path)
    return pinned


def load_pins(pins_path: Path | None = None) -> dict[str, str]:
    path = PINS_PATH if pins_path is None else Path(pins_path)
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def update_pins(
    root: Path | None = None, pins_path: Path | None = None
) -> dict[str, str]:
    """Regenerate ``pins.json`` from the current tree and return it."""
    path = PINS_PATH if pins_path is None else Path(pins_path)
    pins = {
        qual: digest
        for qual, (digest, _, _) in sorted(collect_pinned(iter_modules(root)).items())
    }
    path.write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return pins


class PinnedPathRule(Rule):
    rule_id = "pinned-path"
    description = (
        "definitions marked `#: pinned` must hash-match pins.json; "
        "divergent numeric variants register a new backend instead "
        "(re-pin deliberate changes with `repro lint --update-pins`)"
    )

    def __init__(
        self, pins_path: Path | None = None, check_stale: bool = True
    ):
        self.pins_path = PINS_PATH if pins_path is None else Path(pins_path)
        self.check_stale = check_stale
        self._pins = load_pins(self.pins_path)
        self._seen: set[str] = set()

    def check(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        for key, (digest, line, path) in collect_pinned([module]).items():
            self._seen.add(key)
            committed = self._pins.get(key)
            if committed is None:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        rule_id=self.rule_id,
                        message=(
                            f"{key} is marked `#: pinned` but has no entry in "
                            f"{self.pins_path.name}; commit one with "
                            "`repro lint --update-pins`"
                        ),
                    )
                )
            elif committed != digest:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        rule_id=self.rule_id,
                        message=(
                            f"{key} was modified but is bitwise-pinned: "
                            "register the variant under a new solver backend "
                            "(never mutate fused-dense), or — for a deliberate, "
                            "reviewed change — regenerate the pin with "
                            "`repro lint --update-pins`"
                        ),
                    )
                )
        return findings

    def finish(self) -> list[Finding]:
        if not self.check_stale:
            # partial-tree runs cannot distinguish "stale" from
            # "lives in an unscanned module"
            return []
        stale = sorted(set(self._pins) - self._seen)
        return [
            Finding(
                path=f"src/repro/analysis/{self.pins_path.name}",
                line=1,
                rule_id=self.rule_id,
                message=(
                    f"stale pin {key}: no `#: pinned` definition matches it; "
                    "regenerate pins.json with `repro lint --update-pins`"
                ),
            )
            for key in stale
        ]
