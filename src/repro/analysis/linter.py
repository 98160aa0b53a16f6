"""Determinism lint framework: prove the repo's discipline at parse time.

PRs 1-4 made "byte-identical telemetry logs across execution strategies"
a hard invariant, but until now it was enforced only by example-based
tests: one unseeded ``default_rng()``, a stray ``time.time()``, or a
set iteration feeding accounting would silently break it for some flow
no test happens to cover.  This module is the framework half of
``repro.analysis``: rules (see :mod:`repro.analysis.rules`) are
registered under stable codes (``RPR001``...), and a :class:`Linter`
runs them in **one pass** — every file is read and parsed once, the
whole-program index and effect summaries (:class:`Analysis`) are built
once from those parses, and every selected rule, whether it looks at one
module or at the call graph, runs against that one object.  Findings can
be rendered as text or a machine-readable JSON report.

Suppression is explicit and per-line::

    elapsed = time.perf_counter() - start  # repro: noqa[RPR002]

A suppressed finding is still *collected* (it appears in the JSON report
with its suppression reason) but does not fail the run — the same
philosophy as the telemetry substrate: nothing is silent, everything is
accounted.

Adding a rule: subclass :class:`Rule`, set ``code``/``name``/
``description``, implement :meth:`Rule.check` (one module at a time) or
:meth:`Rule.check_program` (the whole analysis) yielding findings via
:meth:`Rule.finding` (which applies noqa automatically), and decorate
with :func:`register`.  Import the module from
``repro.analysis.rules.__init__`` so the registry sees it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

if TYPE_CHECKING:  # callgraph/effects import this module for ModuleSource
    from repro.analysis.callgraph import Program
    from repro.analysis.effects import EffectMap

#: Reserved code for files the linter cannot parse at all.
PARSE_ERROR_CODE = "RPR000"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")
_CODE_RE = re.compile(r"^RPR\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    rule: str
    message: str
    path: str
    line: int
    col: int
    #: True when the finding is silenced — by an inline
    #: ``# repro: noqa[CODE]`` or a rule's built-in allowlist.
    suppressed: bool = False
    #: Why it is silenced: ``"noqa"``, ``"allowlist"``, or ``""``.
    suppression: str = ""

    def render(self) -> str:
        note = f"  (suppressed: {self.suppression})" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}{note}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "suppressed": self.suppressed,
            "suppression": self.suppression,
        }


class ModuleSource:
    """A parsed source file plus its per-line noqa suppressions.

    A ``# repro: noqa[CODE]`` comment anchors to its *statement*, not just
    its physical line: a finding anywhere on a multi-line registration or
    call is silenced by a noqa on any of the statement's lines (most
    naturally the last, where black puts the closing paren).  Compound
    statements (``for``/``if``/``def``/...) spread only over their header
    lines — a noqa inside a loop body never silences the ``for`` line.
    """

    def __init__(self, path: Union[str, Path], text: str):
        self.path = str(path)
        self.text = text
        self.tree = ast.parse(text, filename=self.path)
        self._noqa: Dict[int, frozenset] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _NOQA_RE.search(line)
            if match:
                codes = frozenset(
                    code.strip().upper()
                    for code in match.group(1).split(",")
                    if code.strip()
                )
                self._noqa[lineno] = codes
        self._spread_noqa_over_statements()

    def _spread_noqa_over_statements(self) -> None:
        """Union each statement's noqa codes across its physical lines."""
        if not self._noqa:
            return
        spans: List[Tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            end = getattr(node, "end_lineno", None) or node.lineno
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if block:
                    end = min(end, block[0].lineno - 1)
            handlers = getattr(node, "handlers", None)
            if handlers:
                end = min(end, handlers[0].lineno - 1)
            if end > node.lineno:
                spans.append((node.lineno, end))
        for start, end in spans:
            codes = frozenset().union(
                *(self._noqa.get(line, frozenset()) for line in range(start, end + 1))
            )
            if not codes:
                continue
            for line in range(start, end + 1):
                self._noqa[line] = self._noqa.get(line, frozenset()) | codes

    @classmethod
    def read(cls, path: Union[str, Path]) -> "ModuleSource":
        return cls(path, Path(path).read_text(encoding="utf-8"))

    def suppressed_codes(self, line: int) -> frozenset:
        """Codes silenced by a ``# repro: noqa[...]`` anchored to ``line``
        (directly, or on any other line of the same statement)."""
        return self._noqa.get(line, frozenset())


class Rule:
    """Base class for lint rules.

    Subclasses set ``code`` (``RPR###``), ``name`` (short kebab-case
    slug), and ``description``, and implement one of two shapes:
    :meth:`check` for a rule that needs one module at a time, or
    :meth:`check_program` for a rule that reasons over the call graph and
    effect summaries.  Either way findings anchor to a concrete (module,
    node) site — a call, a stage registration, a ``map_shards`` fan-out —
    where an inline ``# repro: noqa[CODE]`` can silence them.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def check_program(self, analysis: "Analysis") -> Iterator[Finding]:
        """Findings over the whole analysis: by default, every module's
        :meth:`check` in file order."""
        for module in analysis.program.sources:
            yield from self.check(module)

    def finding(
        self,
        module: ModuleSource,
        node: ast.AST,
        message: str,
        suppressed: bool = False,
        suppression: str = "",
    ) -> Finding:
        """Build a finding at ``node``, applying inline noqa suppression."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if not suppressed and self.code in module.suppressed_codes(line):
            suppressed, suppression = True, "noqa"
        return Finding(
            code=self.code,
            rule=self.name,
            message=message,
            path=module.path,
            line=line,
            col=col,
            suppressed=suppressed,
            suppression=suppression,
        )


# -- registry -------------------------------------------------------------
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry by its code."""
    if not _CODE_RE.match(rule_cls.code or ""):
        raise ValueError(f"rule {rule_cls.__name__} has invalid code {rule_cls.code!r}")
    existing = _REGISTRY.get(rule_cls.code)
    if existing is not None and existing is not rule_cls:
        raise ValueError(
            f"rule code {rule_cls.code} already registered by {existing.__name__}"
        )
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def registered_rules() -> List[Type[Rule]]:
    """All registered rule classes, sorted by code (imports the rule pack)."""
    import repro.analysis.rules  # noqa: F401  - populates the registry

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def select_rules(select: Optional[Iterable[str]]) -> List[Type[Rule]]:
    """The registered rules, filtered down to ``select``ed codes.

    Unknown codes are an error naming the valid ones — a selector that
    silently matches nothing would report "0 findings" and exit 0, the
    worst possible failure mode for a CI gate.
    """
    classes = registered_rules()
    if select is None:
        return classes
    wanted = {code.strip().upper() for code in select if code.strip()}
    valid = {cls.code for cls in classes}
    unknown = wanted - valid
    if unknown:
        raise ValueError(
            f"unknown rule codes selected: {sorted(unknown)} "
            f"(valid codes: {', '.join(sorted(valid))})"
        )
    if not wanted:
        raise ValueError(
            "empty rule selection "
            f"(valid codes: {', '.join(sorted(valid))})"
        )
    return [cls for cls in classes if cls.code in wanted]


# -- import resolution ----------------------------------------------------
class ImportMap:
    """Maps local names to canonical dotted module paths.

    ``import numpy as np`` makes ``np.random.default_rng`` resolve to
    ``numpy.random.default_rng``; ``from random import Random`` makes a
    bare ``Random`` resolve to ``random.Random``.  Names not bound by an
    import resolve to ``None``, so locals shadowing module names (an
    ``rng`` variable, say) are never mistaken for module calls.

    When the importing module's own dotted name is known (the whole-program
    call graph knows it; a one-module rule does not), ``module_name`` lets
    relative imports resolve too: ``from .shards import map_shards`` inside
    ``repro.core.engine`` binds ``map_shards`` to
    ``repro.core.shards.map_shards``.
    """

    def __init__(
        self,
        tree: ast.AST,
        module_name: Optional[str] = None,
        is_package: bool = False,
    ):
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self._aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self._aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = node.module
                if node.level:
                    base = self._relative_base(
                        module_name, is_package, node.level, node.module
                    )
                    if base is None:
                        continue  # unknown package context
                elif base is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{base}.{alias.name}"

    @staticmethod
    def _relative_base(
        module_name: Optional[str],
        is_package: bool,
        level: int,
        module: Optional[str],
    ) -> Optional[str]:
        """Package that a ``from ...x import y`` resolves against."""
        if not module_name:
            return None
        # Level 1 resolves against the containing package (the module name
        # itself for a package __init__); each further level strips one
        # enclosing package — importlib's _resolve_name, statically.
        parts = module_name.split(".")
        strip = level if not is_package else level - 1
        if strip > len(parts):
            return None
        base_parts = parts[: len(parts) - strip]
        if not base_parts:
            return None
        if module:
            base_parts.append(module)
        return ".".join(base_parts)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self._aliases.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


def resolved_calls(module: ModuleSource) -> Iterator[Tuple[ast.Call, str]]:
    """Every call in ``module`` whose callee resolves through its imports,
    with the canonical dotted name (module-level statements included)."""
    imports = ImportMap(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = imports.resolve(node.func)
            if name is not None:
                yield node, name


# -- the linter -----------------------------------------------------------
@dataclass
class Analysis:
    """Everything a rule reasons over, built once per run: the parsed
    modules and whole-program index (``program``; each file is read and
    parsed exactly once, into ``program.sources``) and the effect
    summaries propagated over its call graph (``effects``)."""

    program: "Program"
    effects: "EffectMap"

    @classmethod
    def build(cls, paths: Sequence[Union[str, Path]]) -> "Analysis":
        from repro.analysis.callgraph import Program
        from repro.analysis.effects import EffectMap

        program = Program.build(paths)
        return cls(program=program, effects=EffectMap.compute(program))

    def stats(self) -> Dict[str, int]:
        return {
            "modules": len(self.program.modules),
            "functions": len(self.program.functions),
            "classes": len(self.program.classes),
            "call_edges": sum(
                len(callees) for callees in self.program.edges.values()
            ),
            "cache_bindings": len(self.program.cache_bindings),
            "shard_bindings": len(self.program.shard_bindings),
        }


class Linter:
    """Runs the selected rules (default: all) over files and trees."""

    def __init__(self, select: Optional[Iterable[str]] = None):
        self.rules: List[Rule] = [cls() for cls in select_rules(select)]

    def lint_paths(self, paths: Sequence[Union[str, Path]]) -> List[Finding]:
        """Lint files and (recursively) directories; deterministic order."""
        return self.lint(Analysis.build(paths))

    def lint(self, analysis: Analysis) -> List[Finding]:
        """Every selected rule against one analysis, plus one RPR000 per
        file that did not parse; sorted by (path, line, col, code)."""
        findings = [
            Finding(
                code=PARSE_ERROR_CODE,
                rule="parse-error",
                message=f"cannot parse file: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
            )
            for path, exc in analysis.program.parse_errors.items()
        ]
        for rule in self.rules:
            findings.extend(rule.check_program(analysis))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings


def unsuppressed(findings: Iterable[Finding]) -> List[Finding]:
    return [finding for finding in findings if not finding.suppressed]


def summary_counts(findings: Iterable[Finding]) -> Dict[str, Dict[str, int]]:
    """Per-code violation counts, split flagged vs suppressed."""
    counts: Dict[str, Dict[str, int]] = {}
    for finding in findings:
        bucket = counts.setdefault(finding.code, {"flagged": 0, "suppressed": 0})
        bucket["suppressed" if finding.suppressed else "flagged"] += 1
    return {code: counts[code] for code in sorted(counts)}


# -- reporters ------------------------------------------------------------
def render_text(
    findings: Sequence[Finding], show_suppressed: bool = False
) -> str:
    """Human-readable report: one line per finding plus a summary."""
    shown = [
        finding
        for finding in findings
        if show_suppressed or not finding.suppressed
    ]
    lines = [finding.render() for finding in shown]
    flagged = len(unsuppressed(findings))
    silenced = len(findings) - flagged
    lines.append(
        f"{flagged} finding{'s' if flagged != 1 else ''}"
        f" ({silenced} suppressed)"
    )
    return "\n".join(lines)


def report_dict(
    findings: Sequence[Finding],
    paths: Sequence[Union[str, Path]] = (),
) -> Dict[str, object]:
    """Machine-readable report (the CI artifact's lint half)."""
    return {
        "paths": [str(path) for path in paths],
        "findings": [finding.to_dict() for finding in findings],
        "summary": summary_counts(findings),
        "ok": not unsuppressed(findings),
    }
