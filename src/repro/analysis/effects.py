"""Interprocedural effect inference over the whole-program call graph.

For every function in a :class:`~repro.analysis.callgraph.Program` this
pass extracts the *local* effects its body performs, then runs a
worklist fixpoint propagating effect sets backwards over call edges, so
``summary(f)`` is the closure of everything ``f`` can reach.  Effect
kinds:

=================  ======================================================
``rng``            a draw from OS entropy or the process-global
                   ``random``/``numpy.random`` stream (seeded, locally
                   held generators are invisible — by design)
``wall_clock``     host-clock read outside the sanctioned telemetry
                   ``wall_time`` site
``config_read``    attribute read off a pipeline config object
                   (``config.x`` / ``cfg.x`` / ``self.config.x``);
                   ``Effect.param`` carries the attribute name
``env_read``       ``os.environ`` / ``os.getenv`` access
``global_mutation``   store into / in-place mutation of a module-level
                   binding
``closure_mutation``  store into / in-place mutation of an enclosing
                   function's local (a closure cell)
``handle_capture``    a closure- or module-level name bound to an OS
                   handle (open file, sqlite connection, lock) read by
                   this function; ``Effect.param`` is the handle kind
``telemetry``      a ``*.emit(...)`` telemetry emission
``fault_state``    fault-injector state touched (``*.faults``, a
                   ``FaultInjector`` method, or a captured injector)
=================  ======================================================

Effects carry their origin site (function, file, line), and the fixpoint
records *one* witness callee per inherited effect so findings can print
a call chain from a binding site down to the offending line.

The module also hosts the ``cache_params`` coverage analyser used by
RPR101: given the declared cache-params expression it computes which
config attributes the declaration folds into the cache key —
``repr(config)`` / ``str(config)`` style folds cover everything,
``dataclasses.replace(config, a=..., b=...)`` covers everything *except*
the overridden fields, ``config.attr`` covers that one attribute, and
calls into local fingerprint helpers are resolved through the program
index so the repo's ``_cache_fingerprint(config)`` idiom analyses
precisely.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Program,
    _walk_scope,
)
from repro.analysis.sites import (
    ENV_OBJECTS,
    ENV_READ_CALLS,
    HANDLE_CONSTRUCTORS,
    MUTATOR_METHODS,
    classify_call,
    is_sanctioned_site,
)

#: Names under which pipeline code conventionally holds its config.
CONFIG_NAMES = ("config", "cfg")

#: Names under which pipeline code conventionally holds a fault injector.
_INJECTOR_NAMES = ("injector", "fault_injector", "faults")

_FAULT_INJECTOR_CLS = "repro.core.faults.FaultInjector"


@dataclass(frozen=True, order=True)
class Effect:
    """One observable effect, anchored at the line that performs it."""

    kind: str
    detail: str
    qualname: str
    path: str
    line: int
    #: Kind-specific payload: the config attribute for ``config_read``,
    #: the handle kind for ``handle_capture``.
    param: str = ""


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _fn_body(info: FunctionInfo) -> List[ast.stmt]:
    body = info.node.body
    if isinstance(body, list):
        return body
    return [ast.Expr(body)]


class _LocalExtractor:
    """Extract one function's own effects (no propagation)."""

    def __init__(self, program: Program, info: FunctionInfo):
        self.program = program
        self.info = info
        self.module = info.module
        self.effects: Set[Effect] = set()
        #: Local name -> handle kind, for capture analysis downstream.
        self.handle_bindings: Dict[str, str] = {}

    # -- scope classification ----------------------------------------------
    def _classify(self, name: str) -> Optional[str]:
        """``"global"`` / ``"closure"`` / None (local or unknown)."""
        info = self.info
        if name in info.declared_global:
            return "global"
        if name in info.declared_nonlocal:
            return "closure"
        if name in info.local_names:
            return None
        if name in info.enclosing_names:
            return "closure"
        if name in self.module.module_globals:
            return "global"
        return None

    def _emit(self, kind: str, detail: str, node: ast.AST, param: str = "") -> None:
        self.effects.add(
            Effect(
                kind=kind,
                detail=detail,
                qualname=self.info.qualname,
                path=str(self.module.path),
                line=getattr(node, "lineno", self.info.lineno),
                param=param,
            )
        )

    # -- the walk ----------------------------------------------------------
    def run(self) -> None:
        if self.info.class_qualname == _FAULT_INJECTOR_CLS:
            # Injector methods *are* the fault state: anything that can
            # reach them transitively touches it.
            self._emit("fault_state", "FaultInjector method", self.info.node)
        for node in _walk_scope(_fn_body(self.info)):
            if isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Attribute):
                self._scan_attribute(node)
            elif isinstance(node, ast.Name):
                self._scan_name(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._scan_store(node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._scan_store_target(target, node, op="del")
            elif isinstance(node, ast.withitem):
                self._scan_withitem(node)

    def _resolve(self, func: ast.AST) -> Optional[str]:
        dotted = self.module.imports.resolve(func)
        if dotted is not None:
            return dotted
        if isinstance(func, ast.Name):
            return func.id
        return None

    def _scan_call(self, node: ast.Call) -> None:
        name = self._resolve(node.func)
        if name is not None:
            self._scan_named_call(node, name)
        # Mutating method call on a non-local receiver.
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATOR_METHODS:
            root = _root_name(node.func.value)
            if root is not None and root not in ("self", "cls"):
                scope = self._classify(root)
                if scope is not None:
                    self._emit(
                        f"{scope}_mutation",
                        f"{root}.{node.func.attr}(...)",
                        node,
                        param=root,
                    )
        # Telemetry emission.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "emit":
            self._emit("telemetry", "telemetry emit", node)
        # Fault-injector touch via a conventionally named receiver.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "fire":
            root = _root_name(node.func.value)
            if root in _INJECTOR_NAMES:
                self._emit("fault_state", f"{root}.fire(...)", node, param=root or "")
        # Handle construction bound to a local (for capture analysis).
        if name in HANDLE_CONSTRUCTORS:
            self._bind_handles_from_call(node, HANDLE_CONSTRUCTORS[name])

    def _scan_named_call(self, node: ast.Call, name: str) -> None:
        hazard = classify_call(name, bool(node.args or node.keywords))
        if hazard is not None:
            if not is_sanctioned_site(str(self.module.path), name):
                self._emit(*hazard, node)
        elif name in ENV_READ_CALLS or name.startswith(ENV_OBJECTS):
            self._emit("env_read", f"{name}(...)", node)

    def _scan_attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        value = node.value
        # config.attr / cfg.attr
        if isinstance(value, ast.Name) and value.id in CONFIG_NAMES:
            self._emit(
                "config_read",
                f"{value.id}.{node.attr}",
                node,
                param=node.attr,
            )
            return
        # self.config.attr / obj.cfg.attr
        if (
            isinstance(value, ast.Attribute)
            and value.attr in CONFIG_NAMES
        ):
            self._emit(
                "config_read",
                f"{_root_name(value) or '?'}.{value.attr}.{node.attr}",
                node,
                param=node.attr,
            )
            return
        # engine.faults / self.faults
        if node.attr == "faults":
            self._emit("fault_state", f"{_root_name(node) or '?'}.faults", node)
        # os.environ[...] style chains resolve at the Call/Subscript level;
        # a bare ``os.environ`` read still counts.
        dotted = self.module.imports.resolve(node)
        if dotted is not None and dotted.startswith(ENV_OBJECTS):
            self._emit("env_read", dotted, node)

    def _scan_name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        if node.id in _INJECTOR_NAMES and self._classify(node.id) is not None:
            self._emit("fault_state", f"captured injector {node.id!r}", node)

    # -- stores ------------------------------------------------------------
    def _scan_store(self, node: ast.stmt) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            self._scan_store_target(target, node)
        # Track local handle bindings: ``f = open(...)``.
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            name = self._resolve(node.value.func)
            if name in HANDLE_CONSTRUCTORS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.handle_bindings[target.id] = HANDLE_CONSTRUCTORS[name]

    def _scan_store_target(
        self, target: ast.AST, node: ast.stmt, op: str = "="
    ) -> None:
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._scan_store_target(elt, node, op)
            return
        if isinstance(target, ast.Name):
            # Rebinding a plain local is not an effect; rebinding through
            # ``global``/``nonlocal`` is.
            if target.id in self.info.declared_global:
                self._emit("global_mutation", f"{target.id} {op}", node,
                           param=target.id)
            elif target.id in self.info.declared_nonlocal:
                self._emit("closure_mutation", f"{target.id} {op}", node,
                           param=target.id)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _root_name(target)
            if root is None or root in ("self", "cls"):
                return
            scope = self._classify(root)
            if scope is not None:
                suffix = "[...]" if isinstance(target, ast.Subscript) else (
                    f".{target.attr}"
                )
                self._emit(
                    f"{scope}_mutation",
                    f"{root}{suffix} {op}",
                    node,
                    param=root,
                )

    def _scan_withitem(self, node: ast.withitem) -> None:
        if not isinstance(node.context_expr, ast.Call):
            return
        name = self._resolve(node.context_expr.func)
        if name in HANDLE_CONSTRUCTORS and isinstance(
            node.optional_vars, ast.Name
        ):
            self.handle_bindings[node.optional_vars.id] = HANDLE_CONSTRUCTORS[name]

    def _bind_handles_from_call(self, node: ast.Call, kind: str) -> None:
        # ``with``/``=`` forms are handled at their statements; nothing to
        # bind for a bare call expression.
        del node, kind


def _module_handle_bindings(module: ModuleInfo) -> Dict[str, str]:
    """Module-level names bound to handle constructors."""
    bindings: Dict[str, str] = {}
    for node in _walk_scope(module.source.tree.body):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            dotted = module.imports.resolve(node.value.func)
            if dotted is None and isinstance(node.value.func, ast.Name):
                dotted = node.value.func.id
            if dotted in HANDLE_CONSTRUCTORS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = HANDLE_CONSTRUCTORS[dotted]
    return bindings


class EffectMap:
    """Local and transitive effect sets for every program function."""

    def __init__(self, program: Program):
        self.program = program
        self.local: Dict[str, FrozenSet[Effect]] = {}
        self.summary: Dict[str, FrozenSet[Effect]] = {}
        #: (qualname, inherited effect) -> witness callee it came through.
        self._via: Dict[Tuple[str, Effect], str] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def compute(cls, program: Program) -> "EffectMap":
        em = cls(program)
        handle_locals: Dict[str, Dict[str, str]] = {}
        module_handles: Dict[str, Dict[str, str]] = {
            name: _module_handle_bindings(mod)
            for name, mod in program.modules.items()
        }
        locals_: Dict[str, Set[Effect]] = {}
        for info in program.iter_functions():
            extractor = _LocalExtractor(program, info)
            extractor.run()
            locals_[info.qualname] = extractor.effects
            handle_locals[info.qualname] = extractor.handle_bindings
        # Capture pass: reads of handle-bound names from outer scopes.
        for info in program.iter_functions():
            em._add_handle_captures(
                info, locals_[info.qualname], handle_locals,
                module_handles.get(info.module.name, {}),
            )
        em.local = {q: frozenset(effects) for q, effects in locals_.items()}
        em._propagate()
        return em

    def _add_handle_captures(
        self,
        info: FunctionInfo,
        effects: Set[Effect],
        handle_locals: Dict[str, Dict[str, str]],
        module_handles: Dict[str, str],
    ) -> None:
        # Handle names visible from enclosing function scopes.
        outer: Dict[str, Tuple[str, str]] = {}  # name -> (kind, scope)
        for name, kind in module_handles.items():
            outer[name] = (kind, "module")
        parent = info.parent_qualname
        chain: List[str] = []
        while parent is not None:
            chain.append(parent)
            parent_info = self.program.functions.get(parent)
            parent = parent_info.parent_qualname if parent_info else None
        for ancestor in reversed(chain):
            for name, kind in handle_locals.get(ancestor, {}).items():
                outer[name] = (kind, "closure")
        if not outer:
            return
        own_handles = handle_locals.get(info.qualname, {})
        for node in _walk_scope(_fn_body(info)):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.id
            if name in info.local_names or name in own_handles:
                continue
            if name in outer:
                kind, scope = outer[name]
                effects.add(
                    Effect(
                        kind="handle_capture",
                        detail=f"captures {scope}-level {kind} handle {name!r}",
                        qualname=info.qualname,
                        path=str(info.module.path),
                        line=node.lineno,
                        param=kind,
                    )
                )

    def _propagate(self) -> None:
        summary: Dict[str, Set[Effect]] = {
            q: set(effects) for q, effects in self.local.items()
        }
        qualnames = sorted(summary)
        changed = True
        while changed:
            changed = False
            for q in qualnames:
                mine = summary[q]
                for callee in sorted(self.program.callees(q)):
                    if callee == q:
                        continue
                    theirs = summary.get(callee)
                    if not theirs:
                        continue
                    for effect in theirs:
                        if effect not in mine:
                            mine.add(effect)
                            self._via.setdefault((q, effect), callee)
                            changed = True
        self.summary = {q: frozenset(effects) for q, effects in summary.items()}

    # -- queries -----------------------------------------------------------
    def effects_of(self, qualname: str, kinds: Optional[Sequence[str]] = None
                   ) -> List[Effect]:
        effects = self.summary.get(qualname, frozenset())
        if kinds is not None:
            effects = frozenset(e for e in effects if e.kind in kinds)
        return sorted(effects)

    def config_reads(self, qualname: str) -> Dict[str, Effect]:
        """Config attribute -> one witness read, over the closure."""
        reads: Dict[str, Effect] = {}
        for effect in self.effects_of(qualname, kinds=("config_read",)):
            reads.setdefault(effect.param, effect)
        return reads

    def chain(self, qualname: str, effect: Effect, limit: int = 12) -> List[str]:
        """Call chain from ``qualname`` down to the effect's origin."""
        path = [qualname]
        seen = {qualname}
        current = qualname
        while effect not in self.local.get(current, frozenset()):
            step = self._via.get((current, effect))
            if step is None or step in seen or len(path) >= limit:
                break
            path.append(step)
            seen.add(step)
            current = step
        return path


# -- cache_params coverage -------------------------------------------------
_REPLACE_FNS = {"dataclasses.replace", "replace"}
_FOLD_FNS = {
    "repr",
    "str",
    "format",
    "hash",
    "vars",
    "asdict",
    "astuple",
    "dataclasses.asdict",
    "dataclasses.astuple",
    "json.dumps",
}


@dataclass
class Coverage:
    """Which config attributes a ``cache_params`` declaration folds in.

    ``folds`` holds one entry per whole-config fold, each the set of
    attribute names that fold *excludes* (``replace(config, a=...)``
    excludes ``a``); ``named`` holds individually folded attributes.
    """

    folds: List[FrozenSet[str]] = field(default_factory=list)
    named: Set[str] = field(default_factory=set)

    def covers(self, attr: str) -> bool:
        if attr in self.named:
            return True
        return any(attr not in excluded for excluded in self.folds)


def analyze_cache_params(
    expr: Optional[ast.expr],
    module: ModuleInfo,
    program: Program,
) -> Coverage:
    """Coverage of a declared ``cache_params`` expression.

    Resolves calls to module-local fingerprint helpers through the
    program index (depth-limited), so the repo's
    ``cache_params=_cache_fingerprint(config)`` idiom analyses down to
    the ``repr(replace(config, workers=1, ...))`` inside the helper.
    """
    coverage = Coverage()
    if expr is not None:
        _cover(expr, module, program, coverage, depth=0, seen=set())
    return coverage


def _cover(
    node: ast.AST,
    module: ModuleInfo,
    program: Program,
    cov: Coverage,
    depth: int,
    seen: Set[str],
) -> None:
    if isinstance(node, ast.Call):
        dotted = module.imports.resolve(node.func)
        bare = node.func.id if isinstance(node.func, ast.Name) else None
        name = dotted or bare
        if name in _REPLACE_FNS and node.args:
            if _is_config_name(node.args[0]):
                cov.folds.append(
                    frozenset(kw.arg for kw in node.keywords if kw.arg)
                )
                for arg in node.args[1:]:
                    _cover(arg, module, program, cov, depth, seen)
                return
        target = None
        if bare is not None and bare in module.functions_by_name:
            target = module.functions_by_name[bare]
        elif dotted is not None and dotted in program.functions:
            target = dotted
        if target is not None and name not in _FOLD_FNS:
            if target not in seen and depth < 4:
                seen.add(target)
                info = program.functions[target]
                for ret in _return_exprs(info):
                    _cover(ret, info.module, program, cov, depth + 1, seen)
            # Arguments are *not* folded by passing them to a helper —
            # only what the helper returns is.  Still descend into
            # non-config args (nested fingerprint dicts etc.).
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if not _is_config_name(arg):
                    _cover(arg, module, program, cov, depth, seen)
            return
        # Builtin fold (repr/str/asdict/...) or an unresolvable call:
        # descend generically — a bare config name inside counts as a
        # whole-config fold.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            _cover(arg, module, program, cov, depth, seen)
        return
    if isinstance(node, ast.Attribute):
        chain_root = node
        attrs: List[str] = []
        while isinstance(chain_root, ast.Attribute):
            attrs.append(chain_root.attr)
            chain_root = chain_root.value
        if isinstance(chain_root, ast.Name) and chain_root.id in CONFIG_NAMES:
            cov.named.add(attrs[-1])  # the first attribute off the config
            return
        _cover(node.value, module, program, cov, depth, seen)
        return
    if isinstance(node, ast.Name):
        if node.id in CONFIG_NAMES:
            cov.folds.append(frozenset())
        return
    for child in ast.iter_child_nodes(node):
        _cover(child, module, program, cov, depth, seen)


def _is_config_name(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in CONFIG_NAMES


def _return_exprs(info: FunctionInfo) -> Iterator[ast.expr]:
    if isinstance(info.node, ast.Lambda):
        yield info.node.body
        return
    for node in _walk_scope(info.node.body):
        if isinstance(node, ast.Return) and node.value is not None:
            yield node.value
