"""Whole-program call graph: the skeleton of interprocedural analysis.

A rule that sees one file at a time (RPR001–004) cannot see a config read
buried in a helper called by a cached transform, or mutable state
captured into a ``map_shards`` worker — exactly the bug classes PR 3 and
PR 6 fixed by hand.  This module reads and parses every file of a run
(once) and builds the structure the whole-program rules (RPR101–104,
:mod:`repro.analysis.rules`) reason over:

* a **module index** over a package tree (dotted names recovered from
  ``__init__.py`` chains, so ``src/repro/core/engine.py`` is
  ``repro.core.engine``), with each module's
  :class:`~repro.analysis.linter.ImportMap` extended to resolve
  *relative* imports;
* a **function index** keyed by dotted qualname
  (``repro.core.engine.StageContext.map_shards``,
  ``pkg.mod.outer.<locals>.inner`` for closures), recording lexical
  scope facts the effect pass needs — local/enclosing names,
  ``global``/``nonlocal`` declarations, generator-ness;
* **call edges** resolved through import aliases, module-level names,
  ``self``/``cls`` method dispatch (following known base classes),
  locally-constructed instances (``lane = ShippingLane(...)`` makes
  ``lane.ship()`` resolve), ``functools.partial``, and *references* —
  a known function passed as an argument (a stage transform, a shard
  callable, a callback) contributes an edge even though the call happens
  elsewhere, which is what makes effect propagation sound for
  callable-passing code;
* **binding sites**: where callables meet the cache or the shard pool —
  ``flow.stage(name, fn, cache_params=...)`` / ``Stage(...)``
  registrations, ``transforms={...}`` dictionaries handed to the
  single-construction-site flow builders, ``ctx.map_shards(fn, ...)``
  fan-outs (with or without shard-cache keys), and
  ``ShardPool(...).map(fn, ...)``.

Resolution is deliberately *under*-approximate where Python is dynamic
(no tracking through containers, attributes of unknown objects, or
``getattr``): an unresolved call contributes no edge rather than a
spurious one, so RPR1xx findings stay actionable.  The one deliberate
over-approximation is the reference edge — passing a function somewhere
counts as potentially calling it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.linter import ImportMap, ModuleSource

#: Canonical names the binding scanner keys on.
STAGE_CTOR = "repro.core.dataflow.Stage"
SHARD_POOL_CLS = "repro.core.shards.ShardPool"
PARTIAL_FNS = {"functools.partial", "partial"}


# -- indexed entities ------------------------------------------------------
@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution context."""

    name: str
    path: Path
    source: ModuleSource
    is_package: bool
    imports: ImportMap
    #: Names assigned at module body level (mutation targets for effects).
    module_globals: Set[str] = field(default_factory=set)
    #: Module-level function name -> qualname.
    functions_by_name: Dict[str, str] = field(default_factory=dict)
    #: Module-level class name -> qualname.
    classes_by_name: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function/method/lambda, with the scope facts effects need."""

    qualname: str
    module: ModuleInfo
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    lineno: int
    #: Qualname of the class this is a method of, or None.
    class_qualname: Optional[str] = None
    #: Qualname of the enclosing function for closures, or None.
    parent_qualname: Optional[str] = None
    #: Parameter and locally-bound names (including nested def names).
    local_names: Set[str] = field(default_factory=set)
    #: Names visible from enclosing *function* scopes (closure candidates).
    enclosing_names: Set[str] = field(default_factory=set)
    declared_global: Set[str] = field(default_factory=set)
    declared_nonlocal: Set[str] = field(default_factory=set)
    is_generator: bool = False

    @property
    def is_nested(self) -> bool:
        return self.parent_qualname is not None


@dataclass
class ClassInfo:
    qualname: str
    module: ModuleInfo
    node: ast.ClassDef
    #: Base-class expressions resolved to dotted names where possible.
    bases: List[str] = field(default_factory=list)
    #: Method name -> qualname.
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class CacheBinding:
    """A callable whose result the stage/shard cache may replay.

    ``kind`` is ``"stage"`` for ``flow.stage``/``Stage``/``transforms=``
    registrations and ``"shard"`` for ``map_shards(..., cache_keys=...)``
    fan-outs.  ``cache_expr`` is the declared ``cache_params`` expression
    (None when omitted), anchored in ``module`` at ``node`` for findings
    and noqa.
    """

    kind: str
    label: str
    fn_qualname: str
    module: ModuleInfo
    node: ast.AST
    cache_expr: Optional[ast.expr] = None
    declared: bool = False
    caller_qualname: Optional[str] = None


@dataclass
class ShardBinding:
    """A callable handed to the shard pool (may cross a process boundary)."""

    fn_qualname: str
    module: ModuleInfo
    node: ast.AST
    via: str  # "map_shards" | "ShardPool.map"
    cached: bool = False
    cache_expr: Optional[ast.expr] = None
    caller_qualname: Optional[str] = None


# -- module discovery ------------------------------------------------------
def source_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Files as given, directories recursively (sorted).

    A path that does not exist, or paths that together hold no Python
    file, raise ``ValueError``: a run over nothing would report "0
    findings" and pass — the same silent pass an empty rule selection is
    refused for.
    """
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.exists():
            files.append(entry)
        else:
            raise ValueError(f"path does not exist: {entry}")
    if not files:
        raise ValueError(
            "no Python files under: " + ", ".join(str(entry) for entry in paths)
        )
    return files


def module_identity(path: Path) -> Tuple[str, bool]:
    """Dotted module name and package-ness recovered from the filesystem.

    Walks up through directories containing ``__init__.py`` so files under
    an installed-layout tree get their import names; a bare file outside
    any package is just its stem.
    """
    path = path.resolve()
    is_package = path.name == "__init__.py"
    parts: List[str] = [] if is_package else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    if not parts:  # a bare __init__.py outside any package
        parts = [path.parent.name]
    return ".".join(reversed(parts)), is_package


# -- the program -----------------------------------------------------------
class Program:
    """The whole-program index: modules, functions, classes, call edges,
    and cache/shard binding sites."""

    def __init__(self) -> None:
        #: Every file that parsed, in file order — including one whose
        #: dotted name is shadowed out of :attr:`modules`.
        self.sources: List[ModuleSource] = []
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> callee qualnames (calls and references).
        self.edges: Dict[str, Set[str]] = {}
        self.cache_bindings: List[CacheBinding] = []
        self.shard_bindings: List[ShardBinding] = []
        #: Files that failed to parse: path -> the error.
        self.parse_errors: Dict[str, SyntaxError] = {}
        self._info_by_node: Dict[ast.AST, FunctionInfo] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, paths: Sequence[Union[str, Path]]) -> "Program":
        program = cls()
        for path in source_files(paths):
            program._index_module(path)
        for module in program.modules.values():
            _BodyWalker(program, module).walk_module()
        return program

    def _index_module(self, path: Path) -> None:
        try:
            source = ModuleSource.read(path)
        except SyntaxError as exc:
            self.parse_errors[str(path)] = exc
            return
        self.sources.append(source)
        name, is_package = module_identity(path)
        if name in self.modules:
            # Two files mapping to one dotted name (shadowed trees): keep
            # the first, deterministic by the sorted file walk.
            return
        module = ModuleInfo(
            name=name,
            path=path,
            source=source,
            is_package=is_package,
            imports=ImportMap(source.tree, module_name=name, is_package=is_package),
        )
        self.modules[name] = module
        _Indexer(self, module).index()

    # -- lookups -----------------------------------------------------------
    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def lookup_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Resolve ``method`` on a class, following known base classes."""
        seen: Set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


# -- pass 1: indexing ------------------------------------------------------
def _local_names(node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]) -> Set[str]:
    """Parameter names plus every name the body binds (nested defs count,
    their bodies do not)."""
    names: Set[str] = set()
    args = node.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    body = node.body if isinstance(node.body, list) else [ast.Expr(node.body)]
    for child in _walk_scope(body):
        if isinstance(child, ast.Name) and isinstance(child.ctx, (ast.Store, ast.Del)):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)
        elif isinstance(child, ast.Import):
            for alias in child.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(child, ast.ImportFrom):
            for alias in child.names:
                names.add(alias.asname or alias.name)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            names.add(child.name)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            names.update(child.names)
    return names


def _walk_scope(body: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements/expressions without descending into nested
    function/class *bodies* (their headers — decorators, defaults,
    bases — still belong to the enclosing scope)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Lambda):
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.ClassDef):
            stack.extend(node.decorator_list)
            stack.extend(node.bases)
            stack.extend(k.value for k in node.keywords)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scope_is_generator(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> bool:
    for child in _walk_scope(node.body):
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
    return False


class _Indexer:
    """Pass 1: assign qualnames and scope facts to every function/class."""

    def __init__(self, program: Program, module: ModuleInfo):
        self.program = program
        self.module = module

    def index(self) -> None:
        tree = self.module.source.tree
        for stmt in tree.body:
            self._index_stmt(stmt, prefix=self.module.name, class_q=None,
                             parent=None, enclosing=set(), module_level=True)
        self._index_lambdas(tree.body, self.module.name, None, set())

    def _index_stmt(
        self,
        stmt: ast.stmt,
        prefix: str,
        class_q: Optional[str],
        parent: Optional[FunctionInfo],
        enclosing: Set[str],
        module_level: bool,
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(stmt, prefix, class_q, parent, enclosing,
                                 module_level)
            return
        if isinstance(stmt, ast.ClassDef):
            self._index_class(stmt, prefix, parent, enclosing, module_level)
            return
        if module_level:
            for target in _assigned_names(stmt):
                self.module.module_globals.add(target)
        # Compound statements (if TYPE_CHECKING:, try, for, with) may wrap
        # defs at any level; recurse into their blocks.
        for block in _stmt_blocks(stmt):
            for inner in block:
                self._index_stmt(inner, prefix, class_q, parent,
                                 enclosing, module_level)

    def _index_function(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        prefix: str,
        class_q: Optional[str],
        parent: Optional[FunctionInfo],
        enclosing: Set[str],
        module_level: bool,
    ) -> None:
        qualname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=self.module,
            node=node,
            lineno=node.lineno,
            class_qualname=class_q,
            parent_qualname=parent.qualname if parent else None,
            local_names=_local_names(node),
            enclosing_names=set(enclosing),
            is_generator=_scope_is_generator(node),
        )
        for child in _walk_scope(node.body):
            if isinstance(child, ast.Global):
                info.declared_global.update(child.names)
            elif isinstance(child, ast.Nonlocal):
                info.declared_nonlocal.update(child.names)
        self.program.functions[qualname] = info
        self.program._info_by_node[node] = info
        if module_level and class_q is None:
            self.module.functions_by_name[node.name] = qualname
            self.module.module_globals.add(node.name)
        if class_q is not None:
            self.program.classes[class_q].methods[node.name] = qualname
        # Nested defs and lambdas get their own entries.
        child_enclosing = enclosing | info.local_names
        for stmt in node.body:
            self._index_stmt(stmt, prefix=f"{qualname}.<locals>", class_q=None,
                             parent=info, enclosing=child_enclosing,
                             module_level=False)
        self._index_lambdas(node.body, f"{qualname}.<locals>", info,
                            child_enclosing)

    def _index_class(
        self,
        node: ast.ClassDef,
        prefix: str,
        parent: Optional[FunctionInfo],
        enclosing: Set[str],
        module_level: bool,
    ) -> None:
        qualname = f"{prefix}.{node.name}"
        bases: List[str] = []
        for base in node.bases:
            resolved = self.module.imports.resolve(base)
            if resolved is None and isinstance(base, ast.Name):
                resolved = self.module.classes_by_name.get(base.id)
                if resolved is None:
                    resolved = f"{self.module.name}.{base.id}"
            if resolved:
                bases.append(resolved)
        info = ClassInfo(qualname=qualname, module=self.module,
                         node=node, bases=bases)
        self.program.classes[qualname] = info
        if module_level:
            self.module.classes_by_name[node.name] = qualname
            self.module.module_globals.add(node.name)
        for stmt in node.body:
            self._index_stmt(stmt, prefix=qualname, class_q=qualname,
                             parent=parent, enclosing=enclosing,
                             module_level=False)
        # A class body is not an enclosing scope: its lambdas (a field's
        # ``default_factory``) see only what the class itself sees.
        self._index_lambdas(node.body, qualname, parent, enclosing)

    def _index_lambdas(
        self,
        body: Sequence[ast.stmt],
        prefix: str,
        parent: Optional[FunctionInfo],
        enclosing: Set[str],
    ) -> None:
        for child in _walk_scope(body):
            if isinstance(child, ast.Lambda):
                qualname = f"{prefix}.<lambda:{child.lineno}>"
                info = FunctionInfo(
                    qualname=qualname,
                    module=self.module,
                    node=child,
                    lineno=child.lineno,
                    parent_qualname=parent.qualname if parent else None,
                    local_names=_local_names(child),
                    enclosing_names=set(enclosing),
                )
                self.program.functions[qualname] = info
                self.program._info_by_node[child] = info


def _assigned_names(stmt: ast.stmt) -> Iterator[str]:
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    yield node.id


def _stmt_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """Nested statement blocks of a compound statement (if/try/with/for)."""
    blocks: List[List[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            blocks.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        blocks.append(handler.body)
    return blocks


# -- pass 2: edges and bindings -------------------------------------------
class _Scope:
    """One lexical scope during the body walk."""

    def __init__(self, info: Optional[FunctionInfo], parent: Optional["_Scope"]):
        self.info = info
        self.parent = parent
        #: var -> function qualname (``h = helper`` / ``h = partial(fn)``)
        self.fn_aliases: Dict[str, str] = {}
        #: var -> class qualname (``lane = ShippingLane(...)``)
        self.instances: Dict[str, str] = {}
        #: name -> nested function qualname defined in this scope
        self.nested_fns: Dict[str, str] = {}
        #: name -> dotted path a function-local import binds it to
        self.imported: Dict[str, Optional[str]] = {}


class _BodyWalker:
    """Pass 2: resolve calls/references into edges; find binding sites."""

    def __init__(self, program: Program, module: ModuleInfo):
        self.program = program
        self.module = module

    # -- entry points ------------------------------------------------------
    def walk_module(self) -> None:
        scope = _Scope(None, None)
        self._prescan(self.module.source.tree.body, scope)
        self._walk_body(self.module.source.tree.body, scope, caller=None)

    # -- resolution --------------------------------------------------------
    def _resolve_function(self, node: ast.AST, scope: _Scope) -> Optional[str]:
        """Qualname of the function a Name/Attribute refers to, or None."""
        if isinstance(node, ast.Name):
            current: Optional[_Scope] = scope
            while current is not None:
                if node.id in current.nested_fns:
                    return current.nested_fns[node.id]
                if node.id in current.fn_aliases:
                    return current.fn_aliases[node.id]
                if node.id in current.imported:
                    dotted = current.imported[node.id]
                    return dotted if dotted in self.program.functions else None
                # A local binding that is *not* a known alias shadows
                # anything outer.
                if current.info is not None and node.id in current.info.local_names:
                    return None
                current = current.parent
            qualname = self.module.functions_by_name.get(node.id)
            if qualname:
                return qualname
            dotted = self.module.imports.resolve(node)
            if dotted and dotted in self.program.functions:
                return dotted
            return None
        if isinstance(node, ast.Attribute):
            dotted = self._resolve_dotted(node, scope)
            if dotted:
                if dotted in self.program.functions:
                    return dotted
                # mod.Cls.method
                head, _, tail = dotted.rpartition(".")
                if head in self.program.classes:
                    return self.program.lookup_method(head, tail)
                return None
            # self.method() / cls.method() / instance.method()
            owner = self._resolve_receiver_class(node.value, scope)
            if owner is not None:
                return self.program.lookup_method(owner, node.attr)
            return None
        if isinstance(node, ast.Call):
            # functools.partial(fn, ...) used inline.
            inner = self._partial_target(node, scope)
            if inner is not None:
                return inner
        if isinstance(node, ast.Lambda):
            info = self.program._info_by_node.get(node)
            return info.qualname if info else None
        return None

    def _resolve_class(self, node: ast.AST, scope: _Scope) -> Optional[str]:
        if isinstance(node, ast.Name):
            current: Optional[_Scope] = scope
            while current is not None:
                if node.id in current.imported:
                    return current.imported[node.id]
                if current.info is not None and node.id in current.info.local_names:
                    return None
                current = current.parent
            qualname = self.module.classes_by_name.get(node.id)
            if qualname:
                return qualname
            # An imported name resolves to its canonical dotted path even
            # when the defining module is outside the analyzed tree —
            # method lookup on an unindexed class just returns None, and
            # binding detection (ShardPool) needs the name regardless.
            return self.module.imports.resolve(node)
        if isinstance(node, ast.Attribute):
            return self._resolve_dotted(node, scope)
        return None

    def _resolve_dotted(self, node: ast.Attribute, scope: _Scope) -> Optional[str]:
        """Dotted name of an attribute chain whose head is an import.

        The head resolves through the scope chain as a bare name does: a
        scope's own imports first, then its locals and parameters, which
        shadow anything outer; only then the module's imports.
        """
        attrs: List[str] = []
        head: ast.AST = node
        while isinstance(head, ast.Attribute):
            attrs.append(head.attr)
            head = head.value
        if not isinstance(head, ast.Name):
            return None
        current: Optional[_Scope] = scope
        while current is not None:
            if head.id in current.imported:
                base = current.imported[head.id]
                return ".".join([base, *reversed(attrs)]) if base else None
            if current.info is not None and head.id in current.info.local_names:
                return None
            current = current.parent
        return self.module.imports.resolve(node)

    def _resolve_receiver_class(self, node: ast.AST, scope: _Scope) -> Optional[str]:
        """Class of the object a method is called on, where knowable."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                current: Optional[_Scope] = scope
                while current is not None:
                    if current.info is not None and current.info.class_qualname:
                        return current.info.class_qualname
                    current = current.parent
                return None
            current = scope
            while current is not None:
                if node.id in current.instances:
                    return current.instances[node.id]
                if current.info is not None and node.id in current.info.local_names:
                    return None
                current = current.parent
            return None
        if isinstance(node, ast.Call):
            return self._resolve_class(node.func, scope)
        return None

    def _partial_target(self, node: ast.Call, scope: _Scope) -> Optional[str]:
        dotted = self.module.imports.resolve(node.func)
        name = dotted or (node.func.id if isinstance(node.func, ast.Name) else None)
        if name in PARTIAL_FNS and node.args:
            return self._resolve_function(node.args[0], scope)
        return None

    # -- the walk ----------------------------------------------------------
    def _prescan(self, body: Sequence[ast.AST], scope: _Scope) -> None:
        """Record a function's own imports, then nested defs, function
        aliases, and instance bindings.

        The imports come first: a name a function imports is a local,
        but it names the imported definition, so it must not shadow it.
        """
        if scope.info is not None:
            for child in _walk_scope(list(body)):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    imports = ImportMap(
                        child, module_name=self.module.name,
                        is_package=self.module.is_package,
                    )
                    for alias in child.names:
                        local = alias.asname or alias.name.split(".")[0]
                        scope.imported[local] = imports.resolve(ast.Name(id=local))
        for child in _walk_scope(list(body)):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self.program._info_by_node.get(child)
                if info is not None:
                    scope.nested_fns[child.name] = info.qualname
            elif isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                fn = self._resolve_function(child.value, scope)
                if fn is not None:
                    scope.fn_aliases[target.id] = fn
                    continue
                if isinstance(child.value, ast.Call):
                    cls = self._resolve_class(child.value.func, scope)
                    if cls is not None:
                        scope.instances[target.id] = cls

    def _walk_body(
        self,
        body: Sequence[ast.AST],
        scope: _Scope,
        caller: Optional[FunctionInfo],
    ) -> None:
        for child in _walk_scope(list(body)):
            if isinstance(child, ast.ClassDef):
                # Class bodies execute in the enclosing scope; methods are
                # walked as the nested defs they are.
                self._walk_body(child.body, scope, caller)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                info = self.program._info_by_node.get(child)
                if info is None:
                    continue
                inner_scope = _Scope(info, scope)
                inner_body = (
                    info.node.body
                    if isinstance(info.node.body, list)
                    else [ast.Expr(info.node.body)]
                )
                self._prescan(inner_body, inner_scope)
                self._walk_body(inner_body, inner_scope, caller=info)
                if isinstance(child, ast.Lambda) and caller is not None:
                    self._add_edge(caller, info.qualname)
                continue
            if isinstance(child, ast.Call):
                self._handle_call(child, scope, caller)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                target = self._resolve_function(child, scope)
                if target is not None and caller is not None:
                    self._add_edge(caller, target)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                dotted = self._resolve_dotted(child, scope)
                if dotted and dotted in self.program.functions and caller is not None:
                    self._add_edge(caller, dotted)

    def _add_edge(self, caller: FunctionInfo, callee: str) -> None:
        self.edges_for(caller.qualname).add(callee)

    def edges_for(self, qualname: str) -> Set[str]:
        return self.program.edges.setdefault(qualname, set())

    # -- call handling -----------------------------------------------------
    def _handle_call(
        self, node: ast.Call, scope: _Scope, caller: Optional[FunctionInfo]
    ) -> None:
        target = self._resolve_function(node.func, scope)
        if target is not None and caller is not None:
            self._add_edge(caller, target)
        if target is None:
            cls = self._resolve_class(node.func, scope)
            if cls is not None and caller is not None:
                init = self.program.lookup_method(cls, "__init__")
                if init is None:
                    # A dataclass's generated ``__init__`` runs its
                    # ``__post_init__``.
                    init = self.program.lookup_method(cls, "__post_init__")
                if init is not None:
                    self._add_edge(caller, init)
        self._scan_bindings(node, scope, caller)

    def _scan_bindings(
        self, node: ast.Call, scope: _Scope, caller: Optional[FunctionInfo]
    ) -> None:
        func = node.func
        caller_q = caller.qualname if caller else None

        # flow.stage(name, fn, ..., cache_params=...) / Stage(name, fn, ...)
        is_stage_method = isinstance(func, ast.Attribute) and func.attr == "stage"
        dotted = self.module.imports.resolve(func)
        is_stage_ctor = dotted == STAGE_CTOR or (
            isinstance(func, ast.Name) and func.id == "Stage"
        )
        if is_stage_method or is_stage_ctor:
            transform = _argument(node, position=1, keyword="fn")
            fn_q = self._resolve_function(transform, scope) if transform else None
            if fn_q is not None:
                cache_expr, declared = _cache_params_of(node)
                self.program.cache_bindings.append(
                    CacheBinding(
                        kind="stage",
                        label=_stage_label(node),
                        fn_qualname=fn_q,
                        module=self.module,
                        node=node,
                        cache_expr=cache_expr,
                        declared=declared,
                        caller_qualname=caller_q,
                    )
                )

        # builder(transforms={...}, cache_params=...): the repo's
        # single-construction-site idiom for the figure flows.
        transforms_kw = _keyword(node, "transforms")
        if transforms_kw is not None and isinstance(transforms_kw, ast.Dict):
            cache_expr, declared = _cache_params_of(node)
            for key, value in zip(transforms_kw.keys, transforms_kw.values):
                fn_q = self._resolve_function(value, scope)
                if fn_q is None:
                    continue
                label = (
                    repr(key.value)
                    if isinstance(key, ast.Constant)
                    else "<dynamic>"
                )
                self.program.cache_bindings.append(
                    CacheBinding(
                        kind="stage",
                        label=label,
                        fn_qualname=fn_q,
                        module=self.module,
                        node=value,
                        cache_expr=cache_expr,
                        declared=declared,
                        caller_qualname=caller_q,
                    )
                )

        # ctx.map_shards(fn, items, cache_keys=..., cache_params=...).
        if isinstance(func, ast.Attribute) and func.attr == "map_shards":
            shard_fn = _argument(node, position=0, keyword="fn")
            fn_q = self._resolve_function(shard_fn, scope) if shard_fn else None
            if fn_q is not None:
                cached = _keyword(node, "cache_keys") is not None
                cache_expr, declared = _cache_params_of(node)
                self.program.shard_bindings.append(
                    ShardBinding(
                        fn_qualname=fn_q,
                        module=self.module,
                        node=node,
                        via="map_shards",
                        cached=cached,
                        cache_expr=cache_expr,
                        caller_qualname=caller_q,
                    )
                )
                if cached:
                    self.program.cache_bindings.append(
                        CacheBinding(
                            kind="shard",
                            label=fn_q.rpartition(".")[2],
                            fn_qualname=fn_q,
                            module=self.module,
                            node=node,
                            cache_expr=cache_expr,
                            declared=declared,
                            caller_qualname=caller_q,
                        )
                    )

        # pool.map(fn, items) on a known ShardPool instance (or inline
        # ShardPool(...).map(fn, items)).
        if isinstance(func, ast.Attribute) and func.attr == "map":
            owner = self._resolve_receiver_class(func.value, scope)
            if owner == SHARD_POOL_CLS:
                shard_fn = _argument(node, position=0, keyword="fn")
                fn_q = self._resolve_function(shard_fn, scope) if shard_fn else None
                if fn_q is not None:
                    self.program.shard_bindings.append(
                        ShardBinding(
                            fn_qualname=fn_q,
                            module=self.module,
                            node=node,
                            via="ShardPool.map",
                            caller_qualname=caller_q,
                        )
                    )


def _argument(node: ast.Call, position: int, keyword: str) -> Optional[ast.expr]:
    if len(node.args) > position:
        return node.args[position]
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _cache_params_of(node: ast.Call) -> Tuple[Optional[ast.expr], bool]:
    expr = _keyword(node, "cache_params")
    if expr is None:
        return None, False
    if isinstance(expr, ast.Constant) and expr.value is None:
        return None, False
    return expr, True


def _stage_label(node: ast.Call) -> str:
    if node.args and isinstance(node.args[0], ast.Constant):
        return repr(node.args[0].value)
    for kw in node.keywords:
        if kw.arg == "name" and isinstance(kw.value, ast.Constant):
            return repr(kw.value.value)
    return "<dynamic>"
