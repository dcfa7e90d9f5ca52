"""Static lock-order analyzer over the repo AST + a call graph.

Walks every module under the package root and extracts:

* **lock creation sites** — attributes assigned from the
  :mod:`repro.common.locks` chokepoint factories (``mutex``, ``rmutex``,
  ``condition``, ``RWLock``), from :class:`~repro.engine.locks.DatabaseLatch`
  / :class:`~repro.engine.locks.TableLockManager`, or (flagged) from raw
  ``threading`` primitives;
* **acquisition regions** — ``with lock:``, ``with rw.shared():`` /
  ``.exclusive():`` / ``.held_by(session):`` (a statement running under
  its explicit transaction's hold), ``with manager.locking(...):`` and
  ``with bound.table_locks:`` (a bound statement's table locks, which
  :class:`~repro.engine.locks.TableLocks` takes one by one), and
  bare ``acquire_*``/``release_*`` pairs (an unmatched acquire holds to
  the end of the function);
* **a call graph** — conservative resolution of ``self.method()``,
  same-module functions, explicitly imported functions, ``Class.method``
  and locals assigned from known constructors. Unresolvable calls are
  *dropped*: the analyzer under-approximates, so a missed edge is a
  missed finding, never a false alarm.

Function summaries (locks acquired, blocking operations performed) close
transitively over the call graph, then every acquisition made while a
lock is held becomes an edge in the global lock-acquisition graph, which
is checked against the modeled hierarchy
(:mod:`repro.analysis.concurrency.model`):

======================== ==============================================
rule                     finding
======================== ==============================================
``lock-order-inversion`` an edge that climbs the hierarchy (a lower
                         level held while a higher one is acquired)
``same-class-nesting``   two instances of one unordered class nested
``lock-cycle``           a cycle among same-level classes
``non-chokepoint-lock``  acquisition of a raw ``threading`` primitive
``blocking-under-latch`` I/O, ``sleep`` or a link round trip while an
                         engine latch or table lock is held (the two
                         sanctioned cache->backend forwarding sites in
                         ``engine/server.py`` report as notes)
======================== ==============================================
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.concurrency.model import (
    LEVEL_LATCH,
    LEVEL_TABLE,
    allowed_edge,
    find_cycle,
    level_for_site,
)
from repro.analysis.selflint import _python_files
from repro.errors import AnalysisError

#: Functions sanctioned to perform link round trips while holding engine
#: locks: the by-design one-directional cache -> backend forwarding of
#: DML and procedure calls (the remote tier's locks sit strictly below
#: the caller's in the cross-server nesting model). Reported as notes.
SANCTIONED_BLOCKING = frozenset(
    {
        "repro/engine/server.py::Server._forward",
    }
)

_FACTORY_LOCKS = {"mutex", "rmutex", "condition"}
_RAW_LOCK_CALLS = {"threading.Lock", "threading.RLock", "threading.Condition"}
_LINK_METHODS = {"execute_remote_sql", "execute_statement_text", "execute_rows"}
_BLOCKING_ROOTS = {"socket", "subprocess", "requests", "urllib"}

#: The lock chokepoints themselves: the raw primitives *inside* these
#: modules are the chokepoint's own implementation (RWLock's condition,
#: the witness's registry lock) — everywhere else raw acquisition is a
#: non-chokepoint-lock finding.
_CHOKEPOINT_MODULES = frozenset(
    {"repro/common/locks.py", "repro/common/witness.py"}
)


@dataclass(frozen=True)
class LockSpec:
    """One static lock class."""

    key: str  # graph key: "latch", "table", or "<path>::<owner>.<attr>"
    level: int
    ordered: bool = False
    raw: bool = False  # a raw threading primitive (non-chokepoint)
    manager: bool = False  # a TableLockManager attribute


@dataclass
class _ClassInfo:
    name: str
    path: str
    bases: List[str] = field(default_factory=list)
    methods: Set[str] = field(default_factory=set)
    lock_attrs: Dict[str, LockSpec] = field(default_factory=dict)


@dataclass
class _ModuleInfo:
    path: str
    tree: ast.Module
    classes: Dict[str, _ClassInfo] = field(default_factory=dict)
    functions: Set[str] = field(default_factory=set)
    #: imported name -> (module dotted path, original symbol or None)
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)


@dataclass
class _Summary:
    qualname: str
    path: str
    acquires: Set[LockSpec] = field(default_factory=set)
    blocking: List[Tuple[str, str]] = field(default_factory=list)  # (desc, site)
    calls: Set[str] = field(default_factory=set)
    #: direct edges: (held spec, acquired spec, site)
    edges: List[Tuple[LockSpec, LockSpec, str]] = field(default_factory=list)
    #: calls made while holding: (held specs, callee qualname, site)
    under_lock: List[Tuple[Tuple[LockSpec, ...], str, str]] = field(default_factory=list)
    #: blocking ops performed while an engine lock is held: (held, desc, site)
    blocking_under: List[Tuple[LockSpec, str, str]] = field(default_factory=list)


@dataclass
class LockOrderReport:
    """The analyzer's output: diagnostics plus the modeled graph."""

    diagnostics: List[AnalysisError]
    #: (from key, to key) -> example sites
    edges: Dict[Tuple[str, str], List[str]]
    #: key -> (level, ordered)
    classes: Dict[str, Tuple[int, bool]]

    @property
    def errors(self) -> List[AnalysisError]:
        return [diagnostic for diagnostic in self.diagnostics if diagnostic.is_error]


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _module_to_path(dotted: str, modules: Dict[str, _ModuleInfo]) -> Optional[str]:
    if not dotted.startswith("repro"):
        return None
    parts = dotted.split(".")
    flat = "/".join(parts) + ".py"
    if flat in modules:
        return flat
    package = "/".join(parts) + "/__init__.py"
    if package in modules:
        return package
    return None


def _collect_imports(tree: ast.Module) -> Dict[str, Tuple[str, Optional[str]]]:
    imports: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = (node.module, alias.name)
    return imports


def _classify_creation(
    call: ast.Call, path: str, imports: Dict[str, Tuple[str, Optional[str]]]
) -> Optional[Tuple[str, bool, bool]]:
    """What lock does this constructor call mint?

    Returns ``(kind, raw, reentrant)`` where kind is ``factory`` /
    ``rwlock`` / ``latch`` / ``manager``, or None for non-lock calls.
    A reentrant lock's self-nesting (``rmutex`` re-acquired through a
    method of the same object) is sanctioned, like ordered classes.
    """
    dotted = _dotted(call.func)
    if dotted is None:
        return None
    tail = dotted.split(".")[-1]
    if dotted in _RAW_LOCK_CALLS:
        return ("factory", True, tail != "Lock")
    if tail in _FACTORY_LOCKS:
        origin = imports.get(tail)
        if dotted in _FACTORY_LOCKS and (
            origin is None or origin[0].startswith("repro")
        ):
            return ("factory", False, tail == "rmutex")
        if dotted.startswith(("locks.", "repro.")):
            return ("factory", False, tail == "rmutex")
        return None
    if tail == "RWLock":
        return ("rwlock", False, False)
    if tail == "DatabaseLatch":
        return ("latch", False, False)
    if tail == "TableLockManager":
        return ("manager", False, False)
    if tail in {"Lock", "RLock", "Condition"}:
        origin = imports.get(tail)
        if origin is not None and origin[0] == "threading":
            return ("factory", True, tail != "Lock")
    return None


def _spec_for_creation(
    kind: str, raw: bool, reentrant: bool, path: str, owner: str, attr: str
) -> LockSpec:
    if kind == "latch":
        return LockSpec(key="latch", level=LEVEL_LATCH)
    if kind == "manager":
        return LockSpec(key=f"{path}::{owner}.{attr}", level=LEVEL_TABLE, manager=True)
    if raw and path in _CHOKEPOINT_MODULES:
        raw = False  # the chokepoint's own internals are the exemption
    return LockSpec(
        key=f"{path}::{owner}.{attr}",
        level=level_for_site(path),
        ordered=reentrant,
        raw=raw,
    )


_TABLE_SPEC = LockSpec(key="table", level=LEVEL_TABLE, ordered=True)
_LATCH_SPEC = LockSpec(key="latch", level=LEVEL_LATCH)


def _collect_module(path: str, tree: ast.Module) -> _ModuleInfo:
    info = _ModuleInfo(path=path, tree=tree, imports=_collect_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions.add(node.name)
        elif isinstance(node, ast.ClassDef):
            cls = _ClassInfo(name=node.name, path=path)
            cls.bases = [base for base in (_dotted(b) for b in node.bases) if base]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods.add(item.name)
                    for stmt in ast.walk(item):
                        if not isinstance(stmt, ast.Assign):
                            continue
                        if not isinstance(stmt.value, ast.Call):
                            continue
                        created = _classify_creation(stmt.value, path, info.imports)
                        if created is None:
                            continue
                        kind, raw, reentrant = created
                        for target in stmt.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                cls.lock_attrs[target.attr] = _spec_for_creation(
                                    kind, raw, reentrant, path, node.name, target.attr
                                )
            info.classes[node.name] = cls
    return info


class _Analyzer:
    def __init__(self, modules: Dict[str, _ModuleInfo]):
        self.modules = modules
        self.summaries: Dict[str, _Summary] = {}
        # attr name -> spec, for unambiguous cross-object references like
        # ``database.lock_manager`` (dropped when two classes disagree).
        self.global_attrs: Dict[str, Optional[LockSpec]] = {}
        for module in modules.values():
            for cls in module.classes.values():
                for attr, spec in cls.lock_attrs.items():
                    if attr in self.global_attrs:
                        existing = self.global_attrs[attr]
                        if existing is None or existing.key != spec.key:
                            self.global_attrs[attr] = None
                    else:
                        self.global_attrs[attr] = spec

    # -- call resolution ---------------------------------------------------

    def _resolve_method(
        self, module: _ModuleInfo, class_name: str, method: str, seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        seen = seen or set()
        marker = f"{module.path}::{class_name}"
        if marker in seen:
            return None
        seen.add(marker)
        cls = module.classes.get(class_name)
        if cls is None:
            origin = module.imports.get(class_name)
            if origin is None:
                return None
            target_path = _module_to_path(origin[0], self.modules)
            if target_path is None:
                return None
            return self._resolve_method(
                self.modules[target_path], origin[1] or class_name, method, seen
            )
        if method in cls.methods:
            return f"{module.path}::{class_name}.{method}"
        for base in cls.bases:
            resolved = self._resolve_method(module, base.split(".")[-1], method, seen)
            if resolved is not None:
                return resolved
        return None

    def _resolve_call(
        self,
        call: ast.Call,
        module: _ModuleInfo,
        current_class: Optional[str],
        local_classes: Dict[str, Tuple[str, str]],
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in module.functions:
                return f"{module.path}::{name}"
            if name in module.classes:
                return self._resolve_method(module, name, "__init__")
            origin = module.imports.get(name)
            if origin is not None and origin[1] is not None:
                target_path = _module_to_path(origin[0], self.modules)
                if target_path is not None:
                    target = self.modules[target_path]
                    if origin[1] in target.functions:
                        return f"{target_path}::{origin[1]}"
                    if origin[1] in target.classes:
                        return self._resolve_method(target, origin[1], "__init__")
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and current_class is not None:
                    return self._resolve_method(module, current_class, func.attr)
                if base.id in module.classes or base.id in module.imports:
                    return self._resolve_method(module, base.id, func.attr)
                local = local_classes.get(base.id)
                if local is not None:
                    target_path, class_name = local
                    return self._resolve_method(
                        self.modules[target_path], class_name, func.attr
                    )
        return None

    # -- lock expression resolution ----------------------------------------

    def _resolve_lock(
        self,
        node: ast.AST,
        module: _ModuleInfo,
        current_class: Optional[str],
        local_locks: Dict[str, LockSpec],
    ) -> Optional[LockSpec]:
        if isinstance(node, ast.Name):
            return local_locks.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr == "latch":
                return _LATCH_SPEC
            if node.attr == "table_locks":
                return _TABLE_SPEC  # a bound statement's resolved table locks
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and current_class is not None
            ):
                cls = module.classes.get(current_class)
                if cls is not None and node.attr in cls.lock_attrs:
                    return cls.lock_attrs[node.attr]
            spec = self.global_attrs.get(node.attr)
            if spec is not None:
                return spec
            return None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "lock_for":
                return _TABLE_SPEC
        return None

    # -- blocking-call classification --------------------------------------

    def _blocking_call(
        self, call: ast.Call, module: _ModuleInfo
    ) -> Optional[str]:
        dotted = _dotted(call.func)
        if dotted is not None:
            if dotted == "time.sleep":
                return "time.sleep()"
            if dotted == "sleep":
                origin = module.imports.get("sleep")
                if origin is not None and origin[0] == "time":
                    return "time.sleep()"
            if dotted == "open":
                return "open()"
            if dotted.split(".")[0] in _BLOCKING_ROOTS:
                return f"{dotted}()"
        if isinstance(call.func, ast.Attribute):
            if call.func.attr in _LINK_METHODS:
                return f"link round trip .{call.func.attr}()"
            base = _dotted(call.func.value)
            if base is not None:
                tail = base.split(".")[-1]
                if tail == "link" or tail.endswith("_link"):
                    return f"link round trip {base}.{call.func.attr}()"
        return None

    # -- function body walk ------------------------------------------------

    def summarize_function(
        self,
        module: _ModuleInfo,
        node: ast.AST,
        qualname: str,
        current_class: Optional[str],
    ) -> _Summary:
        summary = _Summary(qualname=qualname, path=module.path)
        sanctioned = qualname in SANCTIONED_BLOCKING
        held: List[LockSpec] = []
        open_acquires: List[LockSpec] = []
        local_locks: Dict[str, LockSpec] = {}
        local_classes: Dict[str, Tuple[str, str]] = {}

        def site(item: ast.AST) -> str:
            return f"{module.path}:{getattr(item, 'lineno', 0)}"

        def note_acquire(spec: LockSpec, at: ast.AST) -> None:
            summary.acquires.add(spec)
            for holder in held:
                summary.edges.append((holder, spec, site(at)))

        def scan_calls(expr: ast.AST) -> None:
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                blocking = self._blocking_call(call, module)
                if blocking is not None and not sanctioned:
                    summary.blocking.append((blocking, site(call)))
                if blocking is not None:
                    for holder in held:
                        if holder.level in (LEVEL_LATCH, LEVEL_TABLE):
                            summary.blocking_under.append(
                                (holder, blocking, site(call))
                            )
                callee = self._resolve_call(call, module, current_class, local_classes)
                if callee is not None:
                    summary.calls.add(callee)
                    if held:
                        summary.under_lock.append((tuple(held), callee, site(call)))

        def handle_assign(stmt: ast.Assign) -> None:
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                spec = self._resolve_lock(
                    stmt.value, module, current_class, local_locks
                )
                if spec is not None:
                    local_locks[name] = spec
                if isinstance(stmt.value, ast.Call):
                    func = stmt.value.func
                    if isinstance(func, ast.Name):
                        if func.id in module.classes:
                            local_classes[name] = (module.path, func.id)
                        else:
                            origin = module.imports.get(func.id)
                            if origin is not None and origin[1] is not None:
                                target = _module_to_path(origin[0], self.modules)
                                if (
                                    target is not None
                                    and origin[1] in self.modules[target].classes
                                ):
                                    local_classes[name] = (target, origin[1])
            scan_calls(stmt.value)

        def handle_bare_call(stmt: ast.Expr) -> bool:
            """Bare acquire/release statements; True when consumed."""
            call = stmt.value
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                return False
            method = call.func.attr
            if method in ("acquire_shared", "acquire_exclusive", "acquire"):
                spec = self._resolve_lock(
                    call.func.value, module, current_class, local_locks
                )
                if spec is None:
                    return False
                note_acquire(spec, stmt)
                held.append(spec)
                open_acquires.append(spec)
                return True
            if method in ("release_shared", "release_exclusive", "release"):
                spec = self._resolve_lock(
                    call.func.value, module, current_class, local_locks
                )
                if spec is None:
                    return False
                for index in range(len(held) - 1, -1, -1):
                    if held[index].key == spec.key and held[index] in open_acquires:
                        open_acquires.remove(held[index])
                        del held[index]
                        break
                return True
            return False

        def walk_block(statements: List[ast.stmt]) -> None:
            for stmt in statements:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue  # nested definitions are summarized separately
                if isinstance(stmt, ast.With):
                    entered: List[LockSpec] = []
                    for item in stmt.items:
                        spec = self._region_spec(
                            item.context_expr, module, current_class, local_locks
                        )
                        if spec is not None:
                            note_acquire(spec, item.context_expr)
                            held.append(spec)
                            entered.append(spec)
                    walk_block(stmt.body)
                    for spec in reversed(entered):
                        held.remove(spec)
                    continue
                if isinstance(stmt, ast.Assign):
                    handle_assign(stmt)
                    continue
                if isinstance(stmt, ast.Expr):
                    if handle_bare_call(stmt):
                        continue
                    scan_calls(stmt.value)
                    continue
                if isinstance(stmt, ast.If):
                    scan_calls(stmt.test)
                    walk_block(stmt.body)
                    walk_block(stmt.orelse)
                    continue
                if isinstance(stmt, (ast.While,)):
                    scan_calls(stmt.test)
                    walk_block(stmt.body)
                    walk_block(stmt.orelse)
                    continue
                if isinstance(stmt, ast.For):
                    scan_calls(stmt.iter)
                    if current_class == "TableLocks" and isinstance(stmt.target, ast.Tuple):
                        # ``for lock, exclusive in self.locks``: a
                        # statement's resolved table locks.
                        lock = stmt.target.elts[0]
                        if isinstance(lock, ast.Name):
                            local_locks[lock.id] = _TABLE_SPEC
                    walk_block(stmt.body)
                    walk_block(stmt.orelse)
                    continue
                if isinstance(stmt, ast.Try):
                    walk_block(stmt.body)
                    for handler in stmt.handlers:
                        walk_block(handler.body)
                    walk_block(stmt.orelse)
                    walk_block(stmt.finalbody)
                    continue
                scan_calls(stmt)

        walk_block(getattr(node, "body", []))
        return summary

    def _region_spec(
        self,
        expr: ast.AST,
        module: _ModuleInfo,
        current_class: Optional[str],
        local_locks: Dict[str, LockSpec],
    ) -> Optional[LockSpec]:
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            method = expr.func.attr
            if method in ("shared", "exclusive", "held_by"):
                return self._resolve_lock(
                    expr.func.value, module, current_class, local_locks
                )
            if method == "locking":
                base = self._resolve_lock(
                    expr.func.value, module, current_class, local_locks
                )
                if base is not None and base.manager:
                    return _TABLE_SPEC
                dotted = _dotted(expr.func.value)
                if dotted is not None and dotted.split(".")[-1] == "lock_manager":
                    return _TABLE_SPEC
            return None
        return self._resolve_lock(expr, module, current_class, local_locks)

    # -- whole-package analysis --------------------------------------------

    def build_summaries(self) -> None:
        for module in self.modules.values():
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{module.path}::{node.name}"
                    self.summaries[qualname] = self.summarize_function(
                        module, node, qualname, None
                    )
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            qualname = f"{module.path}::{node.name}.{item.name}"
                            self.summaries[qualname] = self.summarize_function(
                                module, item, qualname, node.name
                            )

    def close_transitively(
        self,
    ) -> Tuple[Dict[str, Set[LockSpec]], Dict[str, List[Tuple[str, str]]]]:
        """Fixpoint of (locks acquired, blocking ops) over the call graph."""
        acquires: Dict[str, Set[LockSpec]] = {
            name: set(summary.acquires) for name, summary in self.summaries.items()
        }
        blocking: Dict[str, List[Tuple[str, str]]] = {
            name: list(summary.blocking) for name, summary in self.summaries.items()
        }
        changed = True
        while changed:
            changed = False
            for name, summary in self.summaries.items():
                for callee in summary.calls:
                    if callee == name or callee not in self.summaries:
                        continue
                    before = len(acquires[name])
                    acquires[name] |= acquires[callee]
                    if len(acquires[name]) != before:
                        changed = True
                    known = {entry for entry in blocking[name]}
                    for entry in blocking[callee]:
                        if entry not in known:
                            blocking[name].append(entry)
                            changed = True
        return acquires, blocking


def iter_package_modules(root: Optional[str] = None) -> Iterator[Tuple[str, str]]:
    """Yield ``(normalized path, source)`` for every module under root."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    for full_path, rel_path in _python_files(root):
        with open(full_path, "r", encoding="utf-8") as handle:
            yield rel_path.replace(os.sep, "/"), handle.read()


def analyze_lock_order(root: Optional[str] = None) -> LockOrderReport:
    """Run the static lock-order analysis over a package tree."""
    modules: Dict[str, _ModuleInfo] = {}
    diagnostics: List[AnalysisError] = []
    for path, source in iter_package_modules(root):
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            diagnostics.append(
                AnalysisError(
                    "parse",
                    f"module does not parse: {exc.msg}",
                    location=f"{path}:{exc.lineno}",
                )
            )
            continue
        modules[path] = _collect_module(path, tree)

    analyzer = _Analyzer(modules)
    analyzer.build_summaries()
    transitive_acquires, transitive_blocking = analyzer.close_transitively()

    classes: Dict[str, Tuple[int, bool]] = {}
    edges: Dict[Tuple[str, str], List[str]] = {}

    def note_class(spec: LockSpec) -> None:
        classes.setdefault(spec.key, (spec.level, spec.ordered))

    def note_edge(held: LockSpec, acquired: LockSpec, at: str) -> None:
        note_class(held)
        note_class(acquired)
        sites = edges.setdefault((held.key, acquired.key), [])
        if len(sites) < 3:
            sites.append(at)

    for summary in analyzer.summaries.values():
        for held, acquired, at in summary.edges:
            note_edge(held, acquired, at)
        for held_specs, callee, at in summary.under_lock:
            for acquired in transitive_acquires.get(callee, set()):
                for held in held_specs:
                    note_edge(held, acquired, at)
        for spec in summary.acquires:
            note_class(spec)
            if spec.raw:
                diagnostics.append(
                    AnalysisError(
                        "non-chokepoint-lock",
                        f"{summary.qualname} acquires a raw threading primitive "
                        f"({spec.key}); mint it through repro.common.locks so "
                        "the witness and the hierarchy see it",
                        location=summary.path,
                    )
                )

    # -- edge legality against the modeled hierarchy -----------------------
    for (held_key, acquired_key), sites in sorted(edges.items()):
        held_level, _ = classes[held_key]
        acquired_level, acquired_ordered = classes[acquired_key]
        same = held_key == acquired_key
        if allowed_edge(held_level, acquired_level, same, acquired_ordered):
            continue
        rule = "same-class-nesting" if same else "lock-order-inversion"
        detail = (
            "a second instance of an unordered class"
            if same
            else f"level {acquired_level} acquired under level {held_level}"
        )
        diagnostics.append(
            AnalysisError(
                rule,
                f"{held_key} -> {acquired_key}: {detail}",
                location=sites[0],
            )
        )

    # -- cycles over the acquisition graph ---------------------------------
    ordered_keys = {key for key, (_, ordered) in classes.items() if ordered}
    cycle = find_cycle(edges.keys(), ordered_classes=ordered_keys)
    if cycle is not None:
        diagnostics.append(
            AnalysisError(
                "lock-cycle",
                "potential deadlock: acquisition cycle "
                + " -> ".join(cycle),
                location=edges.get((cycle[0], cycle[1]), ["<graph>"])[0],
            )
        )

    # -- blocking while an engine latch / table lock is held ---------------
    for summary in analyzer.summaries.values():
        severity = "note" if summary.qualname in SANCTIONED_BLOCKING else "error"
        for held, desc, at in summary.blocking_under:
            diagnostics.append(
                AnalysisError(
                    "blocking-under-latch",
                    f"{summary.qualname} performs {desc} while holding "
                    f"{held.key}"
                    + (
                        " (sanctioned cache->backend forwarding)"
                        if severity == "note"
                        else "; every waiter on that lock stalls behind the I/O"
                    ),
                    severity=severity,
                    location=at,
                )
            )
        for held_specs, callee, at in summary.under_lock:
            if not any(h.level in (LEVEL_LATCH, LEVEL_TABLE) for h in held_specs):
                continue
            for desc, origin in transitive_blocking.get(callee, []):
                engine_held = next(
                    h for h in held_specs if h.level in (LEVEL_LATCH, LEVEL_TABLE)
                )
                diagnostics.append(
                    AnalysisError(
                        "blocking-under-latch",
                        f"{summary.qualname} holds {engine_held.key} across a "
                        f"call to {callee}, which performs {desc} at {origin}",
                        location=at,
                    )
                )

    return LockOrderReport(diagnostics=diagnostics, edges=edges, classes=classes)
