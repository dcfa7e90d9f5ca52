"""Repo-specific AST lint pack (analysis pass 3).

Four rules, enforced with the stdlib ``ast`` module over the package's
own source (``python -m repro analyze --self``):

* ``wall-clock`` — nothing under ``repro/simulation`` may read the real
  clock (``time.time``/``perf_counter``/``monotonic``/``time_ns``,
  ``datetime.now``/``utcnow``, ``date.today``). Simulated time must come
  from the injected :class:`~repro.simulation.clock.SimulatedClock`, or
  runs stop being deterministic and freshness tests get flaky.
* ``bare-except`` — no bare ``except:`` in ``repro/engine`` or
  ``repro/replication``; swallowing ``KeyboardInterrupt`` there has hung
  replication workers before.
* ``metric-name-literal`` — every ``.counter(...)`` / ``.gauge(...)`` /
  ``.histogram(...)`` call outside ``repro/obs`` must pass the metric
  name as a string literal, so the full metric namespace is greppable.
* ``operator-children`` — a class deriving from a ``*Op`` operator base
  whose ``__init__`` takes ``child``/``children``/``left``/``right``/
  ``inputs`` must forward each of them into ``super().__init__(...)``;
  otherwise the plan walker (and the plan verifier) silently skips a
  subtree.
* ``resilience-determinism`` — ``repro/faults`` and ``repro/resilience``
  may neither read the wall clock (chaos schedules and retry backoff run
  on the injected SimulatedClock, or fault runs stop being reproducible)
  nor use bare ``except:`` (which would swallow the very faults being
  injected).
* ``session-construction`` — only ``repro/client``, ``repro/engine`` and
  ``repro/net`` may construct a raw ``Session``. Everything else goes
  through the client API (``connect()``/``Connection``), which owns
  session lifecycle; hand-made sessions bypass transaction cleanup and
  the pool's rollback-on-release guarantee. The network front end is in
  the allowlist because it is the server-side session owner: HELLO
  creates the session, disconnect cleanup rolls it back.
* ``raw-threading-lock`` — ``threading.Lock``/``RLock``/``Condition``
  may only be constructed in ``repro/common/locks.py`` and
  ``repro/engine/locks.py``. Concurrency primitives funnel through that
  chokepoint so the locking hierarchy (database latch above table locks)
  stays auditable and ad-hoc locks cannot introduce new deadlock edges.
* ``shard-ownership`` — no ``hash(...) % n`` placement arithmetic outside
  ``repro/sharding``. Python's builtin ``hash`` is salted per process, so
  ad-hoc modulo placement disagrees across runs; ownership decisions go
  through ``repro.sharding.RangePartitioner``, and anything that must
  hash a key uses ``repro.sharding.stable_hash``.
* ``compile-at-build-time`` — operator execution bodies
  (``execute_batches``, its ``_rows`` loop, ``__next__``,
  ``next_batch``) may not call ``compile_scalar`` or construct an
  ``ExpressionCompiler``. Expressions compile once when the plan is
  built and their kernels are cached with it; compiling
  inside the batch loop silently reintroduces per-execution (or
  per-row) parse cost that the plan cache exists to eliminate.
* ``net-raw-socket`` — raw transport construction (``socket.socket``,
  ``socket.create_connection``/``create_server``,
  ``asyncio.start_server``/``open_connection``) is confined to
  ``repro/net``. Every other layer reaches the network through
  ``repro.client.connect()`` with a ``tcp://`` DSN, so framing, error
  taxonomy, deadline propagation and byte accounting cannot be bypassed
  by an ad-hoc socket.
* ``overload-bounded`` — the overload-protection core
  (``repro/resilience/overload.py`` and
  ``repro/resilience/deadline.py``) must stay O(1)-state and
  non-blocking: no ``.append(...)`` calls (an admission controller that
  grows a list under overload is itself an unbounded queue), no
  ``Queue()``/``deque()`` construction without an explicit bound, and
  no ``time.sleep`` (backpressure is expressed through the virtual
  clock and rejection, never by blocking the caller's thread).
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional, Tuple

from repro.errors import AnalysisError

#: Attribute chains that read the real clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.perf_counter",
        "time.monotonic",
        "time.time_ns",
        "time.perf_counter_ns",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})

_CHILD_PARAM_NAMES = frozenset({"child", "children", "left", "right", "inputs"})


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render an ``a.b.c`` attribute/name chain, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _in_subtree(path: str, *parts: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(f"repro/{part}/" in normalized or normalized.endswith(f"repro/{part}") for part in parts)


def _check_wall_clock(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    if not _in_subtree(path, "simulation"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            yield AnalysisError(
                "wall-clock",
                f"call to {dotted}() in repro.simulation; use the injected "
                "SimulatedClock so runs stay deterministic",
                location=f"{path}:{node.lineno}",
            )


def _check_bare_except(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    if not _in_subtree(path, "engine", "replication"):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield AnalysisError(
                "bare-except",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                "catch Exception or something narrower",
                location=f"{path}:{node.lineno}",
            )


def _check_metric_names(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    if _in_subtree(path, "obs"):
        return  # the registry itself builds names dynamically
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS):
            continue
        name_arg: Optional[ast.expr] = None
        if node.args:
            name_arg = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_arg = keyword.value
                    break
        if name_arg is None:
            continue  # not a metric-registry call shape
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            yield AnalysisError(
                "metric-name-literal",
                f".{func.attr}() metric name must be a string literal so the "
                "metric namespace stays greppable",
                location=f"{path}:{node.lineno}",
            )


def _init_method(class_node: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for item in class_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return item
    return None


def _super_init_calls(func: ast.FunctionDef) -> List[ast.Call]:
    calls = []
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            calls.append(node)
    return calls


def _bare_names(node: ast.AST) -> Iterator[str]:
    """Names passed as values (not attribute bases like ``child.schema``).

    ``super().__init__(child.schema, [child])`` forwards ``child``;
    ``super().__init__(child.schema)`` only reads its schema and does not.
    """
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        for element in node.elts:
            yield from _bare_names(element)
    elif isinstance(node, ast.Starred):
        yield from _bare_names(node.value)
    elif isinstance(node, ast.Call):  # e.g. list(children), tuple(inputs)
        for argument in node.args:
            yield from _bare_names(argument)
    elif isinstance(node, ast.BinOp):  # e.g. [left] + [right]
        yield from _bare_names(node.left)
        yield from _bare_names(node.right)
    elif isinstance(node, (ast.IfExp,)):
        yield from _bare_names(node.body)
        yield from _bare_names(node.orelse)


def _check_operator_children(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = [b for b in (_dotted_name(base) for base in node.bases) if b]
        last_parts = [name.split(".")[-1] for name in base_names]
        if not any(part.endswith(("Op", "Operator")) for part in last_parts):
            continue
        init = _init_method(node)
        if init is None:
            continue
        params = {arg.arg for arg in init.args.args} | {
            arg.arg for arg in init.args.kwonlyargs
        }
        child_params = params & _CHILD_PARAM_NAMES
        if not child_params:
            continue
        super_calls = _super_init_calls(init)
        if not super_calls:
            yield AnalysisError(
                "operator-children",
                f"operator {node.name} takes {sorted(child_params)} but never "
                "calls super().__init__(), so the plan walker skips its subtree",
                location=f"{path}:{node.lineno}",
            )
            continue
        forwarded = set()
        for call in super_calls:
            for argument in list(call.args) + [kw.value for kw in call.keywords]:
                forwarded.update(_bare_names(argument))
        for missing in sorted(child_params - forwarded):
            yield AnalysisError(
                "operator-children",
                f"operator {node.name} does not forward {missing!r} into "
                "super().__init__(); unregistered children are invisible to "
                "plan walks and the verifier",
                location=f"{path}:{node.lineno}",
            )


def _check_resilience_determinism(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    if not _in_subtree(path, "faults", "resilience"):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield AnalysisError(
                    "resilience-determinism",
                    f"call to {dotted}() in the fault/resilience layer; chaos "
                    "schedules and retry backoff must run on the injected "
                    "SimulatedClock so fault runs stay reproducible",
                    location=f"{path}:{node.lineno}",
                )
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            yield AnalysisError(
                "resilience-determinism",
                "bare 'except:' in the fault/resilience layer can swallow the "
                "very faults being injected; catch specific errors",
                location=f"{path}:{node.lineno}",
            )


def _check_session_construction(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    if _in_subtree(path, "client", "engine", "net"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is not None and dotted.split(".")[-1] == "Session":
            yield AnalysisError(
                "session-construction",
                "raw Session construction outside repro.client/repro.engine; "
                "go through repro.client.connect() — connections own their "
                "sessions (transaction cleanup, pool rollback-on-release)",
                location=f"{path}:{node.lineno}",
            )


#: Files allowed to construct threading primitives directly: the lock
#: factories, the engine hierarchy built on them, and the witness (whose
#: own registry lock must be raw — instrumenting it would recurse).
_LOCK_CHOKEPOINTS = (
    "repro/common/locks.py",
    "repro/common/witness.py",
    "repro/engine/locks.py",
)

_RAW_LOCK_CALLS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Barrier",
    }
)

_RAW_LOCK_NAMES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Barrier"}
)


def _check_raw_threading_lock(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    normalized = path.replace(os.sep, "/")
    if normalized.endswith(_LOCK_CHOKEPOINTS):
        return
    imported_locks = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            for alias in node.names:
                if alias.name in _RAW_LOCK_NAMES:
                    imported_locks.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted in _RAW_LOCK_CALLS or dotted in imported_locks:
            yield AnalysisError(
                "raw-threading-lock",
                f"direct {dotted}() construction; use repro.common.locks "
                "(mutex/rmutex/condition/RWLock) so every lock sits inside "
                "the audited locking hierarchy",
                location=f"{path}:{node.lineno}",
            )


#: Method names that form an operator's execution body.
_EXECUTION_METHODS = frozenset({"execute_batches", "_rows", "__next__", "next_batch"})

#: Call targets that compile expressions (forbidden inside execution bodies).
_COMPILE_CALLS = frozenset({"compile_scalar", "ExpressionCompiler"})


def _check_compile_at_build_time(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = [b for b in (_dotted_name(base) for base in node.bases) if b]
        last_parts = [name.split(".")[-1] for name in base_names]
        if not any(part.endswith(("Op", "Operator")) for part in last_parts):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or item.name not in _EXECUTION_METHODS:
                continue
            for call in ast.walk(item):
                if not isinstance(call, ast.Call):
                    continue
                dotted = _dotted_name(call.func)
                if dotted is not None and dotted.split(".")[-1] in _COMPILE_CALLS:
                    yield AnalysisError(
                        "compile-at-build-time",
                        f"{node.name}.{item.name} calls {dotted}() at execution "
                        "time; expressions compile once at plan build and the "
                        "kernels are cached with the plan",
                        location=f"{path}:{call.lineno}",
                    )


def _check_shard_ownership(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    if _in_subtree(path, "sharding"):
        return  # the one place allowed to turn hashes into placements
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Mod):
            continue
        left = node.left
        if (
            isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name)
            and left.func.id == "hash"
        ):
            yield AnalysisError(
                "shard-ownership",
                "hash(...) % n outside repro.sharding; the builtin hash is "
                "salted per process, so modulo placement disagrees across runs "
                "— use repro.sharding.stable_hash / RangePartitioner instead",
                location=f"{path}:{node.lineno}",
            )


#: Dotted call targets that construct a raw transport (sockets, asyncio
#: streams). Confined to ``repro/net`` by the ``net-raw-socket`` rule.
_RAW_SOCKET_CALLS = frozenset(
    {
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
        "socket.socketpair",
        "asyncio.start_server",
        "asyncio.open_connection",
        "asyncio.start_unix_server",
        "asyncio.open_unix_connection",
    }
)

#: Names that, imported from socket/asyncio, construct a raw transport.
_RAW_SOCKET_NAMES = frozenset(
    {
        "create_connection",
        "create_server",
        "socketpair",
        "start_server",
        "open_connection",
        "start_unix_server",
        "open_unix_connection",
    }
)


def _check_net_raw_socket(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    if _in_subtree(path, "net"):
        return  # the one layer allowed to touch transports directly
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("socket", "asyncio"):
            for alias in node.names:
                if alias.name in _RAW_SOCKET_NAMES or alias.name == "socket":
                    imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted in _RAW_SOCKET_CALLS or dotted in imported:
            yield AnalysisError(
                "net-raw-socket",
                f"raw transport construction ({dotted}) outside repro.net; "
                "dial through repro.client.connect('tcp://...') so framing, "
                "error taxonomy and deadline propagation stay on the one "
                "audited path",
                location=f"{path}:{node.lineno}",
            )


#: Files forming the overload-protection core, which must not itself be
#: able to queue unboundedly or block (the ``overload-bounded`` rule).
_OVERLOAD_CORE = (
    "repro/resilience/overload.py",
    "repro/resilience/deadline.py",
)

#: Queue-like constructors that take their bound as an argument.
_QUEUE_CONSTRUCTORS = frozenset({"Queue", "LifoQueue", "PriorityQueue", "deque"})


def _check_overload_bounded(tree: ast.AST, path: str) -> Iterator[AnalysisError]:
    normalized = path.replace(os.sep, "/")
    if not normalized.endswith(_OVERLOAD_CORE):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "append":
            yield AnalysisError(
                "overload-bounded",
                ".append() in the overload core; an admission controller "
                "that accumulates entries under overload is itself an "
                "unbounded queue — keep state scalar (token debt, counters)",
                location=f"{path}:{node.lineno}",
            )
            continue
        dotted = _dotted_name(func)
        if dotted is None:
            continue
        leaf = dotted.split(".")[-1]
        if leaf in _QUEUE_CONSTRUCTORS:
            bounded = bool(node.args) or any(
                keyword.arg in ("maxsize", "maxlen") for keyword in node.keywords
            )
            if not bounded:
                yield AnalysisError(
                    "overload-bounded",
                    f"unbounded {leaf}() in the overload core; pass an "
                    "explicit maxsize/maxlen — the whole point of this layer "
                    "is that queues stay bounded",
                    location=f"{path}:{node.lineno}",
                )
        elif dotted in ("time.sleep", "sleep"):
            yield AnalysisError(
                "overload-bounded",
                "time.sleep in the overload core; backpressure is expressed "
                "via the virtual clock and fast rejection, never by blocking "
                "the caller's thread",
                location=f"{path}:{node.lineno}",
            )


_ALL_CHECKS = (
    _check_wall_clock,
    _check_bare_except,
    _check_metric_names,
    _check_operator_children,
    _check_resilience_determinism,
    _check_session_construction,
    _check_raw_threading_lock,
    _check_shard_ownership,
    _check_compile_at_build_time,
    _check_net_raw_socket,
    _check_overload_bounded,
)


def lint_source(source: str, path: str) -> List[AnalysisError]:
    """Run every rule against one module's source text.

    ``path`` is used both for rule scoping (several rules only apply under
    specific subpackages) and for diagnostic locations; tests pass virtual
    paths like ``"repro/simulation/fake.py"``.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            AnalysisError(
                "parse", f"module does not parse: {exc.msg}", location=f"{path}:{exc.lineno}"
            )
        ]
    diagnostics: List[AnalysisError] = []
    for check in _ALL_CHECKS:
        diagnostics.extend(check(tree, path))
    return diagnostics


def _python_files(root: str) -> Iterator[Tuple[str, str]]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                full = os.path.join(dirpath, filename)
                yield full, os.path.relpath(full, os.path.dirname(root))


def lint_package(root: Optional[str] = None) -> List[AnalysisError]:
    """Lint every module under ``root`` (default: the installed repro package)."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    diagnostics: List[AnalysisError] = []
    for full_path, rel_path in _python_files(root):
        with open(full_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        diagnostics.extend(lint_source(source, rel_path))
    return diagnostics
